import json
import time
from fractions import Fraction

import pytest

from mcred import checks, serialize
from mcred.cli import MAX_STABILITY_SIZE, main
from mcred.connection import Connection
from mcred.field import FieldTower
from mcred.matrices import LaurentMatrix
from mcred.series import LaurentSeries

QQ = FieldTower()


def S(coeffs, **kw):
    return LaurentSeries(QQ, coeffs, **kw)


def write_connection(path, c):
    path.write_text(serialize.dumps(serialize.encode_connection(c)))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (serialize.loads(out) if out.strip() else None)


def test_reduce_saddle_node(tmp_path, capsys):
    path = write_connection(tmp_path / "c.json", checks.sample_saddle_node())
    code, tree = run(capsys, "reduce", path)
    assert code == 0
    assert tree["root"]["kind"] == "regular_singular"
    assert tree["root"]["leaf"]["ramification"] == 2
    assert tree["restarts"] == 0


def test_reduce_writes_out_file(tmp_path, capsys):
    path = write_connection(tmp_path / "c.json", checks.sample_ramified_pair())
    out = tmp_path / "tree.json"
    code = main(["reduce", path, "--out", str(out)])
    assert code == 0
    tree = serialize.loads(out.read_text())
    assert tree["root"]["alpha"] == "1/4"
    capsys.readouterr()


def test_derham_half_residue(tmp_path, capsys):
    c = Connection(LaurentMatrix(QQ, [[S({-1: Fraction(1, 2)})]]))
    path = write_connection(tmp_path / "half.json", c)
    code, dims = run(capsys, "derham", path)
    assert code == 0
    assert dims["h0"] == 0 and dims["h1"] == 0
    assert dims["certificate"] == "spectrum-derived"


def test_derham_window_override(tmp_path, capsys):
    path = write_connection(tmp_path / "t.json", Connection(LaurentMatrix(QQ, [[S({})]])))
    code, dims = run(capsys, "derham", path, "--window", "-3", "3")
    assert code == 0
    assert (dims["h0"], dims["h1"]) == (1, 1)
    assert dims["stabilized"] is False


def test_derham_reports_heuristic_windows(tmp_path, capsys):
    path = write_connection(tmp_path / "j.json", checks.sample_jump_family(1))
    code, dims = run(capsys, "derham", path)
    assert code == 0
    assert dims["certificate"] == "window-doubling"
    assert (dims["h0"], dims["h1"]) == (2, 2)


def test_fredholm_emits_generators(tmp_path, capsys):
    c = Connection(LaurentMatrix(QQ, [[S({}), S({})], [S({}), S({})]]))
    path = write_connection(tmp_path / "z.json", c)
    code, out = run(capsys, "fredholm", path)
    assert code == 0
    assert (out["h0"], out["h1"]) == (2, 2)
    gens = out["h1_generators"]
    assert len(gens) == 2
    assert gens[0][0]["coefficients"] == [{"exp": -1, "value": "1"}]


def test_fredholm_fails_without_certificate(tmp_path, capsys):
    path = write_connection(tmp_path / "j.json", checks.sample_jump_family(1))
    code, _ = run(capsys, "fredholm", path)
    assert code == 1


def test_gauge_command(tmp_path, capsys):
    c = Connection(LaurentMatrix(QQ, [[S({-1: -1}), S({0: 1})], [S({}), S({})]]))
    g = LaurentMatrix.monomial_diagonal(QQ, [-1, 0])
    cpath = write_connection(tmp_path / "c.json", c)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize.dumps(serialize.encode_matrix(g)))
    code, moved = run(capsys, "gauge", cpath, str(gpath))
    assert code == 0
    assert moved["pole_order"] == 1
    assert moved["coefficients"] == [
        {"exp": -1, "matrix": [["0", "1"], ["0", "0"]]}]


def test_gauge_zero_divisor_exits_3(tmp_path, capsys):
    K = QQ.extend([-1, 0, 1])     # x^2 - 1: the "tower" is only a ring
    c = Connection(LaurentMatrix(K, [[LaurentSeries(K, {-1: 1})]]))
    bad = LaurentMatrix(K, [[LaurentSeries(K, {0: K.gen() - K.one()})]])
    cpath = write_connection(tmp_path / "c.json", c)
    gpath = tmp_path / "g.json"
    gpath.write_text(serialize.dumps(serialize.encode_matrix(bad)))
    code = main(["gauge", cpath, str(gpath)])
    assert code == 3
    capsys.readouterr()


def test_gauge_with_another_ramification_exits_1(tmp_path, capsys):
    cpath = write_connection(tmp_path / "c.json", checks.sample_saddle_node())
    gpath = tmp_path / "g.json"
    g = LaurentMatrix.identity(QQ, 2, ram=2)
    gpath.write_text(serialize.dumps(serialize.encode_matrix(g)))
    assert serialize.loads(gpath.read_text())["ramification"] == 2
    assert main(["gauge", cpath, str(gpath)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "ramification 2" in captured.err


def test_stability_command(capsys):
    code, obj = run(capsys, "stability", "1", "7")
    assert code == 0
    assert obj == {"n": 1, "r": 7, "bound": 0, "sharp": None}
    code, obj = run(capsys, "stability", "2", "2")
    assert code == 0
    assert obj["bound"] == 8 and obj["sharp"] == 1


def test_check_single_suite(capsys):
    code = main(["check", "gauge-action", "--seed", "1", "--count", "20"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "gauge-action: ok"


def test_check_unknown_suite_is_a_usage_error(capsys):
    for name in ("definitely-not-a-suite", "cbh"):
        code = main(["check", name])
        capsys.readouterr()
        assert code == 4


def test_check_rejects_bad_count(capsys):
    # no trial would run, so no suite may be reported ok
    for argv in (["check", "--count", "0"], ["check", "gauge-action", "--count", "-3"]):
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 4
        assert out == "" and "--count" in err


def test_generate_deterministic(tmp_path, capsys):
    code, first = run(capsys, "generate", "--seed", "5", "--count", "3")
    assert code == 0
    assert len(first["connections"]) == 3
    code, second = run(capsys, "generate", "--seed", "5", "--count", "3")
    assert serialize.dumps(first) == serialize.dumps(second)
    code, single = run(capsys, "generate", "--seed", "5")
    assert "rank" in single


def test_generate_output_feeds_reduce(tmp_path, capsys):
    out = tmp_path / "gen.json"
    assert main(["generate", "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    code, tree = run(capsys, "reduce", str(out))
    assert code == 0
    assert "root" in tree


def test_generate_rejects_bad_count(capsys):
    code = main(["generate", "--count", "0"])
    capsys.readouterr()
    assert code == 4


def test_precision_exhaustion_exit_code(tmp_path, capsys):
    c = checks.sample_saddle_node().truncate(-1)
    path = write_connection(tmp_path / "short.json", c)
    code = main(["reduce", path])
    err = capsys.readouterr().err
    assert code == 2
    assert "precision" in err.lower()


def test_parse_errors_exit_4(tmp_path, capsys):
    garbage = tmp_path / "bad.json"
    garbage.write_text("{this is not json")
    assert main(["reduce", str(garbage)]) == 4
    assert main(["reduce", str(tmp_path / "missing.json")]) == 4
    wrong = tmp_path / "wrong.json"
    enc = serialize.encode_connection(checks.sample_saddle_node())
    enc["pole_order"] = 9
    wrong.write_text(serialize.dumps(enc))
    assert main(["reduce", str(wrong)]) == 4
    capsys.readouterr()


def test_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"rank": ' + "[" * 50000 + "]" * 50000 + "}")
    assert main(["reduce", str(deep)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("parse error: invalid JSON") and "Traceback" not in err


def test_huge_rank_is_rejected_before_any_work(tmp_path, capsys):
    hostile = tmp_path / "huge.json"
    hostile.write_text('{"rank": 100000000, "ramification": 1, "precision": null, '
                       '"field": {"extensions": []}, "coefficients": []}')
    for command in ("reduce", "derham", "fredholm"):
        start = time.perf_counter()
        assert main([command, str(hostile)]) == 4
        assert time.perf_counter() - start < 1.0
    assert str(serialize.MAX_RANK) in capsys.readouterr().err


def _quadratic_stack(path, depth):
    """A rank-1 file over QQ(sqrt 2, sqrt 3, sqrt 5, ...) with ``depth``
    quadratics, its one coefficient ``1 + sqrt p`` for the top prime ``p``."""
    primes = [2, 3, 5, 7, 11, 13, 17, 19][:depth]
    path.write_text(json.dumps({
        "rank": 1, "field": {"extensions": [[f"-{p}", "0", "1"] for p in primes]},
        "coefficients": [{"exp": -1, "matrix": [[["1", "1"]]]}]}))
    return str(path)


def test_deep_fields_are_rejected_before_any_work(tmp_path, capsys):
    # eight quadratics give 3**8 = 6561 positions; gauging them takes 15 s
    hostile = _quadratic_stack(tmp_path / "deep.json", 8)
    for argv in (["gauge", hostile, hostile], ["derham", hostile]):
        start = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - start < 1.0
    assert str(serialize.MAX_FIELD_POSITIONS) in capsys.readouterr().err
    # three quadratics (27 positions) are accepted
    shallow = _quadratic_stack(tmp_path / "shallow.json", 3)
    assert main(["gauge", shallow, shallow]) == 0
    capsys.readouterr()


HOSTILE_EXPONENTS = {
    # a nilpotent lead sends the reduction through one Sibuya step per
    # exponent below the working precision
    "precision": '{"rank": 2, "ramification": 1, "precision": 1000000, '
                 '"field": {"extensions": []}, "coefficients": ['
                 '{"exp": -2, "matrix": [["0", "1"], ["0", "0"]]}, '
                 '{"exp": 0, "matrix": [["1", "0"], ["2", "1"]]}]}',
    # a null precision puts the working precision past the largest exponent
    "exp": '{"rank": 2, "ramification": 1, "precision": null, '
           '"field": {"extensions": []}, "coefficients": ['
           '{"exp": -2, "matrix": [["0", "1"], ["0", "0"]]}, '
           '{"exp": 1000000, "matrix": [["1", "0"], ["2", "1"]]}]}',
}


@pytest.mark.parametrize("key", sorted(HOSTILE_EXPONENTS))
def test_huge_exponents_are_rejected_before_any_work(tmp_path, capsys, key):
    hostile = tmp_path / "far.json"
    hostile.write_text(HOSTILE_EXPONENTS[key])
    for command in ("reduce", "derham", "fredholm"):
        start = time.perf_counter()
        assert main([command, str(hostile)]) == 4
        assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert f"{key} 1000000" in err and str(serialize.MAX_EXPONENT) in err


def test_huge_precision_and_window_options_exit_4(tmp_path, capsys):
    path = write_connection(tmp_path / "c.json", checks.sample_saddle_node())
    big = str(serialize.MAX_EXPONENT + 1)
    for option, argv in (("--precision", ["reduce", path, "--precision", big]),
                         ("--precision", ["fredholm", path, "--precision", "-" + big]),
                         ("--window", ["derham", path, "--window", "0", big]),
                         ("--precision", ["gauge", path, path, "--precision", big])):
        start = time.perf_counter()
        assert main(argv) == 4
        assert time.perf_counter() - start < 1.0
        assert option in capsys.readouterr().err
    # the bound itself is accepted
    at_bound = str(serialize.MAX_EXPONENT)
    assert main(["derham", path, "--window", "-2", "2", "--precision", at_bound]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["stability", "0", "2"],
    ["stability", "2", "-1"],
    ["stability", str(MAX_STABILITY_SIZE + 1), "3"],
    ["stability", "12", "3"],
    ["stability", "2", str(serialize.MAX_EXPONENT + 1)],
])
def test_stability_refuses_bad_arguments_with_exit_4(capsys, argv):
    start = time.perf_counter()
    assert main(argv) == 4
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == "" and "parse error" in err


@pytest.mark.parametrize("window", [("3", "1"), ("0", "0")])
def test_empty_derham_window_exits_4(tmp_path, capsys, window):
    path = write_connection(tmp_path / "c.json", checks.sample_saddle_node())
    assert main(["derham", path, "--window", *window]) == 4
    out, err = capsys.readouterr()
    assert out == "" and "--window" in err


def test_stability_accepts_its_largest_size(capsys):
    code, obj = run(capsys, "stability", str(MAX_STABILITY_SIZE), "1")
    assert code == 0 and obj["bound"] == 0


def test_usage_errors_are_systemexit_4(capsys):
    # argparse exits via SystemExit on usage errors; the code must be 4,
    # never the default 2 (which is reserved for precision exhaustion)
    for argv in (["stability", "not-a-number", "2"], ["no-such-command"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 4
    capsys.readouterr()
