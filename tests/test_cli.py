import json
import time
from fractions import Fraction

import pytest

from mcred import checks, serialize
from mcred.cli import main
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


def test_derham_certified_flag_rejects_heuristic_windows(tmp_path, capsys):
    path = write_connection(tmp_path / "j.json", checks.sample_jump_family(1))
    code, _ = run(capsys, "derham", path, "--certified")
    assert code == 1
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


def test_stability_command(capsys):
    code, obj = run(capsys, "stability", "1", "7")
    assert code == 0
    assert obj == {"n": 1, "r": 7, "bound": 0, "sharp": None}
    code, obj = run(capsys, "stability", "2", "2")
    assert code == 0
    assert obj["bound"] == 8 and obj["sharp"] == 1


def test_check_single_suite(capsys):
    code = main(["check", "cbh", "--seed", "1", "--count", "50"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "cbh: ok"


def test_check_unknown_suite_is_a_usage_error(capsys):
    code = main(["check", "definitely-not-a-suite"])
    capsys.readouterr()
    assert code == 4


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


def test_huge_rank_is_rejected_before_any_work(tmp_path, capsys):
    hostile = tmp_path / "huge.json"
    hostile.write_text('{"rank": 100000000, "ramification": 1, "precision": null, '
                       '"field": {"extensions": []}, "coefficients": []}')
    for command in ("reduce", "derham", "fredholm"):
        start = time.perf_counter()
        assert main([command, str(hostile)]) == 4
        assert time.perf_counter() - start < 1.0
    assert str(serialize.MAX_RANK) in capsys.readouterr().err


def test_usage_errors_are_systemexit_4(capsys):
    # argparse exits via SystemExit on usage errors; the code must be 4,
    # never the default 2 (which is reserved for precision exhaustion)
    for argv in (["stability", "not-a-number", "2"], ["no-such-command"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 4
    capsys.readouterr()
