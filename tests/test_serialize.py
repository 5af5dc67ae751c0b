import json
import random
import time
from fractions import Fraction

import pytest

from mcred import checks, serialize
from mcred.cli import main
from mcred.connection import Connection
from mcred.errors import ParseError
from mcred.field import FieldTower
from mcred.matrices import LaurentMatrix
from mcred.series import INF, LaurentSeries
from test_field import p_encode, p_lift

QQ = FieldTower()


def S(coeffs, **kw):
    return LaurentSeries(QQ, coeffs, **kw)


def test_fraction_strings():
    assert serialize.fraction_to_str(Fraction(3)) == "3"
    assert serialize.fraction_to_str(Fraction(-7, 3)) == "-7/3"
    assert serialize.str_to_fraction("1/2") == Fraction(1, 2)
    assert serialize.str_to_fraction("-4") == Fraction(-4)
    for bad in ("", "a", "1/0", "1/2/3", 7):
        with pytest.raises(ParseError):
            serialize.str_to_fraction(bad)
    # README documents only "p/q" and "p": Fraction's decimals, exponents,
    # spaces, underscores and signs other than a leading minus are refused,
    # and so is a numerator or denominator past Python's 4,300-digit limit
    for bad in ("0.5", " 3/4 ", "1_000", "+3", "3/-4", "-3/+4", "1/", "/2",
                "3\n", "\u0663", "1e9999999", "7" * 4301, "-1/" + "3" * 4301):
        start = time.perf_counter()
        with pytest.raises(ParseError):
            serialize.str_to_fraction(bad)
        assert time.perf_counter() - start < 0.1  # "1e9999999" is never built
    assert serialize.str_to_fraction("-003/06") == Fraction(-1, 2)


def test_element_roundtrip_rational():
    el = QQ.rational(Fraction(22, 7))
    enc = serialize.encode_element(el)
    assert enc == "22/7"
    back = serialize.decode_element(QQ, enc)
    assert (back - el).is_zero()


def test_element_roundtrip_extension():
    K = QQ.extend([-2, 0, 1])
    el = K.gen() * K.rational(3) + K.rational(Fraction(1, 2))
    enc = serialize.encode_element(el)
    assert enc == ["1/2", "3"]
    back = serialize.decode_element(K, enc)
    assert (back - el).is_zero()
    # rational values drop to the bare string even in an extension
    assert serialize.encode_element(K.rational(5)) == "5"


def test_rational_elements_are_written_from_their_payload(monkeypatch):
    """A rational element, over QQ or a tower, is written from its form's
    one numerator and denominator, with the string the payload reference
    writes, and no coordinate vector is built."""
    K = QQ.extend([-2, 0, 1])
    L = K.extend([K.rational(-3), K.zero(), K.one()])
    values = [Fraction(0), Fraction(5), Fraction(-7, 3), Fraction(10**40 + 1, 3**30)]
    cases = [(t, t.rational(v)) for t in (QQ, K, L) for v in values]
    want = [p_encode(t, t.depth, p_lift(t, 0, t.depth, v))
            for t in (QQ, K, L) for v in values]

    def refuse(*args):
        raise AssertionError("coordinate vector built for a rational")

    monkeypatch.setattr(serialize, "_vector", refuse)
    assert [serialize.encode_element(x) for _, x in cases] == want
    assert want[:4] == ["0", "5", "-7/3", f"{10**40 + 1}/{3**30}"]


def test_element_decode_validates_length():
    K = QQ.extend([-2, 0, 1])
    with pytest.raises(ParseError):
        serialize.decode_element(K, ["1", "2", "3"])   # degree is 2
    with pytest.raises(ParseError):
        serialize.decode_element(K, [])
    short = serialize.decode_element(K, ["4"])         # short lists zero-pad
    assert (short - K.rational(4)).is_zero()


def test_tower_roundtrip():
    K = QQ.extend([-2, 0, 1]).extend([-3, 0, 1])
    enc = serialize.encode_tower(K)
    back = serialize.decode_tower(enc)
    assert back.depth == 2
    assert serialize.encode_tower(back) == enc


def test_tower_decode_rejects_garbage():
    with pytest.raises(ParseError):
        serialize.decode_tower({"extensions": [["5"]]})     # constant minpoly
    with pytest.raises(ParseError):
        serialize.decode_tower({"extensions": "nope"})
    with pytest.raises(ParseError):
        serialize.decode_tower([])


def test_series_roundtrip():
    s = S({-2: Fraction(1, 3), 4: Fraction(-5)}, prec=6)
    enc = serialize.encode_series(s)
    back = serialize.decode_series(enc)
    assert back.coincides_with(s)
    assert back.prec == 6
    exact = S({0: 1})
    assert serialize.encode_series(exact)["precision"] is None
    assert serialize.decode_series(serialize.encode_series(exact)).prec is INF


def test_series_decode_rejects_bad_terms():
    base = serialize.encode_series(S({0: 1}, prec=4))
    dup = dict(base)
    dup["coefficients"] = base["coefficients"] + base["coefficients"]
    with pytest.raises(ParseError):
        serialize.decode_series(dup)
    with pytest.raises(ParseError):
        serialize.decode_series([])


@pytest.mark.parametrize("fault", [
    {"coefficients": 5},
    {"coefficients": None},
    {"precision": 4, "coefficients": [{"exp": 4, "value": "1"}]},
    {"precision": 4, "coefficients": [{"exp": 9, "value": "1"}]},
], ids=["coefficients not a list", "coefficients null", "term at the precision",
        "term past the precision"])
def test_series_decode_refuses_what_matrix_decode_refuses(fault):
    """Each fault raises ``ParseError`` from both decoders, with one message."""
    series = {**serialize.encode_series(S({0: 1})), **fault}
    grids = [{"exp": t["exp"], "matrix": [[t["value"]]]} for t in fault["coefficients"]
             ] if isinstance(fault["coefficients"], list) else fault["coefficients"]
    matrix = {**serialize.encode_matrix(LaurentMatrix(QQ, [[S({0: 1})]])), **fault,
              "coefficients": grids}
    with pytest.raises(ParseError) as got:
        serialize.decode_series(series)
    with pytest.raises(ParseError) as want:
        serialize.decode_matrix(matrix)
    assert str(got.value) == str(want.value)


def test_matrix_decode_rejects_terms_beyond_precision():
    m = LaurentMatrix(QQ, [[S({0: 1}, prec=4)]])
    enc = serialize.encode_matrix(m)
    enc["coefficients"] = [{"exp": 9, "matrix": [["1"]]}]
    with pytest.raises(ParseError):
        serialize.decode_matrix(enc)


def test_matrix_roundtrip_is_byte_identical():
    m = LaurentMatrix(QQ, [[S({-1: 1}), S({})], [S({2: Fraction(1, 2)}), S({0: 3})]])
    text = serialize.dumps(serialize.encode_matrix(m))
    again = serialize.dumps(
        serialize.encode_matrix(serialize.decode_matrix(serialize.loads(text))))
    assert text == again


def test_connection_roundtrip_byte_identical():
    samples = [
        checks.sample_saddle_node(),
        checks.sample_ramified_pair().ramify(2),      # nontrivial ramification
        Connection(LaurentMatrix(QQ, [[S({-3: Fraction(2, 7), 1: 5}, prec=4)]])),
    ]
    K = QQ.extend([-2, 0, 1])
    samples.append(Connection(
        LaurentMatrix(K, [[LaurentSeries(K, {-1: K.gen()})]])))
    for c in samples:
        text = serialize.dumps(serialize.encode_connection(c))
        back = serialize.decode_connection(serialize.loads(text))
        assert serialize.dumps(serialize.encode_connection(back)) == text
        assert back.matrix.coincides_with(
            LaurentMatrix(back.tower, c.matrix.entries, c.matrix.ram))


def test_connection_decode_crossvalidates_pole_order():
    enc = serialize.encode_connection(checks.sample_saddle_node())
    enc["pole_order"] = 5
    with pytest.raises(ParseError):
        serialize.decode_connection(enc)


def test_connection_decode_validates_shape():
    enc = serialize.encode_connection(checks.sample_saddle_node())
    bad = json.loads(json.dumps(enc))
    bad["rank"] = 0
    with pytest.raises(ParseError):
        serialize.decode_connection(bad)
    bad = json.loads(json.dumps(enc))
    bad["coefficients"][0]["matrix"] = [["1"]]
    with pytest.raises(ParseError):
        serialize.decode_connection(bad)
    bad = json.loads(json.dumps(enc))
    bad["ramification"] = True          # bools are not indices
    with pytest.raises(ParseError):
        serialize.decode_connection(bad)


def test_loads_rejects_non_json():
    with pytest.raises(ParseError):
        serialize.loads("{not json")
    with pytest.raises(ParseError):
        serialize.loads('"just a string"')


def test_tree_encoding_shape():
    from mcred.reduction import reduce
    tree = reduce(checks.sample_ramified_pair())
    enc = serialize.encode_tree(tree)
    assert set(enc) == {"input", "working", "restarts", "root"}
    root = enc["root"]
    assert root["kind"] == "descend"
    assert root["alpha"] == "1/4"
    ops = [op["op"] for op in root["ops"]]
    assert "ramify" in ops and "gauge" in ops
    (child,) = root["children"]
    assert child["sizes"] == [1, 1]
    assert [leaf["kind"] for leaf in child["children"]] == ["rank_one", "rank_one"]
    # the whole thing serializes deterministically
    assert serialize.dumps(enc) == serialize.dumps(serialize.encode_tree(tree))


def test_dumps_is_sorted_and_newline_terminated():
    text = serialize.dumps({"b": 1, "a": 2})
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")


# ---------------------------------------------------------------------------
# decoding against the element-by-element path it replaced


def _coeff_map_decode(obj):
    """The decode before coordinates went straight into series: one element per
    scalar by ``decode_element``, the grids through
    ``LaurentMatrix.from_coeff_map`` (for files ``decode_connection`` accepts)."""
    tower = serialize.decode_tower(obj.get("field"))
    coeff_map = {item["exp"]: [[serialize.decode_element(tower, x) for x in row]
                               for row in item["matrix"]] for item in obj["coefficients"]}
    prec = INF if obj.get("precision") is None else obj["precision"]
    return Connection(LaurentMatrix.from_coeff_map(tower, coeff_map, obj["rank"], prec,
                                                   obj.get("ramification", 1)))


def _entries(c):
    """Every series of ``c`` as precision, ramification, tower and its
    coefficients' exponents, towers and forms in dict order."""
    return [(s.prec, s.ram, s.tower.levels,
             [(e, x.tower.levels, x.form) for e, x in s.coeffs.items()])
            for row in c.matrix.entries for s in row]


def _tower_files():
    """Depth-1 and depth-2 files whose scalars mix bare rationals, full and
    short coordinate vectors, and short vectors nested in vectors."""
    k = [["-2", "0", "1"]]
    l = k + [["-3", "0", "1"]]
    scalars = {1: ["0", "3/4", ["1", "-2/3"], ["5"], ["0", "7"]],
               2: ["0", "-1/2", ["1", ["0", "2/3"]], [["1"], "2"], [["0", "1"], ["1/2"]],
                   ["4"], ["0", ["0", "-5"]]]}
    rng = random.Random(22)
    files = []
    for depth, exts in ((1, k), (2, l)):
        for n, prec in ((1, None), (2, 3), (3, None)):
            files.append({"rank": n, "ramification": 1 + depth % 2, "precision": prec,
                          "field": {"extensions": exts},
                          "coefficients": [{"exp": e, "matrix": [[rng.choice(scalars[depth])
                                                                 for _ in range(n)]
                                                                for _ in range(n)]}
                                           for e in (-2, 0, 1)]})
    return files


def test_decode_matches_the_coeff_map_decode(tmp_path, capsys):
    objs = [serialize.encode_connection(make()) for make in checks.SAMPLES.values()]
    out = tmp_path / "generated.json"
    assert main(["generate", "--seed", "7", "--count", "24", "--out", str(out)]) == 0
    capsys.readouterr()
    objs += serialize.loads(out.read_text())["connections"]
    objs += _tower_files()
    seen = set()
    for obj in objs:
        got = serialize.decode_connection(obj)
        want = _coeff_map_decode(obj)
        assert (got.tower.levels, got.matrix.ram) == (want.tower.levels, want.matrix.ram)
        assert _entries(got) == _entries(want)
        assert serialize.encode_connection(got) == serialize.encode_connection(want)
        seen.add(got.tower.depth)
    assert len(objs) == 35 and seen == {0, 1, 2}
