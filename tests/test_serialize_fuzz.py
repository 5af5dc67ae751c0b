"""Decoding untrusted connection files lets only engine errors escape, and
``serialize.dumps`` writes the bytes of ``json.dumps``.

``serialize.loads`` followed by ``serialize.decode_connection`` is the path
every CLI command reads its input through, and the CLI maps only
:class:`EngineError` subclasses to documented exit codes.  Hypothesis feeds
it arbitrary JSON values and mutated encodings of real connections; the run
is derandomized, keeps no example database and points Hypothesis' caches
at a temporary directory, so it is deterministic and writes nothing into
the checkout.
"""

import json
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# collecting @given tests already writes Hypothesis' caches, so redirect
# them before anything below is decorated
_HOME = tempfile.TemporaryDirectory(prefix="mcred-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

from mcred import checks, serialize  # noqa: E402
from mcred.connection import Connection  # noqa: E402
from mcred.errors import EngineError  # noqa: E402
from mcred.field import FieldTower  # noqa: E402

FUZZ = settings(max_examples=300, derandomize=True, database=None, deadline=None)

KEYS = ["rank", "ramification", "precision", "field", "extensions",
        "coefficients", "exp", "matrix", "pole_order"]

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=7).map(
    serialize.fraction_to_str)
# short strings only: a longer "1e..." string is a huge integer to build
scalar_text = st.text(alphabet="0123456789/-+ .e", max_size=6)
leaves = (st.none() | st.booleans() | st.integers(-300, 300) | rationals
          | scalar_text | st.floats(allow_nan=False, allow_infinity=False))
json_values = st.recursive(
    leaves,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=3), inner,
                      max_size=6),
    max_leaves=24,
)


def _bases():
    qq = FieldTower()
    k = qq.extend([-2, 0, 1])
    ext = Connection.from_coeff_map(
        k, {-2: [[0, k.gen()], [0, 0]], 0: [[1, 0], [k.gen() + 1, 0]]}, 2,
        prec=3)
    conns = [make() for make in checks.SAMPLES.values()]
    conns += [checks.sample_ramified_pair().ramify(2), ext]
    return [serialize.encode_connection(c) for c in conns]


BASES = _bases()

# coordinate lists nest one level per extension; mutate them at any depth
coordinates = st.recursive(rationals | scalar_text | st.integers(-3, 3),
                           lambda inner: st.lists(inner, max_size=4),
                           max_leaves=8)
field_values = (
    st.none()
    | st.fixed_dictionaries({"extensions": st.lists(
        st.lists(coordinates, max_size=4), max_size=3)})
    | json_values
)
coefficient_values = st.lists(
    st.fixed_dictionaries({
        "exp": st.integers(-300, 300) | json_values,
        "matrix": st.lists(st.lists(coordinates, max_size=3), max_size=3)
        | json_values,
    }) | json_values,
    max_size=4,
)
FIELD_VALUES = {
    "rank": st.integers(-2, 70) | json_values,
    "ramification": st.integers(-2, 6) | json_values,
    "precision": st.none() | st.integers(-300, 300) | json_values,
    "pole_order": st.none() | st.integers(-5, 5) | json_values,
    "field": field_values,
    "coefficients": coefficient_values,
}


@pytest.fixture(autouse=True, scope="module")
def _hypothesis_home():
    yield
    set_hypothesis_home_dir(None)
    _HOME.cleanup()


@st.composite
def mutated_connections(draw):
    obj = json.loads(json.dumps(draw(st.sampled_from(BASES))))
    for key in draw(st.lists(st.sampled_from(sorted(FIELD_VALUES)),
                             min_size=1, max_size=3, unique=True)):
        if draw(st.booleans()):
            obj[key] = draw(FIELD_VALUES[key])
        else:
            obj.pop(key, None)
    return obj


def _decode(obj):
    text = json.dumps(obj)
    try:
        serialize.decode_connection(serialize.loads(text))
    except EngineError:
        pass


@FUZZ
@given(json_values)
def test_arbitrary_json_raises_only_engine_errors(obj):
    _decode(obj)


@FUZZ
@given(mutated_connections())
def test_mutated_connections_raise_only_engine_errors(obj):
    _decode(obj)


def test_unmutated_bases_decode():
    for obj in BASES:
        c = serialize.decode_connection(serialize.loads(json.dumps(obj)))
        assert serialize.encode_connection(c) == obj


# ---------------------------------------------------------------------------
# the canonical writer against json.dumps

# quotes, backslashes, control characters and text outside ASCII, alone and in text
tricky_text = st.sampled_from(['"', "\\", "\x00", "\n\t\x1f\x7f", "\u00e9", "\u2028",
                               "\U0001f600", ""]) | st.text()
canonical_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**60, 10**60) | tricky_text,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(tricky_text, inner, max_size=5),
    max_leaves=30,
)


@FUZZ
@given(canonical_values)
def test_dumps_writes_the_bytes_of_json_dumps(obj):
    assert serialize.dumps(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("value", [1.5, 0.0, float("inf"), (1, 2), {1, 2}, b"1",
                                   Fraction(1, 2), object()])
def test_dumps_refuses_every_other_type(value):
    for obj in (value, [1, value], {"a": {"b": [value]}}):
        with pytest.raises(TypeError):
            serialize.dumps(obj)
