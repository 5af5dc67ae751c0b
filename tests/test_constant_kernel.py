"""The constant-matrix kernel against the element loops it replaced.

``linalg.mat_mul``, ``linalg.poly_at_matrix`` and ``linalg.charpoly`` run
constant matrices as ``(den, parts)`` integer matrices
(``series._matrix_product``), and ``leading.commutes`` is one such product
of ``ad(x)`` with the coefficient columns of a connection.  The oracles
below are the loops they replaced: the entry-by-entry product on the
elements' own operators (``test_matrices._mat_mul``), the per-entry series
kernel on constant forms that ``mat_mul`` ran before (:func:`_form_mat_mul`),
Horner's rule on elements (:func:`_element_poly_at_matrix`) and
Faddeev-LeVerrier on elements (``test_linalg._element_charpoly``).  Operands
are drawn over prefixes of one depth-2 tower, at mixed levels, with exact
zeros, rectangular where the function allows it; every result must have the
value, the form and the tower the old path gives.  The run is
derandomized, keeps no example database and points Hypothesis' caches at a
temporary directory.
"""

import random
import tempfile
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402
from hypothesis.configuration import set_hypothesis_home_dir  # noqa: E402

# collecting @given tests already writes Hypothesis' caches, so redirect
# them before anything below is decorated; the directory goes at exit
_HOME = tempfile.TemporaryDirectory(prefix="mcred-hypothesis-")
set_hypothesis_home_dir(_HOME.name)

from mcred import linalg  # noqa: E402
from mcred.connection import Connection  # noqa: E402
from mcred.field import FieldElement, FieldTower, common_context  # noqa: E402
from mcred.leading import commutes  # noqa: E402
from mcred.series import INF, _form_product  # noqa: E402
from test_field import from_payload  # noqa: E402
from test_linalg import _element_charpoly  # noqa: E402
from test_matrices import _mat_mul  # noqa: E402

ORACLE = settings(max_examples=200, derandomize=True, database=None, deadline=None)

QQ = FieldTower()
K = QQ.extend([-2, 0, 1])                 # sqrt(2)
L = K.extend([-K.gen(), 0, 0, 1])         # a cube root of sqrt(2)
TOWERS = (QQ, K, L)


@pytest.fixture(autouse=True, scope="module")
def _hypothesis_home():
    # another module's teardown may have reset the caches to the checkout
    set_hypothesis_home_dir(_HOME.name)


def _form_mat_mul(a, b):
    """``a b`` on the per-entry series kernel: each entry a constant
    ``series._integral`` form, one ``series._form_product``, and the forms
    back to elements at the operands' common tower."""
    tower = common_context(a + b)

    def forms(grid):
        return [[(0, INF, x.form[0], list(x.form[1])) if not x.is_zero() else None
                 for x in row] for row in grid]

    return [[FieldElement(tower, (f[2], tuple(f[3]))) if f else tower.zero() for f in row]
            for row in _form_product(tower, forms(a), forms(b))]


def _element_poly_at_matrix(coeffs, m):
    """Horner's rule on elements, one element-loop product per coefficient."""
    tower = common_context(m)
    out = linalg.zeros(tower, len(m), len(m))
    for ck in reversed(coeffs):
        out = _mat_mul(out, m)
        for i in range(len(m)):
            out[i][i] = out[i][i] + ck
    return out


def _same(got, want, tower):
    """Equal forms, and every entry over ``tower``."""
    assert [len(row) for row in got] == [len(row) for row in want]
    assert all(x.tower is tower for row in got for x in row)
    assert [[x.form for x in row] for row in got] == [[x.form for x in row] for row in want]


# -- strategies ----------------------------------------------------------------

rationals = st.one_of(st.just(Fraction(0)),
                      st.fractions(min_value=-6, max_value=6, max_denominator=6))


@st.composite
def payloads(draw, tower, level):
    if level == 0:
        return draw(rationals)
    return tuple(draw(payloads(tower, level - 1)) for _ in range(tower.degree(level)))


@st.composite
def elements(draw, tower):
    """An element of a prefix of ``tower`` at any of its levels, or an exact
    zero there."""
    prefix = TOWERS[draw(st.integers(0, tower.depth))]
    level = draw(st.integers(0, prefix.depth))
    if draw(st.integers(0, 3)) == 0:
        return prefix.zero()
    return from_payload(prefix, level, draw(payloads(prefix, level)))


def grids(tower, rows, cols):
    return st.lists(st.lists(elements(tower), min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def grid_pairs(draw):
    """An ``n x k`` and a ``k x m`` grid over prefixes of one tower; one
    in five is a zero grid."""
    tower = draw(st.sampled_from(TOWERS))
    n, k, m = (draw(st.integers(1, 4)) for _ in range(3))
    a, b = draw(grids(tower, n, k)), draw(grids(tower, k, m))
    if draw(st.integers(0, 4)) == 0:
        b = [[tower.zero() for _ in range(m)] for _ in range(k)]
    return a, b


@st.composite
def squares(draw, max_n=3):
    tower = draw(st.sampled_from(TOWERS))
    n = draw(st.integers(1, max_n))
    return draw(grids(tower, n, n))


@st.composite
def poly_cases(draw):
    """A square grid and up to four coefficients over prefixes of its tower."""
    m = draw(squares())
    tower = common_context(m)
    return draw(st.lists(elements(tower), max_size=4)), m


# -- the properties ------------------------------------------------------------


@ORACLE
@given(grid_pairs())
def test_mat_mul_matches_both_oracles(pair):
    a, b = pair
    got = linalg.mat_mul(a, b)
    _same(got, _form_mat_mul(a, b), common_context(a + b))
    assert got == _mat_mul(a, b)  # FieldElement == compares across prefix towers


@ORACLE
@given(poly_cases())
def test_poly_at_matrix_matches_horner_on_elements(case):
    coeffs, m = case
    tower = common_context(m)
    _same(linalg.poly_at_matrix([c.form for c in coeffs], m),
          _element_poly_at_matrix(coeffs, m), tower)


@ORACLE
@given(squares(max_n=4))
def test_charpoly_matches_the_element_loop_on_prefix_towers(m):
    tower = common_context(m)
    got, want = linalg.charpoly(m), _element_charpoly(m)
    _same([[FieldElement(tower, f) for f in got]], [want], tower)
    # Cayley-Hamilton: the product chain cancels to the zero matrix
    assert linalg.is_zero_matrix(linalg.poly_at_matrix(got, m))


@pytest.mark.parametrize("tower", TOWERS, ids=["depth0", "depth1", "depth2"])
def test_products_that_cancel_are_zero_at_the_common_level(tower):
    rng = random.Random(tower.depth)
    x, y = (sum((tower.gen(lv) * rng.randint(1, 9) for lv in range(1, tower.depth + 1)),
                tower.rational(rng.randint(1, 9))) for _ in range(2))
    a = [[x, y], [x * 2, y * 2], [tower.zero(), tower.zero()]]
    b = [[y, tower.zero()], [-x, tower.zero()]]  # a b = 0, a rank-one cancellation
    got = linalg.mat_mul(a, b)
    _same(got, _form_mat_mul(a, b), tower)
    assert linalg.is_zero_matrix(got) and common_context(got) == tower
    ones = [[tower.rational(1)] * 2] * 2
    _same(linalg.mat_mul(ones, [[tower.rational(1)], [tower.rational(-1)]]),
          [[QQ.zero()], [QQ.zero()]], tower)


@ORACLE
@given(squares(), st.integers(0, 3), st.integers(1, 3))
def test_commutes_matches_the_commutator_of_the_coefficients(x, scale, prec):
    # coefficients that are polynomials in x commute with it; a drawn
    # coefficient usually does not
    tower, n = common_context(x), len(x)
    x2 = _mat_mul(x, x)
    eye = linalg.identity(tower, n)
    coeffs = {-2: linalg.mat_add(x2, linalg.mat_scale(scale, eye)), 0: x}
    c = Connection.from_coeff_map(tower, coeffs, n, prec=prec)
    assert commutes(c, x)
    noise = [[tower.rational(i * n + j + scale) for j in range(n)] for i in range(n)]
    d = Connection.from_coeff_map(tower, {**coeffs, -1: noise}, n, prec=prec)
    want = linalg.mat_eq(_mat_mul(x, noise), _mat_mul(noise, x))
    assert commutes(d, x) == want
