import random
from fractions import Fraction

import pytest

from mcred import checks, linalg
from mcred.cohomology import (
    DeRhamDims,
    LatticeWindow,
    derham_dims,
    doubling_dims,
    dual_connection,
    euler_bound_check,
    flat_section_dim,
    h1_generators,
    ramified_decomposition_check,
    rs_spectrum,
    truncated_complex_dims,
)
from mcred.connection import Connection
from mcred.errors import DomainViolation, NotRegularSingular, PrecisionExhausted
from mcred.field import FieldTower
from mcred.matrices import LaurentMatrix
from mcred.series import INF, LaurentSeries

QQ = FieldTower()


def S(coeffs, **kw):
    return LaurentSeries(QQ, coeffs, **kw)


def conn(entries, ram=1):
    return Connection(LaurentMatrix(QQ, entries, ram=ram))


def rank_one(residue):
    return conn([[S({-1: residue})]])


TRIVIAL = conn([[S({})]])
NILPOTENT_RESIDUE = conn([[S({}), S({-1: 1})], [S({}), S({})]])


def test_window_validation():
    with pytest.raises(DomainViolation):
        LatticeWindow(3, 3)
    w = LatticeWindow(-2, 2)
    assert w.width == 4


def test_truncated_complex_trivial_connection():
    dims = truncated_complex_dims(TRIVIAL, LatticeWindow(-3, 3))
    # constants in the kernel, the class of dt/t in the cokernel
    assert (dims.h0, dims.h1) == (1, 1)
    assert dims.chi == 0
    assert not dims.stabilized


def test_truncated_complex_unit_lead():
    c = conn([[S({-2: 1})]])
    for w in (LatticeWindow(-3, 3), LatticeWindow(-5, 5)):
        dims = truncated_complex_dims(c, w)
        assert (dims.h0, dims.h1) == (0, 0)


def test_truncated_complex_sees_the_cocycle():
    c = checks.sample_jump_family(1)
    dims = truncated_complex_dims(c, LatticeWindow(-4, 4))
    assert dims.h0 >= 1    # the flat section (t, -t^2) survives truncation


def test_truncated_complex_respects_precision():
    c = Connection(LaurentMatrix(QQ, [[S({-1: 1}, prec=2)]]))
    with pytest.raises(PrecisionExhausted):
        truncated_complex_dims(c, LatticeWindow(-4, 4))


def test_rs_spectrum_goldens():
    assert rs_spectrum([[QQ.rational(Fraction(1, 2))]]).entries == []
    assert rs_spectrum([[QQ.zero()]]).entries == [(0, 1)]
    diag = [[QQ.zero(), QQ.zero()], [QQ.zero(), QQ.rational(-3)]]
    assert rs_spectrum(diag).entries == [(0, 1), (3, 1)]


def test_rs_spectrum_counts_multiplicity():
    zero2 = [[QQ.zero(), QQ.zero()], [QQ.zero(), QQ.zero()]]
    assert rs_spectrum(zero2).entries == [(0, 2)]


def test_derham_rank_one_half_residue():
    dims = derham_dims(rank_one(Fraction(1, 2)))
    assert (dims.h0, dims.h1, dims.chi) == (0, 0, 0)
    assert dims.stabilized and dims.certificate == "spectrum-derived"


def test_derham_trivial():
    dims = derham_dims(TRIVIAL)
    assert (dims.h0, dims.h1) == (1, 1)
    assert dims.certificate == "spectrum-derived"


def test_derham_nilpotent_residue_detects_nontriviality():
    dims = derham_dims(NILPOTENT_RESIDUE)
    assert (dims.h0, dims.h1) == (1, 1)
    assert dims.h0 < NILPOTENT_RESIDUE.size
    # cross-check: the residue spectrum is {0} and accounts for the kernel
    assert rs_spectrum(NILPOTENT_RESIDUE.residue()).entries == [(0, 1)]


def test_derham_invertible_lead_is_acyclic():
    dims = derham_dims(conn([[S({-2: 1})]]))
    assert (dims.h0, dims.h1) == (0, 0)
    assert dims.certificate == "spectrum-derived"


def test_lambda_family_dichotomy():
    degenerate = derham_dims(rank_one(Fraction(1)))
    generic = derham_dims(rank_one(Fraction(1, 2)))
    assert (degenerate.h0, degenerate.h1) == (1, 1)
    assert (generic.h0, generic.h1) == (0, 0)


def test_integer_residues_all_give_cohomology():
    for ell in (-2, 0, 3):
        dims = derham_dims(rank_one(Fraction(ell)))
        assert (dims.h0, dims.h1) == (1, 1)


def test_euler_bound_check():
    assert euler_bound_check(TRIVIAL, derham_dims(TRIVIAL))
    c = checks.sample_jump_family(1)
    dims = derham_dims(c)
    assert euler_bound_check(c, dims)
    assert abs(dims.chi) <= (2 * c.pole_order + 1) * c.size


def test_euler_bound_check_refuses_nonzero_index_and_excess():
    window = LatticeWindow(-1, 1)
    for h0, h1 in ((1, 0), (0, 1), (2, 2)):
        dims = DeRhamDims(h0, h1, window, "window")
        assert not euler_bound_check(rank_one(Fraction(0)), dims)
    assert euler_bound_check(rank_one(Fraction(0)),
                             DeRhamDims(1, 1, window, "window"))


def test_h1_generators_goldens():
    gens = h1_generators(rank_one(Fraction(0)))
    assert len(gens) == 1
    (vec,) = gens
    assert vec[0].coincides_with(S({-1: 1}))   # dt/t
    assert h1_generators(rank_one(Fraction(1, 2))) == []
    zero2 = conn([[S({}), S({})], [S({}), S({})]])
    gens = h1_generators(zero2)
    assert len(gens) == 2
    assert gens[0][0].coincides_with(S({-1: 1})) and gens[0][1].is_zero()
    assert gens[1][1].coincides_with(S({-1: 1})) and gens[1][0].is_zero()


def test_h1_generators_span_h1():
    # spanning is checked against the truncated complex inside the call;
    # the count must match the certified dimension
    for c in (rank_one(Fraction(-1)), NILPOTENT_RESIDUE,
              conn([[S({-1: 2}), S({0: 1})], [S({}), S({-1: -1})]])):
        dims = derham_dims(c)
        assert len(h1_generators(c)) == dims.h1


def test_h1_generators_demand_regular_singularity():
    with pytest.raises(NotRegularSingular):
        h1_generators(conn([[S({-2: 1})]]))


def test_flat_sections_of_trivial_connection():
    assert flat_section_dim(TRIVIAL, LatticeWindow(-2, 2)) == 1
    assert flat_section_dim(rank_one(Fraction(1, 2)), LatticeWindow(-2, 2)) == 0


def test_dual_connection_negates_transpose():
    c = NILPOTENT_RESIDUE
    d = dual_connection(c)
    assert d.matrix.entry(1, 0).coincides_with(S({-1: -1}))
    assert d.matrix.entry(0, 1).is_zero()
    assert dual_connection(d).matrix.coincides_with(c.matrix)


def test_doubling_dims_on_irregular_nilpotent_lead():
    # pole 2, nilpotent lead: no certificate path, the doubling fallback
    # must still respect h0 <= n
    for lam, expect in ((1, (2, 2)), (Fraction(1, 2), (0, 0)), (2, (2, 2))):
        dims = doubling_dims(checks.sample_jump_family(lam))
        assert (dims.h0, dims.h1) == expect
        assert dims.certificate == "window-doubling"
        assert dims.stabilized


def _end(c):
    """``End(c) = d + ad_G`` on ``gl_n`` (row-major coordinates); the
    identity is a flat section, so ``h0 >= 1``."""
    return Connection.from_coeff_map(
        c.tower, {e: linalg.ad_matrix(c.coeff(e)) for e in c.matrix.support()},
        c.size * c.size, c.prec, c.ram)


END_DIMS = {
    "saddle-node": ((2, 2), "window-doubling"),
    "ramified-pair": ((1, 1), "window-doubling"),
    "jump-integer": ((4, 4), "window-doubling"),
    "jump-half": ((4, 4), "window-doubling"),
    "half-residue": ((1, 1), "spectrum-derived"),
}


@pytest.mark.parametrize("name", sorted(END_DIMS))
def test_endomorphism_connection_has_flat_sections(name):
    c = checks.SAMPLES[name]()
    end = _end(c)
    n = c.size
    identity = LaurentMatrix.constant(
        QQ, [[int(i == j)] for i in range(n) for j in range(n)])
    assert end.apply_nabla(identity).is_zero()
    dims = derham_dims(end)
    assert dims.chi == 0 and 1 <= dims.h0 <= n * n
    assert ((dims.h0, dims.h1), dims.certificate) == END_DIMS[name]


def test_derham_routes_uncertified_inputs_to_doubling():
    dims = derham_dims(checks.sample_jump_family(1))
    assert dims.certificate == "window-doubling"
    assert (dims.h0, dims.h1) == (2, 2)


def test_spectrum_and_doubling_agree_on_regular_singular():
    for c in (TRIVIAL, rank_one(Fraction(1, 2)), rank_one(Fraction(2)),
              NILPOTENT_RESIDUE):
        certified = derham_dims(c)
        heuristic = doubling_dims(c)
        assert (certified.h0, certified.h1) == (heuristic.h0, heuristic.h1)


def test_dims_gauge_invariance_sample():
    rng = random.Random(14)
    c = checks.random_connection(rng, 2, 1)
    g = checks.random_unit_gauge(rng, 2)
    a = derham_dims(c)
    b = derham_dims(c.gauge(g))
    assert (a.h0, a.h1) == (b.h0, b.h1)
    m = checks.random_monomial_gauge(rng, 2)
    d = derham_dims(c.gauge(m))
    assert (a.h0, a.h1) == (d.h0, d.h1)


def test_invertible_lead_acyclicity_sweep():
    rng = random.Random(8)
    for _ in range(5):
        c = checks.random_connection(rng, rng.choice((1, 2)), rng.choice((2, 3)),
                                     kind="invertible_lead")
        dims = derham_dims(c)
        assert (dims.h0, dims.h1) == (0, 0)


def test_ramified_decomposition_goldens():
    assert ramified_decomposition_check(TRIVIAL, 2)
    assert ramified_decomposition_check(TRIVIAL, 1)
    assert ramified_decomposition_check(rank_one(Fraction(1, 2)), 2)


def test_ramified_decomposition_spec_table():
    for theta in (Fraction(0), Fraction(1, 2), Fraction(1, 3)):
        for d in (2, 3):
            assert ramified_decomposition_check(checks.sample_residue_line(theta), d)


def test_flat_section_dim_demands_enough_tail():
    c = Connection(LaurentMatrix(QQ, [[S({-1: 1}, prec=0)]]))
    with pytest.raises(PrecisionExhausted) as info:
        flat_section_dim(c, LatticeWindow(-4, 4))
    assert info.value.needed is not None


def test_serialized_dims_shape():
    from mcred.serialize import encode_dims
    enc = encode_dims(derham_dims(TRIVIAL))
    assert enc == {
        "h0": 1, "h1": 1, "chi": 0,
        "window": [enc["window"][0], enc["window"][1]],
        "stabilized": True,
        "certificate": "spectrum-derived",
    }
