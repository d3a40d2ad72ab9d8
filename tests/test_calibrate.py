"""Tower-field arithmetic, norm identities and the calibration constant.

The norm identities and the cubic-curve quadrics are frozen inputs; the
calibration check theta = zeta/4 ties the two divisor representatives f and
f' together and is the exactness bedrock for the local invariant work.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcubic.azumaya import THETA_FPRIME
from bmcubic.calibrate import (
    TowerAutomorphism,
    TowerField,
    TowerPolynomial,
    calibration_identity,
    cubic_norm,
    divisor_membership,
    normal_form,
    surface_cubic,
)
from bmcubic.curves import (
    C_QUADRICS,
    CPRIME_QUADRICS,
    F_POLY,
    F_SURF,
    FPRIME_POLY,
    G_POLY,
    K0,
    TAU,
)
from bmcubic.eisenstein import EisensteinNumber, ZETA

RHO = K0.radical(0)


small_fracs = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def tower_elems(draw, field=K0):
    coeffs = {}
    for e in field.exponents():
        if draw(st.booleans()):
            coeffs[e] = EisensteinNumber(draw(small_fracs), draw(small_fracs))
    return field.element(coeffs)


def tower_nonzero(field=K0):
    return tower_elems(field).filter(lambda w: not w.is_zero)


# ---------------------------------------------------------------- field layer

def test_radical_cubes():
    assert RHO * RHO * RHO == K0.scalar(Fraction(2, 3))
    cbrt12 = 3 * RHO * RHO
    assert cbrt12 ** 3 == K0.scalar(12)
    cbrt18 = 3 * RHO
    assert cbrt18 ** 3 == K0.scalar(18)


def test_dependent_radicands_rejected():
    with pytest.raises(ValueError):
        TowerField([Fraction(2, 3), Fraction(4, 9)])
    with pytest.raises(ValueError):
        TowerField([2, 4])
    with pytest.raises(ValueError):
        TowerField([8])


def test_two_step_tower():
    K1 = TowerField([Fraction(2, 3), Fraction(9, 5)])
    u = K1.radical(0) + K1.radical(1)
    assert u * u.inverse() == K1.one
    assert K1.radical(1) ** 3 == K1.scalar(Fraction(9, 5))


@given(tower_elems(), tower_elems(), tower_elems())
def test_ring_axioms(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a


@given(tower_nonzero())
def test_inverse_round_trip(w):
    assert w * w.inverse() == K0.one
    assert 1 / w * w == K0.one


@given(tower_elems())
def test_automorphism_order_three(w):
    assert TAU(TAU(TAU(w))) == w


@given(tower_elems(), tower_elems())
def test_automorphism_multiplicative(a, b):
    assert TAU(a * b) == TAU(a) * TAU(b)
    assert TAU(a + b) == TAU(a) + TAU(b)


def test_automorphism_fixes_base_and_twists_radical():
    assert TAU(K0.scalar(ZETA)) == K0.scalar(ZETA)
    assert TAU(RHO) == K0.scalar(ZETA) * RHO
    conj = TowerAutomorphism(K0, (0,), conjugate=True)
    assert conj(K0.scalar(ZETA)) == K0.scalar(ZETA.conjugate())
    assert conj(conj(K0.scalar(ZETA) + RHO)) == K0.scalar(ZETA) + RHO


# ------------------------------------------------------------- norm identities

def test_norm_gives_sqrt_minus_three():
    w = K0.scalar(EisensteinNumber(-1, -2)) + K0.element({(1,): EisensteinNumber(1, -1)})
    assert cubic_norm(w, TAU) == K0.scalar(EisensteinNumber(1, 2))


def test_norm_gives_two():
    w = K0.scalar(2) + 3 * RHO + 3 * RHO * RHO
    assert cubic_norm(w, TAU) == K0.scalar(2)


def test_norm_gives_three_plus_four_zeta():
    w = K0.one + K0.element({(1,): EisensteinNumber(-1, -2)})
    assert cubic_norm(w, TAU) == K0.scalar(EisensteinNumber(3, 4))


@given(tower_elems(), tower_elems())
@settings(max_examples=50)
def test_norm_is_tau_fixed_and_multiplicative(a, b):
    na = cubic_norm(a, TAU)
    assert TAU(na) == na
    assert cubic_norm(a * b, TAU) == na * cubic_norm(b, TAU)


# ------------------------------------------------------------------ polynomials

def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        TowerPolynomial(K0, {(1, 0, 0, 0): K0.one, (2, 0, 0, 0): K0.one})


def test_normal_form_kills_surface():
    assert normal_form(F_SURF, F_SURF).is_zero


def test_normal_form_t_cubed():
    t3 = TowerPolynomial(K0, {(0, 0, 0, 3): K0.one})
    nf = normal_form(t3, F_SURF)
    expect = TowerPolynomial(K0, {
        (3, 0, 0, 0): K0.scalar(Fraction(-5, 12)),
        (0, 3, 0, 0): K0.scalar(Fraction(-9, 12)),
        (0, 0, 3, 0): K0.scalar(Fraction(-10, 12)),
    })
    assert nf == expect


@st.composite
def random_cubics(draw, field=K0):
    monos = [(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3),
             (1, 1, 1, 0), (1, 0, 0, 2), (0, 1, 2, 0), (2, 0, 0, 1)]
    terms = {m: draw(tower_elems(field)) for m in draw(st.sets(st.sampled_from(monos), min_size=1))}
    return TowerPolynomial(field, terms, 3)


@given(random_cubics())
@settings(max_examples=40)
def test_normal_form_idempotent_and_ideal_kernel(p):
    nf = normal_form(p, F_SURF)
    assert normal_form(nf, F_SURF) == nf
    assert all(m[3] <= 2 for m in nf.terms)
    assert normal_form(p * F_SURF, F_SURF).is_zero


def test_normal_form_identity_on_low_t_degree():
    p = TowerPolynomial(K0, {(1, 1, 0, 1): K0.scalar(7), (0, 0, 1, 2): RHO})
    assert normal_form(p, F_SURF) == p


# ------------------------------------------------------------ divisor membership

def _recombine(sol, quadrics):
    l1, l2, l3, c = sol
    return l1 * quadrics[0] + l2 * quadrics[1] + l3 * quadrics[2] + F_SURF * c


def test_f_vanishes_on_curve():
    sol = divisor_membership(F_POLY, C_QUADRICS, F_SURF)
    assert sol is not None
    assert _recombine(sol, C_QUADRICS) == F_POLY


def test_fprime_vanishes_on_curve_prime():
    sol = divisor_membership(FPRIME_POLY, CPRIME_QUADRICS, F_SURF)
    assert sol is not None
    assert _recombine(sol, CPRIME_QUADRICS) == FPRIME_POLY


def test_membership_absence_is_reported():
    squares = tuple(TowerPolynomial(K0, {m: K0.one})
                    for m in ((2, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0)))
    xyz = TowerPolynomial(K0, {(1, 1, 1, 0): K0.one})
    assert divisor_membership(xyz, squares, F_SURF) is None


@given(st.lists(tower_elems(), min_size=13, max_size=13))
@settings(max_examples=25)
def test_membership_round_trip(coeffs):
    lin_monos = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    linears = [TowerPolynomial(K0, dict(zip(lin_monos, coeffs[4 * i:4 * i + 4])), 1)
               for i in range(3)]
    built = (linears[0] * C_QUADRICS[0] + linears[1] * C_QUADRICS[1]
             + linears[2] * C_QUADRICS[2] + F_SURF * coeffs[12])
    if built.is_zero:
        return
    sol = divisor_membership(built, C_QUADRICS, F_SURF)
    assert sol is not None
    assert _recombine(sol, C_QUADRICS) == built


# ---------------------------------------------------------------- calibration

def test_calibration_constant_holds():
    theta = K0.scalar(THETA_FPRIME)
    assert theta == K0.scalar(ZETA) / 4
    assert calibration_identity(F_POLY, FPRIME_POLY, G_POLY, theta, TAU, F_SURF)


def test_calibration_rejects_wrong_constant():
    wrong = K0.scalar(ZETA * ZETA) / 4
    assert not calibration_identity(F_POLY, FPRIME_POLY, G_POLY, wrong, TAU, F_SURF)


def test_calibration_trivial_instance():
    assert calibration_identity(F_POLY, F_POLY, F_POLY, K0.one, TAU, F_SURF)


def test_calibration_degree_check():
    quadric = TowerPolynomial(K0, {(2, 0, 0, 0): K0.one})
    with pytest.raises(ValueError):
        calibration_identity(quadric, quadric, quadric, K0.one, TAU, F_SURF)


# ------------------------------------------- integer kernels against a reference

K1 = TowerField([Fraction(2, 3), Fraction(9, 5)])
TAU1 = TowerAutomorphism(K1, (1, 2))


def _ref_mul(field, x, y):
    """The product of {exponents: EisensteinNumber} maps, one coefficient
    product and one radicand per carry at a time."""
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            c = c1 * c2
            for m, a, b in zip(field.radicands, e1, e2):
                if a + b >= 3:
                    c = c * m
            e = tuple((a + b) % 3 for a, b in zip(e1, e2))
            out[e] = out.get(e, EisensteinNumber(0)) + c
    return {e: c for e, c in out.items() if not c.is_zero}


def _ref_add(x, y):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, EisensteinNumber(0)) + c
    return {e: c for e, c in out.items() if not c.is_zero}


def _ref_tau(tau, x):
    return {e: c * ZETA ** (sum(a * v for a, v in zip(tau.exponents, e)) % 3)
            for e, c in x.items()}


@given(st.data())
@settings(max_examples=60)
def test_kernels_match_the_coefficient_reference(data):
    field, tau = data.draw(st.sampled_from([(K0, TAU), (K1, TAU1)]))
    a = data.draw(tower_elems(field))
    b = data.draw(tower_elems(field))
    assert (a * b).coeffs == _ref_mul(field, a.coeffs, b.coeffs)
    assert (a + b).coeffs == _ref_add(a.coeffs, b.coeffs)
    assert tau(a).coeffs == _ref_tau(tau, a.coeffs)
    if not a.is_zero:
        one = {(0,) * field.r: EisensteinNumber(1)}
        assert _ref_mul(field, a.coeffs, a.inverse().coeffs) == one


@pytest.mark.parametrize("mono", sorted(G_POLY.terms), ids=str)
def test_calibration_rejects_a_changed_multiplier(mono):
    theta = K0.scalar(THETA_FPRIME)
    changed = G_POLY + TowerPolynomial(K0, {mono: K0.one})
    assert not calibration_identity(F_POLY, FPRIME_POLY, changed, theta, TAU, F_SURF)
