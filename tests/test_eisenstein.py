"""Tests for Q(zeta_3) arithmetic, places, residue rings and local invariants.

The strongest oracles here are the norm-kernel property (exact norms from
K_0 = k(cbrt(2/3)) have invariant 0 at every place), which checks the tame
symbol and the reciprocity-filled table over 3 against field arithmetic that
touches neither, and Hilbert reciprocity for random pairs (u, theta).
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bmcubic.eisenstein import (
    ONE,
    PI3,
    ZETA,
    EisensteinNumber,
    InvariantValue,
    PrecisionError,
    _prime_factors,
    cyclic_invariant,
    factor_rational_prime,
    invariant_table,
    is_local_cube,
    localize,
    places_over,
    residue_ring,
    tame_hilbert_symbol,
    unit_resolution,
    valuation,
)

THETA = EisensteinNumber(Fraction(2, 3))

V2 = factor_rational_prime(2)
V3 = factor_rational_prime(3)
V5 = factor_rational_prime(5)
V7 = factor_rational_prime(7)[0]
V13 = factor_rational_prime(13)[0]


def eis(lo=-9, hi=9):
    return st.builds(EisensteinNumber,
                     st.integers(lo, hi).map(Fraction),
                     st.integers(lo, hi).map(Fraction))


def eis_nonzero(lo=-9, hi=9):
    return eis(lo, hi).filter(lambda z: not z.is_zero)


# --- field arithmetic --------------------------------------------------------

@given(eis(), eis(), eis())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == EisensteinNumber(0)


@given(eis_nonzero())
def test_inverse(a):
    assert a * a.inverse() == ONE
    assert (ONE / a) * a == ONE


rationals = st.one_of(st.integers(-30, 30), st.fractions(max_denominator=12))
mixed_eis = st.builds(EisensteinNumber, rationals, rationals)


def coordinates_are_exact(z):
    """int when integral, Fraction otherwise; never a float."""
    return all(type(c) is int or (type(c) is Fraction and c.denominator != 1)
               for c in (z.x, z.y))


@given(mixed_eis, mixed_eis)
def test_integral_coordinates_are_ints(a, b):
    values = [a, b, a + b, a - b, a * b, -a, a.conjugate(), a ** 3, 3 * a, a * Fraction(1, 3)]
    if not b.is_zero:
        values += [b.inverse(), a / b, b ** -2]
        assert b * b.inverse() == ONE
    assert all(coordinates_are_exact(z) for z in values)
    for n in (a.norm(), a.trace(), b.norm(), b.trace()):
        assert type(n) is Fraction
    assert EisensteinNumber(Fraction(6, 3)) == EisensteinNumber(2)
    assert hash(EisensteinNumber(Fraction(6, 3))) == hash(EisensteinNumber(2))
    assert hash(EisensteinNumber(a.x, Fraction(a.y))) == hash(a)


@given(eis(), eis())
def test_conjugation_and_norm(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a * b).norm() == a.norm() * b.norm()
    assert a.norm() == (a * a.conjugate()).x
    assert (a * a.conjugate()).y == 0


def test_zeta_relations():
    assert ZETA ** 3 == ONE
    assert ZETA ** 2 + ZETA + ONE == EisensteinNumber(0)
    assert PI3 == 2 * ZETA + 1
    assert PI3 * PI3 == EisensteinNumber(-3)


# --- places ------------------------------------------------------------------

def test_factor_rational_prime():
    assert V2.kind == "inert" and V2.q == 4
    assert V5.kind == "inert" and V5.q == 25
    assert V3.kind == "ramified" and V3.pi == PI3 and V3.q == 3
    v7a, v7b = factor_rational_prime(7)
    assert v7a.kind == "split" and v7a.q == 7
    assert v7a.pi.norm() == 7
    assert v7b.pi.norm() == 7
    assert v7a.pi != v7b.pi
    # the two places are genuinely conjugate: valuations split the factor 7
    assert valuation(v7a.pi, v7b) == 0
    assert valuation(v7a.pi, v7a) == 1
    assert factor_rational_prime(13)[0].pi.norm() == 13


def test_factor_rejects_composites():
    for n in (0, 1, 4, 15, 49):
        with pytest.raises(ValueError):
            factor_rational_prime(n)


# --- valuations --------------------------------------------------------------

def test_valuation_examples():
    assert valuation(THETA, V3) == -2
    assert valuation(PI3, V3) == 1
    assert valuation(ZETA, V3) == 0
    assert valuation(ZETA, V2) == 0
    assert valuation(EisensteinNumber(2), V2) == 1
    assert valuation(EisensteinNumber(7), V7) == 1  # the conjugate carries the rest
    assert valuation(EisensteinNumber(Fraction(1, 5)), V5) == -1


@given(eis_nonzero(), eis_nonzero())
def test_valuation_is_additive(a, b):
    for place in (V2, V3, V7):
        assert valuation(a * b, place) == valuation(a, place) + valuation(b, place)


@given(eis_nonzero(), eis_nonzero())
def test_valuation_ultrametric(a, b):
    if (a + b).is_zero:
        return
    for place in (V2, V3, V7):
        assert valuation(a + b, place) >= min(valuation(a, place), valuation(b, place))


# --- residue rings -----------------------------------------------------------

@given(eis(0, 30), eis(0, 30))
def test_residue_ring_is_homomorphism(a, b):
    for place in (V2, V3, V7, V13):
        for prec in (1, 3, 4):
            ring = residue_ring(place, prec)
            assert ring.mul(ring.embed(a), ring.embed(b)) == ring.embed(a * b)
            assert ring.add(ring.embed(a), ring.embed(b)) == ring.embed(a + b)


RAW_RINGS = tuple(
    residue_ring(place, n) for place, precisions in (
        (V7, (1, 3, 6)), (places_over(7)[1], (2, 4)), (V13, (1, 3)),
        (V2, (1, 3, 5)), (V5, (2, 3)), (V3, (1, 4, 7, 9)))
    for n in precisions)


def _component_moduli(ring):
    if ring.place.kind == "split":
        return (ring.modulus,)
    return (ring.ma, ring.mb)


@given(st.data())
@settings(max_examples=60)
def test_reduce_once_matches_reducing_every_operation(data):
    # the local engine sums raw products of reduced elements and reduces
    # once; that must equal the sum folded with mul and add, on arrays
    # holding the extreme ids and on scalar-by-array products
    ring = data.draw(st.sampled_from(RAW_RINGS))
    ids = st.integers(0, ring.size - 1)
    block = st.lists(ids, min_size=1, max_size=6).map(
        lambda xs: np.array([0, ring.size - 1] + xs, dtype=np.int64))
    nterms = data.draw(st.integers(1, 10))
    width = data.draw(st.integers(0, 6))
    factor = st.one_of(ids.map(ring.unpack), block.map(
        lambda b: ring.unpack(np.resize(b, width + 2))))
    raw, folded = ring.zero, ring.zero
    for _ in range(nterms):
        x, y = data.draw(factor), data.draw(factor)
        raw = ring.add_raw(raw, ring.mul_raw(x, y))
        folded = ring.add(folded, ring.mul(x, y))
    got = np.broadcast_to(ring.pack(ring.reduce(raw)), width + 2)
    assert (got == np.broadcast_to(ring.pack(folded), width + 2)).all()
    # any representation, whatever its sign or size, on ints and arrays
    big = st.integers(-2 ** 62, 2 ** 62)
    moduli = _component_moduli(ring)
    comps = tuple(data.draw(big) for _ in moduli)
    arrays = tuple(np.array(data.draw(st.lists(big, min_size=1, max_size=5)),
                            dtype=np.int64) for _ in moduli)
    if ring.place.kind == "split":
        assert ring.reduce(comps[0]) == comps[0] % moduli[0]
        assert (ring.reduce(arrays[0]) == arrays[0] % moduli[0]).all()
    else:
        assert ring.reduce(comps) == tuple(c % m for c, m in zip(comps, moduli))
        for r, a, m in zip(ring.reduce(arrays), arrays, moduli):
            assert (r == a % m).all()


def test_residue_ring_structure():
    r7 = residue_ring(V7, 3)
    w = r7.zeta
    assert (w * w + w + 1) % 7 ** 3 == 0
    assert r7.valuation(r7.embed(V7.pi)) == 1  # uniformizer picks the right root
    r3 = residue_ring(V3, 5)
    assert r3.mul(r3.embed(PI3), r3.embed(PI3)) == r3.embed(EisensteinNumber(-3))
    r2 = residue_ring(V2, 3)
    z = r2.embed(ZETA)
    assert r2.mul(z, r2.mul(z, z)) == r2.one


@given(eis_nonzero(0, 30))
def test_residue_unit_inverse(a):
    for place in (V2, V3, V7):
        if valuation(a, place) != 0:
            continue
        for prec in (2, 4):
            ring = residue_ring(place, prec)
            e = ring.embed(a)
            assert ring.mul(e, ring.inv(e)) == ring.one


def test_localize_examples():
    assert localize(THETA, V3).valuation == -2
    assert localize(PI3, V3).valuation == 1
    le = localize(ZETA, V3)
    assert le.valuation == 0
    with pytest.raises(ValueError):
        localize(EisensteinNumber(0), V3)


@given(eis_nonzero())
def test_localize_consistent_with_valuation(a):
    for place in (V2, V3, V7):
        assert localize(a, place, 3).valuation == valuation(a, place)


# --- cube testing ------------------------------------------------------------

def test_is_local_cube_examples():
    assert is_local_cube(EisensteinNumber(8), V2)
    assert not is_local_cube(EisensteinNumber(2), V2)  # valuation 1
    assert is_local_cube(EisensteinNumber(4), V5)  # 4 = (2/3 scaled) is a cube in F_25
    assert is_local_cube(THETA, V5)
    assert not is_local_cube(THETA, V3)
    assert not is_local_cube(THETA, V2)
    assert is_local_cube(ONE, V3)


@given(eis_nonzero())
def test_cubes_are_local_cubes(a):
    for place in (V2, V3, V5, V7):
        assert is_local_cube(a ** 3, place)


# --- tame symbols ------------------------------------------------------------

def test_tame_examples():
    # 2 is a global norm from K_0, so its symbol against 2/3 vanishes at 2
    assert cyclic_invariant(EisensteinNumber(2), THETA, V2) == InvariantValue(0)


@given(st.integers(0, 2), eis(-6, 6))
def test_tame_norm_shape_at_two(n, a):
    # 2^n * (1 + 2a) with a integral is always a norm at the place 2
    u = EisensteinNumber(2) ** n * (ONE + 2 * a)
    assert cyclic_invariant(u, THETA, V2) == InvariantValue(0)


@given(eis_nonzero())
def test_tame_precision_stable(u):
    for place in (V2, V7):
        lo = tame_hilbert_symbol(localize(u, place, 2), localize(THETA, place, 2), place)
        hi = tame_hilbert_symbol(localize(u, place, 4), localize(THETA, place, 4), place)
        assert lo == hi


def test_tame_rejects_wild_place():
    with pytest.raises(ValueError):
        tame_hilbert_symbol(localize(ZETA, V3), localize(THETA, V3), V3)


# --- the place over 3 --------------------------------------------------------

def test_wild_classifier_paper_values():
    # sqrt(-3) = N(-1 - 2*zeta + (1 - zeta)*cbrt(2/3)) is a norm
    assert cyclic_invariant(PI3, THETA, V3) == InvariantValue(0)
    # 3 + 4*zeta = N(1 + (-1 - 2*zeta)*cbrt(2/3)) is a norm
    assert cyclic_invariant(EisensteinNumber(3, 4), THETA, V3) == InvariantValue(0)
    # the anchor
    assert cyclic_invariant(ZETA, THETA, V3) == InvariantValue(2)


@pytest.mark.parametrize("j, c", [(1, 3), (4, 0), (7, -3)])
def test_first_chart_residue_cosets(j, c):
    # N(-1 + sqrt(-3)*cbrt(2/3) + c*cbrt(2/3)^2) = -(3 + j*zeta) mod 9 is an
    # exact norm from K_0 and -1 is a cube, so 3 + j*zeta is a local norm over
    # sqrt(-3); a first-chart residue r = g_1/sqrt(-3) mod 9 therefore needs
    # the factor zeta to carry the flagship invariant 2/3
    a, b, c = -ONE, PI3, EisensteinNumber(c)
    n = a ** 3 + THETA * b ** 3 + THETA * THETA * c ** 3 - 3 * THETA * a * b * c
    assert n.x.denominator == n.y.denominator == 1
    assert (int(n.x) % 9, int(n.y) % 9) == (-3 % 9, -j % 9)
    r = EisensteinNumber(3, j)
    assert cyclic_invariant(PI3 * r, THETA, V3) == InvariantValue(0)
    assert cyclic_invariant(PI3 * ZETA * r, THETA, V3) == InvariantValue(2)


@given(eis(-4, 4))
def test_wild_units_one_mod_nine_are_norms(a):
    u = ONE + 9 * a
    assert cyclic_invariant(u, THETA, V3) == InvariantValue(0)


def test_wild_classifier_class_invariance():
    # 18 = (2/3) * 27 defines the same extension, hence the same invariants
    for u in (ZETA, PI3, EisensteinNumber(2), EisensteinNumber(3, 4), EisensteinNumber(5)):
        assert cyclic_invariant(u, THETA, V3) == cyclic_invariant(u, 18, V3)


def test_wild_classifier_degenerate():
    assert cyclic_invariant(EisensteinNumber(5), ONE, V3) == InvariantValue(0)


def test_wild_classifier_needs_precision():
    with pytest.raises(PrecisionError):
        cyclic_invariant(localize(ZETA, V3, precision=2), THETA, V3)


# --- the anchor and the dispatcher -------------------------------------------

def test_anchor_value():
    assert cyclic_invariant(ZETA, THETA, V3) == InvariantValue(2)
    assert str(cyclic_invariant(ZETA, THETA, V3)) == "2/3"


def test_five_adic_shortcut():
    # cbrt(2/3) lives in k_5, so every invariant there vanishes
    for u in (EisensteinNumber(2), ZETA, EisensteinNumber(7, 3), EisensteinNumber(5)):
        assert cyclic_invariant(u, THETA, V5) == InvariantValue(0)


@given(eis_nonzero(-6, 6))
def test_cubes_have_invariant_zero(u):
    for place in (V2, V3, V7):
        assert cyclic_invariant(u ** 3, THETA, place) == InvariantValue(0)


@given(eis_nonzero(-6, 6), eis_nonzero(-6, 6))
@settings(max_examples=60)
def test_bimultiplicative(u1, u2):
    for place in (V2, V3, V7):
        a = cyclic_invariant(u1, THETA, place)
        b = cyclic_invariant(u2, THETA, place)
        c = cyclic_invariant(u1 * u2, THETA, place)
        assert c == a + b


@given(eis(-5, 5), eis(-5, 5), eis(-5, 5))
def test_norm_kernel(a, b, c):
    # exact norm from K_0 = k(cbrt(2/3)): a^3 + t*b^3 + t^2*c^3 - 3*t*a*b*c
    t = THETA
    n = a ** 3 + t * b ** 3 + t * t * c ** 3 - 3 * t * a * b * c
    if n.is_zero:
        return
    for place in (V2, V3, V5, V7):
        assert cyclic_invariant(n, THETA, place) == InvariantValue(0)


def _places_dividing(n: Fraction):
    primes = {3} | set(_prime_factors(n.numerator)) | set(_prime_factors(n.denominator))
    return [w for p in sorted(primes) for w in places_over(p)]


@given(eis_nonzero(), eis_nonzero())
@settings(max_examples=40)
def test_hilbert_reciprocity(u, theta):
    # inv_v(u, theta) vanishes wherever u and theta are both units
    places = _places_dividing(u.norm() * theta.norm())
    total = sum((cyclic_invariant(u, theta, w) for w in places), InvariantValue(0))
    assert total == InvariantValue(0)


@given(eis_nonzero(), eis_nonzero())
@settings(max_examples=40)
def test_invariant_of_theta_squared_is_negated(u, theta):
    for w in _places_dividing(u.norm() * theta.norm()):
        a = cyclic_invariant(u, theta, w)
        assert cyclic_invariant(u, theta * theta, w) + a == InvariantValue(0)


@given(eis_nonzero(), eis_nonzero(), eis_nonzero(-3, 3))
@settings(max_examples=40)
def test_invariant_ignores_cube_factor_of_theta(u, theta, c):
    for w in _places_dividing(u.norm() * theta.norm() * c.norm()):
        assert cyclic_invariant(u, theta * c ** 3, w) == cyclic_invariant(u, theta, w)


SMALL_PLACES = tuple(w for p in (2, 3, 5, 7, 13) for w in places_over(p))


@given(st.sampled_from(SMALL_PLACES), st.integers(0, 4), st.integers(0, 4),
       eis_nonzero(), eis_nonzero())
@settings(max_examples=60)
def test_unit_part_reads_the_invariant_table(place, a, b, x0, t0):
    # the engines read a residue e of valuation v through unit_part(e, v);
    # that must be the unit of e / pi^v that invariant_table is indexed by,
    # also when v(theta) is not divisible by 3 and the unit matters
    x, theta = x0 * place.pi ** a, t0 * place.pi ** b
    m = unit_resolution(place)
    v = valuation(x, place)
    ring = residue_ring(place, v + m)
    e = ring.embed(x)
    assert ring.valuation(e) == v
    unit = ring.unit_part(e, v)  # an element mod pi^m
    j = invariant_table(theta, place)[(v % 3, residue_ring(place, m).pack(unit))]
    assert InvariantValue(j) == cyclic_invariant(x, theta, place)


def test_invariant_value_arithmetic():
    assert InvariantValue(1) + InvariantValue(2) == InvariantValue(0)
    assert InvariantValue(4) == InvariantValue(1)
    assert str(InvariantValue(0)) == "0"
    assert InvariantValue(2).fraction == Fraction(2, 3)


# --- the table over 3 against one reciprocity sum per entry ------------------

def _norm_primes(x):
    n = x.norm()
    return set(_prime_factors(n.numerator)) | set(_prime_factors(n.denominator))


def _per_entry_table(theta):
    """The table over 3 filled entry by entry: inv_3(x, theta) is minus the
    tame invariants at the places over the primes of N(x) or of N(theta),
    for x = pi^v * u with u the lift of each unit mod pi^4."""
    ring = residue_ring(V3, unit_resolution(V3))
    table = {}
    for u in ring.units():
        for v in range(3):
            x = PI3 ** v * ring.lift(u)
            primes = (_norm_primes(x) | _norm_primes(theta)) - {3}
            tame = sum(tame_hilbert_symbol(localize(x, w, 1), localize(theta, w, 1), w).j
                       for p in primes for w in places_over(p))
            table[(v, ring.pack(u))] = -tame % 3
    return table


TABLE_THETAS = (
    THETA, EisensteinNumber(5), EisensteinNumber(1, 3),
    EisensteinNumber(Fraction(4, 9)), EisensteinNumber(2), EisensteinNumber(7),
    EisensteinNumber(3), ZETA, EisensteinNumber(10, 7),
    EisensteinNumber(Fraction(15, 2), Fraction(15, 2)),
    EisensteinNumber(Fraction(1, 2)), EisensteinNumber(4),
    EisensteinNumber(Fraction(5, 2)), EisensteinNumber(20),
    EisensteinNumber(Fraction(7, 13), 2),
    EisensteinNumber(Fraction(1, 14), Fraction(3, 7)),
)


@pytest.mark.parametrize("theta", TABLE_THETAS, ids=str)
def test_table_over_3_matches_per_entry_reciprocity(theta):
    assert dict(invariant_table(theta, V3)) == _per_entry_table(theta)


@pytest.mark.parametrize("theta", [4, 20])
def test_table_over_3_ignores_a_cube_that_cancels_a_prime(theta):
    # theta * (1/2)^3 has the prime 2 in its denominator, where it cancels
    # against the 2 of an even N(x); the place over 2 must still count
    big = EisensteinNumber(theta)
    small = big * EisensteinNumber(Fraction(1, 2)) ** 3
    assert dict(invariant_table(small, V3)) == dict(invariant_table(big, V3))
    assert cyclic_invariant(ONE + ZETA, small, V3) == cyclic_invariant(ONE + ZETA, big, V3)
