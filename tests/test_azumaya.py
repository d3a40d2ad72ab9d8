"""Local point scans, invariant evaluation and the per-place verdict layer.

The point enumerator is checked against a brute-force search over all
normalized tuples that uses no precomputed table.  The array engine that
powers the attained-set computation is checked against the scalar
reference evaluator on full small cases and on partition slices of the
large ones, and certified point classes are re-verified with exact
arithmetic.
"""

from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bmcubic.azumaya as azumaya_module
from bmcubic.azumaya import (
    CHART_SCALES,
    F_TERMS,
    THETA_CG,
    THETA_FDOUBLEPRIME,
    THETA_FPRIME,
    AzumayaChart,
    AzumayaClass,
    ChartDisagreement,
    NoEvaluableChart,
    NoStabilization,
    Verdict,
    _attained_reference,
    _minkowski,
    _vec_engine,
    bad_places,
    cassels_guy_class,
    default_precision,
    enumerate_local_points,
    first_chart_residues,
    invariant_at_point,
    local_solvability,
    obstruction_verdict,
    place_report,
    places_over,
    scale_class,
)
from bmcubic.eisenstein import (
    EisensteinNumber,
    InvariantValue,
    is_local_cube,
    residue_ring,
    valuation,
)

CG = (5, 9, 10, 12)
CLS = cassels_guy_class()
V2 = places_over(2)[0]
V3 = places_over(3)[0]
V5 = places_over(5)[0]
V7 = places_over(7)[0]
SQRT_MINUS_3 = EisensteinNumber(1, 2)


def evaluate_terms(terms, coords):
    acc = EisensteinNumber(0)
    for mono, c in terms.items():
        v = c
        for x, e in zip(coords, mono):
            v = v * x ** e
        acc = acc + v
    return acc


def surface_value(coeffs, coords):
    acc = EisensteinNumber(0)
    for c, x in zip(coeffs, coords):
        acc = acc + EisensteinNumber(c) * x ** 3
    return acc


# ------------------------------------------------------------------ chart data

def test_cassels_guy_class_shape():
    assert CLS.order == 3
    assert CLS.theta == THETA_CG
    assert len(CLS.charts) == 12
    assert sorted(ch.denominator for ch in CLS.charts) == sorted(list(range(4)) * 3)
    assert all(ch.theta == THETA_CG for ch in CLS.charts)
    assert all(len(ch.numerator) == 10 for ch in CLS.charts)


def test_chart_scales_are_cube_multiples_of_calibration_constants():
    eight = EisensteinNumber(8)
    assert THETA_FPRIME * eight == CHART_SCALES[1]
    assert THETA_FDOUBLEPRIME * eight == CHART_SCALES[2]
    # -60 zeta^2 written out: zeta^2 = -1 - zeta
    assert CHART_SCALES[2] == EisensteinNumber(60, 60)


def test_chart_validation():
    good = CLS.charts[0]
    with pytest.raises(ValueError):
        AzumayaChart(good.theta, good.numerator, 5, good.constant)
    with pytest.raises(ValueError):
        AzumayaChart(good.theta, (((1, 1, 0, 0), EisensteinNumber(1)),),
                     0, good.constant)
    with pytest.raises(ValueError):
        AzumayaChart(good.theta, good.numerator, 0, EisensteinNumber(0))
    other = AzumayaChart(EisensteinNumber(5), good.numerator, 0, good.constant)
    with pytest.raises(ValueError):
        AzumayaClass(THETA_CG, (good, other))


def test_bad_places_examples():
    assert [pl.p for pl in bad_places(CG)] == [2, 3, 5]
    assert [pl.p for pl in bad_places(CG, CLS)] == [2, 3, 5]
    assert [pl.p for pl in bad_places((1, 1, 1, 2))] == [2, 3]
    assert [pl.p for pl in bad_places((1, 1, 1, 1))] == [3]
    with pytest.raises(ValueError):
        bad_places((1, 2, 3))
    with pytest.raises(ValueError):
        bad_places((1, 2, 3, 0))


def test_default_precisions():
    assert default_precision(V3) == 5
    assert default_precision(V2) == 3
    assert default_precision(V5) == 3


# ------------------------------------------------------------------ point scan

def test_enumerate_simple_surface_at_split_place():
    pts = list(enumerate_local_points((1, 1, 1, 1), V7, 1))
    assert any(p.coords == (1, 6, 0, 0) for p in pts)
    for p in pts:
        idx, w = p.certificate
        assert p.precision > 2 * w
        assert 0 <= idx < 4


def test_enumerate_is_deterministic():
    a = list(enumerate_local_points(CG, V2, 3))
    b = list(enumerate_local_points(CG, V2, 3))
    assert a == b
    assert len(a) == 12288


def test_enumerate_partition_union():
    whole = set(p.coords for p in enumerate_local_points(CG, V2, 3))
    parts = [set(p.coords for p in enumerate_local_points(CG, V2, 3, (k, 3)))
             for k in range(3)]
    assert set().union(*parts) == whole
    assert sum(len(p) for p in parts) == len(whole)


def test_first_unit_normalization():
    ring = residue_ring(V2, 3)
    for p in islice(enumerate_local_points(CG, V2, 3), 0, None, 37):
        vals = [ring.valuation(e) for e in p.coords]
        lead = next(i for i, v in enumerate(vals) if v == 0)
        assert p.coords[lead] == ring.one
        assert all(v > 0 for v in vals[:lead])


def test_certificates_hold_in_exact_arithmetic():
    for p in islice(enumerate_local_points(CG, V2, 3), 0, None, 41):
        coords = p.coordinates_exact()
        f = surface_value(CG, coords)
        assert f.is_zero or valuation(f, V2) >= p.precision
        partials = [EisensteinNumber(3 * c) * x * x
                    for c, x in zip(CG, coords)]
        w = min(valuation(d, V2) for d in partials if not d.is_zero)
        assert w == p.certificate[1]
        assert p.precision > 2 * w


def test_ramified_certificates_hold_in_exact_arithmetic():
    sample = islice(enumerate_local_points(CG, V3, 7, (0, 729)), 0, None, 211)
    seen = 0
    for p in sample:
        coords = p.coordinates_exact()
        f = surface_value(CG, coords)
        assert f.is_zero or valuation(f, V3) >= 7
        partials = [EisensteinNumber(3 * c) * x * x
                    for c, x in zip(CG, coords)]
        w = min(valuation(d, V3) for d in partials if not d.is_zero)
        assert w == p.certificate[1] == 2
        seen += 1
    assert seen > 50


def _brute_force_points(coeffs, place, n):
    """Certified classes mod pi^n found by trying every 4-tuple whose first
    unit coordinate is 1, evaluating F and its partials with the ring's
    scalar arithmetic (the coefficients must be primitive at the place)."""
    ring = residue_ring(place, n)
    elems = list(ring.elements())
    nonunits = [e for e in elems if ring.valuation(e) > 0]
    three = ring.embed(EisensteinNumber(3))
    cs = [ring.embed(EisensteinNumber(c)) for c in coeffs]
    terms = [{e: ring.mul(c, ring.pow(e, 3)) for e in elems} for c in cs]
    dvals = [{e: ring.valuation(ring.mul(ring.mul(three, c), ring.mul(e, e)))
              for e in elems} for c in cs]
    out = set()
    for lead in range(4):
        pools = [nonunits] * lead + [[ring.one]] + [elems] * (3 - lead)
        for xs in product(*pools):
            f = ring.zero
            for term, x in zip(terms, xs):
                f = ring.add(f, term[x])
            if f != ring.zero:
                continue
            dv = [d[x] for d, x in zip(dvals, xs)]
            w = min(dv)
            if n > 2 * w:
                out.add((xs, (dv.index(w), w)))
    return out


@pytest.mark.parametrize("coeffs, place, n", [
    (CG, V2, 2), (CG, V3, 3),
    ((1, 1, 1, 1), V7, 2), ((1, 1, 1, 1), places_over(7)[1], 2),
    ((1, 2, 7, 14), V7, 2), ((1, 2, 7, 14), places_over(7)[1], 2),
])
def test_enumeration_matches_brute_force(coeffs, place, n):
    assert min(valuation(EisensteinNumber(c), place) for c in coeffs) == 0
    pts = [(p.coords, p.certificate)
           for p in enumerate_local_points(coeffs, place, n)]
    assert len(pts) == len(set(pts))
    assert set(pts) == _brute_force_points(coeffs, place, n)


def test_batch_bound_changes_neither_stream_nor_attained_set(monkeypatch):
    stream = list(enumerate_local_points(CG, V2, 3))
    attained = _vec_engine(CG, CLS, V2, 3).run(0, 1)
    monkeypatch.setattr(azumaya_module, "_BATCH_CLASSES", 5)
    assert list(enumerate_local_points(CG, V2, 3)) == stream
    assert _vec_engine(CG, CLS, V2, 3).run(0, 1) == attained


# ------------------------------------------------------------------- invariants

def test_invariants_vanish_at_the_inert_place():
    for p in islice(enumerate_local_points(CG, V2, 3), 0, None, 53):
        assert invariant_at_point(CLS, p) == InvariantValue(0)


def test_engine_matches_reference_small_inert():
    assert (_vec_engine(CG, CLS, V2, 3).run(0, 1)
            == _attained_reference(CG, CLS, V2, 3) == ((0,), 12288, True))


def test_engine_matches_reference_ramified_slice():
    ref = _attained_reference(CG, CLS, V3, 7, (0, 729))
    eng = _vec_engine(CG, CLS, V3, 7).run(0, 729)
    assert ref == eng
    assert ref[0] == (2,)
    assert ref[2] is True


def test_engine_matches_reference_incomplete_at_default_ramified_precision():
    # at pi^5 the evaluability threshold is negative: nothing readable
    ref = _attained_reference(CG, CLS, V3, 5)
    eng = _vec_engine(CG, CLS, V3, 5).run(0, 1)
    assert ref[0] is None and eng[0] is None
    assert ref[2] is False and eng[2] is False


def test_engine_partition_union_matches_whole():
    whole = _vec_engine(CG, CLS, V2, 3).run(0, 1)
    parts = [_vec_engine(CG, CLS, V2, 3).run(k, 5) for k in range(5)]
    merged = tuple(sorted(set().union(*(set(p[0]) for p in parts))))
    assert merged == whole[0]
    assert sum(p[1] for p in parts) == whole[1]
    assert all(p[2] for p in parts)


def test_mismatched_surface_charts_abort():
    with pytest.raises(ChartDisagreement):
        _attained_reference((1, 1, 2, 14), CLS, V7, 2)
    with pytest.raises(ChartDisagreement):
        _vec_engine((1, 1, 2, 14), CLS, V7, 2).run(0, 1)


def test_single_denominator_class_can_lack_evaluable_charts():
    only_t = AzumayaClass(
        THETA_CG, tuple(c for c in CLS.charts if c.denominator == 3))
    att, count, complete = _attained_reference(CG, only_t, V2, 3)
    assert att is None and not complete and count > 0
    deep = next(p for p in enumerate_local_points(CG, V2, 3)
                if residue_ring(V2, 3).valuation(p.coords[3]) > 0)
    with pytest.raises(NoEvaluableChart):
        invariant_at_point(only_t, deep)


def test_denominator_choice_does_not_change_the_value():
    ring = residue_ring(V2, 3)
    per_den = [AzumayaClass(
        THETA_CG, tuple(c for c in CLS.charts if c.denominator == d))
        for d in range(4)]
    checked = 0
    for p in islice(enumerate_local_points(CG, V2, 3), 0, None, 97):
        if any(ring.valuation(e) > 0 for e in p.coords):
            continue
        vals = {invariant_at_point(c, p) for c in per_den}
        assert len(vals) == 1
        checked += 1
    assert checked > 10


def test_scaling_by_a_cube_preserves_the_class():
    scaled = scale_class(CLS, EisensteinNumber(8))
    assert _vec_engine(CG, scaled, V2, 3).run(0, 1) \
        == _vec_engine(CG, CLS, V2, 3).run(0, 1)
    for p in islice(enumerate_local_points(CG, V2, 3), 0, None, 113):
        assert invariant_at_point(scaled, p) == invariant_at_point(CLS, p)


def test_engine_refuses_oversized_rings():
    with pytest.raises(NoStabilization):
        _vec_engine(CG, CLS, places_over(13)[0], 7)


# ------------------------------------------------------------------- six residues

def test_first_chart_lands_in_the_six_residues_over_sqrt_minus_3():
    # the six residues are zeta times the norms 1, 4, 7, 3+zeta, 3+4zeta,
    # 3+7zeta, so every value is zeta times a norm and the local invariant
    # is 2/3 at every point; a list with the bare norms in place of their
    # zeta-multiples would straddle two norm cosets and contradict that
    zeta = EisensteinNumber(0, 1)
    norms = [EisensteinNumber(1), EisensteinNumber(4), EisensteinNumber(7),
             EisensteinNumber(3, 1), EisensteinNumber(3, 4),
             EisensteinNumber(3, 7)]
    candidates = [zeta * n for n in norms]
    seen = set()
    for p in islice(enumerate_local_points(CG, V3, 7, (1, 100)), 0, None, 311):
        coords = p.coordinates_exact()
        assert coords[0] == EisensteinNumber(1)
        g1 = evaluate_terms(F_TERMS, coords)
        assert valuation(g1, V3) == 1
        r = g1 / SQRT_MINUS_3
        hits = [i for i, c in enumerate(candidates)
                if valuation(r - c, V3) >= 4]
        assert len(hits) == 1, r
        seen.add(hits[0])
    assert len(seen) >= 3


def test_first_chart_residue_collection_is_exhaustive():
    zeta = EisensteinNumber(0, 1)
    norms = [EisensteinNumber(1), EisensteinNumber(4), EisensteinNumber(7),
             EisensteinNumber(3, 1), EisensteinNumber(3, 4),
             EisensteinNumber(3, 7)]
    want = frozenset(
        EisensteinNumber(int((zeta * n).x) % 9, int((zeta * n).y) % 9)
        for n in norms)
    assert first_chart_residues(CG, CLS, V3, 7) == want
    with pytest.raises(ValueError):
        first_chart_residues(CG, CLS, V2, 3)
    with pytest.raises(NoStabilization):
        first_chart_residues(CG, CLS, V3, 5)


# ------------------------------------------------------------------ place layer

def test_place_report_inert():
    rep = place_report(CG, CLS, V2)
    assert rep.solvable and rep.stable
    assert rep.attained == frozenset({InvariantValue(0)})
    assert rep.precision == 5
    assert rep.point_classes == 3145728


def test_place_report_matches_across_jobs():
    assert place_report(CG, CLS, V2, jobs=1) == place_report(CG, CLS, V2, jobs=3)


def test_place_report_split_theta_shortcut():
    assert is_local_cube(THETA_CG, V5)
    rep = place_report(CG, CLS, V5)
    assert rep.solvable and rep.stable
    assert rep.attained == frozenset({InvariantValue(0)})
    assert rep.precision == 0 and rep.point_classes == 0


def test_place_report_good_reduction():
    rep = place_report(CG, CLS, V7)
    assert rep.solvable and rep.stable
    assert rep.attained == frozenset({InvariantValue(0)})
    assert rep.precision == 0 and rep.point_classes == 0


def test_local_solvability():
    for place in bad_places(CG):
        assert local_solvability(CG, place)
    assert local_solvability((1, 1, 1, 1), V3)
    assert not local_solvability((1, 2, 7, 14), places_over(7)[0])
    assert not local_solvability((1, 2, 7, 14), places_over(7)[1])


def test_precision_override_and_escalation_cap():
    rep = place_report(CG, CLS, V2, precision=1)
    assert rep.stable and rep.precision == 3 and rep.point_classes == 12288
    capped = place_report(CG, CLS, V2, cap=3)
    assert not capped.stable
    assert capped.precision == 3
    assert capped.attained == frozenset({InvariantValue(0)})
    assert capped.solvable
    with pytest.raises(NoStabilization):
        local_solvability((1, 2, 7, 14), places_over(7)[0], cap=1)


# ---------------------------------------------------------------- verdict layer

def test_minkowski_sum():
    z = InvariantValue(0)
    assert _minkowski([]) == frozenset({z})
    assert _minkowski([frozenset({z}), frozenset({InvariantValue(2)})]) \
        == frozenset({InvariantValue(2)})
    got = _minkowski([frozenset({z, InvariantValue(1)}),
                      frozenset({InvariantValue(2)})])
    assert got == frozenset({InvariantValue(2), z})


def test_verdict_trivial_h1_surface():
    report = obstruction_verdict((1, 1, 1, 1))
    assert report.verdict == Verdict.H1_TRIVIAL
    assert report.h1 == "0"
    assert report.sumset == frozenset({InvariantValue(0)})


def test_verdict_not_locally_solvable():
    report = obstruction_verdict((1, 2, 7, 14))
    assert report.verdict == Verdict.NOT_LOCALLY_SOLVABLE
    assert len(report.place_reports) == 1
    assert report.place_reports[0].place.p == 7
    assert report.sumset == frozenset()


def test_cube_factor_does_not_change_the_verdict():
    # 27 = 3^3 leaves every raw class over 3 uncertified unless the
    # solvability scan divides it out; x_3 -> x_3/3 maps one surface
    # onto the other
    cubed = obstruction_verdict((14, 52, 27, 35))
    reduced = obstruction_verdict((14, 52, 1, 35))
    assert cubed.verdict == reduced.verdict == Verdict.NO_OBSTRUCTION_FROM_CLASS
    assert cubed.h1 == reduced.h1 == "Z/3"


def test_verdict_without_classes_reports_h1_only():
    report = obstruction_verdict(CG)
    assert report.verdict == Verdict.NO_OBSTRUCTION_FROM_CLASS
    assert report.h1 != "0"
    assert report.place_reports == ()


# ------------------------------------------------------------------- properties

nonzero_coeff = st.integers(min_value=1, max_value=30)


@given(st.tuples(nonzero_coeff, nonzero_coeff, nonzero_coeff, nonzero_coeff))
@settings(max_examples=100)
def test_split_place_certificates_are_exact(coeffs):
    # the scanner works with the primitive equation, so compare against
    # coefficients with any common pi-power removed
    exact = [EisensteinNumber(c) for c in coeffs]
    content = min(valuation(c, V7) for c in exact)
    reduced = [c / V7.pi ** content for c in exact]
    for p in enumerate_local_points(coeffs, V7, 1):
        coords = p.coordinates_exact()
        f = EisensteinNumber(0)
        for c, x in zip(reduced, coords):
            f = f + c * x ** 3
        assert f.is_zero or valuation(f, V7) >= 1
        partials = [EisensteinNumber(3) * c * x * x
                    for c, x in zip(reduced, coords)]
        w = min(valuation(d, V7) for d in partials if not d.is_zero)
        assert w == p.certificate[1] == 0


small_int = st.integers(min_value=-3, max_value=3)
unit_scalars = st.builds(EisensteinNumber, small_int, small_int).filter(
    lambda u: not u.is_zero)

SAMPLE_POINTS = None


def _sample_points():
    global SAMPLE_POINTS
    if SAMPLE_POINTS is None:
        SAMPLE_POINTS = list(
            islice(enumerate_local_points(CG, V2, 3), 0, None, 1530))
    return SAMPLE_POINTS


@given(unit_scalars)
@settings(max_examples=60)
def test_cube_scaling_invariance(lam):
    scaled = scale_class(CLS, lam * lam * lam)
    for p in _sample_points():
        assert invariant_at_point(scaled, p) == invariant_at_point(CLS, p)


@given(st.lists(st.sets(st.integers(min_value=0, max_value=2)),
                min_size=0, max_size=4))
@settings(max_examples=100)
def test_minkowski_order_independent_and_grows(sets):
    fs = [frozenset(InvariantValue(j) for j in s) for s in sets]
    forward = _minkowski(fs)
    backward = _minkowski(list(reversed(fs)))
    assert forward == backward
    if sets and all(sets):
        assert len(forward) >= max(len(s) for s in sets)
