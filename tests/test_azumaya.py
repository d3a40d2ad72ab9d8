"""Local point scans, invariant evaluation and the per-place verdict layer.

The point enumerator is checked against a brute-force search over all
normalized tuples that uses no precomputed table.  The array engine that
powers the attained-set computation is checked against the scalar
reference evaluator on full small cases and, ball by ball, on a fixed
stride of the balls of the large ones, and certified point classes are
re-verified with exact arithmetic.
"""

import os
import subprocess
import sys
from itertools import islice, permutations, product
from pathlib import Path

import numpy as np
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
    LocalPointClass,
    NoEvaluableChart,
    NoStabilization,
    Verdict,
    _attained,
    _attained_reference,
    _batches,
    _local_model,
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
    cyclic_invariant,
    is_local_cube,
    residue_ring,
    valuation,
)

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bmbench"))

import reference  # noqa: E402
import workloads  # noqa: E402

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


def _full_walk(coeffs, cls, place, n, part=0, nparts=1):
    """(attained invariants, point classes, complete) of the engine's rung
    at precision n with every stratum walked in full, on slice `part` of
    `nparts` of the ball walk."""
    bits, count, complete, _ = _vec_engine(coeffs, cls, place, n).rung(
        part, nparts)
    if not complete:
        return None, count, False
    return tuple(j for j in range(3) if bits >> j & 1), count, True


def _sampled_balls(eng, stride):
    """(w, branch, batch, ks) over the engine's walk of every stratum, ks
    the indices in the batch of every `stride`-th ball of the walk."""
    seen = 0
    for w, branch, bt in eng.walk(0, 1):
        ks = np.arange(-seen % stride, len(bt.pmap), stride)
        seen += len(bt.pmap)
        if len(ks):
            yield w, branch, bt, ks


def _representative(eng, bt, k, w):
    """Ball k of a batch as the point class of its representative, itself
    a certified class mod pi^N with the ball's certificate."""
    _, fa, fb, sj = bt.roles
    ring = eng.ring
    coords = [ring.one] * 4
    coords[fa] = ring.unpack(bt.a)
    coords[fb] = ring.unpack(int(bt.b_pool[bt.pmap[k]]))
    coords[sj] = ring.unpack(int(bt.sol[k]))
    return LocalPointClass(eng.place, eng.precision, tuple(coords),
                           (int(bt.dval[:, k].argmin()), w))


def _sampled_points(eng, stride):
    """The representatives of every `stride`-th ball of the engine's walk."""
    for w, _, bt, ks in _sampled_balls(eng, stride):
        for k in ks.tolist():
            yield _representative(eng, bt, k, w)


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
    seen = 0
    for p in _sampled_points(_vec_engine(CG, CLS, V3, 7), 211):
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
    attained = _full_walk(CG, CLS, V2, 3)
    monkeypatch.setattr(azumaya_module, "_BATCH_CLASSES", 5)
    assert list(enumerate_local_points(CG, V2, 3)) == stream
    assert _full_walk(CG, CLS, V2, 3) == attained


# ------------------------------------------------------------------- invariants

def test_invariants_vanish_at_the_inert_place():
    for p in islice(enumerate_local_points(CG, V2, 3), 0, None, 53):
        assert invariant_at_point(CLS, p) == InvariantValue(0)


def test_engine_matches_reference_small_inert():
    assert (_full_walk(CG, CLS, V2, 3)
            == _attained_reference(CG, CLS, V2, 3) == ((0,), 12288, True))


def _ball_by_ball(place, n, stride):
    """The engine's invariant bit on every `stride`-th ball of the
    flagship's walk at pi^n against the scalar evaluator at the ball's
    representative: (balls checked, union of their bits)."""
    eng = _vec_engine(CG, CLS, place, n)
    checked, union = 0, 0
    for w, branch, bt, ks in _sampled_balls(eng, stride):
        bits, _ = eng._eval_batch(branch, bt.a, bt.pmap[ks], bt.sol[ks])
        for k, bit in zip(ks.tolist(), bits.tolist()):
            pt = _representative(eng, bt, k, w)
            assert bit == 1 << invariant_at_point(CLS, pt).j
            union |= bit
        checked += len(ks)
    return checked, union


def test_engine_matches_reference_ball_by_ball_inert_at_pi5():
    # the rung the flagship walks over 2, where the engine's raw ring
    # arithmetic and reading tables carry every ball
    checked, union = _ball_by_ball(V2, 5, 997)
    assert checked >= 3000 and union == 1


def test_engine_matches_reference_ball_by_ball_ramified_at_pi7():
    # the first complete rung over 3: every ball has certificate w = 2
    checked, union = _ball_by_ball(V3, 7, 53)
    assert checked >= 1000 and union == 1 << 2


def test_engine_matches_reference_incomplete_at_default_ramified_precision():
    # at pi^5 the evaluability threshold is negative: nothing readable
    ref = _attained_reference(CG, CLS, V3, 5)
    eng = _full_walk(CG, CLS, V3, 5)
    assert ref[0] is None and eng[0] is None
    assert ref[2] is False and eng[2] is False


def test_engine_partition_union_matches_whole():
    whole = _full_walk(CG, CLS, V2, 3)
    parts = [_full_walk(CG, CLS, V2, 3, k, 5) for k in range(5)]
    merged = tuple(sorted(set().union(*(set(p[0]) for p in parts))))
    assert merged == whole[0]
    assert sum(p[1] for p in parts) == whole[1]
    assert all(p[2] for p in parts)


def test_engine_partition_union_matches_whole_over_3():
    # the partition --jobs uses, on balls of certificate w = 2
    whole = _full_walk(CG, CLS, V3, 7)
    assert whole == ((2,), 3 ** 16, True)
    parts = [_full_walk(CG, CLS, V3, 7, k, 4) for k in range(4)]
    merged = tuple(sorted(set().union(*(set(p[0]) for p in parts))))
    assert merged == whole[0]
    assert sum(p[1] for p in parts) == whole[1]
    assert all(p[2] and p[1] for p in parts)


def _class_counts_by_w(coeffs, place, n):
    """Certified classes of the class walk, counted by certificate w."""
    counts = [0] * (n + 1)
    for bt in _batches(_local_model(coeffs, place, n)):
        for w, k in enumerate(np.bincount(bt.w, minlength=n + 1).tolist()):
            counts[w] += k
    return {w: k for w, k in enumerate(counts) if k and 2 * w < n}


@pytest.mark.parametrize("coeffs, place, n, by_w, balls", [
    ((1, 1, 7, 7), V7, 3, {0: 352947, 1: 50421}, None),
    ((1, 1, 7, 7), places_over(7)[1], 3, {0: 352947, 1: 50421}, None),
    ((1, 1, 2, 2), V2, 5, {0: 3145728, 1: 786432}, None),
    (CG, V3, 7, {2: 59049 * 3 ** 6}, {2: 59049}),
])
def test_balls_per_stratum_match_the_class_walk(coeffs, place, n, by_w, balls):
    model = _local_model(coeffs, place, n)
    assert _class_counts_by_w(coeffs, place, n) == by_w
    got_balls, got_classes = {}, {}
    for w in model.strata:
        for bt in _batches(model, None, w):
            assert (bt.w == w).all()
            got_balls[w] = got_balls.get(w, 0) + len(bt.pmap)
            got_classes[w] = got_classes.get(w, 0) \
                + len(bt.pmap) * model.q ** (3 * w)
    assert got_classes == by_w
    if balls is not None:
        assert got_balls == balls
    # the engine counts the same classes: the constant class is readable
    # on every ball, through its leading coordinate
    assert _full_walk(coeffs, _constant_class(), place, n)[1:] \
        == (sum(by_w.values()), True)


def _balls(coeffs, place, n, w):
    return sum(len(bt.pmap)
               for bt in _batches(_local_model(coeffs, place, n), None, w))


@pytest.mark.parametrize("coeffs, place, n, w", [
    (CG, V2, 2, 0), (CG, V2, 3, 0), ((1, 1, 7, 7), V7, 2, 0),
    ((1, 4, 2, 2), V2, 4, 1), ((1, 1, 2, 6), V2, 4, 1),
    ((1, 2, 3, 4), V3, 6, 2), (CG, V3, 6, 2), ((1, 1, 1, 3), V3, 6, 2),
])
def test_each_ball_has_q4_children_two_digits_up(coeffs, place, n, w):
    # for N >= 2w + 2 a stratum-w ball mod pi^(N - w) lifts to exactly q^4
    # stratum-w balls of precision N + 2: the reused rungs count by this
    assert n >= 2 * w + 2
    below = _balls(coeffs, place, n, w)
    assert below > 0
    assert _balls(coeffs, place, n + 2, w) == place.q ** 4 * below


def _ladder_rungs(monkeypatch, coeffs, cls, place, **kw):
    """place_report's rungs, each (precision, attained, classes, complete)
    as the ladder computed it, frontier reuse included."""
    rungs = []

    def spy(*args):
        got = _attained(*args)
        rungs.append((args[3],) + got[:3])
        return got

    monkeypatch.setattr(azumaya_module, "_attained", spy)
    try:
        place_report(coeffs, cls, place, **kw)
    except NoStabilization:
        pass
    return rungs


def _seven_chart_class():
    # one chart 7y/x with theta = 7: invariants 0, 1 and 2 over 7, all
    # from balls that rung 2 settles
    seven = EisensteinNumber(7)
    chart = AzumayaChart(seven, (((2, 1, 0, 0), seven),), 0,
                         EisensteinNumber(1))
    return AzumayaClass(seven, (chart,))


def _constant_class():
    # the constant zeta as x_d^3 / x_d^3, d = 0..3: invariant 1/3 at
    # every point, read through x_d only where x_d is a unit mod pi^3
    zeta = EisensteinNumber(0, 1)
    return AzumayaClass(THETA_CG, tuple(
        AzumayaChart(THETA_CG, ((tuple(3 * (i == d) for i in range(4)),
                                 EisensteinNumber(1)),), d, zeta)
        for d in range(4)))


ONE_DENOMINATOR = [AzumayaClass(
    THETA_CG, tuple(c for c in CLS.charts if c.denominator == d))
    for d in range(4)]
COMPLETE_LADDER = [(3, True), (5, True)]


@pytest.mark.parametrize("coeffs, cls, place, kw, ladder", [
    (CG, CLS, V2, {}, COMPLETE_LADDER),
    (CG, CLS, V3, {}, [(5, False), (7, True), (9, True)]),
    (CG, ONE_DENOMINATOR[0], V2, {"cap": 5}, COMPLETE_LADDER),
    (CG, ONE_DENOMINATOR[1], V2, {"cap": 5}, COMPLETE_LADDER),
    (CG, ONE_DENOMINATOR[2], V2, {"cap": 5}, [(3, False), (5, False)]),
    (CG, ONE_DENOMINATOR[3], V2, {"cap": 5}, [(3, False), (5, False)]),
    ((1, 1, 2, 2), _constant_class(), V2, {}, COMPLETE_LADDER),
] + [((1, 1, 2, 7), _seven_chart_class(), place,
      {"precision": 2, "cap": 4}, [(2, True), (4, True)])
     for place in places_over(7)])
def test_ladder_rungs_match_the_full_walk(monkeypatch, coeffs, cls, place, kw,
                                          ladder):
    # every rung of the ladder, reusing the frontier of a complete rung
    # below or walked in full after an incomplete one, returns what the
    # full walk returns at its precision
    rungs = _ladder_rungs(monkeypatch, coeffs, cls, place, **kw)
    assert [(r[0], r[3]) for r in rungs] == ladder
    for n, att, count, complete in rungs:
        full = _full_walk(coeffs, cls, place, n)
        assert complete == full[2]
        if complete:
            assert (tuple(sorted(att)), count) == full[:2]


def test_disagreement_among_open_children_is_found():
    # a chart group 8f/t^3 with constant zeta: 8 is a cube, so it reads
    # the class shifted by the invariant of zeta, and it is readable at no
    # ball of rung 3 (v(8f) >= 3).  Rung 3 completes and leaves open the
    # 11,712 balls where t is not divisible by pi^2; the ladder's rung 5
    # evaluates their children and meets the full walk's first
    # disagreement
    eight_f = {m: c * EisensteinNumber(8) for m, c in F_TERMS.items()}
    shifted = AzumayaChart(THETA_CG, tuple(sorted(eight_f.items())), 3,
                           EisensteinNumber(0, 1))
    cls = AzumayaClass(THETA_CG, CLS.charts + (shifted,))
    att, count, complete, frontier = _attained(CG, cls, V2, 3, 1, None, True)
    assert (att, count, complete) == (frozenset({0}), 12288, True)
    assert sum(len(row[2]) for row in frontier.open[0]) == 11712
    with pytest.raises(ChartDisagreement) as full:
        _full_walk(CG, cls, V2, 5)
    with pytest.raises(ChartDisagreement) as ladder:
        place_report(CG, cls, V2)
    assert str(ladder.value) == str(full.value) == (
        "charts disagree at ((1, 0), (0, 1), (0, 3), (0, 3)) "
        "(place(2,inert,pi=2))")


def _evaluated(monkeypatch, place, coeffs=CG, cls=CLS):
    """Balls the chart reading evaluated in one place_report, by rung and
    stratum."""
    seen = {}
    real = azumaya_module._VecEngine._eval_batch

    def spy(self, branch, a_id, pmap, sols, *args):
        key = (self.precision, branch[0][0])
        seen[key] = seen.get(key, 0) + len(pmap)
        return real(self, branch, a_id, pmap, sols, *args)

    monkeypatch.setattr(azumaya_module._VecEngine, "_eval_batch", spy)
    place_report(coeffs, cls, place)
    return seen


def test_rungs_evaluate_only_the_children_of_open_balls(monkeypatch):
    # over 2, rung 3 leaves 3,072 of its 12,288 balls open, and rung 5
    # evaluates their 3,072 * 4^4 children instead of 3,145,728 balls
    assert _evaluated(monkeypatch, V2) == {(3, 0): 12288, (5, 0): 786432}
    # over 3 rung 7 settles all 59,049 balls, so rung 9 evaluates no
    # stratum-2 ball
    over_3 = _evaluated(monkeypatch, V3)
    assert over_3[(7, 2)] == 59049
    assert (9, 2) not in over_3
    # the constant class leaves 4,176 balls of stratum 0 open at rung 3;
    # stratum 1 has 2w + 2 > 3, so rung 5 walks it in full
    assert _evaluated(monkeypatch, V2, (1, 1, 2, 2), _constant_class()) == {
        (3, 0): 12288, (3, 1): 48, (5, 0): 4176 * 4 ** 4, (5, 1): 12288}
    # only a rung with a rung above it records a frontier
    frontiers = []
    real = azumaya_module._VecEngine.rung

    def spy(self, *args):
        got = real(self, *args)
        frontiers.append((self.precision, got[3]))
        return got

    monkeypatch.setattr(azumaya_module._VecEngine, "rung", spy)
    place_report(CG, CLS, V2)
    assert [(n, f is not None) for n, f in frontiers] == [(3, True), (5, False)]
    assert sum(len(row[2]) for row in frontiers[0][1].open[0]) == 3072


def test_inexact_valuations_keep_balls_open():
    # every point of x^3 + 4y^3 + 4z^3 + 4t^3 over 2 has x even and
    # certificate w = 2.  A chart group with the surface form itself as
    # numerator reads valuation N = 6 on every ball.  The engine knows a
    # value on a ball only mod pi^(N - w), so it takes a valuation as
    # exact only below N - w = 4 and cannot rule the group out at rung 8
    # (limit 8 - 1 - 2 = 5): no ball is settled.  The groups x_d^3 / x_d^3
    # keep every ball readable
    coeffs = (1, 4, 4, 4)
    one = EisensteinNumber(1)
    cubes = [tuple(3 * (i == d) for i in range(4)) for d in range(4)]
    form = tuple((m, EisensteinNumber(c)) for m, c in zip(cubes, coeffs))
    cls = AzumayaClass(THETA_CG, tuple(
        AzumayaChart(THETA_CG, num, d, one)
        for d in range(4) for num in (form, ((cubes[d], one),))))
    eng = _vec_engine(coeffs, cls, V2, 6)
    assert list(eng.model.strata) == [0, 1, 2]
    # a batch with x of valuation 1: most of its balls have no coordinate
    # deep enough to leave an x_d^3 group open on its own
    bt = next(bt for bt in _batches(eng.model, (0, 1), 2)
              if eng.model.val[bt.a] == 1)
    branch = eng._branch(2, bt.roles, bt.b_pool)
    bits, open_ = eng._eval_batch(branch, bt.a, bt.pmap, bt.sol, True)
    assert (bits == 1).all()
    assert open_.all()


def test_mismatched_surface_charts_abort():
    with pytest.raises(ChartDisagreement):
        _attained_reference((1, 1, 2, 14), CLS, V7, 2)
    with pytest.raises(ChartDisagreement):
        _full_walk((1, 1, 2, 14), CLS, V7, 2)


def test_single_denominator_class_can_lack_evaluable_charts():
    only_t = AzumayaClass(
        THETA_CG, tuple(c for c in CLS.charts if c.denominator == 3))
    att, count, complete = _attained_reference(CG, only_t, V2, 3)
    assert att is None and not complete and count > 0
    deep = next(p for p in enumerate_local_points(CG, V2, 3)
                if residue_ring(V2, 3).valuation(p.coords[3]) > 0)
    with pytest.raises(NoEvaluableChart):
        invariant_at_point(only_t, deep)


@pytest.mark.parametrize("d", range(4))
def test_engine_matches_reference_through_one_denominator(d):
    # one denominator per class: the engine reads evaluability through
    # each role the coordinate x_d takes (leading, free or solved).  Where
    # some class has no evaluable chart, both stop early, the engine at a
    # batch and the reference at a class, so only complete runs count alike
    cls = AzumayaClass(
        THETA_CG, tuple(c for c in CLS.charts if c.denominator == d))
    att, count, complete = _full_walk(CG, cls, V2, 3)
    ref = _attained_reference(CG, cls, V2, 3)
    assert (att, complete) == (ref[0], ref[2])
    assert count == ref[1] if complete else count >= ref[1] > 0


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


def test_one_chart_class_with_theta_seven_at_split_places():
    # On x^3 + y^3 + 2z^3 + 7t^3 = 0, x and y are units at every point
    # over 7, so the chart 7y/x is evaluable everywhere mod pi^2 and its
    # value has valuation 1: with v(theta) = 1 the invariant depends on the
    # unit of the value / pi, which both evaluators read through unit_part.
    # One chart cannot disagree with itself, so no real Brauer class is
    # needed.
    seven = EisensteinNumber(7)
    chart = AzumayaChart(seven, (((2, 1, 0, 0), seven),), 0, EisensteinNumber(1))
    cls = AzumayaClass(seven, (chart,))
    coeffs = (1, 1, 2, 7)
    for place in places_over(7):
        expected = set()
        count = 0
        for pt in enumerate_local_points(coeffs, place, 2):
            x = pt.coordinates_exact()
            value = chart.constant * evaluate_terms(dict(chart.numerator), x) \
                / x[chart.denominator] ** 3
            inv = cyclic_invariant(value, seven, place)
            assert invariant_at_point(cls, pt) == inv
            expected.add(inv.j)
            count += 1
        assert _full_walk(coeffs, cls, place, 2) \
            == (tuple(sorted(expected)), count, True)


def test_scaling_by_a_cube_preserves_the_class():
    scaled = scale_class(CLS, EisensteinNumber(8))
    assert _full_walk(CG, scaled, V2, 3) == _full_walk(CG, CLS, V2, 3)
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
    for p in _sampled_points(_vec_engine(CG, CLS, V3, 7), 311):
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


def test_first_chart_residues_of_a_class_with_cube_theta():
    # theta = 1 is a cube at every place, so the class is never evaluated;
    # the residues read only the first numerator, the flagship's f
    one = EisensteinNumber(1)
    split = AzumayaClass(one, tuple(
        AzumayaChart(one, ch.numerator, ch.denominator, ch.constant)
        for ch in CLS.charts))
    assert is_local_cube(one, V3)
    got = first_chart_residues(CG, split, V3, 7)
    assert len(got) == 6
    assert got == first_chart_residues(CG, CLS, V3, 7)


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


def test_place_report_passes_precision_on_at_a_local_cube(monkeypatch):
    # theta = 8 is a cube at every place, so the place over 3 needs only
    # solvability, on the ladder the caller asked for
    eight = EisensteinNumber(8)
    cls = AzumayaClass(eight, tuple(
        AzumayaChart(eight, ch.numerator, ch.denominator, ch.constant)
        for ch in CLS.charts))
    calls = []

    def spy(coeffs, place, precision=None, cap=None):
        calls.append((place, precision, cap))
        return local_solvability(coeffs, place, precision, cap)

    monkeypatch.setattr(azumaya_module, "local_solvability", spy)
    rep = place_report((1, 1, 1, 2), cls, V3, precision=7, cap=9)
    assert calls == [(V3, 7, 9)]
    assert rep.solvable and rep.attained == frozenset({InvariantValue(0)})


def test_place_report_imports_no_numpy_ma():
    # np.unique imports numpy.ma on its first call; the ladder over 2
    # hands a frontier on, whose keys are made distinct without it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    code = ("import sys\n"
            "from bmcubic.azumaya import cassels_guy_class, place_report, "
            "places_over\n"
            "place_report((5, 9, 10, 12), cassels_guy_class(), "
            "places_over(2)[0])\n"
            "print('numpy.ma' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=300, check=True)
    assert out.stdout.strip() == "False"


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
    # away from 3 there is no ladder for the cap to cut: the rule answers
    assert local_solvability((1, 2, 7, 14), places_over(7)[0], cap=1) is False


def test_ladder_messages_name_where_the_ladder_stopped():
    # the cap cuts before the first rung, pi^5 at the place over 3
    with pytest.raises(NoStabilization) as cut:
        local_solvability(CG, V3, cap=3)
    assert str(cut.value) == ("uncertified residue classes persist at "
                              "place(3,ramified,pi=1 + 2*zeta) below pi^5")
    # rungs 5 and 7 leave raw classes uncertified, and pi^9 is above the cap
    with pytest.raises(NoStabilization) as cut:
        local_solvability((1, 3, 3, 3), V3, cap=7)
    assert str(cut.value) == ("uncertified residue classes persist at "
                              "place(3,ramified,pi=1 + 2*zeta) below pi^9")
    with pytest.raises(NoStabilization) as cut:
        place_report(CG, CLS, V2, cap=1)
    assert str(cut.value) == ("no complete enumeration at place(2,inert,pi=2) "
                              "within the precision bounds")


# ------------------------------------------------------- solvability away from 3

def _first_rung_walk(coeffs, place, budget=8):
    """Solvability by the class walk at the first rung, as it was decided
    away from 3 before the valuation-class rule: True at a certified class,
    False when no raw class exists, None when raw classes stay uncertified
    through the walk or through `budget` batches of them (a deep surface
    over 5 can hold tens of thousands of raw batches, minutes of walk)."""
    cs = tuple(azumaya_module._cube_free(c) for c in coeffs)
    n = default_precision(place)
    raw = 0
    for bt in _batches(_local_model(cs, place, n)):
        if (2 * bt.w < n).any():
            return True
        raw += 1
        if raw > budget:
            return None
    return None if raw else False


def scaled_coeffs(p):
    """Small units times p^0..p^5."""
    unit = st.integers(min_value=-6, max_value=6).filter(lambda u: u % p)
    term = st.builds(lambda u, e: u * p ** e, unit,
                     st.integers(min_value=0, max_value=5))
    return st.tuples(term, term, term, term)


SCALED_PRIMES = (2, 5, 7, 13)
scaled_tuples = st.sampled_from(SCALED_PRIMES).flatmap(
    lambda p: scaled_coeffs(p).map(lambda cs: (p, cs)))


@pytest.mark.parametrize("p", SCALED_PRIMES)
@given(data=st.data())
@settings(max_examples=8, derandomize=True)
def test_rule_matches_the_class_walk(p, data):
    # a fixed draw: over 5 one walk costs from milliseconds to seconds
    coeffs = data.draw(scaled_coeffs(p))
    for place in places_over(p):
        walked = _first_rung_walk(coeffs, place)
        if walked is not None:
            assert local_solvability(coeffs, place) is walked


def _reference_answer(coeffs, p):
    """The reference's two fast steps on the tuples p^k * coeffs, k = 0, 1,
    2, with every cube p^3 divided out: True when a smooth root mod pi
    certifies a point (`certified_point` at depth 1), False when there is
    no primitive solution mod pi^n for some n (`no_point_depth`), None
    when neither step decides any of the three.

    Multiplying the equation by p^k and scaling coordinates by powers of p
    change no point.  `reference.local_solvability` goes on to a lifting
    search, which takes minutes on some surfaces whose points all lie
    deep; on one of the three tuples such a point lies shallow.
    """
    def without_cubes(c):
        while c % p ** 3 == 0:
            c //= p ** 3
        return c

    for k in range(3):
        shifted = tuple(without_cubes(c * p ** k) for c in coeffs)
        if reference.no_point_depth(shifted, p) is not None:
            return False
        try:
            if reference.certified_point(shifted, p, max_depth=1) is not None:
                return True
        except RuntimeError:
            pass  # roots mod pi, none of them smooth
    return None


@given(scaled_tuples)
@settings(max_examples=40)
def test_rule_matches_the_reference_search(case):
    p, coeffs = case
    want = _reference_answer(coeffs, p)
    assert want is not None
    for place in places_over(p):
        assert local_solvability(coeffs, place) is want


@given(scaled_tuples, st.integers(min_value=0, max_value=3),
       st.sampled_from((-1, 2, 3, 5, 7, 13)))
@settings(max_examples=200)
def test_rule_laws(case, i, m):
    p, coeffs = case
    places = places_over(p)
    got = local_solvability(coeffs, places[0])
    # the two places over a split p are conjugate, and the tuple is rational
    assert all(local_solvability(coeffs, pl) is got for pl in places)
    assert all(local_solvability(perm, places[0]) is got
               for perm in permutations(coeffs))
    cubed = coeffs[:i] + (coeffs[i] * m ** 3,) + coeffs[i + 1:]
    assert local_solvability(cubed, places[0]) is got


def test_rule_at_a_huge_split_prime_builds_no_table():
    models, rings = (_local_model.cache_info().misses,
                     residue_ring.cache_info().misses)
    for place in places_over(1000003):
        assert local_solvability((1, 2, 3, 1000003), place) is True
    assert _local_model.cache_info().misses == models
    assert residue_ring.cache_info().misses == rings


@pytest.mark.parametrize("stratum, coeffs", [
    ("none", (1, 1, 1, 1)),
    ("5", (1, 1, 1, 5)),
    ("7-nls", (1, 2, 7, 14)),
    ("13-nls", (1, 2, 13, 26)),
    ("13-deep", (1, 2, 13, 13)),
])
def test_verdicts_build_tables_only_over_3(monkeypatch, stratum, coeffs):
    # one surface per stratum of the benchmark's survey; every local model
    # and residue ring the verdict asks for lies over 3
    assert workloads.survey_stratum(coeffs) == stratum
    asked = []

    def spy(real, at):
        def call(*args):
            asked.append(args[at].p)
            return real(*args)
        return call

    monkeypatch.setattr(azumaya_module, "_local_model", spy(_local_model, 1))
    monkeypatch.setattr(azumaya_module, "residue_ring", spy(residue_ring, 0))
    obstruction_verdict(coeffs, ())
    assert asked and set(asked) == {3}


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
