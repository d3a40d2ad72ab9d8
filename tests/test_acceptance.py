"""Acceptance gate: the eleven exit criteria of the build, one line each.

Every test prints a single PASS/FAIL line and asserts it; all eleven
criteria pass.  Criterion 9 requires the scaled first-chart residues
g_1/sqrt(-3) mod 9 over sqrt(-3) to land in the six-element list
zeta * {1, 4, 7, 3+zeta, 3+4*zeta, 3+7*zeta}, reduced mod 9.  The six
factors are norms of k_v(cbrt(2/3))/k_v (test_eisenstein exhibits exact
norm witnesses) and sqrt(-3) is a norm, so every listed residue has
invariant inv(zeta) = 2/3, which is what the criterion-4 Hasse violation
requires.  A residue 3+j*zeta without the factor zeta would have
invariant 0 and put 0 into the sum set.
"""

import json
import random
import time
from itertools import islice, product

from bmcubic.azumaya import (
    THETA_CG,
    AzumayaClass,
    Verdict,
    cassels_guy_class,
    enumerate_local_points,
    first_chart_residues,
    invariant_at_point,
    local_solvability,
    obstruction_verdict,
    place_report,
    places_over,
    scale_class,
)
from bmcubic.calibrate import calibration_identity, cubic_norm, divisor_membership
from bmcubic.cli import main as cli_main
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
from bmcubic.eisenstein import (
    ZETA,
    EisensteinNumber,
    InvariantValue,
    cyclic_invariant,
    residue_ring,
)
from bmcubic.exactlin import IntMatrix, smith_normal_form
from bmcubic.groupcohom import (
    Cochain,
    GIntModule,
    ModuleSES,
    action_from_generators,
    apply_differential,
    cohomology,
    connecting_homomorphism,
    cyclic_cohomology,
    cyclic_group,
    invariants_module,
    is_coboundary,
    is_cocycle,
)
from bmcubic.lines27 import (
    galois_data,
    h1_picard,
    picard_presentation,
    table_classification,
)

CG = (5, 9, 10, 12)
CLS = cassels_guy_class()
V2 = places_over(2)[0]
V3 = places_over(3)[0]
V5 = places_over(5)[0]


def _criterion(num, label, ok, detail=""):
    flag = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"{flag} criterion {num}: {label}{suffix}")
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_h1_census():
    started = time.monotonic()
    histogram = {}
    mismatches = []
    for coeffs in product(range(1, 7), repeat=4):
        pic = str(h1_picard(coeffs).structure)
        table = str(table_classification(coeffs))
        histogram[table] = histogram.get(table, 0) + 1
        if pic != table:
            mismatches.append((coeffs, pic, table))
    elapsed = time.monotonic() - started
    ok = not mismatches and sum(histogram.values()) == 1296 and elapsed < 600
    _criterion(1, "H^1 census over {1..6}^4", ok,
               f"{sum(histogram.values())} tuples, {len(mismatches)} mismatches, "
               f"histogram {histogram}, {elapsed:.1f}s")


def test_criterion_02_flagship_cohomology():
    gal = galois_data(CG)
    pic = str(h1_picard(CG).structure)
    pres = picard_presentation(gal)
    sub = [i for i, g in enumerate(gal.elements) if (g[0] + g[1] - g[2]) % 3 == 0]
    inv = invariants_module(pres.module, sub)
    inflated = str(cohomology(inv.quotient, inv.module, 1).structure)
    ok = (gal.group.order == 27 and pic == "Z/3" and len(sub) == 9
          and inv.quotient.order == 3 and inflated == "Z/3")
    _criterion(2, "flagship |G| = 27 and H^1 = Z/3 by both routes", ok,
               f"|G| = {gal.group.order}, direct {pic}, inflated {inflated}")


def test_criterion_03_connecting_homomorphism():
    # reduced Picard-type sequence Z -> Z^4 -> Z^4/(C+tC+ttC-3H) with basis
    # (H, C, tC, ttC); the anticanonical twist [C]-[H] of the curve class
    # must connect to the generating relation 2-cocycle, not to zero
    g = cyclic_group(3)
    perm = IntMatrix.from_rows([[1, 0, 0, 0], [0, 0, 0, 1],
                                [0, 1, 0, 0], [0, 0, 1, 0]])
    action = action_from_generators(g, 4, {1: perm})
    rel = (-3, 1, 1, 1)
    a = GIntModule(g, 1, [], [IntMatrix.identity(1)] * 3)
    b = GIntModule(g, 4, [], action)
    c = GIntModule(g, 4, [rel], action)
    ses = ModuleSES(a, b, c,
                    IntMatrix.from_rows([[rel[i]] for i in range(4)], cols=1),
                    IntMatrix.identity(4))
    v = (-1, 1, 0, 0)
    coc = Cochain(1, {(0,): (0, 0, 0, 0), (1,): v,
                      (2,): tuple(x + y for x, y in zip(v, c.action[1].apply(v)))})
    delta = connecting_homomorphism(ses, coc)
    carry = Cochain(2, {(x, y): (1 if x + y >= 3 else 0,)
                        for x in range(3) for y in range(3)})
    ok = (is_cocycle(g, c, coc) and is_cocycle(g, a, delta)
          and is_coboundary(g, a, delta - carry) is not None
          and is_coboundary(g, a, delta) is None)
    _criterion(3, "[C]+omega connects to C+tC+ttC-3H up to coboundary", ok)


def test_criterion_04_flagship_local_invariants():
    t2 = time.monotonic()
    rep2 = place_report(CG, CLS, V2)
    dt2 = time.monotonic() - t2
    rep5 = place_report(CG, CLS, V5)
    t_all = time.monotonic()
    report = obstruction_verdict(CG, (CLS,), jobs=4)
    dt_all = time.monotonic() - t_all
    rep3 = next(r for r in report.place_reports if r.place.p == 3)
    two = frozenset({InvariantValue(0)})
    ok = (rep2.attained == two and rep2.stable and dt2 < 60
          and rep5.attained == two and rep5.precision == 0
          and rep3.attained == frozenset({InvariantValue(2)}) and rep3.stable
          and dt_all < 900
          and report.verdict == Verdict.HASSE_VIOLATION
          and report.sumset == frozenset({InvariantValue(2)}))
    _criterion(4, "local invariants {0}@2, {2/3}@3, {0}@5, HASSE_VIOLATION", ok,
               f"place 2 in {dt2:.1f}s, verdict with jobs=4 in {dt_all:.1f}s, "
               f"sums {{{', '.join(sorted(str(v) for v in report.sumset))}}}")


def test_criterion_05_norm_identities():
    rho = K0.radical(0)
    cases = [
        (K0.scalar(EisensteinNumber(-1, -2)) + K0.scalar(EisensteinNumber(1, -1)) * rho,
         EisensteinNumber(1, 2)),
        (K0.scalar(2) + 3 * rho * rho + 3 * rho, EisensteinNumber(2)),
        (K0.one + K0.scalar(EisensteinNumber(-1, -2)) * rho, EisensteinNumber(3, 4)),
    ]
    results = [cubic_norm(w, TAU) == K0.scalar(want) for w, want in cases]
    _criterion(5, "exact norm identities sqrt(-3), 2, 3+4*zeta", all(results),
               f"{results}")


def test_criterion_06_orientation_anchor():
    inv = cyclic_invariant(ZETA, THETA_CG, V3)
    _criterion(6, "inv(zeta) = 2/3 at the place over 3",
               inv == InvariantValue(2), f"got {inv}")


def test_criterion_07_calibration_identity():
    started = time.monotonic()
    theta = K0.scalar(ZETA) / 4
    wrong = K0.scalar(ZETA * ZETA) / 4
    holds = calibration_identity(F_POLY, FPRIME_POLY, G_POLY, theta, TAU, F_SURF)
    control = calibration_identity(F_POLY, FPRIME_POLY, G_POLY, wrong, TAU, F_SURF)
    elapsed = time.monotonic() - started
    ok = holds and not control and elapsed < 60
    _criterion(7, "theta = zeta/4 holds and zeta^2/4 fails", ok,
               f"{elapsed:.1f}s")


def test_criterion_08_divisor_membership():
    outcomes = []
    for poly, quadrics in ((F_POLY, C_QUADRICS), (FPRIME_POLY, CPRIME_QUADRICS)):
        sol = divisor_membership(poly, quadrics, F_SURF)
        if sol is None:  # INDETERMINATE fails the criterion
            outcomes.append(False)
            continue
        l1, l2, l3, c = sol
        outcomes.append(l1 * quadrics[0] + l2 * quadrics[1] + l3 * quadrics[2]
                        + F_SURF * c == poly)
    _criterion(8, "f and f' decompose over their curve quadrics plus F",
               all(outcomes), f"{outcomes}")


def test_criterion_09_six_residue_list():
    norms = (EisensteinNumber(1), EisensteinNumber(4), EisensteinNumber(7),
             EisensteinNumber(3, 1), EisensteinNumber(3, 4), EisensteinNumber(3, 7))
    allowed = frozenset(
        EisensteinNumber(int((ZETA * n).x) % 9, int((ZETA * n).y) % 9)
        for n in norms)
    got = first_chart_residues(CG, CLS, V3, 7)
    listing = ", ".join(str(r) for r in sorted(allowed, key=lambda e: (e.x, e.y)))
    off_list = sorted(str(r) for r in got - allowed)
    _criterion(9, "scaled residues over sqrt(-3) lie in the recorded list",
               got <= allowed,
               f"list zeta * {{1, 4, 7, 3+z, 3+4z, 3+7z}} mod 9 = {{{listing}}}; "
               f"off-list residues {off_list}")


def _random_matrix(rng, rows, cols):
    return IntMatrix.from_rows(
        [[rng.randint(-6, 6) for _ in range(cols)] for _ in range(rows)],
        cols=cols)


def _random_cyclic_module(rng, g):
    rank = rng.choice((3, 4, 5, 6))
    perm = list(range(rank))
    for base in range(0, 3 * (rank // 3), 3):
        a, b, c = base, base + 1, base + 2
        perm[a], perm[b], perm[c] = perm[b], perm[c], perm[a]
    mat = IntMatrix.from_rows([[1 if perm[j] == i else 0 for j in range(rank)]
                               for i in range(rank)])
    relations = [] if rng.random() < 0.5 else [(3,) * rank]
    return mat, GIntModule(g, rank, relations,
                           action_from_generators(g, rank, {1: mat}))


def test_criterion_10_property_suites(tmp_path):
    rng = random.Random(20260822)
    g = cyclic_group(3)
    failures = []

    # d(d(c)) = 0 on random cochains
    for _ in range(100):
        _, m = _random_cyclic_module(rng, g)
        degree = rng.randint(0, 1)
        keys = list(product(range(3), repeat=degree))
        c = Cochain(degree, {k: tuple(rng.randint(-4, 4) for _ in range(m.rank))
                             for k in keys})
        ddc = apply_differential(g, m, apply_differential(g, m, c))
        if not all(m.is_zero(v) for v in ddc.values.values()):
            failures.append("d^2 != 0")
            break

    # coboundaries round-trip through is_coboundary
    for _ in range(100):
        _, m = _random_cyclic_module(rng, g)
        b = Cochain(0, {(): tuple(rng.randint(-4, 4) for _ in range(m.rank))})
        c = apply_differential(g, m, b)
        b2 = is_coboundary(g, m, c)
        if b2 is None:
            failures.append("coboundary not recognized")
            break
        diff = apply_differential(g, m, b2) - c
        if not all(m.is_zero(v) for v in diff.values.values()):
            failures.append("coboundary preimage broken")
            break

    # bar and cyclic complexes agree on cyclic modules
    for _ in range(100):
        tau, m = _random_cyclic_module(rng, g)
        degree = rng.randint(0, 2)
        if (cyclic_cohomology(tau, 3, m, degree).structure
                != cohomology(g, m, degree).structure):
            failures.append("bar/cyclic disagree")
            break

    # Smith form reconstructs its input
    for _ in range(100):
        mat = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        s = smith_normal_form(mat)
        if not (s.u.is_unimodular() and s.v.is_unimodular()
                and s.u @ mat @ s.v == s.d):
            failures.append("SNF reconstruction failed")
            break

    # exact norms from K_0 have invariant 0 at every relevant place
    theta = THETA_CG
    v7 = places_over(7)[0]
    for _ in range(100):
        a, b, c = (EisensteinNumber(rng.randint(-5, 5), rng.randint(-5, 5))
                   for _ in range(3))
        n = (a ** 3 + theta * b ** 3 + theta * theta * c ** 3
             - 3 * theta * a * b * c)
        if n.is_zero:
            continue
        if any(cyclic_invariant(n, theta, place) != InvariantValue(0)
               for place in (V2, V3, V5, v7)):
            failures.append("norm with nonzero invariant")
            break

    # chart agreement, denominator choice and cube scaling at local points
    scaled = scale_class(CLS, EisensteinNumber(8))
    per_den = [AzumayaClass(THETA_CG, tuple(ch for ch in CLS.charts
                                            if ch.denominator == d))
               for d in range(4)]
    agreement = units = 0
    ring = residue_ring(V2, 3)
    for p in islice(enumerate_local_points(CG, V2, 3), 0, None, 41):
        base = invariant_at_point(CLS, p)  # raises on chart disagreement
        agreement += 1
        if invariant_at_point(scaled, p) != base:
            failures.append("cube scaling changed an invariant")
            break
        if all(ring.valuation(e) == 0 for e in p.coords):
            units += 1
            if any(invariant_at_point(cl, p) != base for cl in per_den):
                failures.append("denominator choice changed an invariant")
                break
    if agreement < 100 or units < 100:
        failures.append(f"too few sample points ({agreement}, {units})")

    # reports do not depend on the worker count
    if place_report(CG, CLS, V2, jobs=1) != place_report(CG, CLS, V2, jobs=4):
        failures.append("place report depends on jobs")
    outs = []
    for jobs in ("1", "4"):
        target = tmp_path / f"jobs{jobs}.json"
        code = cli_main(["local", "-c", "5,9,10,12", "--place", "2",
                         "--jobs", jobs, "--out", str(target)])
        if code != 0:
            failures.append("determinism run failed")
        outs.append(target.read_bytes())
    if outs[0] != outs[1]:
        failures.append("CLI bytes depend on jobs")

    _criterion(10, "randomized property suites, 100 cases each", not failures,
               "; ".join(failures) or "all suites clean")


def test_criterion_11_control_surface():
    report = obstruction_verdict((1, 1, 1, 1))
    solvable = all(
        local_solvability((1, 1, 1, 1), place)
        for p in (2, 3, 5, 7) for place in places_over(p))
    x, y, z, t = 1, -1, 0, 0
    point_is_rational = x ** 3 + y ** 3 + z ** 3 + t ** 3 == 0
    ok = (report.verdict == Verdict.H1_TRIVIAL and report.h1 == "0"
          and solvable and point_is_rational)
    _criterion(11, "(1,1,1,1) is H1_TRIVIAL and everywhere locally solvable",
               ok, f"verdict {report.verdict.value}")
