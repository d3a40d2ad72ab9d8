"""Named re-derivations of the published anchor values.

Every check recomputes one quantity of the flagship computation from
scratch and compares it with the frozen expected value; the CLI's
verify-paper subcommand runs the registry and reports one PASS/FAIL line
per check.  Checks marked slow enumerate full residue rings (the place
over 3 walks 3^20 point classes) and can be skipped for a quick pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import azumaya, curves, lines27
from .azumaya import (
    THETA_CG,
    Verdict,
    cassels_guy_class,
    first_chart_residues,
    obstruction_verdict,
    places_over,
)
from .calibrate import calibration_identity, cubic_norm, divisor_membership
from .eisenstein import EisensteinNumber, InvariantValue, ZETA, cyclic_invariant
from .exactlin import IntMatrix, smith_normal_form
from .groupcohom import cohomology, invariants_module

CG = (5, 9, 10, 12)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


_REGISTRY: list[tuple[str, bool, Callable[[int], tuple[bool, str]]]] = []


def _check(name: str, slow: bool = False):
    def register(fn):
        _REGISTRY.append((name, slow, fn))
        return fn
    return register


def run_checks(include_slow: bool = True, jobs: int = 1) -> tuple[CheckResult, ...]:
    """Run the registry in order; never raises, failures become FAIL rows."""
    results = []
    for name, slow, fn in _REGISTRY:
        if slow and not include_slow:
            continue
        try:
            passed, detail = fn(jobs)
        except Exception as exc:  # a crash is a failed check, not a crash here
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail))
    return tuple(results)


@lru_cache(maxsize=2)
def _flagship_verdict(jobs: int):
    return obstruction_verdict(CG, (cassels_guy_class(),), jobs=jobs)


def _structures(coeffs):
    via_picard = str(lines27.h1_picard(coeffs).structure)
    via_table = str(lines27.table_classification(coeffs))
    return via_picard, via_table


@_check("h1-flagship")
def _h1_flagship(jobs):
    pic, table = _structures(CG)
    return pic == table == "Z/3", f"picard route {pic}, ratio table {table}"


@_check("h1-table-rows")
def _h1_rows(jobs):
    got = {cs: _structures(cs) for cs in ((1, 1, 1, 1), (1, 1, 1, 2), (2, 3, 5, 7))}
    want = {(1, 1, 1, 1): "0", (1, 1, 1, 2): "Z/3 + Z/3", (2, 3, 5, 7): "Z/3"}
    ok = all(p == t == want[cs] for cs, (p, t) in got.items())
    return ok, "; ".join(f"{cs} -> {p}" for cs, (p, _) in got.items())


@_check("galois-group-order")
def _galois_order(jobs):
    order = lines27.galois_data(CG).group.order
    return order == 27, f"splitting group order {order}"


@_check("inflation-route")
def _inflation(jobs):
    gal = lines27.galois_data(CG)
    pres = lines27.picard_presentation(gal)
    sub = [i for i, g in enumerate(gal.elements) if (g[0] + g[1] - g[2]) % 3 == 0]
    inv = invariants_module(pres.module, sub)
    rel_rank = smith_normal_form(IntMatrix.from_rows(inv.module.relations)).rank
    inv_rank = inv.module.rank - rel_rank
    h1 = str(cohomology(inv.quotient, inv.module, 1).structure)
    ok = len(sub) == 9 and inv.quotient.order == 3 and inv_rank == 3 and h1 == "Z/3"
    return ok, (f"index-3 invariants: rank {inv_rank}, "
                f"quotient order {inv.quotient.order}, H^1 {h1}")


def _norm_case(w, want):
    got = cubic_norm(w, curves.TAU)
    return got == curves.K0.scalar(want), got


@_check("norm-sqrt-minus-3")
def _norm_sqrt(jobs):
    rho = curves.K0.radical(0)
    w = curves.K0.scalar(EisensteinNumber(-1, -2)) + curves.K0.scalar(EisensteinNumber(1, -1)) * rho
    ok, got = _norm_case(w, EisensteinNumber(1, 2))
    return ok, f"N(-1-2z+(1-z)r) = {got}"


@_check("norm-two")
def _norm_two(jobs):
    rho = curves.K0.radical(0)
    w = curves.K0.scalar(2) + 3 * rho * rho + 3 * rho  # 2 + cbrt12 + cbrt18
    ok, got = _norm_case(w, 2)
    return ok, f"N(2+cbrt12+cbrt18) = {got}"


@_check("norm-cross-term")
def _norm_cross(jobs):
    rho = curves.K0.radical(0)
    w = curves.K0.one + curves.K0.scalar(EisensteinNumber(-1, -2)) * rho
    ok, got = _norm_case(w, EisensteinNumber(3, 4))
    return ok, f"N(1+(-1-2z)r) = {got}"


@_check("calibration-theta")
def _calibration(jobs):
    theta = curves.K0.scalar(ZETA) / 4
    wrong = curves.K0.scalar(ZETA * ZETA) / 4
    holds = calibration_identity(
        curves.F_POLY, curves.FPRIME_POLY, curves.G_POLY, theta,
        curves.TAU, curves.F_SURF)
    control = calibration_identity(
        curves.F_POLY, curves.FPRIME_POLY, curves.G_POLY, wrong,
        curves.TAU, curves.F_SURF)
    return holds and not control, (
        f"theta=zeta/4 holds: {holds}; zeta^2/4 control fails: {not control}")


@_check("divisor-membership")
def _membership(jobs):
    outcomes = []
    for poly, quadrics in ((curves.F_POLY, curves.C_QUADRICS),
                           (curves.FPRIME_POLY, curves.CPRIME_QUADRICS)):
        sol = divisor_membership(poly, quadrics, curves.F_SURF)
        if sol is None:
            outcomes.append(False)
            continue
        l1, l2, l3, c = sol
        rebuilt = (l1 * quadrics[0] + l2 * quadrics[1] + l3 * quadrics[2]
                   + curves.F_SURF * c)
        outcomes.append(rebuilt == poly)
    return all(outcomes), f"f on C: {outcomes[0]}, f' on C': {outcomes[1]}"


@_check("orientation-anchor")
def _orientation(jobs):
    v3 = places_over(3)[0]
    inv = cyclic_invariant(ZETA, THETA_CG, v3)
    return inv == InvariantValue(2), f"inv(zeta, cbrt(2/3)) = {inv} at the place over 3"


@_check("six-residues", slow=True)
def _six_residues(jobs):
    # each residue is zeta times a norm of the degree-3 extension, so the
    # invariant is 2/3 at every certified class over sqrt(-3)
    zeta = EisensteinNumber(0, 1)
    norms = (EisensteinNumber(1), EisensteinNumber(4), EisensteinNumber(7),
             EisensteinNumber(3, 1), EisensteinNumber(3, 4), EisensteinNumber(3, 7))
    want = frozenset(
        EisensteinNumber(int((zeta * n).x) % 9, int((zeta * n).y) % 9)
        for n in norms)
    got = first_chart_residues(CG, cassels_guy_class(), places_over(3)[0], 7)
    listing = ", ".join(str(r) for r in sorted(got, key=lambda e: (e.x, e.y)))
    return got == want, f"residues/sqrt(-3) mod 9: {{{listing}}}"


@_check("local-invariants", slow=True)
def _local_invariants(jobs):
    report = _flagship_verdict(jobs)
    by_p = {rep.place.p: rep for rep in report.place_reports}
    want = {2: ("0", 3145728, 5), 3: ("2/3", 3486784401, 9), 5: ("0", 0, 0)}
    lines = []
    ok = set(by_p) == set(want)
    for p, (inv, classes, precision) in sorted(want.items()):
        rep = by_p.get(p)
        if rep is None:
            lines.append(f"place over {p} missing")
            ok = False
            continue
        attained = sorted(str(v) for v in rep.attained)
        good = (attained == [inv] and rep.point_classes == classes
                and rep.precision == precision and rep.stable)
        ok = ok and good
        lines.append(f"p={p}: {{{', '.join(attained)}}} over {rep.point_classes}"
                     f" classes at precision {rep.precision}")
    return ok, "; ".join(lines)


@_check("hasse-verdict", slow=True)
def _verdict(jobs):
    report = _flagship_verdict(jobs)
    sumset = sorted(str(v) for v in report.sumset)
    ok = (report.verdict == Verdict.HASSE_VIOLATION and report.h1 == "Z/3"
          and sumset == ["2/3"])
    return ok, (f"verdict {report.verdict.value}, H^1 {report.h1}, "
                f"invariant sums {{{', '.join(sumset)}}}")


@_check("control-surface")
def _control(jobs):
    report = obstruction_verdict((1, 1, 1, 1))
    v3 = places_over(3)[0]
    solvable = azumaya.local_solvability((1, 1, 1, 1), v3)
    ok = report.verdict == Verdict.H1_TRIVIAL and solvable
    return ok, (f"(1,1,1,1): verdict {report.verdict.value}, "
                f"solvable at the place over 3: {solvable}")
