"""Inputs and operations of the three benchmark workloads.

Inputs come from the seed alone and are made without bmcubic, so the
parent process can rebuild them for the checks.  Operations are built in
the round process, which imports bmcubic; each returns a JSON-ready
summary of the program's output.

- flagship: the paper's surface (5, 9, 10, 12) at working precision; the
  seed sets the order of the five operations.
- census: H^1 by both routes for 1,500 tuples drawn from [1, 12]^4.
- survey: obstruction_verdict(coeffs, ()) for 80 surfaces drawn from the
  pool below, with a fixed number from each cost stratum.
"""

from __future__ import annotations

import os
import random
from math import gcd

WORKLOADS = ("flagship", "census", "survey")

CG = (5, 9, 10, 12)
FLAGSHIP_OPS = ("verify_paper", "place_v2", "place_v5", "place_v3", "residues")
V3_CAP = 7          # the pi^9 rung over 3 alone takes minutes
RESIDUE_PRECISION = 7

CENSUS_SIZE = 1500
CENSUS_BOX = 12     # [1, 12]^4 realizes all 28 subgroups of (Z/3)^3

SURVEY_PRIMES = (2, 3, 5, 7, 13)
SURVEY_MAX = 60
# surfaces per cost stratum (see survey_stratum)
SURVEY_QUOTAS = (("none", 9), ("5", 53), ("7-nls", 15), ("13-nls", 2), ("13-deep", 1))


# --- survey pool ----------------------------------------------------------------


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def survey_values() -> list[int]:
    """Coefficients up to 60 built from 2, 3, 5, 7, 13, with no cube factor."""
    out = []
    for n in range(1, SURVEY_MAX + 1):
        m = n
        for p in SURVEY_PRIMES:
            if _vp(n, p) >= 3:
                m = 0
                break
            m //= p ** _vp(n, p)
        if m == 1:
            out.append(n)
    return out


def survey_admissible(coeffs) -> bool:
    """The pool rule: the coefficients have no common factor, no prime
    divides three of them and no prime's square divides two.

    Together with cube-free coefficients this keeps every bad place
    decidable at its first precision rung: a surface outside it can leave
    raw residue classes that never certify, so local_solvability walks a
    q^2-times larger rung at every escalation (minutes, or no answer).
    """
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    if g != 1:
        return False
    for p in SURVEY_PRIMES:
        if sum(c % p == 0 for c in coeffs) >= 3:
            return False
        if sum(c % (p * p) == 0 for c in coeffs) >= 2:
            return False
    return True


def _is_cube_mod(a: int, p: int) -> bool:
    return pow(a % p, (p - 1) // 3, p) == 1


def split_state(coeffs, p: int) -> str:
    """Cubic-residue rule at a prime p = 1 mod 3: "ok", "deep" or "nls".

    With exactly two coefficients divisible by p and -c1/c2 a non-cube mod
    p for the unit pair, every Q_p-point has x = y = 0 mod p ("deep": the
    scan must find points with a p-divisible partial), and there is none
    at all ("nls") unless the p-parts match and -c3'/c4' is a cube.  Used
    only to stratify the survey; the checks decide solvability by search.
    """
    units = [c for c in coeffs if c % p]
    divisible = [c for c in coeffs if c % p == 0]
    if len(divisible) != 2:
        return "ok"
    c1, c2 = units
    if _is_cube_mod(-c1 * pow(c2, -1, p), p):
        return "ok"
    c3, c4 = divisible
    e3, e4 = _vp(c3, p), _vp(c4, p)
    if e3 == e4 and _is_cube_mod(-(c3 // p ** e3) * pow(c4 // p ** e4, -1, p), p):
        return "deep"
    return "nls"


def survey_stratum(coeffs) -> str:
    """The cost stratum of a surface.

    "7-nls" / "13-nls": the first split prime with no points, where
    local_solvability walks a whole rung; "13-deep": every point over 13
    lies deep and the first coordinate is a 13-adic unit, where the scan
    walks far before it meets a certified class (seconds; when the first
    coefficient is divisible by 13 it meets one at once); "5": 5 divides
    abcd, so the inert place over 5 tabulates all 5^6 residues (about
    0.3 s); "none" for the rest.
    """
    if split_state(coeffs, 7) == "nls":
        return "7-nls"
    state = split_state(coeffs, 13)
    if state == "nls":
        return "13-nls"
    if state == "deep" and coeffs[0] % 13:
        return "13-deep"
    if any(c % 5 == 0 for c in coeffs):
        return "5"
    return "none"


# --- inputs ---------------------------------------------------------------------


def make_inputs(workload: str, seed: int):
    rng = random.Random(f"{workload}:{seed}")
    if workload == "flagship":
        order = list(FLAGSHIP_OPS)
        rng.shuffle(order)
        return order
    if workload == "census":
        return [tuple(rng.randint(1, CENSUS_BOX) for _ in range(4))
                for _ in range(CENSUS_SIZE)]
    if workload == "survey":
        values = survey_values()
        want = dict(SURVEY_QUOTAS)
        picked: dict[str, list] = {k: [] for k in want}
        seen = set()
        while any(len(picked[k]) < n for k, n in want.items()):
            cs = tuple(rng.choice(values) for _ in range(4))
            if cs in seen or not survey_admissible(cs):
                continue
            seen.add(cs)
            key = survey_stratum(cs)
            if len(picked[key]) < want[key]:
                picked[key].append(cs)
        out = [cs for k, _ in SURVEY_QUOTAS for cs in picked[k]]
        rng.shuffle(out)
        return out
    raise ValueError(f"unknown workload {workload!r}")


# --- operations (round process only) -------------------------------------------


def _place_doc(rep) -> dict:
    return {"p": rep.place.p, "solvable": rep.solvable,
            "attained": sorted(v.j for v in rep.attained),
            "point_classes": rep.point_classes, "precision": rep.precision,
            "stable": rep.stable}


def operations(workload: str, inputs, scratch_dir: str):
    """[(name, thunk)] for one pass; thunks return JSON-ready outputs."""
    from bmcubic import azumaya, cli, lines27

    if workload == "flagship":
        cls = azumaya.cassels_guy_class()
        v2, v3, v5 = (azumaya.places_over(p)[0] for p in (2, 3, 5))
        out_path = os.path.join(scratch_dir, f"verify-paper-{os.getpid()}.json")

        def verify_paper():
            rc = cli.main(["verify-paper", "--quick", "--out", out_path])
            with open(out_path) as fh:
                doc = fh.read()
            os.remove(out_path)
            return {"exit": rc, "doc": doc}

        thunks = {
            "verify_paper": verify_paper,
            "place_v2": lambda: _place_doc(azumaya.place_report(CG, cls, v2)),
            "place_v5": lambda: _place_doc(azumaya.place_report(CG, cls, v5)),
            "place_v3": lambda: _place_doc(
                azumaya.place_report(CG, cls, v3, cap=V3_CAP)),
            "residues": lambda: sorted(
                (int(r.x), int(r.y)) for r in azumaya.first_chart_residues(
                    CG, cls, v3, RESIDUE_PRECISION)),
        }
        return [(name, thunks[name]) for name in inputs]

    if workload == "census":
        def h1(cs):
            return (str(lines27.h1_picard(cs).structure),
                    str(lines27.table_classification(cs)))
        return [(f"h1{cs}", lambda cs=cs: h1(cs)) for cs in inputs]

    if workload == "survey":
        def verdict(cs):
            rep = azumaya.obstruction_verdict(cs, ())
            return {"verdict": rep.verdict.value, "h1": rep.h1,
                    "failed": [(r.place.p, r.precision) for r in rep.place_reports]}
        return [(f"verdict{cs}", lambda cs=cs: verdict(cs)) for cs in inputs]

    raise ValueError(f"unknown workload {workload!r}")
