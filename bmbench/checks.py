"""Checks of one pass's outputs against the reference computations.

`check(workload, inputs, outputs)` returns a list of problems, empty when
every output is right.  `outputs` has one entry per operation, in input
order, or None for an operation that raised (counted as failed, not
checked).  Reference values are memoized per process, so the rounds of
one run share them.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

import reference as ref
from workloads import CG, V3_CAP

# verify-paper norm anchors: check name -> (a, b, c) with the element
# a + b r + c r^2 of k(r), r^3 = 2/3
NORM_ANCHORS = {
    "norm-sqrt-minus-3": ((-1, -2), (1, -1), (0, 0)),
    "norm-two": ((2, 0), (3, 0), (3, 0)),
    "norm-cross-term": ((1, 0), (-1, -2), (0, 0)),
}

_EIS = re.compile(r"^(?P<x>-?[\d/]+)?\s*(?:(?P<s>[+-])?\s*(?P<y>[\d/]+)\*zeta)?$")


def parse_eisenstein(text: str) -> tuple[Fraction, Fraction]:
    """'(1 + 2*zeta)', '2', '-3*zeta', '3 - 4*zeta' -> (x, y)."""
    m = _EIS.match(text.strip().strip("()").strip())
    if m is None or (m["x"] is None and m["y"] is None):
        raise ValueError(f"not an Eisenstein number: {text!r}")
    x = Fraction(m["x"]) if m["x"] else Fraction(0)
    y = Fraction(m["y"]) if m["y"] else Fraction(0)
    if m["s"] == "-":
        y = -y
    return x, y


@lru_cache(maxsize=None)
def _solvable(coeffs, p) -> bool:
    return ref.local_solvability(coeffs, p)[0]


@lru_cache(maxsize=None)
def _class_counts(p, n):
    return ref.certified_class_count(CG, p, n), ref.scaled_class_count(CG, p, n)


@lru_cache(maxsize=1)
def _residue_sets():
    six = ref.witness_norms()
    return ref.times_zeta(six), ref.norm_residues()


def _check_flagship(order, outputs) -> list[str]:
    out = dict(zip(order, outputs))
    bad = []

    vp = out.get("verify_paper")
    if vp is not None:
        if vp["exit"] != 0:
            bad.append(f"verify-paper --quick exited {vp['exit']}")
        rows = {r["name"]: r for r in json.loads(vp["doc"])["result"]["checks"]}
        if not all(r["passed"] for r in rows.values()):
            bad.append("verify-paper --quick reported a failed check")
        for name, (a, b, c) in NORM_ANCHORS.items():
            want = ref.cubic_norm(a, b, c)
            detail = rows.get(name, {}).get("detail", "")
            got = parse_eisenstein(detail.rsplit("=", 1)[-1]) if "=" in detail else None
            if got != want:
                bad.append(f"{name}: program says {got}, cubic norm formula {want}")

    for key, p, n in (("place_v2", 2, 5), ("place_v3", 3, V3_CAP)):
        rep = out.get(key)
        if rep is None:
            continue
        direct, scaled = _class_counts(p, n)
        if rep["precision"] != n or not rep["solvable"]:
            bad.append(f"{key}: precision {rep['precision']}, solvable {rep['solvable']}")
        if not rep["point_classes"] == direct == scaled:
            bad.append(f"{key}: {rep['point_classes']} classes, reference "
                       f"{direct} (exhaustive), {scaled} (Hensel scaling)")
        if len(rep["attained"]) != 1:
            bad.append(f"{key}: attained set {rep['attained']} is not one value")
    if out.get("place_v2") is not None and out["place_v2"]["attained"] != [0]:
        bad.append("place_v2: the place over 2 should attain only 0")
    v5 = out.get("place_v5")
    if v5 is not None and not (v5["solvable"] and v5["attained"] == [0]
                               and _solvable(CG, 5)):
        bad.append(f"place_v5: {v5} disagrees with a certified point over 5")

    res = out.get("residues")
    if res is not None:
        want, norms = _residue_sets()
        got = {tuple(r) for r in res}
        if got != want:
            bad.append(f"residues {sorted(got)} != zeta * N = {sorted(want)}")
        if got & norms:
            bad.append(f"residues {sorted(got & norms)} are norm residues")

    reps = [out.get(k) for k in ("place_v2", "place_v5", "place_v3")]
    if all(r is not None for r in reps):
        if not ref.minkowski_excludes_zero([r["attained"] for r in reps]):
            bad.append("the sum of the attained sets contains 0")
    return bad


def _check_census(tuples, outputs) -> list[str]:
    bad = []
    for cs, got in zip(tuples, outputs):
        if got is None:
            continue
        want = ref.h1_rule(cs)
        if tuple(got) != (want, want):
            bad.append(f"H^1{cs}: picard {got[0]}, table {got[1]}, rule {want}")
    return bad


def _check_survey(tuples, outputs) -> list[str]:
    bad = []
    for cs, got in zip(tuples, outputs):
        if got is None:
            continue
        h1 = ref.h1_rule(cs)
        if got["h1"] != h1:
            bad.append(f"{cs}: H^1 {got['h1']}, rule {h1}")
        primes = sorted({3} | set(ref.rational_primes(cs[0] * cs[1] * cs[2] * cs[3])))
        if got["verdict"] == "NOT_LOCALLY_SOLVABLE":
            (p, n), = got["failed"]
            if _solvable(cs, p):
                bad.append(f"{cs}: the place over {p} has points")
            for q in primes:
                if q < p and not _solvable(cs, q):
                    bad.append(f"{cs}: the place over {q} already has no points")
            continue
        for q in primes:
            if not _solvable(cs, q):
                bad.append(f"{cs}: {got['verdict']} but no point over {q}")
        want = "H1_TRIVIAL" if h1 == "0" else "NO_OBSTRUCTION_FROM_CLASS"
        if got["verdict"] != want:
            bad.append(f"{cs}: verdict {got['verdict']}, expected {want}")
    return bad


def check(workload: str, inputs, outputs) -> list[str]:
    fn = {"flagship": _check_flagship, "census": _check_census,
          "survey": _check_survey}[workload]
    return fn(inputs, outputs)
