"""Tests of the reference computations and of the checks built on them.

Run with `python3 -m pytest bmbench` from the root of the repository.
Each reference is shown to accept the right value and to reject a wrong
one, through the same check functions the benchmark runs.
"""

import json
import os
import subprocess
import sys
from itertools import product

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

CG = (5, 9, 10, 12)
V2_CLASSES = 3_145_728
V3_CLASSES = 3 ** 16


def test_reference_does_not_import_bmcubic():
    code = ("import sys; sys.path.insert(0, 'bmbench'); import reference, checks, "
            "workloads; print('bmcubic' in sys.modules)")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


# --- H^1 -------------------------------------------------------------------------

@pytest.mark.parametrize("coeffs, want", [
    ((1, 1, 1, 1), "0"), ((1, 1, 1, 2), "Z/3 + Z/3"), ((2, 3, 5, 7), "Z/3"),
    ((5, 9, 10, 12), "Z/3"), ((1, 1, 2, 2), "0"), ((1, 8, 27, 2), "Z/3 + Z/3")])
def test_h1_rule(coeffs, want):
    assert ref.h1_rule(coeffs) == want


def test_census_check_rejects_wrong_h1():
    assert checks.check("census", [(1, 1, 1, 1)], [("0", "0")]) == []
    assert checks.check("census", [(1, 1, 1, 1)], [("Z/3", "Z/3")])
    assert checks.check("census", [(1, 1, 1, 1)], [("0", "Z/3")])


# --- class counts ------------------------------------------------------------------

def test_class_counts_by_two_routes():
    assert ref.certified_class_count(CG, 2, 5) == V2_CLASSES
    assert ref.scaled_class_count(CG, 2, 5) == V2_CLASSES
    assert ref.certified_class_count(CG, 3, 7) == V3_CLASSES
    assert ref.scaled_class_count(CG, 3, 7) == V3_CLASSES
    assert ref.certified_class_count(CG, 2, 3) == 12_288


@pytest.mark.parametrize("coeffs", [(1, 1, 1, 1), CG, (1, 2, 3, 6)])
def test_class_count_matches_plain_enumeration_mod_4(coeffs):
    # every tuple over Z[zeta]/4, the residue ring of the place over 2 at
    # precision 2; certified means w = 0: some x_i with c_i odd is a unit
    ring = [(a, b) for a in range(4) for b in range(4)]
    unit = {x: x[0] % 2 or x[1] % 2 for x in ring}
    terms = [{x: ref.zscale(c, ref.zcube(x)) for x in ring} for c in coeffs]
    count = 0
    for xs in product(ring, repeat=4):
        total = (0, 0)
        for t, x in zip(terms, xs):
            total = ref.zadd(total, t[x])
        if total[0] % 4 or total[1] % 4:
            continue
        if any(unit[x] and c % 2 for c, x in zip(coeffs, xs)):
            count += 1
    assert count % 12 == 0  # 16 - 4 units act freely
    assert ref.certified_class_count(coeffs, 2, 2) == count // 12


def _flagship_outputs(**override):
    residues = sorted(ref.times_zeta(ref.witness_norms()))
    outs = {
        "place_v2": {"p": 2, "solvable": True, "attained": [0],
                     "point_classes": V2_CLASSES, "precision": 5, "stable": True},
        "place_v5": {"p": 5, "solvable": True, "attained": [0],
                     "point_classes": 0, "precision": 0, "stable": True},
        "place_v3": {"p": 3, "solvable": True, "attained": [2],
                     "point_classes": V3_CLASSES, "precision": 7, "stable": False},
        "residues": [list(r) for r in residues],
    }
    outs.update(override)
    return list(outs), list(outs.values())


def test_flagship_check_accepts_right_values():
    order, outputs = _flagship_outputs()
    assert checks.check("flagship", order, outputs) == []


@pytest.mark.parametrize("key, classes", [
    ("place_v2", V2_CLASSES * 16), ("place_v2", V2_CLASSES // 16),
    ("place_v3", V3_CLASSES * 9), ("place_v3", V3_CLASSES // 9)])
def test_flagship_check_rejects_count_off_by_a_hensel_factor(key, classes):
    order, outputs = _flagship_outputs()
    rep = dict(outputs[order.index(key)], point_classes=classes)
    outputs[order.index(key)] = rep
    problems = checks.check("flagship", order, outputs)
    assert any(key in p and "classes" in p for p in problems)


def test_flagship_check_rejects_zero_in_the_sum_set():
    order, outputs = _flagship_outputs()
    outputs[order.index("place_v3")] = dict(outputs[order.index("place_v3")],
                                            attained=[0])
    assert any("contains 0" in p for p in checks.check("flagship", order, outputs))


# --- residues and norms ----------------------------------------------------------

def test_witness_norms_are_the_six_spec_residues():
    six = {(1, 0), (4, 0), (7, 0), (3, 1), (3, 4), (3, 7)}
    assert ref.witness_norms() == six
    assert six <= ref.norm_residues()
    assert len(ref.norm_residues()) == 18


def test_residue_check_rejects_mistranscribed_list():
    # zeta applied to only three of the six norms
    wrong = [(0, 1), (0, 4), (0, 7), (3, 1), (3, 4), (3, 7)]
    order, outputs = _flagship_outputs(residues=wrong)
    problems = checks.check("flagship", order, outputs)
    assert any("zeta * N" in p for p in problems)
    assert any("norm residues" in p for p in problems)


@pytest.mark.parametrize("name, text", [
    ("norm-sqrt-minus-3", "N(-1-2z+(1-z)r) = (1 + 2*zeta)"),
    ("norm-two", "N(2+cbrt12+cbrt18) = (2)"),
    ("norm-cross-term", "N(1+(-1-2z)r) = (3 + 4*zeta)")])
def test_norm_anchor_check(name, text):
    def outputs(detail):
        rows = [{"name": n, "passed": True, "detail": "x = (0)"}
                for n in checks.NORM_ANCHORS if n != name]
        rows.append({"name": name, "passed": True, "detail": detail})
        doc = json.dumps({"result": {"checks": rows}})
        return ["verify_paper"], [{"exit": 0, "doc": doc}]
    ok = [p for p in checks.check("flagship", *outputs(text)) if name in p]
    assert ok == []
    wrong = text.rsplit("=", 1)[0] + "= (3)"
    assert any(name in p for p in checks.check("flagship", *outputs(wrong)))


def test_parse_eisenstein():
    P = checks.parse_eisenstein
    assert P("(1 + 2*zeta)") == (1, 2)
    assert P("-3*zeta") == (0, -3)
    assert P("3 - 4*zeta") == (3, -4)
    assert P("(2)") == (2, 0)


# --- local solvability ----------------------------------------------------------

def test_certified_point_is_a_hensel_certificate():
    for coeffs, p in (((1, 1, 1, 1), 3), (CG, 2), (CG, 3), (CG, 5), ((1, 1, 1, 1), 7)):
        x = ref.certified_point(coeffs, p)
        assert x is not None
        lf = ref._Lifter(coeffs, p)
        assert lf.certified(x)


def test_no_point_depth():
    assert ref.no_point_depth((1, 13, 50, 26), 13) == 2
    assert ref.local_solvability((1, 13, 50, 26), 13) == (False, 2)
    assert ref.certified_point((1, 13, 50, 26), 13) is None
    assert ref.no_point_depth((1, 1, 1, 1), 2) is None
    assert ref.no_point_depth((5, 7, 18, 1), 3) == 5
    solvable, x = ref.local_solvability((15, 39, 1, 35), 3)
    assert solvable and ref._Lifter((15, 39, 1, 35), 3).certified(x)


def test_survey_check_accepts_and_rejects():
    right = {"verdict": "NOT_LOCALLY_SOLVABLE", "h1": "Z/3", "failed": [(7, 3)]}
    assert checks.check("survey", [(52, 42, 1, 35)], [right]) == []
    wrong = {"verdict": "NO_OBSTRUCTION_FROM_CLASS", "h1": "Z/3", "failed": []}
    assert checks.check("survey", [(52, 42, 1, 35)], [wrong])
    trivial = {"verdict": "H1_TRIVIAL", "h1": "0", "failed": []}
    assert checks.check("survey", [(1, 1, 1, 1)], [trivial]) == []
    claims_nls = {"verdict": "NOT_LOCALLY_SOLVABLE", "h1": "0", "failed": [(3, 5)]}
    assert checks.check("survey", [(1, 1, 1, 1)], [claims_nls])


# --- inputs ------------------------------------------------------------------------

def test_inputs_follow_the_seed():
    for w in workloads.WORKLOADS:
        assert workloads.make_inputs(w, 3) == workloads.make_inputs(w, 3)
        assert workloads.make_inputs(w, 3) != workloads.make_inputs(w, 4)


def test_survey_inputs_obey_the_pool_rule():
    values = set(workloads.survey_values())
    picked = workloads.make_inputs("survey", 1)
    assert len(picked) == 80
    for cs in picked:
        assert set(cs) <= values and workloads.survey_admissible(cs)
    strata = [workloads.survey_stratum(cs) for cs in picked]
    for name, n in workloads.SURVEY_QUOTAS:
        assert strata.count(name) == n
