"""Tests of the span tracer on small stand-in modules.

Run with `python3 -m pytest bmbench` from the root of the repository.
"""

import os
import sys
import types

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402

LOW = '''
from functools import lru_cache

def leaf(x):
    return x + 1

def fact(n):
    return 1 if n <= 1 else n * fact(n - 1)

@lru_cache(maxsize=None)
def cached(x):
    return leaf(x)

def points(n):
    for i in range(n):
        yield leaf(i)

def _private(x):
    return leaf(x)
'''

HIGH = '''
from pkg.low import leaf, points

def top(x):
    return leaf(x) + sum(points(3))
'''


def _modules():
    low = types.ModuleType("pkg.low")
    exec(LOW, low.__dict__)
    sys.modules["pkg.low"] = low
    pkg = types.ModuleType("pkg")
    pkg.low = low
    sys.modules["pkg"] = pkg
    high = types.ModuleType("pkg.high")
    exec(HIGH, high.__dict__)
    return low, high


def test_wraps_public_functions_where_defined_and_imported():
    low, high = _modules()
    t = tr.Tracer()
    assert t.install([low, high]) == 5   # leaf, fact, cached, points, top
    t.op = 7
    assert high.top(1) == 2 + (1 + 2 + 3)
    names = [s[tr.NAME] for s in t.spans]
    assert names[0] == "high.top"
    assert names.count("low.leaf") == 4          # once direct, three per item
    assert names.count("low.points") == 4        # three items and the end
    assert all(s[tr.OP] == 7 for s in t.spans)
    gen_spans = [i for i, s in enumerate(t.spans) if s[tr.NAME] == "low.points"]
    assert all(t.spans[i][tr.PARENT] == 0 for i in gen_spans)
    leaf_parents = [s[tr.PARENT] for s in t.spans if s[tr.NAME] == "low.leaf"]
    assert leaf_parents == [0] + gen_spans[:3]
    t.uninstall()
    n = len(t.spans)
    high.top(1)
    assert len(t.spans) == n


def test_private_functions_are_not_spans_but_their_calls_are():
    low, high = _modules()
    t = tr.Tracer()
    t.install([low, high])
    low._private(1)
    assert [s[tr.NAME] for s in t.spans] == ["low.leaf"]
    assert t.spans[0][tr.PARENT] is None


def test_recursion_counts_outermost_once():
    low, high = _modules()
    t = tr.Tracer()
    t.install([low])
    assert low.fact(4) == 24
    outer = [s for s in t.spans if s[tr.OUTER]]
    assert len(t.spans) == 4 and len(outer) == 1
    selfs = tr.self_times(t.spans)
    total = t.spans[0][tr.END] - t.spans[0][tr.START]
    assert abs(sum(selfs) - total) < 1e-9


def test_cached_function_is_wrapped():
    low, high = _modules()
    t = tr.Tracer()
    t.install([low])
    low.cached(1)
    low.cached(1)
    assert [s[tr.NAME] for s in t.spans] == ["low.cached", "low.leaf", "low.cached"]


def _span(name, start, end, parent, extra=None):
    return [name, start, end, parent, 0, True, extra]


def test_layer_metrics_from_synthetic_spans():
    spans = [
        _span("azumaya.obstruction_verdict", 0.0, 10.0, None),
        _span("lines27.h1_picard", 0.0, 1.0, 0),
        _span("groupcohom.cohomology", 0.1, 0.9, 1),
        _span("lines27.h1_picard", 1.0, 1.5, 0),
        _span("azumaya.place_report", 2.0, 6.0, 0, {"p": 2, "classes": 100}),
        _span("azumaya.place_report", 6.0, 7.0, 0, {"p": 3, "classes": 50}),
        _span("eisenstein.residue_ring", 2.0, 2.5, 4, {"ring": "a:3"}),
        _span("eisenstein.residue_ring", 6.0, 6.5, 5, {"ring": "a:3"}),
        _span("eisenstein.residue_ring", 6.5, 6.6, 5, {"ring": "b:5"}),
    ]
    m = tr.layer_metrics(tr.layer_totals(spans))
    assert set(m) == set(tr.LAYER_UNITS)
    assert m["lines27.subgroup_reuse"] == 0.5
    assert m["groupcohom.cohomology_calls"] == 1
    assert m["azumaya.place_report.v2_s"] == 4.0
    assert m["azumaya.place_report.v3_s"] == 1.0
    assert m["azumaya.classes_per_s"] == 150 / 5.0
    assert m["eisenstein.rings_built"] == 2
    assert abs(m["azumaya.obstruction_verdict_self_s"] - (10.0 - 1.5 - 5.0)) < 1e-9
    assert m["calibrate.divisor_membership_s"] == 0.0


def test_totals_of_two_processes_add_up():
    one = [_span("lines27.h1_picard", 0.0, 1.0, None),
           _span("groupcohom.cohomology", 0.1, 0.9, 0)]
    two = [_span("lines27.h1_picard", 0.0, 0.5, None)]
    m = tr.layer_metrics(tr.add_totals([tr.layer_totals(one), tr.layer_totals(two)]))
    assert m["lines27.subgroup_reuse"] == 0.5
    assert m["lines27.h1_picard_s"] == 1.5
    assert m["groupcohom.cohomology_calls"] == 1
