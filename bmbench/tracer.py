"""Span tracer around bmcubic's public functions, and the per-layer metrics.

`Tracer.install(modules)` replaces every public module-level function of
the given modules (a function whose name has no leading underscore and
that the module defines) by a wrapper, both in the defining module and in
every module that imported it by name.  Calls through other references,
such as a function stored in a dict at import time, are not seen.

Each call records a span: name ("module.function" where it is defined),
start, end, parent span and the benchmark operation it belongs to.  A
generator function records one span per resumption, that is per yielded
item plus the step that ends it.  Spans stay in memory; `dump` writes
them out once the pass is over.  `layer_totals` sums them into additive
quantities per process, and `layer_metrics` turns the totals of a pass
into the per-layer metrics of the benchmark.
"""

from __future__ import annotations

import functools
import inspect
import json
from time import perf_counter

# span fields
NAME, START, END, PARENT, OP, OUTER, EXTRA = range(7)


def _place_report_extra(bound, result):
    return {"p": bound.arguments["place"].p, "classes": result.point_classes}


def _residue_ring_extra(bound, result):
    return {"ring": f"{bound.arguments['place']}:{bound.arguments['precision']}"}


# arguments and results that some metrics need, recorded on these spans only
EXTRAS = {
    "azumaya.place_report": _place_report_extra,
    "eisenstein.residue_ring": _residue_ring_extra,
}


def public_functions(module):
    """(name, function) for the public functions `module` itself defines."""
    for name, obj in vars(module).items():
        if name.startswith("_"):
            continue
        is_func = inspect.isfunction(obj) or isinstance(
            obj, functools._lru_cache_wrapper)
        if is_func and getattr(obj, "__module__", None) == module.__name__:
            yield name, obj


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = None          # id of the benchmark operation running now
        self._stack: list[int] = []
        self._depth: dict[str, int] = {}
        self._patched: list = []

    # --- installation -------------------------------------------------------

    def install(self, modules) -> int:
        """Wrap the public functions of `modules`; returns how many."""
        wrappers = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name, fn in public_functions(mod):
                wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._patched.append((mod, name, obj))
        return len(wrappers)

    def uninstall(self) -> None:
        for mod, name, obj in reversed(self._patched):
            setattr(mod, name, obj)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        extra_fn = EXTRAS.get(name)
        sig = inspect.signature(fn) if extra_fn else None
        spans, stack, depth = self.spans, self._stack, self._depth

        def enter():
            sid = len(spans)
            outer = depth.get(name, 0) == 0
            spans.append([name, perf_counter(), None,
                          stack[-1] if stack else None, self.op, outer, None])
            stack.append(sid)
            depth[name] = depth.get(name, 0) + 1
            return sid

        def leave(sid):
            spans[sid][END] = perf_counter()
            stack.pop()
            depth[name] -= 1

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    sid = enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave(sid)
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                leave(sid)
            if extra_fn is not None:
                spans[sid][EXTRA] = extra_fn(sig.bind(*args, **kwargs), result)
            return result
        return wrapper

    # --- output ---------------------------------------------------------------

    def dump(self, path: str) -> None:
        """One JSON line per span, in start order."""
        with open(path, "w") as fh:
            for sid, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": sid, "name": s[NAME], "start": s[START], "end": s[END],
                    "parent": s[PARENT], "op": s[OP], "extra": s[EXTRA]}) + "\n")


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children run inside their parent and one at a time, so the time they
    cover is the sum of their durations.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_totals(spans) -> dict[str, float]:
    """Additive per-layer quantities of one traced process.

    Times `<module>.<function>` are inclusive and count only the outermost
    span of a recursion; `self:` entries are self time.  Totals of several
    processes add up key by key; `layer_metrics` turns them into metrics.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for s, st in zip(spans, self_times(spans)):
        name = s[NAME]
        add(f"calls:{name}", 1)
        add(f"self:{name}", st)
        if s[OUTER]:
            add(name, s[END] - s[START])
        if name == "azumaya.place_report" and s[OUTER] and s[EXTRA]:
            add(f"place_report.v{s[EXTRA]['p']}", s[END] - s[START])
            add("place_report.classes", s[EXTRA]["classes"])
    add("rings_built", len({s[EXTRA]["ring"] for s in spans
                            if s[NAME] == "eisenstein.residue_ring"}))

    # an h1_picard call reuses a cached subgroup when no cohomology span
    # lies below it
    computed = set()
    for s in spans:
        if s[NAME] == "groupcohom.cohomology":
            up = s[PARENT]
            while up is not None:
                if spans[up][NAME] == "lines27.h1_picard" and spans[up][OUTER]:
                    computed.add(up)
                up = spans[up][PARENT]
    add("h1_picard.computed", len(computed))
    add("h1_picard.calls", sum(1 for s in spans
                               if s[NAME] == "lines27.h1_picard" and s[OUTER]))
    return out


def add_totals(parts) -> dict[str, float]:
    out: dict[str, float] = {}
    for part in parts:
        for key, value in part.items():
            out[key] = out.get(key, 0) + value
    return out


def layer_metrics(totals) -> dict[str, float]:
    """The per-layer metrics from (summed) layer totals.  A layer that did
    not run reads 0."""
    t = totals.get
    place_time = t("azumaya.place_report", 0.0)
    h1_calls = t("h1_picard.calls", 0)
    return {
        "azumaya.place_report.v2_s": t("place_report.v2", 0.0),
        "azumaya.place_report.v3_s": t("place_report.v3", 0.0),
        "azumaya.classes_per_s":
            t("place_report.classes", 0) / place_time if place_time else 0.0,
        "azumaya.first_chart_residues_s": t("azumaya.first_chart_residues", 0.0),
        "azumaya.local_solvability_s": t("azumaya.local_solvability", 0.0),
        "azumaya.obstruction_verdict_self_s": t("self:azumaya.obstruction_verdict", 0.0),
        "eisenstein.wild_norm_classifier_s": t("eisenstein.wild_norm_classifier", 0.0),
        "eisenstein.residue_ring_s": t("eisenstein.residue_ring", 0.0),
        "eisenstein.rings_built": t("rings_built", 0),
        "lines27.h1_picard_s": t("lines27.h1_picard", 0.0),
        "lines27.galois_data_s": t("lines27.galois_data", 0.0),
        "lines27.table_classification_s": t("lines27.table_classification", 0.0),
        "lines27.subgroup_reuse":
            1.0 - t("h1_picard.computed", 0) / h1_calls if h1_calls else 0.0,
        "groupcohom.cohomology_s": t("groupcohom.cohomology", 0.0),
        "groupcohom.cohomology_calls": t("calls:groupcohom.cohomology", 0),
        "exactlin.smith_normal_form_s": t("exactlin.smith_normal_form", 0.0),
        "calibrate.calibration_identity_s": t("calibrate.calibration_identity", 0.0),
        "calibrate.divisor_membership_s": t("calibrate.divisor_membership", 0.0),
        "verification.run_checks_s": t("verification.run_checks", 0.0),
        "cli.main_self_s": t("self:cli.main", 0.0),
    }


# unit of each per-layer metric, in the order of the benchmark's table
LAYER_UNITS = {
    "azumaya.place_report.v2_s": "s",
    "azumaya.place_report.v3_s": "s",
    "azumaya.classes_per_s": "classes/s",
    "azumaya.first_chart_residues_s": "s",
    "azumaya.local_solvability_s": "s",
    "azumaya.obstruction_verdict_self_s": "s",
    "eisenstein.wild_norm_classifier_s": "s",
    "eisenstein.residue_ring_s": "s",
    "eisenstein.rings_built": "count",
    "lines27.h1_picard_s": "s",
    "lines27.galois_data_s": "s",
    "lines27.table_classification_s": "s",
    "lines27.subgroup_reuse": "ratio",
    "groupcohom.cohomology_s": "s",
    "groupcohom.cohomology_calls": "count",
    "exactlin.smith_normal_form_s": "s",
    "calibrate.calibration_identity_s": "s",
    "calibrate.divisor_membership_s": "s",
    "verification.run_checks_s": "s",
    "cli.main_self_s": "s",
}
