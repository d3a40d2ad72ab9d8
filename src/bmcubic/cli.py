"""Command-line front end.

Subcommands map onto the library layers: ``h1`` and ``scan`` run the
Picard-cohomology routes, ``lines`` prints the intersection data the
cohomology is built from, ``local`` and ``obstruct`` drive the local
invariant engine, ``verify-paper`` re-derives the published anchor values
and reports PASS/FAIL per check.

Every report is a single JSON document with a versioned schema; with the
default settings the bytes are identical across runs and parallelism
degrees.  ``--timing`` adds wall-clock measurements and is therefore
explicitly non-deterministic.

Exit codes: 0 success, 1 invalid input or failed verification, 2
inconclusive (precision ladder gave up), 3 missing chart data.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from itertools import product

from . import __version__
from .azumaya import (
    ChartsUnavailable,
    NoStabilization,
    Verdict,
    local_solvability,
    obstruction_verdict,
    place_report,
    places_over,
)
from .chartio import chart_payload, class_for, eisenstein_to_pair
from .lines27 import LABELS, galois_data, h1_picard, line_configuration, table_classification
from .verification import run_checks

SCHEMA_VERSION = 1
PRECISION_CAP_ENV = "BM_PRECISION_CAP"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


# ----------------------------------------------------------------- arguments

def _parse_coefficients(text: str) -> tuple[int, int, int, int]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise _UsageError(f"expected 4 comma-separated coefficients, got {text!r}")
    try:
        coeffs = tuple(int(p) for p in parts)
    except ValueError:
        raise _UsageError(f"coefficients must be integers, got {text!r}") from None
    if any(c == 0 for c in coeffs):
        raise _UsageError("coefficients must be nonzero")
    return coeffs


def _parse_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep or not lo.isdigit() or not hi.isdigit():
        raise _UsageError(f"expected a range like 1..6, got {text!r}")
    lo_i, hi_i = int(lo), int(hi)
    if lo_i < 1 or hi_i < lo_i:
        raise _UsageError(f"empty or invalid range {text!r}")
    return lo_i, hi_i


def _add_output_flags(sp):
    sp.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    sp.add_argument("--format", choices=("json", "text"), default="json",
                    help="report format (default json)")
    sp.add_argument("--timing", action="store_true",
                    help="include wall-clock timing (breaks byte-identical output)")


def _add_coeffs_flag(sp, required=True):
    sp.add_argument("-c", "--coefficients", metavar="A,B,C,D", required=required,
                    help="surface coefficients, e.g. 5,9,10,12")


def _add_engine_flags(sp):
    sp.add_argument("--precision", type=int, metavar="N",
                    help="starting pi-adic precision (overrides the defaults)")
    sp.add_argument("--charts", metavar="FILE",
                    help="chart file for surfaces without built-in chart data")
    sp.add_argument("--jobs", type=int, default=1, metavar="N",
                    help="worker processes for the enumeration (default 1)")


def build_parser() -> _Parser:
    parser = _Parser(prog="bm", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"bm {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    h1 = sub.add_parser("h1", help="H^1 of the Picard module by both routes")
    _add_coeffs_flag(h1)
    _add_output_flags(h1)
    h1.set_defaults(func=cmd_h1)

    lines = sub.add_parser("lines", help="the 27 lines and their splitting data")
    _add_coeffs_flag(lines, required=False)
    _add_output_flags(lines)
    lines.set_defaults(func=cmd_lines)

    scan = sub.add_parser("scan", help="H^1 census over a coefficient box")
    scan.add_argument("--range", default="1..6", metavar="LO..HI",
                      help="coefficient range, default 1..6")
    scan.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes (default 1)")
    _add_output_flags(scan)
    scan.set_defaults(func=cmd_scan)

    local = sub.add_parser("local", help="solvability and invariants at one prime")
    _add_coeffs_flag(local)
    local.add_argument("--place", type=int, required=True, metavar="P",
                       help="rational prime; all places over it are reported")
    _add_engine_flags(local)
    _add_output_flags(local)
    local.set_defaults(func=cmd_local)

    obstruct = sub.add_parser("obstruct", help="full obstruction verdict")
    _add_coeffs_flag(obstruct)
    _add_engine_flags(obstruct)
    _add_output_flags(obstruct)
    obstruct.set_defaults(func=cmd_obstruct)

    verify = sub.add_parser("verify-paper",
                            help="re-derive the published anchor values")
    verify.add_argument("--quick", action="store_true",
                        help="skip the slow full-enumeration checks")
    verify.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for the slow checks (default 1)")
    _add_output_flags(verify)
    verify.set_defaults(func=cmd_verify_paper)
    return parser


# ------------------------------------------------------------- serialization

def _inv_strs(values) -> list[str]:
    return sorted(str(v) for v in values)


def _place_doc(place) -> dict:
    return {"p": place.p, "kind": place.kind,
            "pi": eisenstein_to_pair(place.pi)}


def _place_report_doc(rep) -> dict:
    return {"place": _place_doc(rep.place), "solvable": rep.solvable,
            "attained": _inv_strs(rep.attained),
            "point_classes": rep.point_classes,
            "precision": rep.precision, "stable": rep.stable}


def _document(command: str, inputs: dict, result: dict, started: float,
              timing: bool) -> dict:
    return {
        "tool": "bmcubic",
        "version": __version__,
        "schema": SCHEMA_VERSION,
        "command": command,
        "input": inputs,
        "result": result,
        "timing": {"seconds": round(time.monotonic() - started, 3)} if timing else None,
    }


def _emit(args, doc: dict) -> None:
    if args.format == "text":
        text = "\n".join(_render_text(doc)) + "\n"
    else:
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _render_text(doc: dict) -> list[str]:
    result = doc["result"]
    command = doc["command"]
    out = []
    if command == "h1":
        out.append(f"coefficients {','.join(map(str, result['coefficients']))}")
        out.append(f"H^1 = {result['h1_picard']} (picard) | "
                   f"{result['h1_table']} (table) -> {result['agreement']}")
    elif command == "lines":
        out.append(f"{result['lines']} lines, each meeting "
                   f"{result['meets_per_line']} others")
        if result.get("galois") is not None:
            gal = result["galois"]
            out.append(f"splitting group order {gal['order']}, "
                       f"{gal['orbits']} orbits of sizes {gal['orbit_sizes']}")
    elif command == "scan":
        out.append(f"range {result['range'][0]}..{result['range'][1]}: "
                   f"{result['tuples']} tuples, {result['agree']} agree, "
                   f"{len(result['disagreements'])} disagree")
        hist = ", ".join(f"{k} -> {v}" for k, v in sorted(result["histogram"].items()))
        out.append(f"H^1 histogram: {hist}")
    elif command == "local":
        out.append(f"coefficients {','.join(map(str, result['coefficients']))}, "
                   f"H^1 = {result['h1']}, charts {result['charts']}")
        for row in result["places"]:
            place = row["place"]
            line = f"place over {place['p']} ({place['kind']}): " + \
                ("solvable" if row["solvable"] else "no local point")
            if row["attained"] is not None:
                line += (f", invariants {{{', '.join(row['attained'])}}} over "
                         f"{row['point_classes']} classes at precision "
                         f"{row['precision']}")
                if not row["stable"]:
                    line += " (unstable)"
            out.append(line)
    elif command == "obstruct":
        out.append(f"coefficients {','.join(map(str, result['coefficients']))}")
        out.append(f"H^1 = {result['h1']}")
        if result["verdict"] is None:
            out.append(f"no verdict: {result['note']}")
        else:
            out.append(f"verdict {result['verdict']}")
            out.append(f"invariant sums {{{', '.join(result['sumset'])}}}")
            for row in result["places"]:
                place = row["place"]
                out.append(f"  place over {place['p']}: "
                           f"{{{', '.join(row['attained'])}}} over "
                           f"{row['point_classes']} classes")
    elif command == "verify-paper":
        for row in result["checks"]:
            flag = "PASS" if row["passed"] else "FAIL"
            out.append(f"{flag}  {row['name']}: {row['detail']}")
        out.append(f"{result['passed'] + result['failed']} checks: "
                   f"{result['passed']} passed, {result['failed']} failed")
    else:
        out.append(json.dumps(result, sort_keys=True))
    return out


# -------------------------------------------------------------- subcommands

def cmd_h1(args, cap) -> int:
    started = time.monotonic()
    coeffs = _parse_coefficients(args.coefficients)
    via_picard = str(h1_picard(coeffs).structure)
    via_table = str(table_classification(coeffs))
    agreement = "AGREE" if via_picard == via_table else "DISAGREE"
    result = {"coefficients": list(coeffs), "h1_picard": via_picard,
              "h1_table": via_table, "agreement": agreement}
    doc = _document("h1", {"coefficients": list(coeffs)}, result, started,
                    args.timing)
    _emit(args, doc)
    return 0 if agreement == "AGREE" else 1


def cmd_lines(args, cap) -> int:
    started = time.monotonic()
    config = line_configuration()
    meets = sum(config.incidence.at(0, j) for j in range(27))
    result = {
        "lines": len(LABELS),
        "labels": [str(lab) for lab in LABELS],
        "meets_per_line": meets,
        "incidence": [[config.incidence.at(i, j) for j in range(27)]
                      for i in range(27)],
        "galois": None,
    }
    inputs: dict = {"coefficients": None}
    if args.coefficients:
        coeffs = _parse_coefficients(args.coefficients)
        inputs["coefficients"] = list(coeffs)
        gal = galois_data(coeffs)
        seen: set[int] = set()
        orbit_sizes = []
        for i in range(27):
            if i in seen:
                continue
            orbit = {i}
            frontier = [i]
            while frontier:
                j = frontier.pop()
                for perm in gal.permutations:
                    k = perm[j]
                    if k not in orbit:
                        orbit.add(k)
                        frontier.append(k)
            seen |= orbit
            orbit_sizes.append(len(orbit))
        result["galois"] = {"order": gal.group.order,
                            "orbits": len(orbit_sizes),
                            "orbit_sizes": sorted(orbit_sizes)}
    doc = _document("lines", inputs, result, started, args.timing)
    _emit(args, doc)
    return 0


def _scan_chunk(chunk) -> tuple[int, dict, list]:
    agree = 0
    histogram: dict[str, int] = {}
    disagreements = []
    for coeffs in chunk:
        via_picard = str(h1_picard(coeffs).structure)
        via_table = str(table_classification(coeffs))
        histogram[via_table] = histogram.get(via_table, 0) + 1
        if via_picard == via_table:
            agree += 1
        else:
            disagreements.append({"coefficients": list(coeffs),
                                  "h1_picard": via_picard,
                                  "h1_table": via_table})
    return agree, histogram, disagreements


def cmd_scan(args, cap) -> int:
    started = time.monotonic()
    lo, hi = _parse_range(args.range)
    tuples = list(product(range(lo, hi + 1), repeat=4))
    agree = 0
    histogram: dict[str, int] = {}
    disagreements: list[dict] = []
    step = max(1, len(tuples) // (max(args.jobs, 1) * 8))
    chunks = [tuples[i:i + step] for i in range(0, len(tuples), step)]
    with ExitStack() as stack:
        mapper = map
        if args.jobs > 1:
            mapper = stack.enter_context(
                ProcessPoolExecutor(max_workers=args.jobs)).map
        for done, (part_agree, part_hist, part_bad) in enumerate(
                mapper(_scan_chunk, chunks), 1):
            agree += part_agree
            for key, count in part_hist.items():
                histogram[key] = histogram.get(key, 0) + count
            disagreements.extend(part_bad)
            print(f"scan: {min(done * step, len(tuples))}/{len(tuples)} tuples",
                  file=sys.stderr)
    disagreements.sort(key=lambda row: row["coefficients"])
    result = {"range": [lo, hi], "tuples": len(tuples), "agree": agree,
              "histogram": histogram, "disagreements": disagreements}
    doc = _document("scan", {"range": [lo, hi]}, result, started, args.timing)
    _emit(args, doc)
    return 0 if not disagreements else 1


def cmd_local(args, cap) -> int:
    started = time.monotonic()
    coeffs = _parse_coefficients(args.coefficients)
    precision = args.precision
    if precision is not None and precision < 1:
        raise _UsageError("--precision must be at least 1")
    h1 = str(table_classification(coeffs))
    try:
        cls = class_for(coeffs, args.charts)
        charts_origin = "file" if args.charts else "builtin"
    except ChartsUnavailable:
        cls = None
        charts_origin = "unavailable"
    rows = []
    for place in places_over(args.place):
        if cls is not None:
            rep = place_report(coeffs, cls, place, jobs=args.jobs,
                               precision=precision, cap=cap)
            rows.append(_place_report_doc(rep))
        else:
            solvable = local_solvability(coeffs, place, precision, cap)
            rows.append({"place": _place_doc(place), "solvable": solvable,
                         "attained": None, "point_classes": None,
                         "precision": None, "stable": None})
    result = {"coefficients": list(coeffs), "h1": h1, "charts": charts_origin,
              "places": rows}
    inputs = {"coefficients": list(coeffs), "place": args.place,
              "precision": precision, "precision_cap": cap,
              "charts": args.charts}
    doc = _document("local", inputs, result, started, args.timing)
    _emit(args, doc)
    if cls is None and h1 != "0":
        return 3
    if any(row["stable"] is False for row in rows):
        print("bm: inconclusive: attained set did not stabilize within the "
              "precision bounds", file=sys.stderr)
        return 2
    return 0


def cmd_obstruct(args, cap) -> int:
    started = time.monotonic()
    coeffs = _parse_coefficients(args.coefficients)
    precision = args.precision
    if precision is not None and precision < 1:
        raise _UsageError("--precision must be at least 1")
    try:
        cls = class_for(coeffs, args.charts)
    except ChartsUnavailable as exc:
        cls = None
        reason = str(exc)
    classes = (cls,) if cls is not None else ()
    report = obstruction_verdict(coeffs, classes, jobs=args.jobs,
                                 precision=precision, cap=cap)
    inputs = {"coefficients": list(coeffs), "precision": precision,
              "precision_cap": cap, "charts": args.charts}
    if cls is None and report.verdict == Verdict.NO_OBSTRUCTION_FROM_CLASS:
        # locally solvable and H^1 is nonzero, but there is no chart data
        # to evaluate: report the cohomology and stop
        result = {"coefficients": list(coeffs), "h1": report.h1,
                  "verdict": None, "sumset": None, "places": None,
                  "cocycle_representatives": None, "note": reason}
        _emit(args, _document("obstruct", inputs, result, started, args.timing))
        return 3
    result = {"coefficients": list(coeffs), "h1": report.h1,
              "verdict": report.verdict.value, "sumset": _inv_strs(report.sumset),
              "places": [_place_report_doc(r) for r in report.place_reports],
              "cocycle_representatives": chart_payload(cls) if cls else None}
    _emit(args, _document("obstruct", inputs, result, started, args.timing))
    return 0


def cmd_verify_paper(args, cap) -> int:
    started = time.monotonic()
    results = run_checks(include_slow=not args.quick, jobs=args.jobs)
    rows = [{"name": r.name, "passed": r.passed, "detail": r.detail}
            for r in results]
    failed = sum(1 for r in results if not r.passed)
    result = {"checks": rows, "passed": len(results) - failed, "failed": failed,
              "quick": args.quick}
    doc = _document("verify-paper", {"quick": args.quick}, result, started,
                    args.timing)
    _emit(args, doc)
    return 1 if failed else 0


# --------------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"bm: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help / --version
        return int(exc.code or 0)
    if getattr(args, "command", None) is None:
        parser.print_help(sys.stderr)
        return 1
    cap_text = os.environ.get(PRECISION_CAP_ENV)
    cap = None
    if cap_text:
        try:
            cap = int(cap_text)
        except ValueError:
            print(f"bm: error: {PRECISION_CAP_ENV} must be an integer, "
                  f"got {cap_text!r}", file=sys.stderr)
            return 1
        if cap < 1:
            print(f"bm: error: {PRECISION_CAP_ENV} must be positive", file=sys.stderr)
            return 1
    try:
        return args.func(args, cap)
    except _UsageError as exc:
        print(f"bm: error: {exc}", file=sys.stderr)
        return 1
    except NoStabilization as exc:
        print(f"bm: inconclusive: {exc}", file=sys.stderr)
        return 2
    except ChartsUnavailable as exc:
        print(f"bm: missing chart data: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"bm: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
