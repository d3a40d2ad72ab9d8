"""Chart files: JSON serialization of Azumaya chart data.

A chart file carries everything the local-invariant engine needs for one
Brauer class: the splitting scalar theta and, per chart, the cubic
numerator, the cubed coordinate and the constant factor.  Eisenstein
numbers x + y*zeta are stored as two-element arrays of rational strings
["x", "y"], and indices and exponents as JSON integers; the loader takes
no other JSON type in their place.  See docs/chart_format.md for the
full format.

The class for (5, 9, 10, 12) is built in; every other surface with
nontrivial H^1 needs a user-supplied file.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from typing import Union

from .azumaya import (
    AzumayaChart,
    AzumayaClass,
    ChartsUnavailable,
    cassels_guy_class,
)
from .eisenstein import EisensteinNumber

FORMAT_NAME = "bmcubic-charts"
FORMAT_VERSION = 1

BUILTIN_CHART_CLASSES = {(5, 9, 10, 12): cassels_guy_class}

PathLike = Union[str, os.PathLike]


def eisenstein_to_pair(e: EisensteinNumber) -> list[str]:
    return [str(Fraction(e.x)), str(Fraction(e.y))]


def eisenstein_from_pair(pair, field: str = "value") -> EisensteinNumber:
    """x + y*zeta from ["x", "y"]; `field` names the value in errors."""
    if (not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(isinstance(x, str) for x in pair)):
        raise ValueError(
            f"{field}: expected a pair of rational strings, got {pair!r}")
    try:
        return EisensteinNumber(Fraction(pair[0]), Fraction(pair[1]))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"{field}: bad rational pair {pair!r}: {exc}") from None


def _json_int(value, field: str, lo: int, hi: int) -> int:
    # bool is an int subclass in Python, but true is not an integer in JSON
    if type(value) is not int or not lo <= value <= hi:
        raise ValueError(f"{field}: expected an integer {lo}-{hi}, got {value!r}")
    return value


def chart_payload(cls: AzumayaClass) -> dict:
    """JSON-ready dict for a chart class; inverse of ``class_from_payload``."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "theta": eisenstein_to_pair(cls.theta),
        "order": cls.order,
        "charts": [
            {
                "denominator": ch.denominator,
                "constant": eisenstein_to_pair(ch.constant),
                "numerator": [
                    {"monomial": list(mono),
                     "coefficient": eisenstein_to_pair(coef)}
                    for mono, coef in ch.numerator
                ],
            }
            for ch in cls.charts
        ],
    }


def class_from_payload(doc: dict) -> AzumayaClass:
    if not isinstance(doc, dict):
        raise ValueError("chart file must contain a JSON object")
    if doc.get("format") != FORMAT_NAME:
        raise ValueError(f"not a chart file (format={doc.get('format')!r})")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"unsupported chart format version {doc.get('version')!r}")
    theta = eisenstein_from_pair(doc.get("theta"), "theta")
    raw_charts = doc.get("charts")
    if not isinstance(raw_charts, list) or not raw_charts:
        raise ValueError("chart file lists no charts")
    charts = []
    for i, raw in enumerate(raw_charts):
        try:
            numerator = tuple(sorted(
                (tuple(_json_int(x, f"numerator term {k} monomial", 0, 3)
                       for x in term["monomial"]),
                 eisenstein_from_pair(term["coefficient"],
                                      f"numerator term {k} coefficient"))
                for k, term in enumerate(raw["numerator"])))
            charts.append(AzumayaChart(
                theta, numerator,
                _json_int(raw["denominator"], "denominator", 0, 3),
                eisenstein_from_pair(raw["constant"], "constant")))
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"chart {i}: {exc}") from None
    order = doc.get("order", 3)
    if order != 3:
        raise ValueError("only order-3 classes are supported")
    return AzumayaClass(theta, tuple(charts), order)


def dump_charts(cls: AzumayaClass, path: PathLike) -> None:
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(chart_payload(cls), fp, indent=2, sort_keys=True)
        fp.write("\n")


def load_charts(path: PathLike) -> AzumayaClass:
    try:
        with open(path, encoding="utf-8") as fp:
            doc = json.load(fp)
    except OSError as exc:
        raise ValueError(f"cannot read chart file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"chart file is not valid JSON: {exc}") from None
    return class_from_payload(doc)


def class_for(coeffs, charts_path: PathLike | None = None) -> AzumayaClass:
    """The chart class to use for a surface: user file first, then built-ins.

    Raises ChartsUnavailable when neither source applies; callers decide
    whether that is fatal (full verdicts) or partial (solvability only).
    """
    if charts_path is not None:
        return load_charts(charts_path)
    builtin = BUILTIN_CHART_CLASSES.get(tuple(coeffs))
    if builtin is not None:
        return builtin()
    raise ChartsUnavailable(
        f"no built-in chart data for coefficients {tuple(coeffs)}; "
        "supply a chart file")
