"""Azumaya-algebra data and local analysis for the surface 5x^3+9y^3+10z^3+12t^3=0.

The Brauer class that obstructs rational points on this surface is cyclic for
the cubic extension k(cbrt(2/3))/k and is represented on three overlapping
charts by the rational functions

    g1 = f/x^3,   g2 = 2*zeta*f'/x^3,   g3 = -60*zeta^2*f''/x^3,

where f, f', f'' are the cubic forms recorded below (coefficients in
k = Q(zeta_3)).  The scalar prefactors 2*zeta and -60*zeta^2 differ from the
calibration constants zeta/4 and -15*zeta^2/2 by the cube 8, so the chart
functions define the same algebra class wherever both are defined.

The rest of the module evaluates such classes at local points.  Local points
are enumerated as residue classes modulo pi^N that carry a Hensel certificate
(the equation vanishes to order N, some partial derivative has valuation w
with N > 2w, so an actual k_v-point lies within pi^(N-w) of the class).
Each certified class gets an invariant in (1/3)Z/Z by writing a chart value
as pi^v * unit and looking its class up in `eisenstein.invariant_table`.
A chart counts as evaluable only when its numerator and denominator
valuations are at most N - w - m_v (m_v the unit resolution of
the place): that pins the unit mod pi^m_v at the certified nearby point, not
just across the residue class, so all evaluable charts must agree.  Charts
shallower than that bound can see only class-level garbage; they are skipped
rather than trusted.  Per-place invariant sets are
accepted only when enumeration at precision N and N+2 attains the same set,
replacing effective precision bounds with a stability contract.  The final
verdict compares the Minkowski sum of the per-place sets against 0.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Optional, Sequence

import numpy as np

from .eisenstein import (EisensteinNumber, InvariantValue, Place,
                         _prime_factors, invariant_table, is_local_cube,
                         localize, places_over, residue_ring, unit_resolution,
                         valuation)
from .lines27 import _validate_coeffs, h1_picard

Monomial = tuple[int, int, int, int]
Coeffs = tuple[int, int, int, int]

SURFACE_COEFFICIENTS = (5, 9, 10, 12)

X3, Y3, Z3, T3 = (3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)


def _k(pairs: dict[Monomial, tuple]) -> dict[Monomial, EisensteinNumber]:
    return {m: EisensteinNumber(a, b) for m, (a, b) in pairs.items()}


# div(f/x^3) = C + tC + ttC - 3H for a twisted cubic curve C on the surface;
# f' and f'' play the same role for the translates C' and C''
F_TERMS = _k({
    X3: (-2, 2), (2, 1, 0, 0): (0, -3), (2, 0, 1, 0): (0, -8),
    (1, 2, 0, 0): (9, 9), (1, 1, 1, 0): (0, 24), (1, 0, 2, 0): (0, 4),
    Y3: (-21, -6), (0, 1, 2, 0): (0, -12), Z3: (-14, -18), T3: (-4, 4),
})

FPRIME_TERMS = _k({
    X3: (4, 2), (2, 1, 0, 0): (0, -3), (2, 0, 1, 0): (-8, 0),
    (1, 2, 0, 0): (-9, 0), (1, 1, 1, 0): (0, 24), (1, 0, 2, 0): (4, 0),
    Y3: (15, 21), (0, 1, 2, 0): (0, -12), Z3: (-4, 14), T3: (8, 4),
})

FDOUBLEPRIME_TERMS = _k({
    X3: (-2, -4), (2, 1, 0, 0): (0, -3), (2, 0, 1, 0): (-8, 0),
    (1, 2, 0, 0): (0, -9), (1, 1, 1, 0): (-24, -24), (1, 0, 2, 0): (0, 4),
    Y3: (6, -15), (0, 1, 2, 0): (-12, 0), Z3: (18, 4), T3: (-4, -8),
})

# scalars that make g1, g2, g3 land in one Brauer class
CHART_SCALES = (
    EisensteinNumber(1),
    EisensteinNumber(0, 2),
    EisensteinNumber(60, 60),
)

CHART_NUMERATORS = (F_TERMS, FPRIME_TERMS, FDOUBLEPRIME_TERMS)

# the constants of the divisor calibration identities; they differ from
# CHART_SCALES entrywise by the cube 8
THETA_FPRIME = EisensteinNumber(0, Fraction(1, 4))
THETA_FDOUBLEPRIME = EisensteinNumber(Fraction(15, 2), Fraction(15, 2))

THETA_CG = EisensteinNumber(Fraction(2, 3))


class ChartsUnavailable(Exception):
    """No Azumaya charts are known for the requested surface."""


class NoEvaluableChart(Exception):
    """Every chart has numerator or denominator too deep at this point class."""


class ChartDisagreement(ArithmeticError):
    """Two evaluable charts produced different invariants: broken class data."""


class NoStabilization(ArithmeticError):
    """Attained sets kept changing through the allowed precision escalations."""


class Verdict(str, Enum):
    HASSE_VIOLATION = "HASSE_VIOLATION"
    NO_OBSTRUCTION_FROM_CLASS = "NO_OBSTRUCTION_FROM_CLASS"
    WEAK_APPROX_OBSTRUCTION_ONLY = "WEAK_APPROX_OBSTRUCTION_ONLY"
    NOT_LOCALLY_SOLVABLE = "NOT_LOCALLY_SOLVABLE"
    H1_TRIVIAL = "H1_TRIVIAL"


@dataclass(frozen=True)
class AzumayaChart:
    """constant * numerator / coordinate^3 representing a cyclic algebra.

    The numerator is a homogeneous cubic with Z[zeta] coefficients, stored
    as a sorted tuple of (exponent 4-tuple, coefficient); the denominator
    is the index of the cubed coordinate.
    """

    theta: EisensteinNumber
    numerator: tuple[tuple[Monomial, EisensteinNumber], ...]
    denominator: int
    constant: EisensteinNumber

    def __post_init__(self):
        if self.denominator not in (0, 1, 2, 3):
            raise ValueError("denominator must be a coordinate index")
        if not self.numerator or all(c.is_zero for _, c in self.numerator):
            raise ValueError("numerator vanishes identically")
        for mono, _ in self.numerator:
            if len(mono) != 4 or sum(mono) != 3 or min(mono) < 0:
                raise ValueError("numerator terms must be cubic monomials")
        if self.constant.is_zero or self.theta.is_zero:
            raise ValueError("constant and theta must be nonzero")


@dataclass(frozen=True)
class AzumayaClass:
    """A Brauer class represented by charts sharing one splitting theta."""

    theta: EisensteinNumber
    charts: tuple[AzumayaChart, ...]
    order: int = 3

    def __post_init__(self):
        if any(ch.theta != self.theta for ch in self.charts):
            raise ValueError("all charts must share the class theta")


def _chart(terms: dict[Monomial, EisensteinNumber], denominator: int,
           constant: EisensteinNumber,
           theta: EisensteinNumber = THETA_CG) -> AzumayaChart:
    return AzumayaChart(theta, tuple(sorted(terms.items())), denominator, constant)


@lru_cache(maxsize=1)
def cassels_guy_class() -> AzumayaClass:
    """The obstructing class of 5x^3+9y^3+10z^3+12t^3=0: 3 numerators x 4
    denominators, constants 1, 2*zeta, -60*zeta^2."""
    charts = tuple(
        _chart(terms, den, const)
        for terms, const in zip(CHART_NUMERATORS, CHART_SCALES)
        for den in range(4))
    return AzumayaClass(THETA_CG, charts)


def scale_class(cls: AzumayaClass, factor: EisensteinNumber) -> AzumayaClass:
    """Multiply every chart constant by a scalar (a cube keeps the class)."""
    charts = tuple(
        AzumayaChart(ch.theta, ch.numerator, ch.denominator, ch.constant * factor)
        for ch in cls.charts)
    return AzumayaClass(cls.theta, charts, cls.order)


# --- places -----------------------------------------------------------------

def _place_key(place: Place):
    return (place.p, str(place.pi))


def _chart_degenerate_places(cls: AzumayaClass) -> set[Place]:
    # a place is degenerate for the class when every chart numerator
    # vanishes identically there; candidates divide all coefficient norms
    per_chart = []
    for ch in cls.charts:
        coeffs = [c for _, c in ch.numerator if not c.is_zero]
        g = 0
        for c in coeffs:
            g = gcd(g, int(c.norm()))
        degen = set()
        for p in _prime_factors(g):
            if p == 3:
                continue
            for place in places_over(p):
                if all(valuation(c, place) >= 1 for c in coeffs):
                    degen.add(place)
        per_chart.append(degen)
    return set.intersection(*per_chart) if per_chart else set()


def bad_places(coeffs: Sequence[int],
               cls: Optional[AzumayaClass] = None) -> tuple[Place, ...]:
    """Places over 3 and over primes dividing abcd, plus places where the
    whole class degenerates; everywhere else good reduction applies.

    >>> [pl.p for pl in bad_places((5, 9, 10, 12))]
    [2, 3, 5]
    >>> [pl.p for pl in bad_places((1, 1, 1, 2))]
    [2, 3]
    >>> [pl.p for pl in bad_places((1, 1, 1, 1))]
    [3]
    """
    a, b, c, d = _validate_coeffs(coeffs)
    ps = {3} | set(_prime_factors(a * b * c * d))
    places = {pl for p in ps for pl in places_over(p)}
    if cls is not None:
        places |= _chart_degenerate_places(cls)
    return tuple(sorted(places, key=_place_key))


def default_precision(place: Place) -> int:
    """Working pi-adic precision: mod 9*sqrt(-3) over 3, mod 8 at 2."""
    return 5 if place.kind == "ramified" else 3


# --- local point classes ----------------------------------------------------

@dataclass(frozen=True)
class LocalPointClass:
    """A residue class mod pi^N on the surface with a Hensel certificate.

    Coordinates are residue-ring encodings with the first unit coordinate
    normalized to 1; the certificate (i, w) says the i-th partial derivative
    has valuation w with N > 2w, so the class lifts to a k_v-point.
    """

    place: Place
    precision: int
    coords: tuple
    certificate: tuple[int, int]

    def coordinates_exact(self) -> tuple[EisensteinNumber, ...]:
        out = []
        for e in self.coords:
            if self.place.kind == "split":
                out.append(EisensteinNumber(e))
            elif self.place.kind == "inert":
                out.append(EisensteinNumber(e[0], e[1]))
            else:
                s, t = e
                out.append(EisensteinNumber(s + t, 2 * t))
        return tuple(out)


class _RingTables:
    """Element lists and power tables of o_v/pi^N, shared by the scanners."""

    def __init__(self, place: Place, precision: int):
        self.ring = residue_ring(place, precision)
        self.elems = list(self.ring.elements())
        self.val = {e: self.ring.valuation(e) for e in self.elems}
        self.nonunits = [e for e in self.elems if self.val[e] > 0]
        self.sq = {e: self.ring.mul(e, e) for e in self.elems}
        self.cube = {e: self.ring.mul(self.sq[e], e) for e in self.elems}


@lru_cache(maxsize=32)
def _ring_tables(place: Place, precision: int) -> _RingTables:
    return _RingTables(place, precision)


def _ring_size(place: Place, precision: int) -> int:
    if place.kind == "split":
        return place.p ** precision
    if place.kind == "inert":
        return place.p ** (2 * precision)
    return 3 ** precision


class _LocalModel:
    """Coefficients of the surface embedded at one place and precision.

    Any common pi-power of the coefficients is removed first, so the model
    equation is primitive; term[i] maps a residue u to c_i*u^3 and roots[i]
    inverts that map, which turns the point scan into table lookups.
    """

    def __init__(self, coeffs: Coeffs, place: Place, precision: int):
        t = _ring_tables(place, precision)
        self.tables = t
        ring = t.ring
        exact = [EisensteinNumber(c) for c in coeffs]
        content = min(valuation(c, place) for c in exact)
        reduced = [c / place.pi ** content for c in exact]
        self.embedded = tuple(ring.embed(c) for c in reduced)
        three = ring.embed(EisensteinNumber(3))
        # dval[i][u] = v(3 c_i u^2), the i-th partial at a point with x_i = u
        self.dval = tuple(
            {e: t.val[ring.mul(ring.mul(three, ci), t.sq[e])] for e in t.elems}
            for ci in self.embedded)
        self.term = tuple(
            {e: ring.mul(ci, t.cube[e]) for e in t.elems}
            for ci in self.embedded)
        self.roots: tuple[dict, ...] = tuple({} for _ in range(4))
        for i in range(4):
            table = self.roots[i]
            term = self.term[i]
            for e in t.elems:
                table.setdefault(term[e], []).append(e)


@lru_cache(maxsize=32)
def _local_model(coeffs: Coeffs, place: Place, precision: int) -> _LocalModel:
    return _LocalModel(coeffs, place, precision)


def _scan(coeffs: Coeffs, place: Place, precision: int,
          partition: Optional[tuple[int, int]] = None
          ) -> Iterator[tuple[tuple, int, int, bool]]:
    """Stream (coords, cert_index, cert_valuation, certified) over all
    residue classes mod pi^N with F = 0 mod pi^N, first unit coordinate 1.

    For each choice of leading coordinate the last remaining coordinate is
    solved by root lookup; the one or two free coordinates run over the
    full ring, or over nonunits when they precede the leading coordinate.
    A partition (k, n) keeps only free values with pack(a) = k mod n.
    """
    model = _local_model(coeffs, place, precision)
    t = model.tables
    ring = t.ring
    one = ring.one
    for i0 in range(4):
        solve_j = max(j for j in range(4) if j != i0)
        fa, fb = (j for j in range(4) if j not in (i0, solve_j))
        range_a = t.nonunits if fa < i0 else t.elems
        range_b = t.nonunits if fb < i0 else t.elems
        base = model.term[i0][one]
        term_a, term_b = model.term[fa], model.term[fb]
        roots = model.roots[solve_j]
        need_nonunit = solve_j < i0
        dv = model.dval
        coords = [one, one, one, one]
        for a in range_a:
            if partition is not None and ring.pack(a) % partition[1] != partition[0]:
                continue
            s1 = ring.add(base, term_a[a])
            for b in range_b:
                rhs = ring.neg(ring.add(s1, term_b[b]))
                for sol in roots.get(rhs, ()):
                    if need_nonunit and t.val[sol] == 0:
                        continue
                    coords[i0] = one
                    coords[fa] = a
                    coords[fb] = b
                    coords[solve_j] = sol
                    w = idx = None
                    for i in range(4):
                        wi = dv[i][coords[i]]
                        if w is None or wi < w:
                            w, idx = wi, i
                    yield tuple(coords), idx, w, precision > 2 * w


def enumerate_local_points(coeffs: Sequence[int], place: Place,
                           precision: int,
                           _partition: Optional[tuple[int, int]] = None
                           ) -> Iterator[LocalPointClass]:
    """Certified liftable point classes mod pi^precision, in a fixed order.

    >>> v7, _ = places_over(7)
    >>> pts = list(enumerate_local_points((1, 1, 1, 1), v7, 1))
    >>> any(p.coords == (1, 6, 0, 0) for p in pts)
    True
    """
    cs = _validate_coeffs(coeffs)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    for coords, idx, w, ok in _scan(cs, place, precision, _partition):
        if ok:
            yield LocalPointClass(place, precision, coords, (idx, w))


# --- invariant evaluation ---------------------------------------------------

class _ClassEvaluator:
    """Evaluates one Azumaya class on encoded point classes at fixed precision."""

    def __init__(self, cls: AzumayaClass, place: Place, precision: int):
        self.cls = cls
        self.place = place
        self.precision = precision
        self.t = _ring_tables(place, precision)
        self.m_v = unit_resolution(place)
        self.split = is_local_cube(cls.theta, place)
        if self.split:
            return
        ring = self.t.ring
        self.lo = residue_ring(place, self.m_v)
        numerators: list[tuple] = []
        self.num_index: dict[tuple, int] = {}
        self.charts = []
        for ch in cls.charts:
            if ch.numerator not in self.num_index:
                self.num_index[ch.numerator] = len(numerators)
                numerators.append(ch.numerator)
            loc = localize(ch.constant, place, self.m_v)
            self.charts.append((self.num_index[ch.numerator], ch.denominator,
                                loc.valuation, loc.unit))
        self.num_terms = []
        for num in numerators:
            self.num_terms.append([
                (ring.embed(c), mono) for mono, c in num if not c.is_zero])
        self.table = invariant_table(cls.theta, place)

    def _unit_mod_m(self, value, v: int):
        ring = self.t.ring
        u = ring.unit_part(value, v)
        src = residue_ring(self.place, self.precision - v)
        return src.reduce_to(u, self.lo)

    def numerator_values(self, coords) -> list:
        ring = self.t.ring
        t = self.t
        pows = tuple((None, c, t.sq[c], t.cube[c]) for c in coords)
        out = []
        for terms in self.num_terms:
            acc = None
            for cemb, mono in terms:
                term = cemb
                for i in range(4):
                    if mono[i]:
                        term = ring.mul(term, pows[i][mono[i]])
                acc = term if acc is None else ring.add(acc, term)
            out.append(acc)
        return out

    def js_at(self, coords, w: int) -> int:
        if self.split:
            return 0
        limit = self.precision - self.m_v - w
        if limit < 0:
            raise NoEvaluableChart(
                f"certificate pi^{w} leaves no unit digits at {self.place}")
        t = self.t
        ring = t.ring
        lo = self.lo
        nums = self.numerator_values(coords)
        num_val = [t.val[n] for n in nums]
        seen = {}
        for num_i, den_i, const_v, const_u in self.charts:
            vn = num_val[num_i]
            vd = 3 * t.val[coords[den_i]]
            if vn > limit or vd > limit:
                continue
            un = self._unit_mod_m(nums[num_i], vn)
            ud = self._unit_mod_m(t.cube[coords[den_i]], vd)
            u = lo.mul(lo.mul(un, lo.inv(ud)), const_u)
            v = const_v + vn - vd
            seen[(num_i, den_i)] = self.table[(v % 3, lo.pack(u))]
        if not seen:
            raise NoEvaluableChart(f"point {coords} at {self.place}")
        if len(set(seen.values())) > 1:
            raise ChartDisagreement(
                f"charts disagree at {coords}: {sorted(seen.items())}")
        return next(iter(seen.values()))


@lru_cache(maxsize=16)
def _class_evaluator(cls: AzumayaClass, place: Place,
                     precision: int) -> _ClassEvaluator:
    return _ClassEvaluator(cls, place, precision)


def invariant_at_point(cls: AzumayaClass, pt: LocalPointClass) -> InvariantValue:
    """Local invariant of the class at a certified point class.

    All charts with numerator and denominator valuation at most
    N - w - unit_resolution(place) are evaluated and must agree; their
    common value is the invariant at the certified nearby k_v-point.
    """
    ev = _class_evaluator(cls, pt.place, pt.precision)
    return InvariantValue(ev.js_at(pt.coords, pt.certificate[1]))


# --- per-place aggregation --------------------------------------------------

@dataclass(frozen=True)
class PlaceReport:
    place: Place
    solvable: bool
    attained: frozenset
    point_classes: int
    precision: int
    stable: bool = True


def _attained_reference(coeffs: Coeffs, cls: AzumayaClass, place: Place,
                        precision: int,
                        partition: Optional[tuple[int, int]] = None):
    """Dict-walking attained-set computation; oracle for the array engine."""
    ev = _class_evaluator(cls, place, precision)
    attained = set()
    count = 0
    for coords, idx, w, ok in _scan(coeffs, place, precision, partition):
        if not ok:
            continue
        count += 1
        try:
            attained.add(ev.js_at(coords, w))
        except NoEvaluableChart:
            return None, count, False
    return tuple(sorted(attained)), count, True


class _Incomplete(Exception):
    def __init__(self, count: int):
        self.count = count


class _VecEngine:
    """The scan and the chart evaluator compiled to integer arrays.

    Ring elements are addressed by their position in the ring's element
    order, which coincides with ring.pack.  Everything the per-class
    evaluation needs (valuations, cubes, unit parts reduced to the small
    invariant-reading ring, per-chart invariant tables) is tabulated once,
    and each block of free residues is then processed with array lookups
    instead of per-class dictionary walks.
    """

    SIZE_CAP = 6_000_000

    def __init__(self, coeffs: Coeffs, cls: AzumayaClass, place: Place,
                 precision: int):
        self.place = place
        self.precision = precision
        self.m_v = unit_resolution(place)
        if _ring_size(place, precision) > self.SIZE_CAP:
            raise NoStabilization(
                f"residue ring at {place} too large at precision {precision}")
        t = _ring_tables(place, precision)
        model = _local_model(coeffs, place, precision)
        ring = t.ring
        self.ring = ring
        self.elems = t.elems
        self.model = model
        m = len(t.elems)
        if place.kind == "split":
            self.ma, self.mb, self.pb = ring.modulus, 1, 1
        elif place.kind == "inert":
            self.ma = self.mb = ring.modulus
            self.pb = ring.modulus
        else:
            self.ma, self.mb, self.pb = ring.ms, ring.mt, ring.mt
        idx = {e: i for i, e in enumerate(t.elems)}
        self.one_id = idx[ring.one]
        self._redcache: dict[int, np.ndarray] = {}
        self.ca = np.fromiter((self._comps(e)[0] for e in t.elems), np.int64, m)
        self.cb = np.fromiter((self._comps(e)[1] for e in t.elems), np.int64, m)
        self.val = np.fromiter((t.val[e] for e in t.elems), np.int64, m)
        self.sq_ids = np.fromiter((idx[t.sq[e]] for e in t.elems), np.int64, m)
        self.cube_ids = np.fromiter((idx[t.cube[e]] for e in t.elems), np.int64, m)
        self.all_ids = np.arange(m, dtype=np.int64)
        self.nonunit_ids = self.all_ids[self.val > 0]
        self.term_ids = tuple(
            np.fromiter((idx[model.term[i][e]] for e in t.elems), np.int64, m)
            for i in range(4))
        self.dval = tuple(
            np.fromiter((model.dval[i][e] for e in t.elems), np.int64, m)
            for i in range(4))
        # CSR root tables: roots_flat[j] lists element ids sorted by the
        # value of c_j * e^3, so the fiber over a packed rhs is a slice
        self.roots = {}
        for j in (2, 3):
            order = np.argsort(self.term_ids[j], kind="stable")
            counts = np.bincount(self.term_ids[j], minlength=m)
            offs = np.zeros(m + 1, dtype=np.int64)
            np.cumsum(counts, out=offs[1:])
            self.roots[j] = (counts, offs[:-1], order)
        self.split = is_local_cube(cls.theta, place)
        if self.split:
            return
        lo = residue_ring(place, self.m_v)
        lo_elems = list(lo.elements())
        lsize = len(lo_elems)
        self.ulow = np.zeros(m, dtype=np.int64)
        for i, e in enumerate(t.elems):
            v = t.val[e]
            if v < precision:
                u = ring.unit_part(e, v)
                src = residue_ring(place, precision - v)
                self.ulow[i] = lo.pack(src.reduce_to(u, lo))
        self.lomul = np.zeros((lsize, lsize), dtype=np.int64)
        for i, e1 in enumerate(lo_elems):
            for j, e2 in enumerate(lo_elems):
                self.lomul[i, j] = lo.pack(lo.mul(e1, e2))
        self.jtab = np.full((3, lsize), -1, dtype=np.int64)
        for (v, pu), j in invariant_table(cls.theta, place).items():
            self.jtab[v, pu] = j
        # The invariant map kills cubes, so a denominator x_d^3 never moves
        # the value of a chart, only its evaluability.  Charts therefore
        # collapse into groups keyed by numerator and constant, each group
        # carrying the set of denominators it may certify through.
        self.num_groups: list[tuple] = []
        num_index: dict[tuple, int] = {}
        grouped: dict[tuple, set] = {}
        for ch in cls.charts:
            if ch.numerator not in num_index:
                num_index[ch.numerator] = len(self.num_groups)
                self.num_groups.append(ch.numerator)
            loc = localize(ch.constant, place, self.m_v)
            key = (num_index[ch.numerator], loc.valuation, lo.pack(loc.unit))
            grouped.setdefault(key, set()).add(ch.denominator)
        self.cgroups = tuple(
            (ni, cv, cu, tuple(sorted(dens)))
            for (ni, cv, cu), dens in sorted(grouped.items()))
        self.bit_of = np.array([1, 2, 4, 0], dtype=np.int64)
        self.popcnt = np.array([0, 1, 1, 2, 1, 2, 2, 3], dtype=np.int64)
        # optional residue collection for the first numerator group; left
        # off in normal runs, switched on by first_chart_residues
        self.collect: Optional[set] = None
        self.collect_wmax = 0
        self.collect_other_branch = False

    def _comps(self, e) -> tuple[int, int]:
        if self.place.kind == "split":
            return e, 0
        return e

    def _vmul(self, xa, xb, ya, yb):
        if self.place.kind == "split":
            return (xa * ya) % self.ma, 0
        if self.place.kind == "inert":
            return ((xa * ya - xb * yb) % self.ma,
                    (xa * yb + xb * ya - xb * yb) % self.mb)
        return ((xa * ya - 3 * xb * yb) % self.ma,
                (xa * yb + xb * ya) % self.mb)

    def _split_numerator(self, numerator, fa: int, fb: int, sj: int):
        """Sort monomials by which free coordinates they touch.

        The leading coordinate is 1, so its exponent drops out; what is
        left is a scalar part (fa powers only, folded per a), a part over
        the free block, and a rest involving the solved coordinate.
        """
        sterms, bterms, xterms = [], [], []
        for mono, c in numerator:
            if c.is_zero:
                continue
            cemb = self.ring.embed(c)
            beta, delta = mono[fb], mono[sj]
            if beta == 0 and delta == 0:
                sterms.append((mono[fa], cemb))
            elif delta == 0:
                bterms.append((mono[fa], beta, cemb))
            else:
                xterms.append((mono[fa], beta, delta, cemb))
        return sterms, bterms, xterms

    def _pow_ids(self, ids, e: int):
        if e == 1:
            return ids
        if e == 2:
            return self.sq_ids[ids]
        return self.cube_ids[ids]

    def _reduction_ids(self, p: int):
        # position of each element's image in o_v/pi^p, for batch dedup
        arr = self._redcache.get(p)
        if arr is None:
            tgt = residue_ring(self.place, p)
            arr = np.fromiter(
                (tgt.pack(self.ring.reduce_to(e, tgt)) for e in self.elems),
                np.int64, len(self.elems))
            self._redcache[p] = arr
        return arr

    def run(self, part: int, nparts: int):
        try:
            return self._run(part, nparts)
        except _Incomplete as stop:
            return None, stop.count, False

    def _run(self, part: int, nparts: int):
        n = self.precision
        ring = self.ring
        elems = self.elems
        one = ring.one
        bits = 0
        count = 0
        for i0 in range(4):
            sj = max(j for j in range(4) if j != i0)
            fa, fb = (j for j in range(4) if j not in (i0, sj))
            a_pool = self.nonunit_ids if fa < i0 else self.all_ids
            b_pool = self.nonunit_ids if fb < i0 else self.all_ids
            if nparts > 1:
                a_pool = a_pool[a_pool % nparts == part]
            need_nonunit_sol = sj < i0
            base = self.model.term[i0][one]
            # free-coordinate contribution to the equation, over the block
            tb = self.term_ids[fb][b_pool]
            tba, tbb = self.ca[tb], self.cb[tb]
            rcnt, roff, rflat = self.roots[sj]
            dv_one = int(self.dval[i0][self.one_id])
            dvb = self.dval[fb][b_pool]
            if not self.split:
                nsplit = [self._split_numerator(num, fa, fb, sj)
                          for num in self.num_groups]
                bpows = (None, b_pool, self.sq_ids[b_pool],
                         self.cube_ids[b_pool])
                # denominator data over the free block, in chart rank
                vdb = 3 * self.val[b_pool]
                roles = (i0, fa, fb, sj)
            for a_id in a_pool.tolist():
                a_elem = elems[a_id]
                s1 = ring.add(base, self.model.term[fa][a_elem])
                s1a, s1b = self._comps(s1)
                rhs_a = (-(s1a + tba)) % self.ma
                rhs_ids = rhs_a * self.pb
                if self.pb != 1:
                    rhs_ids = rhs_ids + (-(s1b + tbb)) % self.mb
                cnt = rcnt[rhs_ids]
                nz = np.nonzero(cnt)[0]
                if not len(nz):
                    continue
                # expand the root fibers over all free values in one step
                lens = cnt[nz]
                total = int(lens.sum())
                stops = np.cumsum(lens)
                inner = np.arange(total, dtype=np.int64) - np.repeat(
                    stops - lens, lens)
                sols = rflat[np.repeat(roff[rhs_ids[nz]], lens) + inner]
                pmap = np.repeat(nz, lens)
                if need_nonunit_sol:
                    keep = self.val[sols] > 0
                    pmap, sols = pmap[keep], sols[keep]
                if not len(pmap):
                    continue
                dv_a = min(dv_one, int(self.dval[fa][a_id]))
                w = np.minimum(np.minimum(dvb[pmap], self.dval[sj][sols]),
                               dv_a)
                cert = 2 * w < n
                if not cert.any():
                    continue
                if not cert.all():
                    pmap, sols, w = pmap[cert], sols[cert], w[cert]
                count += len(pmap)
                if self.split:
                    bits |= 1
                    continue
                if self.collect is not None and i0 != 0:
                    self.collect_other_branch = True
                bits |= self._eval_batch(roles, a_id, a_elem, nsplit, b_pool,
                                         bpows, vdb, pmap, sols, w, count)
        return tuple(j for j in range(3) if bits >> j & 1), count, True

    def _eval_batch(self, roles, a_id, a_elem, nsplit, b_pool, bpows, vdb,
                    pmap, sols, w, count):
        """Invariant bits attained on one certified batch (one a, all b)."""
        ring = self.ring
        i0, fa, fb, sj = roles
        # outcomes only depend on coordinates mod pi^(N - w), so classes
        # that merge at that precision are evaluated once
        wmin = int(w.min())
        if wmin > 0:
            red = self._reduction_ids(self.precision - wmin)
            rmax = int(red.max()) + 1
            keys = red[b_pool[pmap]] * rmax + red[sols]
            ui = np.unique(keys, return_index=True)[1]
            if len(ui) < len(pmap):
                pmap, sols, w = pmap[ui], sols[ui], w[ui]
        a2 = ring.mul(a_elem, a_elem)
        apow = (ring.one, a_elem, a2, ring.mul(a2, a_elem))
        limit = self.precision - self.m_v - w
        size = len(pmap)
        spows = {}
        jn_list, okn_list = [], []
        for sterms, bterms, xterms in nsplit:
            # fa-only part folds to one scalar per a
            acc = None
            for aexp, cemb in sterms:
                v = ring.mul(cemb, apow[aexp])
                acc = v if acc is None else ring.add(acc, v)
            sa, sb = self._comps(acc) if acc is not None else (0, 0)
            # block part, evaluated once over b_pool then spread to pairs
            ba = bb = None
            for aexp, beta, cemb in bterms:
                ca, cb = self._comps(ring.mul(cemb, apow[aexp]))
                xa, xb = self._vmul(ca, cb, self.ca[bpows[beta]],
                                    self.cb[bpows[beta]])
                if ba is None:
                    ba, bb = xa % self.ma, xb % self.mb
                else:
                    ba, bb = (ba + xa) % self.ma, (bb + xb) % self.mb
            if ba is None:
                na = np.full(size, sa, dtype=np.int64)
                nbv = np.full(size, sb, dtype=np.int64) if self.pb != 1 else 0
            else:
                na = (ba[pmap] + sa) % self.ma
                nbv = (bb[pmap] + sb) % self.mb if self.pb != 1 else 0
            # remaining terms touch the solved coordinate
            for aexp, beta, delta, cemb in xterms:
                if delta not in spows:
                    pw = self._pow_ids(sols, delta)
                    spows[delta] = (self.ca[pw], self.cb[pw])
                xa, xb = spows[delta]
                if beta:
                    pb_ids = bpows[beta][pmap]
                    xa, xb = self._vmul(self.ca[pb_ids], self.cb[pb_ids],
                                        xa, xb)
                ca, cb = self._comps(ring.mul(cemb, apow[aexp]))
                xa, xb = self._vmul(ca, cb, xa, xb)
                na = (na + xa) % self.ma
                nbv = (nbv + xb) % self.mb
            nid = na * self.pb + (nbv if self.pb != 1 else 0)
            if self.collect is not None and len(jn_list) == 0 and i0 == 0:
                # values are pinned mod pi^(precision - w) at the nearby
                # point, so the deduped representatives cover all residues
                self.collect.update(np.unique(nid).tolist())
                self.collect_wmax = max(self.collect_wmax, int(w.max()))
            vn = self.val[nid]
            okn_list.append(vn <= limit)
            jn_list.append((vn, self.ulow[nid]))
        acc_bits = np.zeros(size, dtype=np.int64)
        anyeval = np.zeros(size, dtype=bool)
        vds = None
        for ni, cv, cu, dens in self.cgroups:
            okn = okn_list[ni]
            if not okn.any():
                continue
            okd = False
            for d in dens:
                if d == i0 or d == fa:
                    dv = 0 if d == i0 else 3 * int(self.val[a_id])
                    okd = okd | (dv <= limit)
                elif d == fb:
                    okd = okd | (vdb[pmap] <= limit)
                else:
                    if vds is None:
                        vds = self.val[self.cube_ids[sols]]
                    okd = okd | (vds <= limit)
                if isinstance(okd, np.ndarray) and okd.all():
                    break
            okg = okn & okd
            if not okg.any():
                continue
            vn, un = jn_list[ni]
            jn = self.jtab[(vn + cv) % 3, self.lomul[cu][un]]
            acc_bits |= self.bit_of[np.where(okg, jn, 3)]
            anyeval |= okg
        bad = self.popcnt[acc_bits] > 1
        if bad.any():
            i = int(bad.argmax())
            coords = [None] * 4
            coords[i0] = ring.one
            coords[fa] = a_elem
            coords[fb] = self.elems[int(b_pool[pmap[i]])]
            coords[sj] = self.elems[int(sols[i])]
            raise ChartDisagreement(
                f"charts disagree at {tuple(coords)} ({self.place})")
        if not anyeval.all():
            raise _Incomplete(count)
        return int(np.bitwise_or.reduce(acc_bits))


@lru_cache(maxsize=8)
def _vec_engine(coeffs: Coeffs, cls: AzumayaClass, place: Place,
                precision: int) -> _VecEngine:
    return _VecEngine(coeffs, cls, place, precision)


def _attained_worker(payload):
    coeffs, cls, place, precision, part, nparts = payload
    return _vec_engine(coeffs, cls, place, precision).run(part, nparts)


def _attained(coeffs: Coeffs, cls: AzumayaClass, place: Place, precision: int,
              jobs: int) -> tuple[Optional[frozenset], int, bool]:
    # prebuild shared tables before forking so workers inherit them
    _vec_engine(coeffs, cls, place, precision)
    payloads = [(coeffs, cls, place, precision, k, max(jobs, 1))
                for k in range(max(jobs, 1))]
    if jobs <= 1:
        results = [_attained_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_attained_worker, payloads))
    total = sum(r[1] for r in results)
    if any(not r[2] for r in results):
        return None, total, False
    js: set[int] = set()
    for r in results:
        js.update(r[0])
    return frozenset(js), total, True


def first_chart_residues(coeffs: Sequence[int], cls: AzumayaClass,
                         place: Place, precision: int) -> frozenset:
    """Residues mod 9 of (first chart value)/pi over all certified classes.

    Runs the full enumeration at the given precision and collects the
    value of the first chart numerator on every certified point class,
    whether or not the chart passes the evaluability threshold there.
    Values are pinned mod pi^(precision - w) at the certified nearby
    point, so with precision - w >= 5 each value yields a well-defined
    residue of value/pi modulo pi^4 = 9.  Exhaustive, not sampled.

    Only meaningful at the ramified place.  Raises ArithmeticError when a
    certified class has nonunit leading coordinate (the chart is then not
    a polynomial value) or a value of valuation != 1, and NoStabilization
    when the precision leaves some residue undetermined.
    """
    cs = _validate_coeffs(coeffs)
    if place.kind != "ramified":
        raise ValueError("residue collection is defined at the ramified place")
    eng = _VecEngine(cs, cls, place, precision)
    eng.collect = set()
    complete = eng.run(0, 1)[2]
    if not complete:
        raise NoStabilization(
            f"enumeration at precision {precision} aborted before covering "
            "every certified class")
    if eng.collect_other_branch:
        raise ArithmeticError(
            "certified classes with nonunit leading coordinate exist")
    if precision - eng.collect_wmax < 5:
        raise NoStabilization(
            f"certificates pi^{eng.collect_wmax} pin values too shallowly "
            f"at precision {precision}")
    out = set()
    for nid in sorted(eng.collect):
        s, t = eng.elems[nid]
        value = EisensteinNumber(s + t, 2 * t)
        if valuation(value, place) != 1:
            raise ArithmeticError(
                f"chart value {value} does not have valuation 1")
        r = value / place.pi
        out.add(EisensteinNumber(int(r.x) % 9, int(r.y) % 9))
    return frozenset(out)


MAX_ESCALATIONS = 3


def place_report(coeffs: Sequence[int], cls: AzumayaClass, place: Place,
                 jobs: int = 1, precision: Optional[int] = None,
                 cap: Optional[int] = None) -> PlaceReport:
    """Stable attained invariant set of the class at one place.

    Good-reduction places answer {0} by purity without enumeration; places
    where theta is a local cube only need solvability.  Everywhere else the
    attained set must agree between precision N and N+2, escalating at most
    MAX_ESCALATIONS times before the report is marked unstable.  `precision`
    overrides the starting N; `cap` bounds escalation, marking the report
    unstable once the next rung would exceed it.
    """
    cs = _validate_coeffs(coeffs)
    if place not in set(bad_places(cs, cls)):
        return PlaceReport(place, True, frozenset({InvariantValue(0)}), 0, 0)
    if is_local_cube(cls.theta, place):
        solvable = local_solvability(cs, place, cap=cap)
        att = frozenset({InvariantValue(0)}) if solvable else frozenset()
        return PlaceReport(place, solvable, att, 0, 0)
    n = default_precision(place) if precision is None else precision
    if n < 1:
        raise ValueError("precision must be >= 1")
    prev: Optional[tuple] = None
    result = None
    for _ in range(MAX_ESCALATIONS + 1):
        if cap is not None and n > cap:
            break
        att, count, complete = _attained(cs, cls, place, n, jobs)
        if complete and prev is not None and prev[0] == att:
            result = PlaceReport(
                place, count > 0,
                frozenset(InvariantValue(j) for j in att), count, n)
            break
        prev = (att, count) if complete else None
        n += 2
    if result is None:
        if prev is None:
            # not even one complete enumeration: there is nothing to report
            raise NoStabilization(
                f"no complete enumeration at {place} within the precision bounds")
        result = PlaceReport(place, bool(prev[1]),
                             frozenset(InvariantValue(j) for j in prev[0]),
                             prev[1], max(n - 2, 0), stable=False)
    return result


def local_solvability(coeffs: Sequence[int], place: Place,
                      precision: Optional[int] = None,
                      cap: Optional[int] = None) -> bool:
    """Whether the surface has points over k_v.

    A certified class proves yes immediately.  No raw residue classes at
    all proves no, since classes at higher precision refine lower ones.
    Raw classes that never certify escalate precision and eventually
    raise NoStabilization; a cap cuts the escalation short the same way.
    """
    cs = _validate_coeffs(coeffs)
    if place not in set(bad_places(cs)):
        return True
    n = default_precision(place) if precision is None else precision
    if n < 1:
        raise ValueError("precision must be >= 1")
    for _ in range(MAX_ESCALATIONS + 1):
        if cap is not None and n > cap:
            break
        raw = False
        for coords, idx, w, ok in _scan(cs, place, n):
            if ok:
                return True
            raw = True
        if not raw:
            return False
        n += 2
    raise NoStabilization(
        f"uncertified residue classes persist at {place} below pi^{n}")


# --- the verdict ------------------------------------------------------------

@dataclass(frozen=True)
class ObstructionReport:
    coefficients: Coeffs
    verdict: Verdict
    h1: str
    place_reports: tuple[PlaceReport, ...]
    sumset: frozenset


def _minkowski(sets: Sequence[frozenset]) -> frozenset:
    acc = {0}
    for s in sets:
        acc = {(x + inv.j) % 3 for x in acc for inv in s}
    return frozenset(InvariantValue(j) for j in acc)


def obstruction_verdict(coeffs: Sequence[int],
                        classes: Sequence[AzumayaClass] = (),
                        jobs: int = 1, precision: Optional[int] = None,
                        cap: Optional[int] = None) -> ObstructionReport:
    """Combine per-place attained sets of each class into a verdict.

    HASSE_VIOLATION requires local solvability everywhere and 0 outside the
    Minkowski sum of some class's attained sets; 0 inside a non-singleton
    sum only obstructs weak approximation.  Local unsolvability
    short-circuits; with no classes at all the verdict reflects H^1 alone.
    `precision` overrides the starting rung and `cap` bounds escalation at
    every probed place.
    """
    cs = _validate_coeffs(coeffs)
    classes = tuple(classes)
    h1 = str(h1_picard(cs).structure)
    probe_places = set(bad_places(cs))
    for cls in classes:
        probe_places |= set(bad_places(cs, cls))
    for place in sorted(probe_places, key=_place_key):
        if not local_solvability(cs, place, precision, cap):
            failed = PlaceReport(place, False, frozenset(), 0,
                                 default_precision(place))
            return ObstructionReport(cs, Verdict.NOT_LOCALLY_SOLVABLE, h1,
                                     (failed,), frozenset())
    if not classes:
        verdict = (Verdict.H1_TRIVIAL if h1 == "0"
                   else Verdict.NO_OBSTRUCTION_FROM_CLASS)
        return ObstructionReport(cs, verdict, h1, (),
                                 frozenset({InvariantValue(0)}))
    weak: Optional[tuple] = None
    first: Optional[tuple] = None
    for cls in classes:
        reports = tuple(place_report(cs, cls, place, jobs, precision, cap)
                        for place in bad_places(cs, cls))
        if any(not r.stable for r in reports):
            raise NoStabilization(f"no stable report for class over {cls.theta}")
        if any(not r.solvable for r in reports):
            bad = next(r for r in reports if not r.solvable)
            return ObstructionReport(cs, Verdict.NOT_LOCALLY_SOLVABLE, h1,
                                     (bad,), frozenset())
        sumset = _minkowski([r.attained for r in reports])
        if InvariantValue(0) not in sumset:
            return ObstructionReport(cs, Verdict.HASSE_VIOLATION, h1,
                                     reports, sumset)
        if len(sumset) > 1 and weak is None:
            weak = (reports, sumset)
        if first is None:
            first = (reports, sumset)
    if weak is not None:
        return ObstructionReport(cs, Verdict.WEAK_APPROX_OBSTRUCTION_ONLY, h1,
                                 weak[0], weak[1])
    return ObstructionReport(cs, Verdict.NO_OBSTRUCTION_FROM_CLASS, h1,
                             first[0], first[1])
