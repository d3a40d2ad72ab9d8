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
        ring = residue_ring(self.place, self.precision)
        return tuple(ring.lift(e) for e in self.coords)


class _LocalModel:
    """The primitive surface equation over o_v/pi^N as arrays indexed by
    packed element id.

    Any common pi-power of the coefficients is removed first.  The model
    holds the valuation, square and cube of every residue, term[i] = c_i*x^3,
    dval[i] = v(3*c_i*x^2) (the i-th partial at a point with x_i = x), and
    for the two coordinates the scan solves for, CSR root tables of
    x -> c_j*x^3: roots[j] = (counts, offsets, order) with order listing
    ids sorted by the value, so the fiber over a value is a slice.  Every
    entry comes from the residue ring's own arithmetic applied to arrays.
    """

    def __init__(self, coeffs: Coeffs, place: Place, precision: int):
        ring = residue_ring(place, precision)
        self.ring = ring
        self.ids = np.arange(ring.size, dtype=np.int64)
        x = ring.unpack(self.ids)
        # v(x) >= k exactly when x vanishes mod pi^k
        self.val = np.zeros(ring.size, dtype=np.int64)
        for k in range(1, precision + 1):
            low = residue_ring(place, k)
            self.val += low.pack(ring.reduce_to(x, low)) == 0
        self.nonunits = self.ids[self.val > 0]
        self.one = ring.pack(ring.one)
        sq = ring.mul(x, x)
        cube = ring.mul(sq, x)
        self.sq, self.cube = ring.pack(sq), ring.pack(cube)
        exact = [EisensteinNumber(c) for c in coeffs]
        content = min(valuation(c, place) for c in exact)
        embedded = [ring.embed(c / place.pi ** content) for c in exact]
        three = ring.embed(EisensteinNumber(3))
        self.term = tuple(ring.pack(ring.mul(c, cube)) for c in embedded)
        self.dval = tuple(self.val[ring.pack(ring.mul(ring.mul(three, c), sq))]
                          for c in embedded)
        self.roots = {}
        for j in (2, 3):
            counts = np.bincount(self.term[j], minlength=ring.size)
            offs = np.zeros(ring.size, dtype=np.int64)
            np.cumsum(counts[:-1], out=offs[1:])
            self.roots[j] = (counts, offs,
                             np.argsort(self.term[j], kind="stable"))

    def power(self, ids, e: int):
        if e == 1:
            return ids
        return (self.sq if e == 2 else self.cube)[ids]


@lru_cache(maxsize=32)
def _local_model(coeffs: Coeffs, place: Place, precision: int) -> _LocalModel:
    return _LocalModel(coeffs, place, precision)


_BATCH_CLASSES = 1 << 18


@dataclass(frozen=True)
class _Batch:
    """The residue classes with F = 0 mod pi^N for one leading coordinate
    i0 = 1, one value a of the first free coordinate and a run of values
    of the second.

    roles = (i0, fa, fb, sj) names the leading, the two free and the solved
    coordinate.  Class k has x_fa = a, x_fb = b_pool[pmap[k]] and
    x_sj = sol[k] (element ids), and dval[i, k] is the valuation of its
    i-th partial derivative.
    """

    roles: tuple[int, int, int, int]
    a: int
    b_pool: np.ndarray
    pmap: np.ndarray
    sol: np.ndarray
    dval: np.ndarray

    @property
    def w(self) -> np.ndarray:
        """Certificate valuation: the least partial valuation per class."""
        return self.dval.min(axis=0)

    @property
    def idx(self) -> np.ndarray:
        """Certificate index: the first coordinate attaining w."""
        return self.dval.argmin(axis=0)


def _batches(model: _LocalModel,
             partition: Optional[tuple[int, int]] = None) -> Iterator[_Batch]:
    """Every residue class mod pi^N with F = 0 mod pi^N and first unit
    coordinate 1, in nonempty batches of one (i0, a) and a run of b, in a
    fixed order.

    For each choice of leading coordinate the last remaining coordinate is
    solved by root lookup; the free coordinates run over the full ring, or
    over nonunits when they precede the leading coordinate.  A partition
    (k, n) keeps only free values a with pack(a) = k mod n.
    """
    ring = model.ring
    for i0 in range(4):
        sj = max(j for j in range(4) if j != i0)
        fa, fb = (j for j in range(4) if j not in (i0, sj))
        a_pool = model.nonunits if fa < i0 else model.ids
        b_pool = model.nonunits if fb < i0 else model.ids
        if partition is not None:
            a_pool = a_pool[a_pool % partition[1] == partition[0]]
        base = ring.unpack(model.term[i0][model.one])
        neg_tb = ring.neg(ring.unpack(model.term[fb][b_pool]))
        rcnt, roff, rflat = model.roots[sj]
        dv_one = int(model.dval[i0][model.one])
        dvb = model.dval[fb][b_pool]
        for a in a_pool.tolist():
            s1 = ring.add(base, ring.unpack(int(model.term[fa][a])))
            rhs = ring.pack(ring.add(ring.neg(s1), neg_tb))
            cnt = rcnt[rhs]
            nz = np.nonzero(cnt)[0]
            if not len(nz):
                continue
            # a run of b values whose root fibers end in one block of
            # _BATCH_CLASSES classes makes one batch, which bounds memory
            runs = np.flatnonzero(np.diff(np.cumsum(cnt[nz]) // _BATCH_CLASSES))
            for bs in np.split(nz, runs + 1):
                # expand the root fibers over the run in one step
                lens = cnt[bs]
                stops = np.cumsum(lens)
                inner = np.arange(int(stops[-1]), dtype=np.int64) - np.repeat(
                    stops - lens, lens)
                sols = rflat[np.repeat(roff[rhs[bs]], lens) + inner]
                pmap = np.repeat(bs, lens)
                if sj < i0:
                    keep = model.val[sols] > 0
                    pmap, sols = pmap[keep], sols[keep]
                    if not len(pmap):
                        continue
                dv = np.empty((4, len(pmap)), dtype=np.int64)
                dv[i0] = dv_one
                dv[fa] = model.dval[fa][a]
                dv[fb] = dvb[pmap]
                dv[sj] = model.dval[sj][sols]
                yield _Batch((i0, fa, fb, sj), a, b_pool, pmap, sols, dv)


def _scan(coeffs: Coeffs, place: Place, precision: int,
          partition: Optional[tuple[int, int]] = None
          ) -> Iterator[tuple[tuple, int, int, bool]]:
    """Stream (coords, cert_index, cert_valuation, certified) over the
    classes of `_batches`, one class at a time, coordinates as ring
    elements."""
    model = _local_model(coeffs, place, precision)
    ring = model.ring
    for bt in _batches(model, partition):
        _, fa, fb, sj = bt.roles
        coords = [ring.one] * 4
        coords[fa] = ring.unpack(bt.a)
        for b, sol, w, idx in zip(bt.b_pool[bt.pmap].tolist(), bt.sol.tolist(),
                                  bt.w.tolist(), bt.idx.tolist()):
            coords[fb] = ring.unpack(b)
            coords[sj] = ring.unpack(sol)
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
        self.ring = ring = residue_ring(place, precision)
        self.m_v = unit_resolution(place)
        self.split = is_local_cube(cls.theta, place)
        if self.split:
            return
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
        u = self.ring.unit_part(value, v)
        src = residue_ring(self.place, self.precision - v)
        return src.reduce_to(u, self.lo)

    def numerator_values(self, coords) -> list:
        ring = self.ring
        sqs = [ring.mul(c, c) for c in coords]
        pows = [(None, c, sq, ring.mul(sq, c)) for c, sq in zip(coords, sqs)]
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
        ring = self.ring
        lo = self.lo
        nums = self.numerator_values(coords)
        num_val = [ring.valuation(n) for n in nums]
        seen = {}
        for num_i, den_i, const_v, const_u in self.charts:
            vn = num_val[num_i]
            vd = 3 * ring.valuation(coords[den_i])
            if vn > limit or vd > limit:
                continue
            un = self._unit_mod_m(nums[num_i], vn)
            ud = self._unit_mod_m(ring.pow(coords[den_i], 3), vd)
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
    """Attained set by the scalar evaluator, one class of `_scan` at a
    time; the oracle for the array engine."""
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
    """The chart evaluator compiled to integer arrays over `_batches`.

    Ring elements are addressed by packed id, as in `_LocalModel`.  What
    the evaluation needs beyond the model (unit parts reduced to the small
    invariant-reading ring, its multiplication table, the invariant table)
    is tabulated once, and each batch of classes is then evaluated with
    array lookups and the ring's arithmetic on arrays.
    """

    SIZE_CAP = 6_000_000

    def __init__(self, coeffs: Coeffs, cls: AzumayaClass, place: Place,
                 precision: int):
        self.place = place
        self.precision = precision
        self.m_v = unit_resolution(place)
        ring = residue_ring(place, precision)
        if ring.size > self.SIZE_CAP:
            raise NoStabilization(
                f"residue ring at {place} too large at precision {precision}")
        self.ring = ring
        self.model = model = _local_model(coeffs, place, precision)
        self._redcache: dict[int, np.ndarray] = {}
        self.split = is_local_cube(cls.theta, place)
        if self.split:
            return
        lo = residue_ring(place, self.m_v)
        self.ulow = np.zeros(ring.size, dtype=np.int64)
        for v in range(precision):
            at_v = np.flatnonzero(model.val == v)
            u = ring.unit_part(ring.unpack(at_v), v)
            self.ulow[at_v] = lo.pack(
                residue_ring(place, precision - v).reduce_to(u, lo))
        lo_ids = np.arange(lo.size, dtype=np.int64)
        self.lomul = lo.pack(lo.mul(lo.unpack(lo_ids[:, None]),
                                    lo.unpack(lo_ids[None, :])))
        self.jtab = np.full((3, lo.size), -1, dtype=np.int64)
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

    def _branch(self, roles, b_pool):
        """Per-leading-coordinate data over the pool of b values."""
        _, fa, fb, sj = roles
        nsplit = [self._split_numerator(num, fa, fb, sj)
                  for num in self.num_groups]
        bpows = (None,) + tuple(self.model.power(b_pool, e) for e in (1, 2, 3))
        bpow_elems = (None,) + tuple(self.ring.unpack(ids) for ids in bpows[1:])
        # denominator data over the free block, in chart rank
        vdb = 3 * self.model.val[b_pool]
        return roles, b_pool, nsplit, bpows, bpow_elems, vdb

    def _reduction_ids(self, p: int):
        # position of each element's image in o_v/pi^p, for batch dedup
        arr = self._redcache.get(p)
        if arr is None:
            tgt = residue_ring(self.place, p)
            arr = tgt.pack(self.ring.reduce_to(self.ring.unpack(self.model.ids),
                                               tgt))
            self._redcache[p] = arr
        return arr

    def run(self, part: int, nparts: int):
        try:
            return self._run(part, nparts)
        except _Incomplete as stop:
            return None, stop.count, False

    def _run(self, part: int, nparts: int):
        bits = 0
        count = 0
        branch = None
        for bt in _batches(self.model, (part, nparts)):
            pmap, sols, w = bt.pmap, bt.sol, bt.w
            cert = 2 * w < self.precision
            if not cert.any():
                continue
            if not cert.all():
                pmap, sols, w = pmap[cert], sols[cert], w[cert]
            count += len(pmap)
            if self.split:
                bits |= 1
                continue
            if self.collect is not None and bt.roles[0] != 0:
                self.collect_other_branch = True
            if branch is None or branch[0] != bt.roles:
                branch = self._branch(bt.roles, bt.b_pool)
            bits |= self._eval_batch(branch, bt.a, pmap, sols, w, count)
        return tuple(j for j in range(3) if bits >> j & 1), count, True

    def _eval_batch(self, branch, a_id, pmap, sols, w, count):
        """Invariant bits attained on one certified batch."""
        ring = self.ring
        model = self.model
        roles, b_pool, nsplit, bpows, bpow_elems, vdb = branch
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
        a_elem = ring.unpack(a_id)
        a2 = ring.mul(a_elem, a_elem)
        apow = (ring.one, a_elem, a2, ring.mul(a2, a_elem))
        limit = self.precision - self.m_v - w
        size = len(pmap)
        spows = {}
        jn_list, okn_list = [], []
        for sterms, bterms, xterms in nsplit:
            # fa-only part folds to one scalar per a
            acc = ring.zero
            for aexp, cemb in sterms:
                acc = ring.add(acc, ring.mul(cemb, apow[aexp]))
            # block part, evaluated once over b_pool then spread to pairs
            block = None
            for aexp, beta, cemb in bterms:
                x = ring.mul(ring.mul(cemb, apow[aexp]), bpow_elems[beta])
                block = x if block is None else ring.add(block, x)
            if block is not None:
                acc = ring.add(ring.unpack(ring.pack(block)[pmap]), acc)
            # remaining terms touch the solved coordinate
            for aexp, beta, delta, cemb in xterms:
                if delta not in spows:
                    spows[delta] = ring.unpack(model.power(sols, delta))
                x = spows[delta]
                if beta:
                    x = ring.mul(ring.unpack(bpows[beta][pmap]), x)
                x = ring.mul(ring.mul(cemb, apow[aexp]), x)
                acc = ring.add(acc, x)
            nid = np.broadcast_to(ring.pack(acc), size)
            if self.collect is not None and len(jn_list) == 0 and i0 == 0:
                # values are pinned mod pi^(precision - w) at the nearby
                # point, so the deduped representatives cover all residues
                self.collect.update(np.unique(nid).tolist())
                self.collect_wmax = max(self.collect_wmax, int(w.max()))
            vn = model.val[nid]
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
                    dv = 0 if d == i0 else 3 * int(model.val[a_id])
                    okd = okd | (dv <= limit)
                elif d == fb:
                    okd = okd | (vdb[pmap] <= limit)
                else:
                    if vds is None:
                        vds = model.val[model.cube[sols]]
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
            coords = [ring.one] * 4
            coords[fa] = a_elem
            coords[fb] = ring.unpack(int(b_pool[pmap[i]]))
            coords[sj] = ring.unpack(int(sols[i]))
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
        value = eng.ring.lift(eng.ring.unpack(nid))
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


def _cube_free(c: int) -> int:
    """c divided by the largest cube m^3 (m > 0) that divides it."""
    m = 1
    for p, e in _prime_factors(abs(c)).items():
        m *= p ** (e // 3)
    return c // m ** 3


def local_solvability(coeffs: Sequence[int], place: Place,
                      precision: Optional[int] = None,
                      cap: Optional[int] = None) -> bool:
    """Whether the surface has points over k_v.

    Each coefficient is first divided by the largest cube dividing it
    (x_i -> x_i/m is an isomorphism over Q).  A certified class proves yes
    immediately.  No raw residue classes at all proves no, since classes at
    higher precision refine lower ones.  Raw classes that never certify
    escalate precision and eventually raise NoStabilization; a cap cuts the
    escalation short the same way.
    """
    cs = tuple(_cube_free(c) for c in _validate_coeffs(coeffs))
    if place not in set(bad_places(cs)):
        return True
    n = default_precision(place) if precision is None else precision
    if n < 1:
        raise ValueError("precision must be >= 1")
    for _ in range(MAX_ESCALATIONS + 1):
        if cap is not None and n > cap:
            break
        raw = False
        for bt in _batches(_local_model(cs, place, n)):
            if (2 * bt.w < n).any():
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
