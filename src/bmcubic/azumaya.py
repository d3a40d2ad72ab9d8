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
(the equation vanishes to order N, the least partial derivative valuation w
has N > 2w, so an actual k_v-point lies within pi^(N-w) of the class).
Each certified class gets an invariant in (1/3)Z/Z by writing a chart value
as pi^v * unit and looking its class up in `eisenstein.invariant_table`.
A chart counts as evaluable only when its numerator and denominator
valuations are at most N - w - m_v (m_v the unit resolution of
the place): that pins the unit mod pi^m_v at the certified nearby point, not
just across the residue class, so all evaluable charts must agree.  Charts
shallower than that bound can see only class-level garbage; they are skipped
rather than trusted.

The evaluation is locally constant with modulus pi^(N-w) (Cassels, *Local
Fields*), so the attained sets are computed on Hensel balls, not classes:
for each certificate stratum w the engine walks the balls mod pi^(N-w)
whose representative has least partial valuation exactly w.  Each ball
is evaluated once and stands for the q^(3w) certified classes it holds (q
the size of the residue field); over 3 at N = 7 that is 59,049 balls for
3^16 classes.  The engine runs in three stages: the walk over the balls,
the numerator stage that evaluates the chart numerators on them, and the
chart reading that turns numerator values into invariants; the residue
collector `first_chart_residues` reads the numerator stage without
evaluating the class.  The arithmetic stays exact but reduces each value
once: the numerator stage sums raw ring products of reduced factors and
reduces every numerator value before packing it, and the chart reading
looks each value up in one table per chart group and stratum, built on
the first reading, so the residue collector never builds one.  The point
listing, the solvability test over 3 and the scalar reference evaluator
keep the walk over classes, which is the oracle; away from 3 solvability
is a closed-form rule on the coefficients' valuations.

Per-place invariant sets are accepted only when enumeration at precision
N and N+2 attains the same set on one precision ladder (`_rungs`),
replacing effective precision bounds with a stability contract.  A rung
reads again only the balls the rung below left open (`place_report`):
the evaluation is locally constant, so a ball whose chart readings are
settled keeps them on all its children.  The final verdict compares the
Minkowski sum of the per-place sets against 0.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterator, Optional, Sequence

import numpy as np

from .eisenstein import (EisensteinNumber, InvariantValue, Place, _ord_int,
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
    holds the valuation, square and cube of every residue, term[i] = c_i*x^3
    and dval[i] = v(3*c_i*x^2) (the i-th partial at a point with x_i = x).
    Every entry comes from the residue ring's own arithmetic applied to
    arrays.  `stratum(w)` adds the pools and root tables of one walk.

    The certificate strata are the w with 2w < N from the least partial
    valuation any coordinate reaches (v(3) = 2 over 3, so there the strata
    w = 0, 1 are empty and never walked).  A stratum-w class is determined
    by its ball mod pi^(N - w): on the ball, every c_i*x_i^3 mod pi^N and
    the least partial valuation are constant, and the ball holds q^(3w)
    classes of three coordinates, q the size of the residue field.
    """

    def __init__(self, coeffs: Coeffs, place: Place, precision: int):
        ring = residue_ring(place, precision)
        self.ring = ring
        self.place = place
        self.precision = precision
        self.q = residue_ring(place, 1).size
        self.ids = np.arange(ring.size, dtype=np.int64)
        x = ring.unpack(self.ids)
        # v(x) >= k exactly when x vanishes mod pi^k
        self.val = np.zeros(ring.size, dtype=np.int64)
        for k in range(1, precision + 1):
            low = residue_ring(place, k)
            self.val += low.pack(low.reduce(x)) == 0
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
        self.strata = range(min(int(d.min()) for d in self.dval),
                            (precision + 1) // 2)
        self._strata: dict = {}

    def power(self, ids, e: int):
        if e == 1:
            return ids
        return (self.sq if e == 2 else self.cube)[ids]

    def reduced(self, r: int) -> np.ndarray:
        """Per id, the id of its representative mod pi^r: the element whose
        digits are its own reduced mod pi^r."""
        ring = self.ring
        return ring.pack(residue_ring(self.place, r).reduce(ring.unpack(self.ids)))

    def stratum(self, w: Optional[int]):
        """The pools and root tables of one walk, built once.

        w = None is the class walk: every id.  Otherwise the walk runs over
        the representatives mod pi^(N - w) whose partial valuation is at
        least w.  pools[i] = (pool, its nonunits) for coordinate i; for the
        two coordinates the walk solves for, roots[j] = (counts, offsets,
        order) is a CSR table of x -> c_j*x^3 on pools[j], order listing
        the pool sorted by the value, so the fiber over a value is a slice.
        """
        got = self._strata.get(w)
        if got is None:
            if w is None:
                pools = [(self.ids, self.ids[self.val > 0])] * 4
            else:
                reps = self.ids[self.reduced(self.precision - w) == self.ids]
                pools = []
                for d in self.dval:
                    pool = reps[d[reps] >= w]
                    pools.append((pool, pool[self.val[pool] > 0]))
            roots = {}
            for j in (2, 3):
                pool = pools[j][0]
                values = self.term[j][pool]
                counts = np.bincount(values, minlength=self.ring.size)
                offs = np.zeros(self.ring.size, dtype=np.int64)
                np.cumsum(counts[:-1], out=offs[1:])
                roots[j] = (counts, offs,
                            pool[np.argsort(values, kind="stable")])
            got = self._strata[w] = (tuple(pools), roots)
        return got


@lru_cache(maxsize=32)
def _local_model(coeffs: Coeffs, place: Place, precision: int) -> _LocalModel:
    return _LocalModel(coeffs, place, precision)


_BATCH_CLASSES = 1 << 18


@dataclass(frozen=True)
class _Batch:
    """The residue classes (or balls) with F = 0 mod pi^N for one leading
    coordinate i0 = 1, one value a of the first free coordinate and a run
    of values of the second.

    roles = (i0, fa, fb, sj) names the leading, the two free and the solved
    coordinate.  Tuple k has x_fa = a, x_fb = b_pool[pmap[k]] and
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


@dataclass(frozen=True)
class _Parents:
    """The open balls of one stratum at a rung, as a filter on their
    children at the next rung up.

    `radius` is the parents' radius N - w.  keys[i0] maps the id of a
    parent's first free value to the sorted keys b * size + s of its other
    two coordinates; every id is in the child's ring, of a value reduced
    mod pi^radius, and size is that ring's size.
    """

    radius: int
    keys: dict


def _batches(model: _LocalModel,
             partition: Optional[tuple[int, int]] = None,
             stratum: Optional[int] = None,
             parents: Optional[_Parents] = None) -> Iterator[_Batch]:
    """Every residue class mod pi^N with F = 0 mod pi^N and first unit
    coordinate 1, or with a stratum w every ball of certificate w, in
    nonempty batches of one (i0, a) and a run of b, in a fixed order.

    For each choice of leading coordinate the last remaining coordinate is
    solved by root lookup; the free coordinates run over the full ring, or
    over nonunits when they precede the leading coordinate.  With a stratum
    w the three coordinates run over representatives mod pi^(N - w) of
    partial valuation at least w (`_LocalModel.stratum`), and a tuple is
    kept only when its least partial valuation is exactly w: it stands for
    the q^(3w) classes of its ball, all certified with w.  A slice (k, n)
    keeps the balls whose free value's id is k mod n.

    `parents` keeps only the balls of the stratum whose reduction mod
    pi^radius is one of its keys: it filters a, then b before the root
    fibers expand, then the solved coordinate.  The batches are the
    unfiltered walk's, each cut down to its kept balls, so the walk order
    and every batch boundary stay those of the full walk.
    """
    ring = model.ring
    pools, roots = model.stratum(stratum)
    red = None if parents is None else model.reduced(parents.radius)
    for i0 in range(4):
        dv_one = int(model.dval[i0][model.one])
        if stratum is not None and dv_one < stratum:
            continue
        by_a = None
        if parents is not None:
            by_a = parents.keys.get(i0)
            if not by_a:
                continue
        sj = max(j for j in range(4) if j != i0)
        fa, fb = (j for j in range(4) if j not in (i0, sj))
        a_pool = pools[fa][int(fa < i0)]
        b_pool = pools[fb][int(fb < i0)]
        if partition is not None:
            a_pool = a_pool[a_pool % partition[1] == partition[0]]
        if by_a is not None:
            a_pool = a_pool[np.isin(red[a_pool], list(by_a))]
            b_red = red[b_pool]
            b_open: dict = {}
        base = ring.unpack(model.term[i0][model.one])
        neg_tb = ring.neg(ring.unpack(model.term[fb][b_pool]))
        rcnt, roff, rflat = roots[sj]
        dvb = model.dval[fb][b_pool]
        for a in a_pool.tolist():
            # every pool has partial valuation at least w, so when the
            # leading or the first free coordinate attains w, every tuple
            # has least partial valuation w and the stratum filter is a no-op
            keep_all = stratum is None or stratum in (dv_one,
                                                      int(model.dval[fa][a]))
            s1 = ring.add(base, ring.unpack(int(model.term[fa][a])))
            rhs = ring.pack(ring.add(ring.neg(s1), neg_tb))
            cnt = rcnt[rhs]
            nz = np.nonzero(cnt)[0]
            if not len(nz):
                continue
            if by_a is not None:
                allowed = by_a[int(red[a])]
                b_ok = b_open.get(int(red[a]))
                if b_ok is None:
                    b_ok = b_open[int(red[a])] = np.isin(
                        b_red, allowed // ring.size)
            # a run of b values whose root fibers end in one block of
            # _BATCH_CLASSES classes makes one batch, which bounds memory
            runs = np.flatnonzero(np.diff(np.cumsum(cnt[nz]) // _BATCH_CLASSES))
            for bs in np.split(nz, runs + 1):
                if by_a is not None:
                    bs = bs[b_ok[bs]]
                    if not len(bs):
                        continue
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
                if by_a is not None:
                    key = b_red[pmap] * ring.size + red[sols]
                    at = np.minimum(np.searchsorted(allowed, key),
                                    len(allowed) - 1)
                    keep = allowed[at] == key
                    pmap, sols = pmap[keep], sols[keep]
                dv = np.empty((4, len(pmap)), dtype=np.int64)
                dv[i0] = dv_one
                dv[fa] = model.dval[fa][a]
                dv[fb] = dvb[pmap]
                dv[sj] = model.dval[sj][sols]
                if not keep_all:
                    keep = dv.min(axis=0) == stratum
                    pmap, sols, dv = pmap[keep], sols[keep], dv[:, keep]
                if not len(pmap):
                    continue
                yield _Batch((i0, fa, fb, sj), a, b_pool, pmap, sols, dv)


def enumerate_local_points(coeffs: Sequence[int], place: Place,
                           precision: int) -> Iterator[LocalPointClass]:
    """Certified liftable point classes mod pi^precision, in a fixed order:
    the certified classes of `_batches`, one at a time.

    >>> v7, _ = places_over(7)
    >>> pts = list(enumerate_local_points((1, 1, 1, 1), v7, 1))
    >>> any(p.coords == (1, 6, 0, 0) for p in pts)
    True
    """
    cs = _validate_coeffs(coeffs)
    if precision < 1:
        raise ValueError("precision must be >= 1")
    model = _local_model(cs, place, precision)
    ring = model.ring
    for bt in _batches(model):
        _, fa, fb, sj = bt.roles
        w = bt.w
        ok = 2 * w < precision
        coords = [ring.one] * 4
        coords[fa] = ring.unpack(bt.a)
        for b, sol, wk, idx in zip(bt.b_pool[bt.pmap[ok]].tolist(),
                                   bt.sol[ok].tolist(), w[ok].tolist(),
                                   bt.idx[ok].tolist()):
            coords[fb] = ring.unpack(b)
            coords[sj] = ring.unpack(sol)
            yield LocalPointClass(place, precision, tuple(coords), (idx, wk))


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
        # the numerators share their monomials: each distinct one is
        # multiplied out once per class and read by every numerator
        mono_index: dict[tuple, int] = {}
        self.num_terms = []
        for num in numerators:
            self.num_terms.append([
                (ring.embed(c), mono_index.setdefault(mono, len(mono_index)))
                for mono, c in num if not c.is_zero])
        self.monomials = tuple(
            tuple((i, e) for i, e in enumerate(mono) if e) for mono in mono_index)
        self.table = invariant_table(cls.theta, place)

    def _unit_mod_m(self, value, v: int):
        return self.lo.reduce(self.ring.unit_part(value, v))

    def numerator_values(self, pows) -> list:
        """The numerators at a class, from its coordinate powers
        pows[i] = (None, x_i, x_i^2, x_i^3)."""
        ring = self.ring
        monos = []
        for factors in self.monomials:
            value = None
            for i, e in factors:
                value = pows[i][e] if value is None else ring.mul(value, pows[i][e])
            monos.append(value)
        out = []
        for terms in self.num_terms:
            # a raw sum of products of reduced factors, reduced once
            acc = ring.zero
            for cemb, k in terms:
                acc = ring.add_raw(acc, cemb if monos[k] is None
                                   else ring.mul_raw(cemb, monos[k]))
            out.append(ring.reduce(acc))
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
        # each coordinate is cubed once for the numerators and the
        # denominators; each numerator and each cubed coordinate is read
        # once: (valuation, unit mod pi^m_v), or None when too deep to be
        # evaluable
        pows = []
        for c in coords:
            sq = ring.mul(c, c)
            pows.append((None, c, sq, ring.mul(sq, c)))
        nums = []
        for n in self.numerator_values(pows):
            vn = ring.valuation(n)
            nums.append((vn, self._unit_mod_m(n, vn)) if vn <= limit else None)
        dens = []
        for c, (_, _, _, cube) in zip(coords, pows):
            vd = 3 * ring.valuation(c)
            dens.append((vd, lo.inv(self._unit_mod_m(cube, vd)))
                        if vd <= limit else None)
        seen = {}
        for num_i, den_i, const_v, const_u in self.charts:
            if nums[num_i] is None or dens[den_i] is None:
                continue
            (vn, un), (vd, ud_inv) = nums[num_i], dens[den_i]
            u = lo.mul(lo.mul(un, ud_inv), const_u)
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
                        precision: int):
    """Attained set by the scalar evaluator, one certified class of
    `enumerate_local_points` at a time; the oracle for the array engine."""
    ev = _class_evaluator(cls, place, precision)
    attained = set()
    count = 0
    for pt in enumerate_local_points(coeffs, place, precision):
        count += 1
        try:
            attained.add(ev.js_at(pt.coords, pt.certificate[1]))
        except NoEvaluableChart:
            return None, count, False
    return tuple(sorted(attained)), count, True


class _VecEngine:
    """The chart evaluator compiled to integer arrays over the balls of
    `_batches`, in three stages.

    - The walk (`walk`) runs over the certificate strata w with 2w < N and
      the batches of balls mod pi^(N - w) that `_batches` yields in each,
      and pairs every batch with the data that all batches of one stratum
      and one choice of roles share (`_branch`).
    - The numerator stage (`numerators`) evaluates each distinct chart
      numerator on the balls of a batch as a polynomial in the solved
      coordinate s, sum over delta of C_delta(b) s^delta.  The coefficients
      C_delta are evaluated once per a over the pool of b and spread to
      the balls; the powers of s are gathered from the ring's component
      tables.  Sums are accumulated with the ring's raw operations, each
      product with two reduced factors, and every numerator value is
      reduced once, before it is packed.
    - The chart reading (`_eval_batch`) reads the invariant of each chart
      group from a table over ring ids, one gather per group and ball:
      `reading()` maps a numerator value to its invariant bit 1 << j, or
      to 0 when its valuation is above the evaluability threshold of the
      stratum.  The tables are built on the first reading, so the residue
      collector `first_chart_residues`, which reads no chart, never builds
      them.

    Ring elements are addressed by packed id, as in `_LocalModel`.  An
    evaluable chart has numerator and denominator valuation at most
    N - w - m_v, below the radius N - w of the ball, so one evaluation at
    the ball's representative holds for all q^(3w) classes of the ball,
    and those are what `rung` counts.

    A rung N + 2 reuses a complete rung N that walked all its strata
    (`rung`, `_Frontier`).  In a stratum w with 2w + 2 <= N, each ball of
    rung N is either settled or open.  A value on the ball is known mod
    pi^(N - w), so its valuation is exact below N - w.  A chart group is
    settled when it is read at N (so on every child it has the same
    valuation and unit mod pi^m_v, and is read with the same bit), or
    when its numerator or every one of its denominators has valuation
    above N + 2 - w - m_v on every child, so that it is read on none.  A
    ball is settled when every group is: its children have exactly its
    evaluable groups and bits, hence no disagreement and the same bits.
    Rung N + 2 evaluates in that stratum only the children of open balls,
    takes the settled balls' bits from rung N and counts q^4 children per
    ball.  That count is exact: a child of a ball x mod pi^(N - w) is x +
    pi^(N - w) d, d mod pi^2 in the three free coordinates, and for N >=
    2w + 2 the expansion of F leaves F(x)/pi^N + (grad F(x)/pi^w) . d = 0
    mod pi^2.  By Euler's relation sum x_i dF/dx_i = 3F, with x_i0 = 1 and
    v(3F) > w, some free partial has valuation exactly w, so that is one
    linear equation with a unit coefficient: q^4 solutions.  The children
    keep the partial valuations of the ball, so they are exactly the
    stratum-w balls of rung N + 2 over it.
    """

    SIZE_CAP = 6_000_000

    def __init__(self, coeffs: Coeffs, cls: AzumayaClass, place: Place,
                 precision: int):
        self.cls = cls
        self.place = place
        self.precision = precision
        self.m_v = unit_resolution(place)
        ring = residue_ring(place, precision)
        if ring.size > self.SIZE_CAP:
            raise NoStabilization(
                f"residue ring at {place} too large at precision {precision}")
        self.ring = ring
        self.model = model = _local_model(coeffs, place, precision)
        for w in model.strata:
            model.stratum(w)
        # the components of every element, read by gathers
        self.elems = ring.unpack(model.ids)
        self.num_groups: list[tuple] = []
        self.num_index: dict[tuple, int] = {}
        for ch in cls.charts:
            if ch.numerator not in self.num_index:
                self.num_index[ch.numerator] = len(self.num_groups)
                self.num_groups.append(ch.numerator)
        self._reading = None

    def reading(self) -> tuple:
        """(cgroups, tables), built on the first call.

        The invariant map kills cubes, so a denominator x_d^3 never moves
        the value of a chart, only its evaluability.  Charts therefore
        collapse into groups keyed by numerator and constant; cgroups[g] =
        (numerator index, denominators the group may certify through).
        tables[w][g][id] is the invariant bit 1 << j of a value id of the
        group's numerator at stratum w, or 0 when the value's valuation is
        above N - w - m_v.
        """
        if self._reading is not None:
            return self._reading
        place, ring, model = self.place, self.ring, self.model
        lo = residue_ring(place, self.m_v)
        # each value's unit part mod pi^m_v; exact where v <= N - m_v
        ulow = np.zeros(ring.size, dtype=np.int64)
        for v in range(self.precision):
            at_v = np.flatnonzero(model.val == v)
            u = ring.unit_part(ring.unpack(at_v), v)
            ulow[at_v] = lo.pack(lo.reduce(u))
        jtab = np.full((3, lo.size), -1, dtype=np.int64)
        for (v, pu), j in invariant_table(self.cls.theta, place).items():
            jtab[v, pu] = j
        grouped: dict[tuple, set] = {}
        for ch in self.cls.charts:
            loc = localize(ch.constant, place, self.m_v)
            key = (self.num_index[ch.numerator], loc.valuation,
                   lo.pack(loc.unit))
            grouped.setdefault(key, set()).add(ch.denominator)
        keys = sorted(grouped)
        tables = {}
        for w in model.strata:
            ok = np.flatnonzero(model.val <= self.precision - self.m_v - w)
            tables[w] = []
            for _, cv, cu in keys:
                units = lo.pack(lo.mul(lo.unpack(cu), lo.unpack(ulow[ok])))
                j = jtab[(model.val[ok] + cv) % 3, units]
                if (j < 0).any():
                    raise ArithmeticError(
                        f"invariant table misses a unit at {place}")
                table = np.zeros(ring.size, dtype=np.uint8)
                table[ok] = 1 << j
                tables[w].append(table)
        cgroups = tuple((key[0], tuple(sorted(grouped[key]))) for key in keys)
        self._reading = (cgroups, tables)
        return self._reading

    def _split_numerator(self, numerator, fa: int, fb: int, sj: int):
        """The numerator as a polynomial in the solved coordinate over the
        free ones: per power delta of x_sj, ascending, (delta, whether the
        coefficient involves x_fb, ((beta, ((alpha, c), ...)), ...)) for the
        monomials c x_fa^alpha x_fb^beta x_sj^delta.  The leading
        coordinate is 1, so its exponent drops out."""
        folded: dict = {}
        for mono, c in numerator:
            if not c.is_zero:
                folded.setdefault(mono[sj], {}).setdefault(mono[fb], []).append(
                    (mono[fa], self.ring.embed(c)))
        return tuple(
            (delta, max(by_beta) > 0,
             tuple((beta, tuple(terms)) for beta, terms in sorted(by_beta.items())))
            for delta, by_beta in sorted(folded.items()))

    def _branch(self, w, roles, b_pool):
        """Per-stratum, per-leading-coordinate data over the pool of b."""
        _, fa, fb, sj = roles
        nsplit = [self._split_numerator(num, fa, fb, sj)
                  for num in self.num_groups]
        bpow = (None,) + tuple(
            self.ring.take(self.elems, self.model.power(b_pool, e))
            for e in (1, 2, 3))
        # the valuations of the free block's values, read by the denominators
        return (w, roles), b_pool, nsplit, bpow, self.model.val[b_pool]

    def walk(self, part: int, nparts: int, parents: Optional[dict] = None):
        """(w, branch, batch) for every batch of balls in slice `part` of
        `nparts`, stratum by stratum; the branch is rebuilt only when the
        stratum or the roles change.  `parents` maps a stratum to the
        `_Parents` whose children alone are walked there."""
        branch = None
        for w in self.model.strata:
            filt = None if parents is None else parents.get(w)
            for bt in _batches(self.model, (part, nparts), w, filt):
                if branch is None or branch[0] != (w, bt.roles):
                    branch = self._branch(w, bt.roles, bt.b_pool)
                yield w, branch, bt

    def rung(self, part: int, nparts: int, parents: Optional[dict] = None,
             record: bool = False):
        """(invariant bits, point classes, complete, frontier) on one slice.

        The walk stops at the first batch with a ball where no chart is
        evaluable; the result is then (None, classes so far, False, None).
        In a stratum that `parents` names only the open balls' children
        are evaluated, and none is counted: the caller counts them by the
        q^4 law.  With `record` the rung returns its `_Frontier` slice.
        """
        n = self.precision
        bits = 0
        count = 0
        frontier = None
        if record:
            frontier = _Frontier(n, {w: 0 for w in self.model.strata
                                     if 2 * w + 2 <= n})
        for w, branch, bt in self.walk(part, nparts, parents):
            if parents is None or w not in parents:
                count += len(bt.pmap) * self.model.q ** (3 * w)
            track = frontier is not None and w in frontier.balls
            got = self._eval_batch(branch, bt.a, bt.pmap, bt.sol, track)
            if got is None:
                return None, count, False, None
            acc, open_ = got
            bits |= int(np.bitwise_or.reduce(acc))
            if track:
                frontier.balls[w] += len(acc)
                frontier.settled |= int(np.bitwise_or.reduce(acc[~open_]))
                if open_.any():
                    frontier.open.setdefault(w, []).append(
                        (bt.roles[0], bt.a, bt.b_pool[bt.pmap[open_]],
                         bt.sol[open_]))
        return bits, count, True, frontier

    def numerators(self, branch, a_id, pmap, sols):
        """Yields, per numerator group, the ids of its values on a batch's
        balls, one group at a time: a caller that reads only the first
        group evaluates no other."""
        ring = self.ring
        _, _, nsplit, bpow, _ = branch
        a_elem = ring.unpack(a_id)
        a2 = ring.mul(a_elem, a_elem)
        apow = (ring.one, a_elem, a2, ring.mul(a2, a_elem))
        size = len(pmap)
        spow = {}
        for poly in nsplit:
            acc = ring.zero
            for delta, over_b, by_beta in poly:
                # C_delta(a, b) = sum over beta of K_beta(a) b^beta, raw
                coef = ring.zero
                for beta, terms in by_beta:
                    k = ring.zero
                    for alpha, cemb in terms:
                        k = ring.add(k, ring.mul(cemb, apow[alpha]))
                    coef = ring.add_raw(
                        coef, ring.mul_raw(k, bpow[beta]) if beta else k)
                if delta:
                    if over_b:
                        coef = ring.take(ring.reduce(coef), pmap)
                    if delta not in spow:
                        spow[delta] = ring.take(
                            self.elems, self.model.power(sols, delta))
                    coef = ring.mul_raw(coef, spow[delta])
                elif over_b:
                    coef = ring.take(coef, pmap)
                acc = ring.add_raw(acc, coef)
            yield np.broadcast_to(ring.pack(ring.reduce(acc)), size)

    def _eval_batch(self, branch, a_id, pmap, sols, track: bool = False):
        """(invariant bits per ball, open balls or None) on one batch of
        balls, or None when some ball of it has no evaluable chart.  With
        `track`, a ball is open when some chart group is neither read
        here nor ruled out at rung N + 2 (see the class docstring)."""
        ring = self.ring
        model = self.model
        (w, (i0, fa, fb, sj)), b_pool, _, _, vb = branch
        n = self.precision
        limit = n - self.m_v - w
        cgroups, tables = self.reading()
        nids = list(self.numerators(branch, a_id, pmap, sols))
        acc_bits = np.zeros(len(pmap), dtype=np.uint8)
        open_ = np.zeros(len(pmap), dtype=bool) if track else None
        # the valuation of each coordinate, x_i0 = 1 a unit, read once
        vals = {i0: 0, fa: int(model.val[a_id])}

        def val(d):
            if d not in vals:
                vals[d] = vb[pmap] if d == fb else model.val[sols]
            return vals[d]

        for (ni, dens), table in zip(cgroups, tables[w]):
            bits = table[nids[ni]]
            # a group that may certify through x_i0 is evaluable exactly
            # where its numerator is
            if i0 not in dens:
                okd = False
                for d in dens:
                    okd = okd | (3 * val(d) <= limit)
                bits = bits * okd
            acc_bits |= bits
            if track:
                # a valuation is exact below n - w, at least n - w otherwise
                ruled = np.minimum(model.val[nids[ni]], n - w) > limit + 2
                dens_ruled = True
                for d in dens:
                    dens_ruled = dens_ruled & (
                        3 * np.minimum(val(d), n - w) > limit + 2)
                open_ |= ~((bits != 0) | ruled | dens_ruled)
        bad = acc_bits & (acc_bits - 1) != 0
        if bad.any():
            i = int(bad.argmax())
            coords = [ring.one] * 4
            coords[fa] = ring.unpack(a_id)
            coords[fb] = ring.unpack(int(b_pool[pmap[i]]))
            coords[sj] = ring.unpack(int(sols[i]))
            raise ChartDisagreement(
                f"charts disagree at {tuple(coords)} ({self.place})")
        if not acc_bits.all():
            return None
        return acc_bits, open_


@lru_cache(maxsize=8)
def _vec_engine(coeffs: Coeffs, cls: AzumayaClass, place: Place,
                precision: int) -> _VecEngine:
    return _VecEngine(coeffs, cls, place, precision)


@dataclass
class _Frontier:
    """What a complete rung N that walked all its strata hands rung N + 2.

    For each stratum w with 2w + 2 <= N: balls[w], its ball count, and
    open[w], its open balls as (i0, a, b ids, s ids) in rung N's ring.
    `settled` holds the invariant bits of all the settled balls.
    """

    precision: int
    balls: dict
    settled: int = 0
    open: dict = field(default_factory=dict)

    def merge(self, other: "_Frontier") -> None:
        for w, k in other.balls.items():
            self.balls[w] += k
        self.settled |= other.settled
        for w, rows in other.open.items():
            self.open.setdefault(w, []).extend(rows)

    def parents(self, ring) -> dict:
        """stratum -> `_Parents` of its open balls, in the next rung's
        ring; a stratum with no open ball gets an empty filter."""
        old = residue_ring(ring.place, self.precision)

        def ids(e):
            return ring.pack(old.unpack(e))

        def distinct(ks):
            # sorted, each entry kept where it differs from the one before;
            # np.unique would import numpy.ma on its first call
            k = np.sort(np.concatenate(ks))
            return k[np.concatenate(([True], k[1:] != k[:-1]))]

        out = {}
        for w in self.balls:
            keys: dict = {}
            for i0, a, bs, ss in self.open.get(w, ()):
                keys.setdefault(i0, {}).setdefault(int(ids(a)), []).append(
                    ids(bs) * ring.size + ids(ss))
            out[w] = _Parents(self.precision - w, {
                i0: {a: distinct(ks) for a, ks in by_a.items()}
                for i0, by_a in keys.items()})
        return out


def _attained_worker(payload):
    coeffs, cls, place, precision, part, nparts, parents, record = payload
    return _vec_engine(coeffs, cls, place, precision).rung(
        part, nparts, parents, record)


def _attained(coeffs: Coeffs, cls: AzumayaClass, place: Place, precision: int,
              jobs: int, below: Optional[_Frontier] = None,
              record: bool = False
              ) -> tuple[Optional[frozenset], int, bool, Optional[_Frontier]]:
    """(attained, classes, complete, frontier) of one rung.  `below` is the
    frontier rung precision - 2 handed on; with `record` a complete rung
    hands on its own, merged over the workers' slices."""
    # build the engine and its reading tables before forking, so that
    # workers inherit them
    eng = _vec_engine(coeffs, cls, place, precision)
    eng.reading()
    parents = None if below is None else below.parents(eng.ring)
    nparts = max(jobs, 1)
    payloads = [(coeffs, cls, place, precision, k, nparts, parents, record)
                for k in range(nparts)]
    if jobs <= 1:
        results = [_attained_worker(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_attained_worker, payloads))
    total = sum(r[1] for r in results)
    bits = 0
    if below is not None:
        q = eng.model.q
        total += sum(k * q ** (4 + 3 * w) for w, k in below.balls.items())
        bits = below.settled
    if any(not r[2] for r in results):
        return None, total, False, None
    for r in results:
        bits |= r[0]
    frontier = results[0][3]
    if frontier is not None:
        for r in results[1:]:
            frontier.merge(r[3])
    return frozenset(j for j in range(3) if bits >> j & 1), total, True, frontier


def first_chart_residues(coeffs: Sequence[int], cls: AzumayaClass,
                         place: Place, precision: int) -> frozenset:
    """Residues mod 9 of (first chart value)/pi over all certified classes.

    Walks the engine's Hensel balls at the given precision and reads the
    value of the first chart numerator on every certified ball from the
    engine's numerator stage, whether or not the chart passes the
    evaluability threshold there.  The class is not evaluated: no ball
    needs an evaluable chart, charts are never compared, and theta may be
    a cube at the place.  Values are pinned mod pi^(precision - w) on a
    ball and at its certified nearby points, so with precision - w >= 5
    each value yields a well-defined residue of value/pi modulo pi^4 = 9.
    Exhaustive, not sampled.

    Only meaningful at the ramified place.  Raises ArithmeticError when a
    certified class has nonunit leading coordinate (the chart is then not
    a polynomial value) or a value of valuation != 1, and NoStabilization
    when the precision leaves some residue undetermined.
    """
    cs = _validate_coeffs(coeffs)
    if place.kind != "ramified":
        raise ValueError("residue collection is defined at the ramified place")
    eng = _vec_engine(cs, cls, place, precision)
    seen = np.zeros(eng.ring.size, dtype=bool)
    w_max = 0
    for w, branch, bt in eng.walk(0, 1):
        if bt.roles[0] != 0:
            raise ArithmeticError(
                "certified classes with nonunit leading coordinate exist")
        # values are pinned mod pi^(precision - w) on a ball, so the ball
        # representatives cover all residues
        seen[next(eng.numerators(branch, bt.a, bt.pmap, bt.sol))] = True
        w_max = max(w_max, w)
    if precision - w_max < 5:
        raise NoStabilization(
            f"certificates pi^{w_max} pin values too shallowly "
            f"at precision {precision}")
    out = set()
    for nid in np.flatnonzero(seen).tolist():
        value = eng.ring.lift(eng.ring.unpack(nid))
        if valuation(value, place) != 1:
            raise ArithmeticError(
                f"chart value {value} does not have valuation 1")
        r = value / place.pi
        out.add(EisensteinNumber(int(r.x) % 9, int(r.y) % 9))
    return frozenset(out)


MAX_ESCALATIONS = 3


def _rungs(place: Place, precision: Optional[int],
           cap: Optional[int]) -> range:
    """The precision ladder N, N + 2, ...: it starts at `precision`, or at
    the place's default, holds at most MAX_ESCALATIONS + 1 rungs and none
    above `cap`.  A range, so a caller can name the first rung it cut."""
    n = default_precision(place) if precision is None else precision
    if n < 1:
        raise ValueError("precision must be >= 1")
    top = n + 2 * MAX_ESCALATIONS
    if cap is not None:
        top = min(top, cap)
    return range(n, top + 1, 2)


def place_report(coeffs: Sequence[int], cls: AzumayaClass, place: Place,
                 jobs: int = 1, precision: Optional[int] = None,
                 cap: Optional[int] = None) -> PlaceReport:
    """Stable attained invariant set of the class at one place.

    Good-reduction places answer {0} by purity without enumeration; places
    where theta is a local cube only need solvability.  Everywhere else the
    attained set must agree between precision N and N+2 on the ladder of
    `_rungs`; when no two rungs agree, the report is marked unstable and
    reads the last rung if that one was complete.  `precision` overrides
    the starting N; `cap` bounds escalation, cutting the ladder before the
    first rung above it.

    A complete rung N that walked all its strata, with a rung above it,
    hands rung N + 2 its frontier: in each stratum w with 2w + 2 <= N, the
    balls where some chart group is neither evaluable at N nor ruled out
    at N + 2 by an exact valuation.  Rung N + 2 walks in full only the
    strata with 2w + 2 > N.  In the older ones it evaluates only the
    children of frontier balls; the settled balls keep their bits from
    rung N, and each stratum-w ball of rung N has exactly q^4 children
    (Euler's relation and Hensel, see `_VecEngine`).  A rung that reused
    its rung below hands nothing on, so the one above it walks in full.
    """
    cs = _validate_coeffs(coeffs)
    if place not in set(bad_places(cs, cls)):
        return PlaceReport(place, True, frozenset({InvariantValue(0)}), 0, 0)
    if is_local_cube(cls.theta, place):
        solvable = local_solvability(cs, place, precision, cap)
        att = frozenset({InvariantValue(0)}) if solvable else frozenset()
        return PlaceReport(place, solvable, att, 0, 0)
    # (rung, attained, classes) of the last rung walked, if it was complete
    prev: Optional[tuple] = None
    below: Optional[_Frontier] = None
    rungs = _rungs(place, precision, cap)
    for n in rungs:
        att, count, complete, below = _attained(
            cs, cls, place, n, jobs, below, below is None and n + 2 in rungs)
        if complete and prev is not None and prev[1] == att:
            return PlaceReport(place, count > 0,
                               frozenset(InvariantValue(j) for j in att),
                               count, n)
        prev = (n, att, count) if complete else None
    if prev is None:
        # not even one complete enumeration: there is nothing to report
        raise NoStabilization(
            f"no complete enumeration at {place} within the precision bounds")
    n, att, count = prev
    return PlaceReport(place, bool(count),
                       frozenset(InvariantValue(j) for j in att), count, n,
                       stable=False)


def _cube_free(c: int) -> int:
    """c divided by the largest cube m^3 (m > 0) that divides it."""
    m = 1
    for p, e in _prime_factors(abs(c)).items():
        m *= p ** (e // 3)
    return c // m ** 3


def _solvable_away_from_3(coeffs: Coeffs, place: Place) -> bool:
    """Local solvability at a place over p != 3 by the valuation-class rule
    (Colliot-Thelene, Kanevsky and Sansuc, LNM 1290)."""
    if place.kind == "inert":
        # some group has at least two members, and every ratio in F_p is
        # a cube
        return True
    p = place.p
    groups: dict[int, list[int]] = {}
    for c in coeffs:
        v = _ord_int(c, p)
        groups.setdefault(v % 3, []).append(c // p ** v)
    if max(map(len, groups.values())) >= 3:
        return True
    return any(pow(-a * pow(b, -1, p) % p, (p - 1) // 3, p) == 1
               for a, b in (g for g in groups.values() if len(g) == 2))


def local_solvability(coeffs: Sequence[int], place: Place,
                      precision: Optional[int] = None,
                      cap: Optional[int] = None) -> bool:
    """Whether the surface has points over k_v.

    Away from 3 the valuation-class rule decides, with no residue table.
    Write c_i = p^(v_i) u_i and group the coefficients by v_i mod 3; the
    groups do not change under c_i -> c_i m^3 or a common factor p, and
    scaling x_i by powers of p and the equation by p moves any group to
    valuation 0.
    - A group of at least three: rescaled to units, they reduce to a
      smooth diagonal plane cubic over F_q (p != 3), which has at least
      q + 1 - 2 sqrt(q) > 0 points by Hasse-Weil, and Hensel lifts one.
    - Otherwise the group sizes are (2, 2) or (2, 1, 1), and the surface
      is solvable iff some group {a, b} of two has -u_a/u_b a cube in F_q:
      a root of u_a x^3 + u_b y^3 in units lifts by Hensel.  At an inert
      p that always holds, since 3 does not divide p - 1 and so every
      element of F_p is a cube; at a split p it is a cubic-residue test.
    - When every pair fails, a primitive point has x_a = x_b = 0 mod pi
      for the pair at valuation 0; dividing out, the next group must
      vanish mod pi in turn, and so on around the classes until every
      coordinate is 0 mod pi: there is no point.

    At the place over 3 each coefficient is first divided by the largest
    cube dividing it (x_i -> x_i/m is an isomorphism over Q), and the
    residue classes decide.  A certified class proves yes immediately.  No
    raw residue classes at all proves no, since classes at higher
    precision refine lower ones.  Raw classes that never certify on the
    ladder of `_rungs` raise NoStabilization, which names the first rung
    the ladder cut.  `precision` and `cap` act only there.
    """
    cs = _validate_coeffs(coeffs)
    if place.p != 3:
        return _solvable_away_from_3(cs, place)
    cs = tuple(_cube_free(c) for c in cs)
    rungs = _rungs(place, precision, cap)
    for n in rungs:
        raw = False
        for bt in _batches(_local_model(cs, place, n)):
            if (2 * bt.w < n).any():
                return True
            raw = True
        if not raw:
            return False
    raise NoStabilization(
        f"uncertified residue classes persist at {place} below "
        f"pi^{rungs.start + 2 * len(rungs)}")


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
