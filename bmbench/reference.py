"""Reference computations for the benchmark checks, made without bmcubic.

Everything here is plain integer arithmetic in Z[zeta] (pairs (x, y)
standing for x + y*zeta, zeta^2 = -1 - zeta), plus numpy for the
exhaustive counts over residue rings.  The checks in `checks.py` compare the program's
outputs with these values, so this module must never import bmcubic.

Contents:
- `h1_rule`: H^1(k, Pic) of a diagonal cubic from the cube-ratio rule of
  Colliot-Thelene, Kanevsky and Sansuc (LNM 1290).
- `local_solvability`: at one rational prime, a certified primitive
  solution (Hensel: v(F(x)) > 2 min_i v(dF/dx_i)) found by `certified_point`,
  or `no_point_depth`, an n with no primitive solution mod pi^n by an
  exhaustive count.
- `certified_class_count`: the number of Hensel-certified primitive point
  classes mod pi^N, counted exhaustively through value histograms, and
  `scaled_class_count`, the same figure from two digits lower times q^4.
- `cubic_norm`, `norm_residues`, `witness_norms`: exact norms from
  k(cbrt(theta)) and their residues mod 9, for the first-chart residues.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import product

import numpy as np

# --- Z[zeta] -----------------------------------------------------------------


def zmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0] - a[1] * b[1])


def zadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def zscale(k, a):
    return (k * a[0], k * a[1])


def zcube(a):
    return zmul(zmul(a, a), a)


def zpow(a, n):
    out = (1, 0)
    for _ in range(n):
        out = zmul(out, a)
    return out


PI3 = (1, -1)  # 1 - zeta, a uniformizer at the place over 3


def kind(p: int) -> str:
    if p == 3:
        return "ramified"
    return "split" if p % 3 == 1 else "inert"


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


INF = 10 ** 9


def valuation(x, p: int) -> int:
    """Normalized valuation of x in Z[zeta] at the place over p.

    At a split prime only rational integers occur (the completion is Q_p),
    so x is then an int.
    """
    if kind(p) == "split":
        return INF if x == 0 else _vp(x, p)
    a, b = x
    if a == 0 and b == 0:
        return INF
    if kind(p) == "inert":
        return min(_vp(a, p) if a else INF, _vp(b, p) if b else INF)
    k = 0
    while a % 3 == 0 and b % 3 == 0:
        a //= 3
        b //= 3
        k += 1
    # 1 - zeta divides a + b zeta exactly when a + b = 0 mod 3, and never
    # twice here because (1 - zeta)^2 = 3 * unit
    return 2 * k + (1 if (a + b) % 3 == 0 else 0)


def const(c: int, p: int):
    """The rational integer c as an element at the place over p."""
    return c if kind(p) == "split" else (c, 0)


def rational_primes(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# --- H^1 by the cube-ratio rule ---------------------------------------------


def is_rational_cube(q: Fraction) -> bool:
    """A rational number is a cube in k = Q(zeta) iff it is one in Q."""
    for n in (q.numerator, q.denominator):
        for p in rational_primes(n):
            if _vp(n, p) % 3:
                return False
    return True


def h1_rule(coeffs) -> str:
    """H^1(k, Pic X) for a x^3 + b y^3 + c z^3 + d t^3 = 0 over Q(zeta).

    0 if some ab/cd-type ratio is a cube; (Z/3)^2 if three coefficients
    agree up to cubes (three pairwise ratios are cubes); Z/3 otherwise.
    """
    a, b, c, d = coeffs
    opposite = (Fraction(a * b, c * d), Fraction(a * c, b * d),
                Fraction(a * d, b * c))
    if any(is_rational_cube(q) for q in opposite):
        return "0"
    pairs = [Fraction(x, y) for x, y in
             ((a, b), (a, c), (a, d), (b, c), (b, d), (c, d))]
    if sum(is_rational_cube(q) for q in pairs) == 3:
        return "Z/3 + Z/3"
    return "Z/3"


# --- local solvability by lifting ---------------------------------------------


class _Lifter:
    """Primitive points of sum c_i x_i^3 = 0 over the completion at p.

    Nodes are exact representatives x in Z[zeta]^4 (Z^4 at a split prime)
    of normalized primitive classes mod pi^k: the first coordinate that is
    a unit at p is exactly 1 and every earlier coordinate is divisible by
    pi.  Children add pi^k * h to every other coordinate, h running over
    residue-field representatives, so every class mod pi^(k+1) is reached
    from exactly one class mod pi^k.
    """

    def __init__(self, coeffs, p: int):
        self.p = p
        self.kind = kind(p)
        if self.kind == "split":
            self.pi = p
            self.digits = list(range(p))
            self.coeffs = tuple(coeffs)
            self.one, self.zero = 1, 0
        else:
            self.pi = PI3 if self.kind == "ramified" else (p, 0)
            q_reps = range(3) if self.kind == "ramified" else range(p)
            self.digits = ([(h, 0) for h in q_reps] if self.kind == "ramified"
                           else [(h0, h1) for h0 in q_reps for h1 in q_reps])
            self.coeffs = tuple((c, 0) for c in coeffs)
            self.one, self.zero = (1, 0), (0, 0)
        three = 3 if self.kind == "split" else (3, 0)
        self.dcoeffs = tuple(self._mul(three, c) for c in self.coeffs)

    def _mul(self, a, b):
        return a * b if self.kind == "split" else zmul(a, b)

    def _add(self, a, b):
        return a + b if self.kind == "split" else zadd(a, b)

    def _pipow(self, k):
        return self.pi ** k if self.kind == "split" else zpow(self.pi, k)

    def value(self, x):
        total = self.zero
        for c, xi in zip(self.coeffs, x):
            total = self._add(total, self._mul(c, self._mul(self._mul(xi, xi), xi)))
        return total

    def cert_valuation(self, x) -> int:
        """w = min_i v(dF/dx_i) = min_i v(3 c_i x_i^2) at x."""
        return min(valuation(self._mul(d, self._mul(xi, xi)), self.p)
                   for d, xi in zip(self.dcoeffs, x))

    def certified(self, x) -> bool:
        """Hensel: v(F(x)) > 2 v(dF/dx_i) for some i gives a root near x."""
        return valuation(self.value(x), self.p) > 2 * self.cert_valuation(x)

    def _neg(self, a):
        return -a if self.kind == "split" else (-a[0], -a[1])

    def _residue(self, a):
        """a mod pi as a hashable key (zeta = 1 mod pi over 3)."""
        if self.kind == "split":
            return a % self.p
        if self.kind == "ramified":
            return (a[0] + a[1]) % 3
        return (a[0] % self.p, a[1] % self.p)

    def roots(self):
        """Normalized primitive classes mod pi with F = 0 mod pi; the last
        coordinate is solved from a table of c_4 h^3 mod pi."""
        last = {}
        for h in self.digits:
            key = self._residue(self._mul(self.coeffs[3], self._mul(self._mul(h, h), h)))
            last.setdefault(key, []).append(h)
        for lead in range(3):
            for mid in product(*[self.digits] * (2 - lead)):
                head = (self.zero,) * lead + (self.one,) + mid
                partial = self.value(head + (self.zero,))
                for h in last.get(self._residue(self._neg(partial)), ()):
                    yield lead, head + (h,)
        x = (self.zero, self.zero, self.zero, self.one)
        if valuation(self.value(x), self.p) >= 1:
            yield 3, x

    def children(self, lead, x, k):
        step = self._pipow(k)
        moves = [self.digits if i != lead else [self.zero] for i in range(4)]
        for hs in product(*moves):
            y = tuple(self._add(xi, self._mul(step, h)) for xi, h in zip(x, hs))
            if valuation(self.value(y), self.p) >= k + 1:
                yield y


def certified_point(coeffs, p: int, max_depth: int = 12):
    """A primitive x with v(F(x)) > 2 min_i v(3 c_i x_i^2), or None.

    Tried in turn: a smooth root mod pi (enough at almost every place
    p != 3); over 3, a class mod pi^5 with a unit coordinate whose
    coefficient is a unit, found by meeting halves of the equation; then a
    lifting search, nodes with the smallest certificate valuation first.
    The certificate is always checked on the exact representative.
    Returns None when the lifting tree dies out above max_depth; raises
    RuntimeError when nodes remain at max_depth without a certificate.
    """
    lf = _Lifter(coeffs, p)
    for _, x in lf.roots():
        if lf.certified(x):
            return x
    if p == 3:
        x = _meet_in_the_middle_point(coeffs, 5)
        if x is not None and lf.certified(x):
            return x
    heap: list = []
    for lead, x in lf.roots():
        heapq.heappush(heap, (lf.cert_valuation(x), -len(heap), lead, x, 1))
    pushed = len(heap)
    alive = False
    while heap:
        _, _, lead, x, k = heapq.heappop(heap)
        if k >= max_depth:
            alive = True
            continue
        for y in lf.children(lead, x, k):
            if lf.certified(y):
                return y
            pushed += 1
            heapq.heappush(heap, (lf.cert_valuation(y), -pushed, lead, y, k + 1))
    if alive:
        raise RuntimeError(f"no certificate for {coeffs} at {p} by depth {max_depth}")
    return None


# --- residue rings and exhaustive counts ----------------------------------------


class _ResidueRing:
    """o_v / pi^N at the place over p, as canonical indices a + ma * b.

    Split p (completion Q_p): a mod p^N, b = 0.  Inert p: (a, b) mod p^N.
    Over 3 with N = 2m + e: b mod 3^m and a mod 3^(m+e), since
    3^m (1 - zeta) = (3^m, -3^m) lies in pi^N.
    """

    def __init__(self, p: int, n: int):
        self.p, self.n = p, n
        self.kind = kind(p)
        if self.kind == "split":
            self.ma, self.mb, self.q = p ** n, 1, p
        elif self.kind == "inert":
            self.ma = self.mb = p ** n
            self.q = p * p
        else:
            m, e = divmod(n, 2)
            self.ma, self.mb, self.q = 3 ** (m + e), 3 ** m, 3
        idx = np.arange(self.ma * self.mb, dtype=np.int64)
        self.a, self.b = idx % self.ma, idx // self.ma
        self.size = self.ma * self.mb

    @staticmethod
    def size_of(p: int, n: int) -> int:
        return (p * p if kind(p) == "inert" else p) ** n

    def canon(self, a, b):
        if self.kind != "ramified":
            return (a % self.ma) + self.ma * (b % self.mb)
        k = np.floor_divide(b, self.mb)
        return ((a + k * self.mb) % self.ma) + self.ma * (b - k * self.mb)

    def mul(self, i, j):
        a1, b1, a2, b2 = self.a[i], self.b[i], self.a[j], self.b[j]
        return self.canon(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2 - b1 * b2)

    def scale(self, c: int, i):
        return self.canon(c * self.a[i], c * self.b[i])

    def add(self, i, j):
        return self.canon(self.a[i] + self.a[j], self.b[i] + self.b[j])

    def neg(self, i):
        return self.canon(-self.a[i], -self.b[i])

    def exact(self, i):
        """The representative a + b zeta (an int at a split prime)."""
        a, b = int(self.a[i]), int(self.b[i])
        return a if self.kind == "split" else (a, b)

    def valuations(self):
        return np.array([min(valuation(self.exact(i), self.p), self.n)
                         for i in range(self.size)], dtype=np.int64)


class _Terms:
    """Values c_i x^3 of every x in o_v/pi^N, with the valuations that the
    counts filter on."""

    def __init__(self, coeffs, p: int, n: int):
        self.ring = ring = _ResidueRing(p, n)
        self.coeffs = coeffs
        self.vals = ring.valuations()
        x = np.arange(ring.size)
        cubes = ring.mul(ring.mul(x, x), x)
        self.term = [ring.scale(c, cubes) for c in coeffs]
        self.dval = [np.minimum(2 * self.vals + valuation(const(3 * c, p), p), n)
                     for c in coeffs]

    def hist(self, i, keep):
        return np.bincount(self.term[i][keep], minlength=self.ring.size).astype(np.int64)

    def solutions(self, keeps) -> int:
        """#{x : sum c_i x_i^3 = 0 mod pi^N, keeps[i][x_i] for every i}."""
        ring = self.ring
        h12 = _sumset_hist(ring, self.hist(0, keeps[0]), self.hist(1, keeps[1]))
        h34 = _sumset_hist(ring, self.hist(2, keeps[2]), self.hist(3, keeps[3]))
        return int(np.dot(h12, h34[ring.neg(np.arange(ring.size))]))

    def primitive(self, deep_from=None) -> int:
        """Primitive solutions, optionally only those with every
        v(3 c_i x_i^2) >= deep_from."""
        every = np.ones(self.ring.size, dtype=bool)
        nonunit = self.vals > 0
        keeps_all, keeps_non = [], []
        for i in range(4):
            deep = every if deep_from is None else self.dval[i] >= deep_from
            keeps_all.append(deep)
            keeps_non.append(deep & nonunit)
        return self.solutions(keeps_all) - self.solutions(keeps_non)


def _sumset_hist(ring, h1, h2):
    """Histogram of u + v for u ~ h1, v ~ h2 (both indexed by the ring)."""
    i = np.nonzero(h1)[0]
    j = np.nonzero(h2)[0]
    out = np.zeros(ring.size, dtype=np.int64)
    if len(i) == 0 or len(j) == 0:
        return out
    s = ring.add(i[:, None], j[None, :]).ravel()
    w = (h1[i][:, None] * h2[j][None, :]).ravel()
    np.add.at(out, s, w)
    return out


def no_point_depth(coeffs, p: int, max_size: int = 2200):
    """Smallest n with no primitive solution of F = 0 mod pi^n, by an
    exhaustive count over every ring o_v/pi^n of at most max_size
    elements; None if solutions remain in all of them."""
    n = 1
    while _ResidueRing.size_of(p, n) <= max_size:
        if _Terms(coeffs, p, n).primitive() == 0:
            return n
        n += 1
    return None


def local_solvability(coeffs, p: int):
    """(True, certified point) or (False, n): no primitive solution mod pi^n.

    A smooth root mod pi decides almost every place at once; otherwise the
    exhaustive counts come first, then the certified-point search.  n is
    None when only the lifting tree of certified_point died out.
    """
    lf = _Lifter(coeffs, p)
    for _, x in lf.roots():
        if lf.certified(x):
            return True, x
    n = no_point_depth(coeffs, p)
    if n is not None:
        return False, n
    x = certified_point(coeffs, p)
    return (True, x) if x is not None else (False, None)


def _meet_in_the_middle_point(coeffs, n: int):
    """Over 3: x mod pi^n with F = 0 mod pi^n, x_i = 1 for some i with c_i
    a unit (so w = 2), or None.  Solves c_j x_j^3 = -(rest) by table."""
    t = _Terms(coeffs, 3, n)
    ring = t.ring
    one = int(ring.canon(np.int64(1), np.int64(0)))
    for lead in range(4):
        if coeffs[lead] % 3 == 0:
            continue
        j1, j2, j3 = (j for j in range(4) if j != lead)
        need = {}
        for x in range(ring.size):
            need.setdefault(int(t.term[j1][x]), x)
        pair = ring.add(t.term[j2][:, None], t.term[j3][None, :])
        rest = ring.add(np.full(pair.shape, t.term[lead][one]), pair)
        target = ring.neg(rest)
        for (x2, x3), v in np.ndenumerate(target):
            x1 = need.get(int(v))
            if x1 is not None:
                coords = [None] * 4
                coords[lead], coords[j1], coords[j2], coords[j3] = one, x1, x2, x3
                return tuple(ring.exact(c) for c in coords)
    return None


def certified_class_count(coeffs, p: int, n: int) -> int:
    """Hensel-certified primitive point classes mod pi^n, up to unit scaling.

    A class x mod pi^n counts when sum c_i x_i^3 = 0 mod pi^n, some x_i is
    a unit and w = min_i v(3 c_i x_i^2) satisfies n > 2w.  Solutions are
    counted exhaustively by convolving the value histograms of c_i x_i^3,
    with inclusion-exclusion for primitivity and for w >= ceil(n/2); each
    class is one orbit of the unit group, which acts freely on primitive
    tuples.  The coefficients must have no common pi-power.
    """
    if min(valuation(const(c, p), p) for c in coeffs) != 0:
        raise ValueError("coefficients share a pi-power at this place")
    t = _Terms(coeffs, p, n)
    certified = t.primitive() - t.primitive(deep_from=(n - 1) // 2 + 1)
    units = t.ring.q ** n - t.ring.q ** (n - 1)
    if certified % units:
        raise ArithmeticError("unit orbits do not divide the primitive count")
    return certified // units


def scaled_class_count(coeffs, p: int, n: int) -> int:
    """The count at n from the exhaustive count two digits lower.

    Hensel scaling: a certified ball mod pi^r of the surface splits into
    q^2 balls mod pi^(r+1), so once every certified class has one
    certificate valuation the count grows by q^2 per digit.
    """
    q = 3 if p == 3 else p * p
    return certified_class_count(coeffs, p, n - 2) * q ** 4


# --- cubic norms and the first-chart residues ----------------------------------


THETA = Fraction(2, 3)


def cubic_norm(a, b, c, theta=THETA):
    """N(a + b r + c r^2) with r^3 = theta, for a, b, c in Z[zeta]:
    a^3 + theta b^3 + theta^2 c^3 - 3 theta a b c (exact, in Q(zeta))."""
    a3, b3, c3, abc = zcube(a), zcube(b), zcube(c), zmul(zmul(a, b), c)
    return tuple(a3[i] + theta * b3[i] + theta * theta * c3[i] - 3 * theta * abc[i]
                 for i in range(2))


def mod9(x) -> tuple[int, int]:
    return (int(x[0]) % 9, int(x[1]) % 9)


def norm_residues(span: int = 2) -> frozenset:
    """Residues mod 9 of the unit norms N(a + b r + c r^2), with a, b/pi and
    c/3 running over Z[zeta] with coordinates in [-span, span].  These
    elements form an order of k(cbrt(2/3)), so the norms are integral; the
    residues fill the index-3 norm subgroup of (Z[zeta]/9)^* (18 classes).
    """
    rng = range(-span, span + 1)
    out = set()
    for a in product(rng, rng):
        if (a[0] + a[1]) % 3 == 0:
            continue  # a nonunit at the place over 3
        for bb in product(rng, rng):
            b = zmul(PI3, bb)
            for cc in product(rng, rng):
                out.add(mod9(cubic_norm(a, b, zscale(3, cc))))
    return frozenset(out)


# Elements a + b r + c r^2 of k(cbrt(2/3)) whose norms are the six residues
# of the criterion-9 statement, zeta * {1, 4, 7, 3+zeta, 3+4 zeta, 3+7 zeta}.
NORM_WITNESSES = (
    ((0, 1), (0, 0), (0, 0)),      # N(zeta) = 1
    ((0, 1), (0, 0), (0, 3)),      # 4 mod 9
    ((0, 1), (0, 0), (-3, 0)),     # 7 mod 9
    ((0, 1), (-1, 1), (-3, 0)),    # 3 + zeta mod 9
    ((0, 1), (-1, 1), (0, 0)),     # 3 + 4 zeta mod 9
    ((0, 1), (-1, 1), (0, 3)),     # 3 + 7 zeta mod 9
)


def witness_norms(witnesses=NORM_WITNESSES) -> frozenset:
    """Residues mod 9 of the exact norms of the given witnesses."""
    return frozenset(mod9(cubic_norm(a, b, c)) for a, b, c in witnesses)


def times_zeta(residues) -> frozenset:
    return frozenset(mod9(zmul((0, 1), r)) for r in residues)


def minkowski_excludes_zero(attained_sets) -> bool:
    """Whether 0 lies outside the sum set of per-place invariants j/3."""
    acc = {0}
    for s in attained_sets:
        acc = {(x + j) % 3 for x in acc for j in s}
    return 0 not in acc
