"""Exact arithmetic in k = Q(zeta_3), its finite places, and cubic norm residues.

The field is represented as pairs of rationals x + y*zeta with
zeta^2 + zeta + 1 = 0.  Finite places come in three kinds: split (p = 1 mod 3),
inert (p = 2 mod 3) and the unique ramified place over 3 with uniformizer
pi = 2*zeta + 1, pi^2 = -3.  Residue rings o_v / pi^N are modeled exactly:

* split: Z/p^N, with zeta sent to the Hensel root of x^2 + x + 1 that makes
  the chosen uniformizer have valuation exactly 1,
* inert: pairs (a, b) mod p^N standing for a + b*zeta,
* ramified: pairs (s, t) standing for s + t*pi, with s mod 3^ceil(N/2) and
  t mod 3^floor(N/2).

On top of this sit the local invariants of cyclic cubic algebras (u, theta),
read from one table per (theta, place) under one convention: away from 3 the
invariant is the tame symbol, j/3 when the cube-power residue symbol is
zeta^j; at the place over 3 it is fixed by Hilbert reciprocity, minus the sum
of the tame invariants of a global element, evaluated at pi and at generators
of the unit group mod pi^4 and extended by bimultiplicativity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, wraps
from math import isqrt, lcm
from types import MappingProxyType
from typing import Iterator, Mapping, Union

RatLike = Union[int, Fraction]


class PrecisionError(ArithmeticError):
    """Raised when a residue is not known to enough pi-adic digits."""


def _binary(op):
    """Coerce the other operand of a binary operator; for a foreign type
    return NotImplemented, so that Python tries that type's operator."""
    @wraps(op)
    def wrapper(self, other):
        if isinstance(other, (int, Fraction)):
            other = EisensteinNumber(other, 0)
        elif not isinstance(other, EisensteinNumber):
            return NotImplemented
        return op(self, other)
    return wrapper


def _rat(v: RatLike) -> RatLike:
    """v as an int when it is integral, else as a Fraction.

    >>> _rat(Fraction(6, 3)), _rat(Fraction(1, 2))
    (2, Fraction(1, 2))
    """
    v = Fraction(v)
    return int(v.numerator) if v.denominator == 1 else v


@dataclass(frozen=True)
class EisensteinNumber:
    """x + y*zeta with zeta a primitive cube root of unity.

    A coordinate is an int when it is integral and a Fraction otherwise, so
    arithmetic on algebraic integers stays in machine-speed int operations.

    >>> z = EisensteinNumber(0, 1)
    >>> z * z * z
    EisensteinNumber(1, 0)
    >>> (z * z + z + 1).is_zero
    True
    """

    x: RatLike
    y: RatLike

    def __init__(self, x: RatLike = 0, y: RatLike = 0):
        object.__setattr__(self, "x", x if type(x) is int else _rat(x))
        object.__setattr__(self, "y", y if type(y) is int else _rat(y))

    @property
    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    @_binary
    def __add__(self, other: "EisensteinNumber") -> "EisensteinNumber":
        return EisensteinNumber(self.x + other.x, self.y + other.y)

    __radd__ = __add__

    def __neg__(self) -> "EisensteinNumber":
        return EisensteinNumber(-self.x, -self.y)

    @_binary
    def __sub__(self, other) -> "EisensteinNumber":
        return self + (-other)

    @_binary
    def __rsub__(self, other) -> "EisensteinNumber":
        return other + (-self)

    @_binary
    def __mul__(self, other) -> "EisensteinNumber":
        # zeta^2 = -1 - zeta
        return EisensteinNumber(self.x * other.x - self.y * other.y,
                                self.x * other.y + self.y * other.x - self.y * other.y)

    __rmul__ = __mul__

    def conjugate(self) -> "EisensteinNumber":
        """The image under zeta -> zeta^2."""
        return EisensteinNumber(self.x - self.y, -self.y)

    def norm(self) -> Fraction:
        """Norm to Q: x^2 - x*y + y^2."""
        return Fraction(self.x * self.x - self.x * self.y + self.y * self.y)

    def trace(self) -> Fraction:
        return Fraction(2 * self.x - self.y)

    def inverse(self) -> "EisensteinNumber":
        x, y = self.x, self.y
        n = x * x - x * y + y * y
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        # conjugate over the norm, divided as Fractions: int / int is a float
        return EisensteinNumber(Fraction(x - y, n), Fraction(-y, n))

    @_binary
    def __truediv__(self, other) -> "EisensteinNumber":
        return self * other.inverse()

    @_binary
    def __rtruediv__(self, other) -> "EisensteinNumber":
        return other * self.inverse()

    def __pow__(self, n: int) -> "EisensteinNumber":
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __repr__(self) -> str:
        return f"EisensteinNumber({self.x}, {self.y})"

    def __str__(self) -> str:
        if self.y == 0:
            return str(self.x)
        if self.x == 0:
            return f"{self.y}*zeta"
        sign = "+" if self.y > 0 else "-"
        return f"{self.x} {sign} {abs(self.y)}*zeta"


def _coerce(v) -> EisensteinNumber:
    if isinstance(v, EisensteinNumber):
        return v
    if isinstance(v, (int, Fraction)):
        return EisensteinNumber(v, 0)
    raise TypeError(f"cannot interpret {v!r} as an Eisenstein number")


ZERO = EisensteinNumber(0, 0)
ONE = EisensteinNumber(1, 0)
ZETA = EisensteinNumber(0, 1)
# pi generates the ramified prime over 3; pi^2 = -3
PI3 = EisensteinNumber(1, 2)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Place:
    """A finite place of Q(zeta_3)."""

    p: int
    kind: str  # split | inert | ramified
    pi: EisensteinNumber
    q: int     # residue field size

    def __post_init__(self):
        assert self.kind in ("split", "inert", "ramified")

    @property
    def ramification(self) -> int:
        """Valuation of the rational prime p at this place."""
        return 2 if self.kind == "ramified" else 1

    def __str__(self) -> str:
        return f"place({self.p},{self.kind},pi={self.pi})"


def _normalize_split_uniformizer(a: int, b: int) -> tuple[int, int]:
    # minimal (|a|,|b|) lexicographically over the six associates, then a
    # positive-leaning tiebreak so the choice is a single element
    cands = []
    x, y = a, b
    for _ in range(3):
        cands.append((x, y))
        cands.append((-x, -y))
        # multiply by zeta: (x + y*zeta)*zeta = -y + (x - y)*zeta
        x, y = -y, x - y
    key = lambda ab: (abs(ab[0]), abs(ab[1]), ab[0] < 0, ab[1] < 0)
    return min(cands, key=key)


def factor_rational_prime(p: int):
    """Factor a rational prime in Z[zeta]: a Place, or a conjugate pair if split.

    >>> factor_rational_prime(2).kind
    'inert'
    >>> factor_rational_prime(3).pi
    EisensteinNumber(1, 2)
    >>> v7, v7bar = factor_rational_prime(7)
    >>> v7.pi.norm()
    Fraction(7, 1)
    """
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if p == 3:
        return Place(3, "ramified", PI3, 3)
    if p % 3 == 2:
        return Place(p, "inert", EisensteinNumber(p, 0), p * p)
    # split: find a + b*zeta of norm p by bounded search
    for a in range(1, p):
        # a^2 - a*b + b^2 = p  =>  b = (a +- sqrt(4p - 3a^2)) / 2
        disc = 4 * p - 3 * a * a
        if disc < 0:
            break
        r = isqrt(disc)
        if r * r == disc:
            for b2 in (a + r, a - r):
                if b2 % 2 == 0:
                    a0, b0 = _normalize_split_uniformizer(a, b2 // 2)
                    pi = EisensteinNumber(a0, b0)
                    a1, b1 = _normalize_split_uniformizer(a0 - b0, -b0)
                    return (Place(p, "split", pi, p),
                            Place(p, "split", EisensteinNumber(a1, b1), p))
    raise ArithmeticError(f"no element of norm {p} found")  # unreachable for split p


def places_over(p: int) -> tuple[Place, ...]:
    """The places over a rational prime, one or two of them."""
    out = factor_rational_prime(p)
    return out if isinstance(out, tuple) else (out,)


def _prime_factors(n: int) -> dict[int, int]:
    """{p: e} with |n| = prod p^e, by trial division; n must be nonzero."""
    n = abs(n)
    if n == 0:
        raise ValueError("cannot factor zero")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def valuation(x: EisensteinNumber, place: Place) -> int:
    """Exact valuation of a nonzero x at the place (normalized so v(pi) = 1)."""
    x = _coerce(x)
    if x.is_zero:
        raise ValueError("valuation of zero")
    a, b, den = _integral_numerator(x)
    vden = _ord_int(den, place.p) * place.ramification
    return _integral_valuation(a, b, place) - vden


def _integral_numerator(x: EisensteinNumber) -> tuple[int, int, int]:
    """(a, b, den) with x = (a + b*zeta)/den over the lcm of its denominators."""
    den = lcm(x.x.denominator, x.y.denominator)
    return int(x.x * den), int(x.y * den), den


def _strip_pi(a: int, b: int, place: Place, limit: int) -> tuple[int, int, int]:
    """(a', b', v) with a + b*zeta = pi^v (a' + b'*zeta) at a split place and
    v as large as it goes up to limit; dividing by pi multiplies by conj(pi)/p."""
    p, pa, pb = place.p, int(place.pi.x), int(place.pi.y)
    ca, cb = pa - pb, -pb  # conj(pi)
    v = 0
    while v < limit:
        na = a * ca - b * cb
        nb = a * cb + b * ca - b * cb
        if na % p or nb % p:
            break
        a, b, v = na // p, nb // p, v + 1
    return a, b, v


def _ord_int(n: int, p: int) -> int:
    if n == 0:
        raise ValueError("ord of zero")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


_BIG = 10 ** 9


def _integral_valuation(a: int, b: int, place: Place) -> int:
    # valuation of a + b*zeta in Z[zeta], a, b not both zero
    p = place.p
    if place.kind == "inert":
        va = _ord_int(a, p) if a else _BIG
        vb = _ord_int(b, p) if b else _BIG
        return min(va, vb)
    if place.kind == "ramified":
        # 2*(a + b*zeta) = (2a - b) + b*pi; the factor 2 is a unit at 3
        s, t = 2 * a - b, b
        vs = 2 * _ord_int(s, 3) if s else _BIG
        vt = 1 + 2 * _ord_int(t, 3) if t else _BIG
        return min(vs, vt)
    return _strip_pi(a, b, place, _BIG)[2]


# --- residue rings -----------------------------------------------------------

def _mod(x, m):
    """x mod m by floor division: exactly x % m for ints and int64 arrays,
    and cheaper than numpy's remainder on arrays.  The pair rings' `reduce`
    spells it out, which saves two calls per scalar operation."""
    return x - x // m * m


class _RingBase:
    """Common interface: elements are ints (split) or int pairs, numbered
    0..size-1 by pack in the order of elements().  The arithmetic, pack,
    unpack and unit_part also act elementwise on integer arrays,
    and take(e, ids) gathers the entries ids of such an array element.

    Every element has one canonical (reduced) representative, and every
    operation but the raw ones returns it.  `mul_raw` and `add_raw` skip
    the reduction, and `reduce` makes canonical any representation of an
    element, whatever the sign or size of its components, so a sum of
    products can be reduced once.  A raw product must have two reduced
    factors; only sums stay unreduced.  A reduced component is below the
    ring's largest modulus m, which is at most the ring size, so a raw
    product is below 3 m^2 in absolute value: about 10^14 at
    `azumaya._VecEngine.SIZE_CAP`.  On int64 arrays a sum of thousands of
    such products stays below 2^63, while a product with an unreduced
    factor could overflow.
    """

    place: Place
    precision: int

    def mul(self, e1, e2):
        return self.reduce(self.mul_raw(e1, e2))

    def add(self, e1, e2):
        return self.reduce(self.add_raw(e1, e2))

    def embed(self, x: EisensteinNumber):
        """Residue of x, which must have valuation >= 0 at the place."""
        a, b, den = _integral_numerator(_coerce(x))
        k = _ord_int(den, self.place.p)
        d = den // self.place.p ** k
        return self._embed_fraction(a, b, k, d)

    def pow(self, e, n: int):
        if n < 0:
            return self.pow(self.inv(e), -n)
        out = self.one
        base = e
        while n:
            if n & 1:
                out = self.mul(out, base)
            base = self.mul(base, base)
            n >>= 1
        return out

    def units(self) -> Iterator:
        for e in self.elements():
            if self.valuation(e) == 0:
                yield e


class _SplitRing(_RingBase):
    """o_v/pi^N = Z/p^N for a split place; zeta goes to a root w of x^2+x+1."""

    def __init__(self, place: Place, precision: int):
        self.place = place
        self.precision = precision
        self.modulus = self.size = place.p ** precision
        p = place.p
        pa, pb = int(place.pi.x), int(place.pi.y)
        root = None
        for r in range(p):
            if (r * r + r + 1) % p == 0 and (pa + pb * r) % p == 0:
                root = r
                break
        if root is None:
            raise ArithmeticError("no compatible cube root of unity mod p")
        # Hensel lift: f(w) = w^2 + w + 1, f'(w) = 2w + 1 invertible since p != 3
        w, mod = root, p
        while mod < self.modulus:
            mod = min(mod * mod, self.modulus)
            w = (w - (w * w + w + 1) * pow(2 * w + 1, -1, mod)) % mod
        self.zeta = w % self.modulus
        self.one = 1 % self.modulus
        self.zero = 0
        # pi maps to p*c with c a unit; a unit part divides by pi^v = p^v c^v
        c = (pa + pb * w) % self.modulus // p
        self._cinv = tuple(pow(c, -v, p ** (precision - v)) for v in range(precision + 1))

    def _embed_fraction(self, a: int, b: int, k: int, d: int):
        # (a + b*zeta) / (p^k * d); cancel pi^k into the numerator, leaving
        # a denominator conj(pi)^k * d of valuation zero
        a, b, v = _strip_pi(a, b, self.place, k)
        if v < k:
            raise ValueError("element has negative valuation at the place")
        pa, pb = int(self.place.pi.x), int(self.place.pi.y)
        num = (a + b * self.zeta) % self.modulus
        den = (pa - pb - pb * self.zeta) % self.modulus
        den = pow(den, k, self.modulus) * d % self.modulus
        return num * pow(den, -1, self.modulus) % self.modulus

    def reduce(self, e):
        return _mod(e, self.modulus)

    def mul_raw(self, e1, e2):
        return e1 * e2

    def add_raw(self, e1, e2):
        return e1 + e2

    def neg(self, e):
        return self.reduce(-e)

    def inv(self, e):
        return pow(e, -1, self.modulus)

    def valuation(self, e) -> int:
        if e == 0:
            return self.precision
        return min(_ord_int(e, self.place.p), self.precision)

    def unit_part(self, e, v: int):
        """e / pi^v for v <= valuation(e), an element at precision N - v."""
        p = self.place.p
        return _mod(e // p ** v * self._cinv[v], p ** (self.precision - v))

    def elements(self) -> Iterator[int]:
        return iter(range(self.modulus))

    def pack(self, e) -> int:
        return e

    def unpack(self, k):
        return k

    def take(self, e, ids):
        return e[ids]

    def lift(self, e) -> EisensteinNumber:
        return EisensteinNumber(e)


class _PairRing(_RingBase):
    """o_v/pi^N for a place that is not split: pairs (a, b) of integers, a
    carried mod ma and b mod mb, numbered a * mb + b."""

    def __init__(self, place: Place, precision: int, ma: int, mb: int):
        self.place = place
        self.precision = precision
        self.ma, self.mb = ma, mb
        self.size = ma * mb
        self.one = (1 % ma, 0)
        self.zero = (0, 0)

    def reduce(self, e):
        a, b = e
        ma, mb = self.ma, self.mb
        return (a - a // ma * ma, b - b // mb * mb)

    def add_raw(self, e1, e2):
        return (e1[0] + e2[0], e1[1] + e2[1])

    def neg(self, e):
        return self.reduce((-e[0], -e[1]))

    def elements(self) -> Iterator:
        return ((a, b) for a in range(self.ma) for b in range(self.mb))

    def pack(self, e) -> int:
        return e[0] * self.mb + e[1]

    def unpack(self, k):
        q = k // self.mb
        return (q, k - q * self.mb)

    def take(self, e, ids):
        return (e[0][ids], e[1][ids])


class _InertRing(_PairRing):
    """o_v/pi^N for an inert place: pairs (a, b) mod p^N meaning a + b*zeta."""

    def __init__(self, place: Place, precision: int):
        m = place.p ** precision
        super().__init__(place, precision, m, m)
        self.zeta = (0, 1 % m)

    def _embed_fraction(self, a: int, b: int, k: int, d: int):
        pk = self.place.p ** k
        if a % pk or b % pk:
            raise ValueError("element has negative valuation at the place")
        m = self.ma
        dinv = pow(d, -1, m)
        return (a // pk * dinv % m, b // pk * dinv % m)

    def mul_raw(self, e1, e2):
        a1, b1 = e1
        a2, b2 = e2
        # zeta^2 = -1 - zeta
        return (a1 * a2 - b1 * b2, a1 * b2 + b1 * (a2 - b2))

    def inv(self, e):
        a, b = e
        conj = self.reduce((a - b, -b))
        n = (a * a - a * b + b * b) % self.ma
        ninv = pow(n, -1, self.ma)
        return self.mul(conj, (ninv, 0))

    def valuation(self, e) -> int:
        a, b = e
        if a == 0 and b == 0:
            return self.precision
        p = self.place.p
        va = _ord_int(a, p) if a else self.precision
        vb = _ord_int(b, p) if b else self.precision
        return min(va, vb, self.precision)

    def unit_part(self, e, v: int):
        pv = self.place.p ** v
        return (e[0] // pv, e[1] // pv)

    def lift(self, e) -> EisensteinNumber:
        return EisensteinNumber(e[0], e[1])


class _RamifiedRing(_PairRing):
    """o_v/pi^N at the place over 3: pairs (s, t) meaning s + t*pi.

    s is carried mod 3^ceil(N/2) and t mod 3^floor(N/2); that is exactly the
    lattice pi^N * o_v.
    """

    def __init__(self, place: Place, precision: int):
        super().__init__(place, precision, 3 ** ((precision + 1) // 2),
                         3 ** (precision // 2))
        # zeta = (-1 + pi) / 2
        ms, mt = self.ma, self.mb
        inv2s = pow(2, -1, ms) if ms > 1 else 0
        inv2t = pow(2, -1, mt) if mt > 1 else 0
        self.zeta = (-inv2s % ms, inv2t % mt)

    def _embed_fraction(self, a: int, b: int, k: int, d: int):
        pk = 3 ** k
        if a % pk or b % pk:
            raise ValueError("element has negative valuation at the place")
        a //= pk
        b //= pk
        # a + b*zeta = (a - b/2) + (b/2)*pi
        ms, mt = self.ma, self.mb
        inv2s = pow(2, -1, ms) if ms > 1 else 0
        inv2t = pow(2, -1, mt) if mt > 1 else 0
        dinvs = pow(d, -1, ms) if ms > 1 else 0
        dinvt = pow(d, -1, mt) if mt > 1 else 0
        s = (2 * a - b) * inv2s * dinvs % ms
        t = b * inv2t * dinvt % mt
        return (s, t)

    def mul_raw(self, e1, e2):
        s1, t1 = e1
        s2, t2 = e2
        # (s1 + t1 pi)(s2 + t2 pi) = s1 s2 - 3 t1 t2 + (s1 t2 + s2 t1) pi
        return (s1 * s2 - 3 * t1 * t2, s1 * t2 + s2 * t1)

    def inv(self, e):
        s, t = e
        ms, mt = self.ma, self.mb
        n = (s * s + 3 * t * t) % ms
        ninvs = pow(n, -1, ms)
        ninvt = pow(n % mt, -1, mt) if mt > 1 else 0
        return self.reduce((s * ninvs, -t * ninvt))

    def valuation(self, e) -> int:
        s, t = e
        vs = 2 * _ord_int(s, 3) if s else self.precision
        vt = 1 + 2 * _ord_int(t, 3) if t else self.precision
        return min(vs, vt, self.precision)

    def unit_part(self, e, v: int):
        """e / pi^v for v <= valuation(e), an element at precision N - v."""
        # pi^2 = -3 divides both digits by -3; one more pi maps s + t*pi
        # to t - (s/3)*pi
        s, t = e
        sign = -1 if v // 2 % 2 else 1
        s, t = sign * (s // 3 ** (v // 2)), sign * (t // 3 ** (v // 2))
        if v % 2:
            s, t = t, -(s // 3)
        n = self.precision - v
        return (_mod(s, 3 ** ((n + 1) // 2)), _mod(t, 3 ** (n // 2)))

    def lift(self, e) -> EisensteinNumber:
        # s + t*pi with pi = 1 + 2*zeta
        s, t = e
        return EisensteinNumber(s + t, 2 * t)


@lru_cache(maxsize=None)
def residue_ring(place: Place, precision: int):
    if precision < 1:
        raise ValueError("precision must be >= 1")
    if place.kind == "split":
        return _SplitRing(place, precision)
    if place.kind == "inert":
        return _InertRing(place, precision)
    return _RamifiedRing(place, precision)


@dataclass(frozen=True)
class LocalElement:
    """pi^valuation * unit, with the unit a residue known mod pi^precision."""

    place: Place
    valuation: int
    unit: object  # element of residue_ring(place, precision)
    precision: int

    def __str__(self) -> str:
        return f"pi^{self.valuation} * {self.unit!r} (mod pi^{self.precision})"


def localize(x: EisensteinNumber, place: Place, precision: int = 4) -> LocalElement:
    """Exact valuation-and-unit decomposition of a nonzero field element.

    >>> v3 = factor_rational_prime(3)
    >>> localize(EisensteinNumber(Fraction(2, 3)), v3).valuation
    -2
    >>> localize(PI3, v3).valuation
    1
    >>> localize(ZETA, v3).valuation
    0
    """
    x = _coerce(x)
    if x.is_zero:
        raise ValueError("cannot localize zero")
    v = valuation(x, place)
    unit_exact = x / place.pi ** v
    ring = residue_ring(place, precision)
    return LocalElement(place, v, ring.embed(unit_exact), precision)


@dataclass(frozen=True)
class InvariantValue:
    """An element j/3 of (1/3)Z/Z, printed as 0, 1/3 or 2/3."""

    j: int

    def __init__(self, j: int):
        object.__setattr__(self, "j", j % 3)

    def __add__(self, other: "InvariantValue") -> "InvariantValue":
        return InvariantValue(self.j + other.j)

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.j, 3)

    def __str__(self) -> str:
        return "0" if self.j == 0 else f"{self.j}/3"


# --- cube testing ------------------------------------------------------------

@lru_cache(maxsize=None)
def _ramified_cube_residues(place: Place) -> frozenset:
    # cubes of units are determined mod 9 = pi^4: units congruent to 1 mod 9
    # are themselves cubes, so the mod-pi^4 test is exact
    ring = residue_ring(place, 4)
    return frozenset(ring.pack(ring.pow(u, 3)) for u in ring.units())


def is_local_cube(x: EisensteinNumber, place: Place) -> bool:
    """Whether x is a cube in the completion k_v.

    >>> is_local_cube(EisensteinNumber(8), factor_rational_prime(2))
    True
    >>> is_local_cube(EisensteinNumber(Fraction(2, 3)), factor_rational_prime(3))
    False
    """
    x = _coerce(x)
    if x.is_zero:
        return True
    v = valuation(x, place)
    if v % 3:
        return False
    u = x / place.pi ** v
    if place.kind == "ramified":
        ring = residue_ring(place, 4)
        return ring.pack(ring.embed(u)) in _ramified_cube_residues(place)
    ring = residue_ring(place, 1)
    r = ring.embed(u)
    return ring.pow(r, (place.q - 1) // 3) == ring.one


# --- local invariants --------------------------------------------------------

def tame_hilbert_symbol(u: LocalElement, theta: LocalElement, place: Place) -> InvariantValue:
    """Invariant of the cyclic algebra (k_v(cbrt(theta))/k_v, u) for p != 3.

    Reduces w = (-1)^(v(u)v(theta)) * u^v(theta) / theta^v(u) to a unit and
    reads off w^((q-1)/3) = zeta^j in the residue field; the invariant is j/3.
    """
    if place.kind == "ramified":
        raise ValueError("tame symbol requires residue characteristic != 3")
    assert place.q % 3 == 1
    if u.place != place or theta.place != place:
        raise ValueError("local elements belong to a different place")
    n = min(u.precision, theta.precision)
    if n < 1:
        raise PrecisionError("unit residues unknown even mod pi")
    a, b = u.valuation, theta.valuation
    field = residue_ring(place, 1)
    uu = field.reduce(u.unit)
    tt = field.reduce(theta.unit)
    w = field.mul(field.pow(uu, b), field.pow(tt, -a))
    if (a * b) % 2:
        w = field.neg(w)
    r = field.pow(w, (place.q - 1) // 3)
    zf = field.zeta
    for j in range(3):
        if r == field.pow(zf, j):
            return InvariantValue(j)
    raise ArithmeticError("cube-power residue is not a root of unity")  # unreachable


def unit_resolution(place: Place) -> int:
    """pi-adic digits of a unit needed to read its norm-coset class."""
    return 4 if place.kind == "ramified" else 1


def _norm_primes(x: EisensteinNumber) -> set[int]:
    n = x.norm()
    return set(_prime_factors(n.numerator)) | set(_prime_factors(n.denominator))


def _reciprocity_invariant(x: EisensteinNumber, theta: EisensteinNumber) -> int:
    """j with inv_3(x, theta) = j/3 by Hilbert reciprocity: minus the sum of
    the tame invariants at the places not over 3 where x or theta is not a
    unit, the places over the primes of N(x) or of N(theta); k has no real
    places."""
    primes = _norm_primes(x) | _norm_primes(theta)
    tame = sum(tame_hilbert_symbol(localize(x, w, 1), localize(theta, w, 1), w).j
               for p in primes - {3} for w in places_over(p))
    return -tame % 3


@lru_cache(maxsize=64)
def invariant_table(theta: EisensteinNumber, place: Place) -> Mapping[tuple[int, int], int]:
    """The local invariants j/3 of (k_v(cbrt(theta))/k_v, pi^v * u) as a map
    (v mod 3, packed u) -> j, u running over the units mod pi^unit_resolution.

    Away from 3 the entries are tame symbols.  Over 3, units congruent to 1
    mod 9 are cubes, so the invariant depends only on the class (v mod 3,
    u mod pi^4), and Hilbert reciprocity fixes it on a global element
    (`_reciprocity_invariant`).  Reciprocity is evaluated only at pi and at
    the generators zeta, 1 + pi, 1 + pi^2, 1 + pi^3 and -1 of the unit group
    of o/pi^4; the invariant is bimultiplicative, so a walk of that group
    from 1 gives j(u*g) = j(u) + j(g), and inv(pi^v * u) = v*j(pi) + j(u).
    The walk checks itself: it raises ArithmeticError when it reaches one
    unit with two values of j, or misses a unit.
    """
    theta = _coerce(theta)
    if theta.is_zero:
        raise ValueError("theta must be nonzero")
    ring = residue_ring(place, unit_resolution(place))
    table = {}
    if place.kind != "ramified":
        th = localize(theta, place, 1)
        for u in ring.units():
            for v in range(3):
                le = LocalElement(place, v, u, 1)
                table[(v, ring.pack(u))] = tame_hilbert_symbol(le, th, place).j
        return MappingProxyType(table)
    gens = [(ring.embed(g), _reciprocity_invariant(g, theta))
            for g in (ZETA, ONE + PI3, ONE + PI3 ** 2, ONE + PI3 ** 3, -ONE)]
    js = {ring.pack(ring.one): 0}
    stack = [ring.one]
    while stack:
        u = stack.pop()
        ju = js[ring.pack(u)]
        for g, jg in gens:
            w = ring.mul(u, g)
            k, jw = ring.pack(w), (ju + jg) % 3
            if k not in js:
                js[k] = jw
                stack.append(w)
            elif js[k] != jw:
                raise ArithmeticError(
                    f"invariants at {place} are not bimultiplicative at {w}")
    units = [ring.pack(u) for u in ring.units()]
    if set(js) != set(units):
        raise ArithmeticError(f"the unit generators miss a unit at {place}")
    j_pi = _reciprocity_invariant(place.pi, theta)
    for u in units:
        for v in range(3):
            table[(v, u)] = (v * j_pi + js[u]) % 3
    return MappingProxyType(table)


def cyclic_invariant(u, theta, place: Place) -> InvariantValue:
    """Local invariant of the cyclic algebra (k_v(cbrt(theta))/k_v, u).

    u may be an exact EisensteinNumber or an already-localized LocalElement
    known mod pi^unit_resolution(place) or finer; theta must be exact.

    >>> v3 = factor_rational_prime(3)
    >>> print(cyclic_invariant(ZETA, EisensteinNumber(Fraction(2, 3)), v3))
    2/3
    """
    m = unit_resolution(place)
    if not isinstance(u, LocalElement):
        u = localize(_coerce(u), place, m)
    if u.place != place:
        raise ValueError("local element belongs to a different place")
    if u.precision < m:
        raise PrecisionError(f"unit residue needed mod pi^{m}, have pi^{u.precision}")
    lo = residue_ring(place, m)
    unit = lo.reduce(u.unit)
    table = invariant_table(theta, place)
    return InvariantValue(table[(u.valuation % 3, lo.pack(unit))])
