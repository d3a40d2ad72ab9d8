"""Exact polynomial arithmetic over radical cube-root towers of Q(zeta_3).

A tower adjoins cube roots of rational numbers m_1, ..., m_r to k = Q(zeta_3);
elements are k-linear combinations of the monomials prod cbrt(m_i)^{e_i},
e_i in {0, 1, 2}.  The radicands must be multiplicatively independent modulo
cubes (checked through prime exponent vectors over F_3), which makes the
algebra a genuine field of degree 3^r over k with exact inverses.

Elements and polynomials are stored on plain integers.  A coefficient in k
is an integer pair (a, b) meaning a + b*zeta, one per radical monomial, and
every pair of an element or of a polynomial stands over one positive
denominator, kept in lowest terms, so that equality compares the stored
integers.  Radical monomials are numbered 0 .. 3^r - 1 in the order of
`TowerField.exponents`.  When a product of two monomials carries past
exponent 2 in coordinate i it picks up the radicand m_i = p_i/q_i: the
kernels multiply that term by p_i and every term without the carry by q_i,
over the denominator prod q_i of the field (`TowerField.scale`).
EisensteinNumber values are made only at the interface: building elements,
`coeffs`, `coefficient`, repr and comparison with a scalar.

Homogeneous polynomials in x, y, z, t over such a field support the desk-scale
identity checking this package needs: reduction modulo a diagonal surface
cubic (eliminating t^3), membership of a cubic form in the ideal spanned by
three quadrics and the surface (a 13-unknown linear solve, no Groebner
machinery), cubic norms w * tau(w) * tau^2(w), and the cross-multiplied
calibration identity f*g*tg*ttg = theta * f'*f*tf*ttf mod the surface.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain, product
from math import gcd, lcm, prod
from typing import Iterable, Optional, Sequence, Union

from .eisenstein import ZETA, EisensteinNumber, _coerce as _eis, _prime_factors

Monomial = tuple[int, int, int, int]
Pair = tuple[int, int]


def cube_class_vector(m: Fraction) -> dict[int, int]:
    """Prime exponents of m modulo 3, sign discarded (-1 is a cube)."""
    vec: dict[int, int] = {}
    for src, sgn in ((abs(m.numerator), 1), (m.denominator, -1)):
        for p, e in _prime_factors(src).items():
            vec[p] = (vec.get(p, 0) + sgn * e) % 3
    return {p: e for p, e in vec.items() if e}


def _f3_rowspace(rows: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    """Echelon basis of the span of `rows` in F_3^n."""
    basis: list[list[int]] = []
    for row in rows:
        v = [x % 3 for x in row]
        for b in basis:
            lead = next(i for i, x in enumerate(b) if x)
            if v[lead]:
                c = v[lead] * pow(b[lead], -1, 3)
                v = [(x - c * y) % 3 for x, y in zip(v, b)]
        if any(v):
            basis.append(v)
    basis.sort(key=lambda b: next(i for i, x in enumerate(b) if x))
    return [tuple(b) for b in basis]


# --- integer kernels ----------------------------------------------------------
# A numerator map {radical monomial index: (a, b)} holds no zero pair.

def _lowest(num: dict, den: int) -> tuple[dict, int]:
    """num/den in lowest terms, zero pairs dropped; den must be positive."""
    num = {k: c for k, c in num.items() if c[0] or c[1]}
    g = gcd(den, *chain.from_iterable(num.values()))
    if g != 1:
        num = {k: (a // g, b // g) for k, (a, b) in num.items()}
        den //= g
    return num, den


def _accumulate(acc: dict, num: dict, s: int = 1) -> None:
    """acc += s * num, in place; may leave zero pairs in acc."""
    for k, (a, b) in num.items():
        c = acc.get(k)
        acc[k] = (s * a, s * b) if c is None else (c[0] + s * a, c[1] + s * b)


def _scaled(num: dict, s: int) -> dict:
    return {k: (s * a, s * b) for k, (a, b) in num.items()}


def _mul_terms(table, left: list, right: list) -> dict:
    """The product of two sums of terms (key, i, a, b), each standing for
    (a + b*zeta) times radical monomial i times what key stands for: keys
    add under the product and are multiples of the number of radical
    monomials, so the result maps key1 + key2 + k to its numerator pair,
    over the field's `scale`."""
    acc: dict = {}
    for m1, i, a1, b1 in left:
        row = table[i]
        for m2, j, a2, b2 in right:
            k, f = row[j]
            bb = b1 * b2
            # zeta^2 = -1 - zeta
            x = f * (a1 * a2 - bb)
            y = f * (a1 * b2 + b1 * a2 - bb)
            key = m1 + m2 + k
            c = acc.get(key)
            acc[key] = (x, y) if c is None else (c[0] + x, c[1] + y)
    return acc


def _mul_nums(table, n1: dict, n2: dict) -> dict:
    """The numerator map of a product, over the field's `scale`."""
    return _mul_terms(table, [(0, i, a, b) for i, (a, b) in n1.items()],
                      [(0, j, a, b) for j, (a, b) in n2.items()])


def _pack(m: Monomial) -> int:
    return m[0] | m[1] << 16 | m[2] << 32 | m[3] << 48


def _unpack(key: int) -> Monomial:
    return key & 0xFFFF, key >> 16 & 0xFFFF, key >> 32 & 0xFFFF, key >> 48


def _keyed_terms(terms: dict, n: int) -> list:
    """The terms of a polynomial for `_mul_terms`: a term's key packs its
    monomial with 16 bits per exponent, times the number n of radical
    monomials, so that keys add under the product."""
    return [(_pack(m) * n, i, a, b) for m, c in terms.items() for i, (a, b) in c.items()]


def _primitive(row: list) -> list:
    """The row divided by the gcd of its components."""
    g = gcd(*chain.from_iterable(row))
    if g > 1:
        return [(a // g, b // g) for a, b in row]
    return row


def _solve_eisenstein(rows: list[list[Pair]],
                      rhs: list[Pair]) -> Optional[tuple[list[Pair], int]]:
    """Gauss-Jordan elimination over Q(zeta) on integer pairs; None if
    inconsistent.

    Returns the solution as integer pairs over one positive denominator, in
    lowest terms.  Underdetermined systems get free variables set to zero.
    The elimination is fraction-free: a pivot row is multiplied by the
    conjugate of its pivot, which turns the pivot into the positive rational
    integer N(pivot), and each row a pivot row updates is cleared with it
    and then divided by the gcd of its components.  A pivot stays rational
    and positive through every later update of its row.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    a = [list(row) + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != (0, 0)), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        pa, pb = a[r][c]
        ca, cb = pa - pb, -pb
        prow = a[r] = _primitive([(x * ca - y * cb, x * cb + y * ca - y * cb)
                                  for x, y in a[r]])
        p = prow[c][0]
        for i in range(m):
            fa, fb = a[i][c]
            if i != r and (fa or fb):
                a[i] = _primitive([
                    (p * x - fa * u + fb * v, p * y - fa * v - fb * u + fb * v)
                    for (x, y), (u, v) in zip(a[i], prow)])
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if a[i][n] != (0, 0):
            return None
    den = lcm(*(a[i][c][0] for i, c in enumerate(pivots)))
    sol = [(0, 0)] * n
    for i, c in enumerate(pivots):
        s = den // a[i][c][0]
        sol[c] = (s * a[i][n][0], s * a[i][n][1])
    g = gcd(den, *chain.from_iterable(sol))
    return [(x // g, y // g) for x, y in sol], den // g


# --- the tower field ------------------------------------------------------------

class TowerField:
    """k(cbrt(m_1), ..., cbrt(m_r)) with rational radicands.

    >>> K0 = TowerField([Fraction(2, 3)])
    >>> rho = K0.radical(0)
    >>> rho * rho * rho == K0.scalar(Fraction(2, 3))
    True
    """

    def __init__(self, radicands: Sequence[Union[int, Fraction]]):
        rads = tuple(Fraction(m) for m in radicands)
        if any(m == 0 for m in rads):
            raise ValueError("radicands must be nonzero")
        # independence mod cubes: exponent vectors over the primes of all
        # radicands must be F_3-independent
        vecs = [cube_class_vector(m) for m in rads]
        primes = sorted(set().union(*vecs))
        rows = [[v.get(p, 0) for p in primes] for v in vecs]
        if len(_f3_rowspace(rows)) < len(rows):
            raise ValueError("radicands are multiplicatively dependent modulo cubes")
        self.radicands = rads
        self.r = len(rads)
        self._exps = list(self.exponents())
        self._index = {e: k for k, e in enumerate(self._exps)}
        self.size = len(self._exps)
        self.scale = prod(m.denominator for m in rads)
        # _table[i][j] = (k, f): monomial i times monomial j is f/scale
        # times monomial k
        self._table = [[self._monomial_product(e1, e2) for e2 in self._exps]
                       for e1 in self._exps]

    def _monomial_product(self, e1, e2) -> tuple[int, int]:
        f = 1
        for m, a, b in zip(self.radicands, e1, e2):
            f *= m.numerator if a + b >= 3 else m.denominator
        return self._index[tuple((a + b) % 3 for a, b in zip(e1, e2))], f

    def exponents(self) -> Iterable[tuple[int, ...]]:
        return product(range(3), repeat=self.r)

    def element(self, coeffs: dict) -> "TowerElement":
        clean: dict[int, EisensteinNumber] = {}
        for e, c in coeffs.items():
            e = tuple(int(v) for v in e)
            if len(e) != self.r or any(v < 0 or v > 2 for v in e):
                raise ValueError(f"bad radical exponent tuple {e}")
            k = self._index[e]
            clean[k] = clean.get(k, EisensteinNumber(0)) + _eis(c)
        den = lcm(*(v.denominator for c in clean.values() for v in (c.x, c.y)))
        return TowerElement._of(self, {k: (int(c.x * den), int(c.y * den))
                                       for k, c in clean.items()}, den)

    def scalar(self, v) -> "TowerElement":
        return self.element({(0,) * self.r: _eis(v)})

    @property
    def zero(self) -> "TowerElement":
        return TowerElement._of(self, {}, 1)

    @property
    def one(self) -> "TowerElement":
        return TowerElement._of(self, {0: (1, 0)}, 1)

    def radical(self, i: int) -> "TowerElement":
        e = [0] * self.r
        e[i] = 1
        return self.element({tuple(e): 1})

    def __eq__(self, other) -> bool:
        return isinstance(other, TowerField) and self.radicands == other.radicands

    def __hash__(self):
        return hash(self.radicands)

    def __repr__(self):
        rads = ", ".join(f"cbrt({m})" for m in self.radicands)
        return f"TowerField(Q(zeta)[{rads}])"


class TowerElement:
    """Sparse k-linear combination of radical monomials: num maps a monomial
    index to an integer pair (a, b), and the element is sum (a + b*zeta)/den
    times the monomial."""

    __slots__ = ("field", "num", "den")

    @classmethod
    def _of(cls, field: TowerField, num: dict, den: int) -> "TowerElement":
        self = object.__new__(cls)
        self.field = field
        self.num, self.den = _lowest(num, den)
        return self

    @property
    def coeffs(self) -> dict[tuple[int, ...], EisensteinNumber]:
        """{radical exponent tuple: coefficient in k}."""
        exps, den = self.field._exps, self.den
        return {exps[k]: EisensteinNumber(Fraction(a, den), Fraction(b, den))
                for k, (a, b) in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def _check(self, other: "TowerElement"):
        if self.field != other.field:
            raise ValueError("elements of different towers")

    def __add__(self, other):
        other = self._coerce(other)
        d1, d2 = self.den, other.den
        den = lcm(d1, d2)
        out = _scaled(self.num, den // d1)
        _accumulate(out, other.num, den // d2)
        return TowerElement._of(self.field, out, den)

    __radd__ = __add__

    def __neg__(self):
        return TowerElement._of(self.field, _scaled(self.num, -1), self.den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) + (-self)

    def _coerce(self, other) -> "TowerElement":
        if isinstance(other, TowerElement):
            self._check(other)
            return other
        return self.field.scalar(other)

    def __mul__(self, other):
        if isinstance(other, TowerPolynomial):
            return NotImplemented
        other = self._coerce(other)
        field = self.field
        return TowerElement._of(field, _mul_nums(field._table, self.num, other.num),
                                self.den * other.den * field.scale)

    __rmul__ = __mul__

    def inverse(self) -> "TowerElement":
        """Exact inverse via the multiplication matrix over k."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in tower field")
        field = self.field
        n = field.size
        # column j: the numerator of self * monomial j, over den * scale
        rows = [[(0, 0)] * n for _ in range(n)]
        for j in range(n):
            for k, c in _mul_nums(field._table, self.num, {j: (1, 0)}).items():
                rows[k][j] = c
        rhs = [(self.den * field.scale, 0)] + [(0, 0)] * (n - 1)
        got = _solve_eisenstein(rows, rhs)
        if got is None:
            raise ZeroDivisionError("element is a zero divisor; tower is not a field?")
        sol, den = got
        return TowerElement._of(field, dict(enumerate(sol)), den)

    def __truediv__(self, other):
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other):
        return self._coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, EisensteinNumber)):
            other = self.field.scalar(other)
        if not isinstance(other, TowerElement):
            return NotImplemented
        return (self.field == other.field and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        return hash((self.field, self.den, tuple(sorted(self.num.items()))))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for e, c in sorted(self.coeffs.items()):
            mono = "*".join(f"cbrt({self.field.radicands[i]})^{v}"
                            for i, v in enumerate(e) if v)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


class TowerAutomorphism:
    """cbrt(m_i) -> zeta^{a_i} cbrt(m_i), optionally conjugating zeta.

    >>> K0 = TowerField([Fraction(2, 3)])
    >>> tau = TowerAutomorphism(K0, (1,))
    >>> tau(K0.radical(0)) == ZETA * K0.radical(0)
    True
    """

    def __init__(self, field: TowerField, exponents: Sequence[int], conjugate: bool = False):
        self.field = field
        self.exponents = tuple(e % 3 for e in exponents)
        if len(self.exponents) != field.r:
            raise ValueError("one exponent per radical required")
        self.conjugate = conjugate
        # monomial k goes to zeta^twist[k] times itself
        self._twist = [sum(a * v for a, v in zip(self.exponents, e)) % 3
                       for e in field._exps]
        # multiplicativity on the basis; with conjugation this also checks
        # compatibility with rational radicands
        basis = [TowerElement._of(field, {k: (1, 0)}, 1) for k in range(min(4, field.size))]
        for b1 in basis:
            for b2 in basis:
                if self(b1 * b2) != self(b1) * self(b2):
                    raise ValueError("not a field automorphism")

    def _apply(self, num: dict) -> dict:
        out = {}
        for k, (a, b) in num.items():
            if self.conjugate:
                a, b = a - b, -b
            t = self._twist[k]
            # times zeta: (a, b) -> (-b, a - b)
            if t == 1:
                a, b = -b, a - b
            elif t == 2:
                a, b = b - a, -a
            out[k] = (a, b)
        return out

    def __call__(self, obj):
        if isinstance(obj, TowerElement):
            return TowerElement._of(obj.field, self._apply(obj.num), obj.den)
        if isinstance(obj, TowerPolynomial):
            return TowerPolynomial._of(obj.field, {m: self._apply(c)
                                                   for m, c in obj.terms.items()},
                                       obj.den, obj.degree)
        raise TypeError("expected a tower element or polynomial")


class TowerPolynomial:
    """Homogeneous polynomial in x, y, z, t over a tower: terms maps a
    monomial to the numerator map of its coefficient, all over den."""

    __slots__ = ("field", "terms", "den", "degree")

    def __init__(self, field: TowerField, terms: dict, degree: Optional[int] = None):
        clean: dict[Monomial, TowerElement] = {}
        for mono, c in terms.items():
            mono = tuple(int(v) for v in mono)
            if len(mono) != 4 or any(v < 0 for v in mono):
                raise ValueError(f"bad monomial {mono}")
            if not isinstance(c, TowerElement):
                c = field.scalar(c)
            if not c.is_zero:
                if mono in clean:
                    c = clean[mono] + c
                clean[mono] = c
        clean = {m: c for m, c in clean.items() if not c.is_zero}
        degrees = {sum(m) for m in clean}
        if len(degrees) > 1:
            raise ValueError("polynomial is not homogeneous")
        if degree is None:
            if not degrees:
                raise ValueError("zero polynomial needs an explicit degree")
            degree = degrees.pop()
        elif degrees and degrees != {degree}:
            raise ValueError("terms do not match the stated degree")
        den = lcm(*(c.den for c in clean.values()))
        self._set(field, {m: _scaled(c.num, den // c.den) for m, c in clean.items()},
                  den, degree)

    @classmethod
    def _of(cls, field: TowerField, terms: dict, den: int, degree: int) -> "TowerPolynomial":
        self = object.__new__(cls)
        self._set(field, terms, den, degree)
        return self

    def _set(self, field, terms, den, degree):
        """Store terms/den in lowest terms, without zero pairs or terms."""
        nonzero = {}
        for m, c in terms.items():
            c = {k: p for k, p in c.items() if p[0] or p[1]}
            if c:
                nonzero[m] = c
        g = gcd(den, *(x for c in nonzero.values() for p in c.values() for x in p))
        if g != 1:
            nonzero = {m: {k: (a // g, b // g) for k, (a, b) in c.items()}
                       for m, c in nonzero.items()}
            den //= g
        self.field = field
        self.terms = nonzero
        self.den = den
        self.degree = degree

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TowerPolynomial") -> "TowerPolynomial":
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            raise ValueError("degree mismatch in sum")
        den = lcm(self.den, other.den)
        out = {m: _scaled(c, den // self.den) for m, c in self.terms.items()}
        s = den // other.den
        for m, c in other.terms.items():
            _accumulate(out.setdefault(m, {}), c, s)
        return TowerPolynomial._of(self.field, out, den, max(self.degree, other.degree))

    def __neg__(self) -> "TowerPolynomial":
        return TowerPolynomial._of(self.field, {m: _scaled(c, -1)
                                                for m, c in self.terms.items()},
                                   self.den, self.degree)

    def __sub__(self, other: "TowerPolynomial") -> "TowerPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "TowerPolynomial":
        field = self.field
        table = field._table
        if not isinstance(other, TowerPolynomial):
            c = other if isinstance(other, TowerElement) else field.scalar(other)
            return TowerPolynomial._of(
                field, {m: _mul_nums(table, cc, c.num) for m, cc in self.terms.items()},
                self.den * c.den * field.scale, self.degree)
        n = field.size
        acc = _mul_terms(table, _keyed_terms(self.terms, n), _keyed_terms(other.terms, n))
        out: dict[Monomial, dict] = {}
        for key, c in acc.items():
            m, k = divmod(key, n)
            out.setdefault(_unpack(m), {})[k] = c
        return TowerPolynomial._of(field, out, self.den * other.den * field.scale,
                                   self.degree + other.degree)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, TowerPolynomial) and self.field == other.field
                and self.den == other.den and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms))))

    def coefficient(self, mono: Monomial) -> TowerElement:
        return TowerElement._of(self.field, self.terms.get(tuple(mono), {}), self.den)

    def __repr__(self):
        if self.is_zero:
            return "0"
        names = "xyzt"
        bits = []
        for m in sorted(self.terms, reverse=True):
            mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                            for i, e in enumerate(m) if e)
            bits.append(f"[{self.coefficient(m)!r}]{mono and '*' + mono}")
        return " + ".join(bits)


def surface_cubic(field: TowerField, a, b, c, d) -> TowerPolynomial:
    """F = a*x^3 + b*y^3 + c*z^3 + d*t^3."""
    return TowerPolynomial(field, {(3, 0, 0, 0): a, (0, 3, 0, 0): b,
                                   (0, 0, 3, 0): c, (0, 0, 0, 3): d})


def _diagonal_coefficients(F: TowerPolynomial):
    keys = {(3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0), (0, 0, 0, 3)}
    if set(F.terms) - keys:
        raise ValueError("surface cubic must be diagonal a*x^3+b*y^3+c*z^3+d*t^3")
    d = F.coefficient((0, 0, 0, 3))
    if d.is_zero:
        raise ValueError("coefficient of t^3 must be invertible")
    return [F.coefficient(k) for k in ((3, 0, 0, 0), (0, 3, 0, 0), (0, 0, 3, 0))], d


def normal_form(p: TowerPolynomial, F: TowerPolynomial) -> TowerPolynomial:
    """Canonical representative of p modulo (F) with t-degree at most 2.

    Eliminates t^3 = -(a*x^3 + b*y^3 + c*z^3)/d; linear over the coefficient
    field and the identity on polynomials that already have t-degree <= 2.
    Each pass replaces every t^3 once: with the substitutes over one
    denominator D, a pass multiplies the terms it keeps by D * scale, so
    that the whole polynomial moves over den * D * scale.
    """
    (a, b, c), d = _diagonal_coefficients(F)
    dinv = d.inverse()
    subst = [(-x) * dinv for x in (a, b, c)]
    sden = lcm(*(s.den for s in subst))
    snums = [_scaled(s.num, sden // s.den) for s in subst]
    field = p.field
    step = sden * field.scale
    terms, den = p.terms, p.den
    while any(m[3] >= 3 for m in terms):
        out: dict[Monomial, dict] = {}
        for m, coeff in terms.items():
            i, j, k, l = m
            if l < 3:
                _accumulate(out.setdefault(m, {}), coeff, step)
                continue
            for axis, s in enumerate(snums):
                nm = (i + 3 * (axis == 0), j + 3 * (axis == 1), k + 3 * (axis == 2), l - 3)
                _accumulate(out.setdefault(nm, {}), _mul_nums(field._table, coeff, s))
        terms, den = out, den * step
    return TowerPolynomial._of(field, terms, den, p.degree)


def _linear_monomials() -> list[Monomial]:
    return [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def divisor_membership(f: TowerPolynomial,
                       quadrics: Sequence[TowerPolynomial],
                       F: TowerPolynomial):
    """Express the cubic f as l1*q1 + l2*q2 + l3*q3 + c*F if possible.

    Returns (l1, l2, l3, c) with the l_i linear forms and c a scalar, or None
    when the 13-unknown linear system has no solution.  Absence of a solution
    is not a disproof of divisor containment, only of this particular shape.

    The system is solved over k: unknown (g, e) is the coordinate at radical
    monomial e of the multiplier of generator g, so its column holds the
    coefficients of g times that monomial.  A tower unknown is free exactly
    when its k-coordinates are, so free unknowns are zero as over the tower.
    """
    if f.degree != 3 or any(q.degree != 2 for q in quadrics) or len(quadrics) != 3:
        raise ValueError("expected a cubic, three quadrics and the surface")
    field = f.field
    table = field._table
    # unknowns: 4 coefficients per linear form, then the constant
    gens: list[TowerPolynomial] = []
    for q in quadrics:
        for var in _linear_monomials():
            gens.append(TowerPolynomial(field, {var: field.one}) * q)
    gens.append(F)
    # column (g, e) over g.den * scale, the right-hand side over f.den
    cols = []
    for g in gens:
        for e in range(field.size):
            cols.append({(m, k): v for m, c in g.terms.items()
                         for k, v in _mul_nums(table, c, {e: (1, 0)}).items()})
    rhs_map = {(m, k): v for m, c in f.terms.items() for k, v in c.items()}
    keys = sorted(set(rhs_map).union(*cols))
    rows = [[col.get(key, (0, 0)) for col in cols] for key in keys]
    got = _solve_eisenstein(rows, [rhs_map.get(key, (0, 0)) for key in keys])
    if got is None:
        return None
    sol, den = got
    unknowns = []
    for gi, g in enumerate(gens):
        s = g.den * field.scale
        part = sol[gi * field.size:(gi + 1) * field.size]
        unknowns.append(TowerElement._of(field, {e: (s * x, s * y)
                                                 for e, (x, y) in enumerate(part)},
                                         den * f.den))
    linears = []
    for qi in range(3):
        coeffs = unknowns[4 * qi:4 * qi + 4]
        linears.append(TowerPolynomial(field,
                                       {v: c for v, c in zip(_linear_monomials(), coeffs)},
                                       1))
    return linears[0], linears[1], linears[2], unknowns[12]


def cubic_norm(w: TowerElement, tau: TowerAutomorphism) -> TowerElement:
    """w * tau(w) * tau^2(w); the result is checked to be tau-fixed."""
    n = w * tau(w) * tau(tau(w))
    if tau(n) != n:
        raise ArithmeticError("norm is not fixed by tau; is tau of order 3?")
    return n


def calibration_identity(f: TowerPolynomial, fprime: TowerPolynomial,
                         g: TowerPolynomial, theta, tau: TowerAutomorphism,
                         F: TowerPolynomial) -> bool:
    """Check f*g*tg*ttg = theta * f'*f*tf*ttf modulo the surface F.

    This is the cross-multiplied form of f/x^3 = theta * (f'/x^3) * N_tau(f/g).
    """
    field = f.field
    if not isinstance(theta, TowerElement):
        theta = field.scalar(theta)
    lhs = f * g * tau(g) * tau(tau(g))
    rhs = (fprime * f * tau(f) * tau(tau(f))) * theta
    if lhs.degree != 12 or rhs.degree != 12:
        raise ValueError("calibration sides must have degree 12")
    return normal_form(lhs - rhs, F).is_zero
