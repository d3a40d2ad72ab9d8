"""Exact polynomial arithmetic over radical cube-root towers of Q(zeta_3).

A tower adjoins cube roots of rational numbers m_1, ..., m_r to k = Q(zeta_3);
elements are k-linear combinations of the monomials prod cbrt(m_i)^{e_i},
e_i in {0, 1, 2}.  The radicands must be multiplicatively independent modulo
cubes (checked through prime exponent vectors over F_3), which makes the
algebra a genuine field of degree 3^r over k with exact inverses.

Homogeneous polynomials in x, y, z, t over such a field support the desk-scale
identity checking this package needs: reduction modulo a diagonal surface
cubic (eliminating t^3), membership of a cubic form in the ideal spanned by
three quadrics and the surface (a 13-unknown linear solve, no Groebner
machinery), cubic norms w * tau(w) * tau^2(w), and the cross-multiplied
calibration identity f*g*tg*ttg = theta * f'*f*tf*ttf mod the surface.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from typing import Iterable, Optional, Sequence, Union

from .eisenstein import ONE, ZETA, EisensteinNumber, _coerce as _eis, _prime_factors

Monomial = tuple[int, int, int, int]


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

    def exponents(self) -> Iterable[tuple[int, ...]]:
        return product(range(3), repeat=self.r)

    def element(self, coeffs: dict) -> "TowerElement":
        clean = {}
        for e, c in coeffs.items():
            e = tuple(int(v) for v in e)
            if len(e) != self.r or any(v < 0 or v > 2 for v in e):
                raise ValueError(f"bad radical exponent tuple {e}")
            c = _eis(c)
            if not c.is_zero:
                clean[e] = clean.get(e, EisensteinNumber(0)) + c
        return TowerElement(self, {e: c for e, c in clean.items() if not c.is_zero})

    def scalar(self, v) -> "TowerElement":
        return self.element({(0,) * self.r: _eis(v)})

    @property
    def zero(self) -> "TowerElement":
        return TowerElement(self, {})

    @property
    def one(self) -> "TowerElement":
        return self.scalar(1)

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
    """Sparse k-linear combination of radical monomials."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: TowerField, coeffs: dict):
        self.field = field
        self.coeffs = coeffs

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def _check(self, other: "TowerElement"):
        if self.field != other.field:
            raise ValueError("elements of different towers")

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            s = out.get(e, EisensteinNumber(0)) + c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return TowerElement(self.field, out)

    __radd__ = __add__

    def __neg__(self):
        return TowerElement(self.field, {e: -c for e, c in self.coeffs.items()})

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
        rads = self.field.radicands
        out: dict[tuple, EisensteinNumber] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                c = c1 * c2
                e = []
                for i, (a, b) in enumerate(zip(e1, e2)):
                    s = a + b
                    e.append(s % 3)
                    if s >= 3:
                        c = c * rads[i]
                e = tuple(e)
                s = out.get(e, EisensteinNumber(0)) + c
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return TowerElement(self.field, out)

    __rmul__ = __mul__

    def inverse(self) -> "TowerElement":
        """Exact inverse via the multiplication matrix over k."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in tower field")
        field = self.field
        exps = list(field.exponents())
        idx = {e: i for i, e in enumerate(exps)}
        n = len(exps)
        # column j of the matrix: self * basis_j in basis coordinates
        cols = []
        for e in exps:
            prod_ = self * TowerElement(field, {e: ONE})
            col = [EisensteinNumber(0)] * n
            for ee, c in prod_.coeffs.items():
                col[idx[ee]] = c
            cols.append(col)
        rows = [[cols[j][i] for j in range(n)] for i in range(n)]
        rhs = [ONE if i == idx[(0,) * field.r] else EisensteinNumber(0) for i in range(n)]
        sol = _solve_eisenstein(rows, rhs)
        if sol is None:
            raise ZeroDivisionError("element is a zero divisor; tower is not a field?")
        return TowerElement(field, {e: c for e, c in zip(exps, sol) if not c.is_zero})

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
        return self.field == other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.coeffs.items(),
                                              key=lambda kv: kv[0]))))

    def __repr__(self):
        if self.is_zero:
            return "0"
        bits = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            mono = "*".join(f"cbrt({self.field.radicands[i]})^{v}"
                            for i, v in enumerate(e) if v)
            bits.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(bits)


def _solve_eisenstein(rows: list[list[EisensteinNumber]],
                      rhs: list[EisensteinNumber]) -> Optional[list[EisensteinNumber]]:
    """Gaussian elimination over Q(zeta); None if inconsistent.

    Underdetermined systems get free variables set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    a = [row[:] + [rhs[i]] for i, row in enumerate(rows)]
    pivots = []
    r = 0
    for c in range(n):
        piv = None
        for i in range(r, m):
            if not a[i][c].is_zero:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and not a[i][c].is_zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if not a[i][n].is_zero:
            return None
    sol = [EisensteinNumber(0)] * n
    for i, c in enumerate(pivots):
        sol[c] = a[i][n]
    return sol


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
        # multiplicativity on the basis; with conjugation this also checks
        # compatibility with rational radicands
        exps = list(field.exponents())
        for e1 in exps[:4]:
            for e2 in exps[:4]:
                b1 = TowerElement(field, {e1: ONE})
                b2 = TowerElement(field, {e2: ONE})
                if self._apply_element(b1 * b2) != self._apply_element(b1) * self._apply_element(b2):
                    raise ValueError("not a field automorphism")

    def _apply_element(self, w: TowerElement) -> TowerElement:
        out = {}
        for e, c in w.coeffs.items():
            if self.conjugate:
                c = c.conjugate()
            twist = sum(a * v for a, v in zip(self.exponents, e)) % 3
            out[e] = c * ZETA ** twist
        return TowerElement(self.field, {e: c for e, c in out.items() if not c.is_zero})

    def __call__(self, obj):
        if isinstance(obj, TowerElement):
            return self._apply_element(obj)
        if isinstance(obj, TowerPolynomial):
            return TowerPolynomial(obj.field, {m: self._apply_element(c)
                                               for m, c in obj.terms.items()},
                                   obj.degree)
        raise TypeError("expected a tower element or polynomial")


class TowerPolynomial:
    """Homogeneous polynomial in x, y, z, t with TowerElement coefficients."""

    __slots__ = ("field", "terms", "degree")

    def __init__(self, field: TowerField, terms: dict, degree: Optional[int] = None):
        clean = {}
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
        self.field = field
        self.terms = clean
        self.degree = degree

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "TowerPolynomial") -> "TowerPolynomial":
        if self.degree != other.degree and not (self.is_zero or other.is_zero):
            raise ValueError("degree mismatch in sum")
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, self.field.zero) + c
            if s.is_zero:
                out.pop(m, None)
            else:
                out[m] = s
        return TowerPolynomial(self.field, out, max(self.degree, other.degree))

    def __neg__(self) -> "TowerPolynomial":
        return TowerPolynomial(self.field, {m: -c for m, c in self.terms.items()}, self.degree)

    def __sub__(self, other: "TowerPolynomial") -> "TowerPolynomial":
        return self + (-other)

    def __mul__(self, other) -> "TowerPolynomial":
        if not isinstance(other, TowerPolynomial):
            c = other if isinstance(other, TowerElement) else self.field.scalar(other)
            return TowerPolynomial(self.field,
                                   {m: cc * c for m, cc in self.terms.items()}, self.degree)
        out: dict[Monomial, TowerElement] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2], m1[3] + m2[3])
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s.is_zero:
                    out.pop(m, None)
                else:
                    out[m] = s
        return TowerPolynomial(self.field, out, self.degree + other.degree)

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, TowerPolynomial) and self.field == other.field
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.field, tuple(sorted(self.terms))))

    def coefficient(self, mono: Monomial) -> TowerElement:
        return self.terms.get(tuple(mono), self.field.zero)

    def __repr__(self):
        if self.is_zero:
            return "0"
        names = "xyzt"
        bits = []
        for m in sorted(self.terms, reverse=True):
            mono = "*".join(f"{names[i]}^{e}" if e > 1 else names[i]
                            for i, e in enumerate(m) if e)
            bits.append(f"[{self.terms[m]!r}]{mono and '*' + mono}")
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
    """
    (a, b, c), d = _diagonal_coefficients(F)
    dinv = d.inverse()
    subst = [(-a) * dinv, (-b) * dinv, (-c) * dinv]
    terms = dict(p.terms)
    while True:
        heavy = [m for m in terms if m[3] >= 3]
        if not heavy:
            break
        for m in heavy:
            coeff = terms.pop(m)
            i, j, k, l = m
            for axis, s in enumerate(subst):
                nm = (i + 3 * (axis == 0), j + 3 * (axis == 1), k + 3 * (axis == 2), l - 3)
                cur = terms.get(nm, p.field.zero) + coeff * s
                if cur.is_zero:
                    terms.pop(nm, None)
                else:
                    terms[nm] = cur
    return TowerPolynomial(p.field, terms, p.degree)


def _linear_monomials() -> list[Monomial]:
    return [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]


def divisor_membership(f: TowerPolynomial,
                       quadrics: Sequence[TowerPolynomial],
                       F: TowerPolynomial):
    """Express the cubic f as l1*q1 + l2*q2 + l3*q3 + c*F if possible.

    Returns (l1, l2, l3, c) with the l_i linear forms and c a scalar, or None
    when the 13-unknown linear system has no solution.  Absence of a solution
    is not a disproof of divisor containment, only of this particular shape.
    """
    if f.degree != 3 or any(q.degree != 2 for q in quadrics) or len(quadrics) != 3:
        raise ValueError("expected a cubic, three quadrics and the surface")
    field = f.field
    # unknowns: 4 coefficients per linear form, then the constant
    gens: list[TowerPolynomial] = []
    for q in quadrics:
        for var in _linear_monomials():
            gens.append(TowerPolynomial(field, {var: field.one}) * q)
    gens.append(F)
    monos = sorted(set().union(*[set(g.terms) for g in gens], set(f.terms)))
    rows = [[g.coefficient(m) for g in gens] for m in monos]
    rhs = [f.coefficient(m) for m in monos]
    sol = _solve_eisenstein(rows, rhs)
    if sol is None:
        return None
    linears = []
    for qi in range(3):
        coeffs = sol[4 * qi:4 * qi + 4]
        linears.append(TowerPolynomial(field,
                                       {v: c for v, c in zip(_linear_monomials(), coeffs)},
                                       1))
    return linears[0], linears[1], linears[2], sol[12]


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

