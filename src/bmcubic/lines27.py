"""The 27 lines of a diagonal cubic surface and the Galois module they span.

Over K = k(cbrt(b/a), cbrt(c/a), cbrt(d/a)), k = Q(zeta_3), the lines of
a x^3 + b y^3 + c z^3 + d t^3 = 0 fall into three families of nine:

    P1(r,s):  x + zeta^r cbrt(b/a) y = 0,   z + zeta^s cbrt(d/c) t = 0
    P2(r,s):  x + zeta^r cbrt(c/a) z = 0,   y + zeta^s cbrt(d/b) t = 0
    P3(r,s):  x + zeta^r cbrt(d/a) t = 0,   y + zeta^s cbrt(c/b) z = 0

with r, s in Z/3.  Two distinct lines meet exactly when

    same family:   r == r'  or  s == s'
    P1 vs P2:      r - s == r' - s'   (mod 3)
    P1 vs P3:      r + s == r' - s'   (mod 3)
    P2 vs P3:      r + s == r' + s'   (mod 3)

The rule is hardcoded here; the derivation (exact rank computation on the
defining linear forms over a radical tower) is replayed in the test suite,
which checks every pair for several coefficient choices.

An automorphism of K/k multiplies the three cube roots by powers
zeta^{g1}, zeta^{g2}, zeta^{g3} and consequently relabels lines by

    P1(r,s) -> P1(r + g1, s + g3 - g2)
    P2(r,s) -> P2(r + g2, s + g3 - g1)
    P3(r,s) -> P3(r + g3, s + g2 - g1)

The subgroup of (Z/3)^3 actually realized by a coefficient tuple is the
annihilator of the F_3 relations among the cube classes of b/a, c/a, d/a.
The free Z-span of the lines maps onto the Picard group of the split
surface with kernel the radical of the intersection form; the quotient is
free of rank 7 and carries the permutation action, which is all the input
the cohomology machinery needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Sequence

from .calibrate import (TowerElement, TowerField, _f3_rowspace,
                        cube_class_vector)
from .eisenstein import ZETA
from .exactlin import AbelianGroupStructure, IntMatrix, integer_kernel
from .groupcohom import (CohomologyResult, FiniteGroup, GIntModule,
                         cohomology)

Coeffs = tuple[int, int, int, int]
Triple = tuple[int, int, int]

FAMILY_NAMES = ("P1", "P2", "P3")


@dataclass(frozen=True, order=True)
class LineLabel:
    """One of the 27 lines: family in {0,1,2} plus the pair (r, s) mod 3."""

    family: int
    r: int
    s: int

    def __post_init__(self):
        if self.family not in (0, 1, 2):
            raise ValueError("family must be 0, 1 or 2")
        if not (0 <= self.r < 3 and 0 <= self.s < 3):
            raise ValueError("r and s must be reduced mod 3")

    def __str__(self) -> str:
        return f"{FAMILY_NAMES[self.family]}({self.r},{self.s})"


LABELS: tuple[LineLabel, ...] = tuple(
    LineLabel(f, r, s) for f in range(3) for r in range(3) for s in range(3))
LABEL_INDEX: dict[LineLabel, int] = {lab: i for i, lab in enumerate(LABELS)}


def incident(u: LineLabel, v: LineLabel) -> bool:
    """Whether two distinct lines meet; a line is not incident to itself."""
    if u == v:
        return False
    if u.family == v.family:
        return u.r == v.r or u.s == v.s
    a, b = (u, v) if u.family < v.family else (v, u)
    if (a.family, b.family) == (0, 1):
        return (a.r - a.s - b.r + b.s) % 3 == 0
    if (a.family, b.family) == (0, 2):
        return (a.r + a.s - b.r + b.s) % 3 == 0
    return (a.r + a.s - b.r - b.s) % 3 == 0


def line_forms(tower: TowerField, label: LineLabel) -> tuple[
        tuple[TowerElement, ...], tuple[TowerElement, ...]]:
    """The two defining linear forms as coefficient 4-vectors over (x,y,z,t).

    `tower` must adjoin the cube roots of b/a, c/a, d/a in that order; the
    forms for mixed radicals like cbrt(d/c) are expressed inside the same
    field via cbrt(d/c) = cbrt(d/a) cbrt(c/a)^2 * (a/c).
    """
    if tower.r != 3:
        raise ValueError("need the rank-3 splitting tower")
    alpha, gamma, delta = (tower.radical(i) for i in range(3))
    ba, ca, da = tower.radicands
    zr = tower.scalar(ZETA ** (label.r % 3))
    zs = tower.scalar(ZETA ** (label.s % 3))
    one, zero = tower.one, tower.zero
    if label.family == 0:
        ratio = delta * gamma * gamma * tower.scalar(1 / ca)
        return ((one, zr * alpha, zero, zero), (zero, zero, one, zs * ratio))
    if label.family == 1:
        ratio = delta * alpha * alpha * tower.scalar(1 / ba)
        return ((one, zero, zr * gamma, zero), (zero, one, zero, zs * ratio))
    ratio = gamma * alpha * alpha * tower.scalar(1 / ba)
    return ((one, zero, zero, zr * delta), (zero, one, zs * ratio, zero))


@dataclass(frozen=True)
class LineConfiguration:
    """Incidence and intersection data shared by every diagonal cubic;
    relations is a basis of the kernel of the Gram matrix."""

    labels: tuple[LineLabel, ...]
    incidence: IntMatrix
    gram: IntMatrix
    relations: tuple[tuple[int, ...], ...]

    def neighbors(self, label: LineLabel) -> tuple[LineLabel, ...]:
        i = LABEL_INDEX[label]
        return tuple(self.labels[j] for j in range(27)
                     if self.incidence.at(i, j))


@lru_cache(maxsize=1)
def line_configuration() -> LineConfiguration:
    inc = IntMatrix.from_rows(
        [[1 if incident(u, v) else 0 for v in LABELS] for u in LABELS])
    gram = IntMatrix.from_rows(
        [[inc.at(i, j) - (1 if i == j else 0) for j in range(27)]
         for i in range(27)])
    rels = integer_kernel(({j: x for j, x in enumerate(gram.row(i)) if x}
                           for i in range(27)), 27)
    return LineConfiguration(LABELS, inc, gram, tuple(rels))


def _validate_coeffs(coeffs: Sequence[int]) -> Coeffs:
    cs = tuple(coeffs)
    if len(cs) != 4 or not all(isinstance(x, int) and x != 0 for x in cs):
        raise ValueError("need four nonzero integer coefficients")
    return cs  # type: ignore[return-value]


def _f3_reduced_basis(rows: list[Triple]) -> tuple[Triple, ...]:
    """Reduced echelon basis of the span of `rows` in F_3^3: spanning sets
    of one subspace give the same tuple."""
    basis = [list(b) for b in _f3_rowspace(rows)]
    for b in basis:
        lead = next(i for i, x in enumerate(b) if x)
        inv = b[lead]  # x^-1 = x in F_3^*
        b[:] = [x * inv % 3 for x in b]
        for other in basis:
            if other is not b and other[lead]:
                c = other[lead]
                other[:] = [(x - c * y) % 3 for x, y in zip(other, b)]
    return tuple(tuple(b) for b in basis)  # type: ignore[misc]


@lru_cache(maxsize=None)
def _realized_subgroup(basis: tuple[Triple, ...]) -> tuple[
        tuple[Triple, ...], tuple[Triple, ...]]:
    """Elements of the span of a reduced basis and an echelon basis of its
    annihilator, the F_3 relations among the cube classes.  Keyed by the
    reduced basis, so at most one entry per subgroup of (Z/3)^3: 28."""
    elements = _span_triples(list(basis))
    rel_rows = [cand for cand in product(range(3), repeat=3)
                if any(cand) and all(
                    sum(c * row[i] for i, c in enumerate(cand)) % 3 == 0
                    for row in basis)]
    return elements, tuple(_f3_rowspace(rel_rows))


def _span_triples(basis: list[Triple]) -> tuple[Triple, ...]:
    out = set()
    for coeffs in product(range(3), repeat=len(basis)):
        v = [0, 0, 0]
        for c, b in zip(coeffs, basis):
            for i in range(3):
                v[i] = (v[i] + c * b[i]) % 3
        out.add(tuple(v))
    return tuple(sorted(out))


def _act_on_label(g: Triple, label: LineLabel) -> LineLabel:
    g1, g2, g3 = g
    if label.family == 0:
        return LineLabel(0, (label.r + g1) % 3, (label.s + g3 - g2) % 3)
    if label.family == 1:
        return LineLabel(1, (label.r + g2) % 3, (label.s + g3 - g1) % 3)
    return LineLabel(2, (label.r + g3) % 3, (label.s + g2 - g1) % 3)


@lru_cache(maxsize=None)
def _group_from_triples(triples: tuple[Triple, ...]) -> tuple[
        FiniteGroup, tuple[tuple[int, ...], ...]]:
    """FiniteGroup structure plus line permutations for a subgroup of (Z/3)^3.

    Element 0 is (0,0,0); permutations send label index i to the index of
    the image line.  Every permutation is checked to preserve incidence.
    Memoized: the result is immutable and (Z/3)^3 has only 28 subgroups.
    """
    elements = tuple(sorted(set(triples)))
    if elements[0] != (0, 0, 0):
        raise ValueError("subgroup must contain the identity")
    index = {t: i for i, t in enumerate(elements)}
    table = []
    for u in elements:
        row = []
        for v in elements:
            w = tuple((a + b) % 3 for a, b in zip(u, v))
            if w not in index:
                raise ValueError("triples are not closed under addition")
            row.append(index[w])
        table.append(tuple(row))
    basis = _f3_rowspace(list(elements))
    generators = tuple(index[b] for b in basis)
    group = FiniteGroup(len(elements), tuple(table), generators)
    inc = line_configuration().incidence
    perms = []
    for g in elements:
        perm = tuple(LABEL_INDEX[_act_on_label(g, lab)] for lab in LABELS)
        if sorted(perm) != list(range(27)):
            raise ValueError("action is not a permutation")
        for i in range(27):
            image_row = inc.row(perm[i])
            if inc.row(i) != tuple(image_row[j] for j in perm):
                raise ValueError("action does not preserve incidence")
        perms.append(perm)
    return group, tuple(perms)


@dataclass(frozen=True)
class GaloisData:
    """Galois group of the splitting tower acting on the 27 line labels."""

    coefficients: Coeffs
    elements: tuple[Triple, ...]
    cube_class_relations: tuple[Triple, ...]
    group: FiniteGroup
    permutations: tuple[tuple[int, ...], ...]


def galois_data(coeffs: Sequence[int]) -> GaloisData:
    """Realized subgroup of (Z/3)^3 for a coefficient tuple, with its action.

    >>> galois_data((5, 9, 10, 12)).group.order
    27
    >>> galois_data((1, 1, 1, 2)).group.order
    3
    >>> galois_data((1, 1, 1, 1)).group.order
    1
    """
    a, b, c, d = _validate_coeffs(coeffs)
    ratios = (Fraction(b, a), Fraction(c, a), Fraction(d, a))
    vecs = [cube_class_vector(q) for q in ratios]
    primes = sorted(set().union(*vecs))
    prime_rows: list[Triple] = [
        tuple(v.get(p, 0) for v in vecs) for p in primes]  # type: ignore[misc]
    elements, relations = _realized_subgroup(_f3_reduced_basis(prime_rows))
    group, perms = _group_from_triples(elements)
    return GaloisData((a, b, c, d), elements, relations, group, perms)


@dataclass(frozen=True)
class PicardPresentation:
    """Z^27 modulo the radical of the intersection form, as a Galois module."""

    galois: GaloisData
    relations: tuple[tuple[int, ...], ...]
    module: GIntModule
    hyperplane: tuple[int, ...]


@lru_cache(maxsize=None)
def _picard_module(elements: tuple[Triple, ...]) -> GIntModule:
    """Z^27 modulo the Gram kernel, the lines permuted by the subgroup with
    these elements.  Memoized like `_group_from_triples`: one module per
    subgroup, shared by `picard_presentation` and `h1_picard`."""
    group, perms = _group_from_triples(elements)
    action = []
    for perm in perms:
        entries = [0] * (27 * 27)
        for i, pi in enumerate(perm):
            entries[27 * pi + i] = 1
        action.append(IntMatrix(27, 27, tuple(entries)))
    return GIntModule(group, 27, line_configuration().relations, action)


def picard_presentation(galois: GaloisData) -> PicardPresentation:
    """Rank-7 Picard module of the split surface with the label action.

    The hyperplane class is the sum of three coplanar lines P1(0,*); it is
    fixed by the whole group modulo the relations.
    """
    module = _picard_module(galois.elements)
    hyper = tuple(1 if i < 3 else 0 for i in range(27))
    return PicardPresentation(galois, module.relations, module, hyper)


@lru_cache(maxsize=None)
def _h1_for_subgroup(elements: tuple[Triple, ...]) -> CohomologyResult:
    module = _picard_module(elements)
    return cohomology(module.group, module, 1)


def h1_picard(coeffs: Sequence[int]) -> CohomologyResult:
    """H^1 of the Galois group in the Picard module, cochains in Z^27.

    Results are cached by the realized subgroup, which determines the
    module up to equality; a full scan over a coefficient box therefore
    costs one cohomology run per distinct subgroup.

    >>> str(h1_picard((5, 9, 10, 12)).structure)
    'Z/3'
    """
    gal = galois_data(coeffs)
    return _h1_for_subgroup(gal.elements)


def _is_rational_cube(q: Fraction) -> bool:
    return not cube_class_vector(q)


def table_classification(coeffs: Sequence[int]) -> AbelianGroupStructure:
    """Closed-form value of H^1 from cube conditions on coefficient ratios.

    >>> str(table_classification((5, 9, 10, 12)))
    'Z/3'
    >>> str(table_classification((1, 1, 1, 2)))
    'Z/3 + Z/3'
    >>> str(table_classification((1, 1, 1, 1)))
    '0'
    """
    a, b, c, d = _validate_coeffs(coeffs)
    opposite = (Fraction(a * b, c * d), Fraction(a * c, b * d),
                Fraction(a * d, b * c))
    if any(_is_rational_cube(q) for q in opposite):
        return AbelianGroupStructure(0, ())
    pairwise = (Fraction(a, b), Fraction(a, c), Fraction(a, d),
                Fraction(b, c), Fraction(b, d), Fraction(c, d))
    if sum(1 for q in pairwise if _is_rational_cube(q)) == 3:
        return AbelianGroupStructure(0, (3, 3))
    return AbelianGroupStructure(0, (3,))
