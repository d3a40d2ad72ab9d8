"""Cohomology of finite groups acting on finitely generated integer modules.

Modules are presented uniformly as an ambient lattice Z^rank together with a
relation lattice, so quotients like Z^27 modulo a rank-20 relation lattice
need no special casing.  Cochains live on the normalized bar resolution
(values on tuples containing the identity vanish), which keeps the cochain
spaces small enough that kernels of the differentials can be streamed through
integer column elimination.  H^1 of a direct sum of cyclic groups, every
Galois group of a diagonal cubic among them, is taken on the much smaller
Koszul complex of that sum and returned as bar cocycles.

Beyond the plain cohomology groups the module provides what the descent
computation actually consumes: explicit cocycle representatives, coboundary
solving (degrees one and two, plus normalized degree three), the connecting
homomorphism of a short exact sequence of modules, invariant submodules with
the induced quotient-group action, and the two-periodic complex of a cyclic
group together with the comparison maps into the bar complex.  Each module
owns one layer of reduced (Smith normal form) coordinates, built once per
relation lattice, and the action in them.  Every membership test reads
them: the checks on the action, both resolutions, the exact-sequence checks
and the invariant submodule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, product
from math import prod
from operator import add
from typing import Iterable, Mapping, Optional, Sequence

from .exactlin import (
    AbelianGroupStructure,
    ColumnReduction,
    IntMatrix,
    LatticeEchelon,
    Vector,
    smith_normal_form,
    sparse_rows,
    subquotient_structure,
)


# ----------------------------------------------------------------- groups

@dataclass(frozen=True)
class FiniteGroup:
    """Multiplication table of a finite group; element 0 is the identity."""

    order: int
    table: tuple[tuple[int, ...], ...]
    generators: tuple[int, ...] = ()

    def __post_init__(self):
        n = self.order
        if len(self.table) != n or any(len(r) != n for r in self.table):
            raise ValueError("table must be n x n")
        for i in range(n):
            if self.table[0][i] != i or self.table[i][0] != i:
                raise ValueError("element 0 is not an identity")
        inv = [None] * n
        for i in range(n):
            for j in range(n):
                if self.table[i][j] == 0:
                    inv[i] = j
            if inv[i] is None:
                raise ValueError(f"element {i} has no inverse")
        if n <= 64:
            for a in range(n):
                for b in range(n):
                    ab = self.table[a][b]
                    for c in range(n):
                        if self.table[ab][c] != self.table[a][self.table[b][c]]:
                            raise ValueError("table is not associative")
        gens = self.generators or tuple(range(1, n))
        if 1 + sum(1 for _ in _cayley_walk(self, gens)) != n:
            raise ValueError("generators do not generate the group")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_inverse", tuple(inv))

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inverse(self, a: int) -> int:
        return self._inverse[a]

    def is_subgroup(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        if 0 not in s:
            return False
        return all(self.table[a][b] in s for a in s for b in s)

    def is_normal(self, elems: Iterable[int]) -> bool:
        s = set(elems)
        if not self.is_subgroup(s):
            return False
        return all(self.table[self.table[g][h]][self.inverse(g)] in s
                   for g in range(self.order) for h in s)

    def quotient(self, elems: Iterable[int]) -> tuple["FiniteGroup", tuple[int, ...]]:
        """Quotient by a normal subgroup; returns (G/H, coset index of each g)."""
        s = frozenset(elems)
        if not self.is_normal(s):
            raise ValueError("subgroup is not normal")
        coset_of = [None] * self.order
        reps: list[int] = []
        for g in range(self.order):
            if coset_of[g] is None:
                idx = len(reps)
                reps.append(g)
                for h in s:
                    coset_of[self.table[g][h]] = idx
        m = len(reps)
        table = tuple(tuple(coset_of[self.table[reps[i]][reps[j]]] for j in range(m))
                      for i in range(m))
        gens = []
        for g in self.generators:
            c = coset_of[g]
            if c != 0 and c not in gens:
                gens.append(c)
        if not gens and m > 1:
            gens = list(range(1, m))
        q = FiniteGroup(m, table, tuple(gens))
        return q, tuple(coset_of)


def cyclic_group(n: int) -> FiniteGroup:
    table = tuple(tuple((a + b) % n for b in range(n)) for a in range(n))
    return FiniteGroup(n, table, (1,) if n > 1 else ())


def _cayley_walk(group: FiniteGroup, gens: Sequence[int]):
    """The Cayley graph walked from the identity by left multiplication:
    (s, h, s h) for each element s h at the step that first reaches it."""
    seen = {0}
    frontier = [0]
    while frontier:
        h = frontier.pop()
        for s in gens:
            sh = group.mul(s, h)
            if sh not in seen:
                seen.add(sh)
                frontier.append(sh)
                yield s, h, sh


def group_closure(generators: Sequence, cap: int = 10_000) -> FiniteGroup:
    """Close permutation tuples or integer matrices under composition.

    >>> group_closure([(1, 2, 0)]).order
    3
    >>> group_closure([]).order
    1
    """
    gens = []
    kind = None
    for g in generators:
        if isinstance(g, IntMatrix):
            this = "matrix"
        elif g and isinstance(g[0], (list, tuple)):
            g = IntMatrix.from_rows(g)
            this = "matrix"
        else:
            g = tuple(int(x) for x in g)
            if sorted(g) != list(range(len(g))):
                raise ValueError(f"not a permutation: {g}")
            this = "perm"
        if kind is None:
            kind = this
        elif kind != this:
            raise ValueError("mixed generator kinds")
        gens.append(g)

    if kind == "matrix" or kind is None and not gens:
        n = gens[0].rows if gens else 1
        ident = IntMatrix.identity(n) if gens else None

        def compose(a, b):
            return a @ b

        def key(m):
            return m.entries
    else:
        n = len(gens[0])
        if any(len(g) != n for g in gens):
            raise ValueError("permutation degrees differ")
        ident = tuple(range(n))

        def compose(a, b):
            return tuple(a[b[i]] for i in range(n))

        def key(p):
            return p

    if not gens:
        return FiniteGroup(1, ((0,),), ())
    elements = [ident]
    index = {key(ident): 0}
    frontier = [ident]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = compose(g, x)
            k = key(y)
            if k not in index:
                if len(elements) >= cap:
                    raise ValueError(f"group order exceeds cap {cap}")
                index[k] = len(elements)
                elements.append(y)
                frontier.append(y)
    m = len(elements)
    table = tuple(tuple(index[key(compose(elements[i], elements[j]))] for j in range(m))
                  for i in range(m))
    gen_idx = []
    for g in gens:
        i = index[key(g)]
        if i != 0 and i not in gen_idx:
            gen_idx.append(i)
    return FiniteGroup(m, table, tuple(gen_idx))


# ----------------------------------------------------------------- modules

class GIntModule:
    """Z^rank / relations with a G-action by integer matrices on the ambient.

    The module owns its reduced (Smith normal form) coordinates `red` and
    the action in them, `act`, and every membership test reads them: a
    vector is zero in the module when its reduced coordinates are.  The
    action must fix the relation lattice and be multiplicative modulo it;
    both are verified at construction (multiplicativity on generator times
    everything, which propagates).
    """

    def __init__(self, group: FiniteGroup, rank: int,
                 relations: Sequence[Sequence[int]],
                 action: Sequence[IntMatrix]):
        self.group = group
        self.rank = rank
        self.relations = tuple(tuple(int(x) for x in r) for r in relations)
        self.action = tuple(action)
        if any(len(r) != rank for r in self.relations):
            raise ValueError("relation length differs from rank")
        if len(self.action) != group.order:
            raise ValueError("need one action matrix per group element")
        for a in self.action:
            if a.rows != rank or a.cols != rank:
                raise ValueError("action matrices must be rank x rank")
        if self.action[0] != IntMatrix.identity(rank):
            raise ValueError("identity must act as the identity matrix")
        self.red = red = _reduced(rank, self.relations)
        self._relation_columns = IntMatrix.from_rows(self.relations, cols=rank).transpose()
        ua = [red.u @ a for a in self.action]
        # (u a) R = u (a R): the preservation test of `preserves`, reusing u a
        if not all(red.vanishes(m @ self._relation_columns) for m in ua):
            raise ValueError("action does not preserve the relations")
        self.act = tuple(m @ red.uinv for m in ua)
        for g in group.generators:
            for h in range(group.order):
                if not red.vanishes(self.act[g] @ ua[h] - ua[group.mul(g, h)]):
                    raise ValueError("action is not multiplicative modulo relations")

    def is_zero(self, v: Sequence[int]) -> bool:
        return not any(self.red.to_red(v))

    def kills(self, m: IntMatrix) -> bool:
        """Whether every column of m (rank rows) is zero in the module."""
        return self.red.vanishes(self.red.u @ m)

    def preserves(self, a: IntMatrix) -> bool:
        """Whether the rank x rank matrix a maps the relations into themselves."""
        return self.kills(a @ self._relation_columns)


def action_from_generators(group: FiniteGroup, rank: int,
                           gen_matrices: Mapping[int, IntMatrix]) -> list[IntMatrix]:
    """Propagate generator matrices to every element along the Cayley graph."""
    mats: list[Optional[IntMatrix]] = [None] * group.order
    mats[0] = IntMatrix.identity(rank)
    for s, h, sh in _cayley_walk(group, list(gen_matrices)):
        mats[sh] = gen_matrices[s] @ mats[h]
    if any(m is None for m in mats):
        raise ValueError("generator matrices do not cover the group")
    return mats


@dataclass(frozen=True)
class Cochain:
    """Total assignment of module vectors to d-tuples of group elements."""

    degree: int
    values: Mapping[tuple[int, ...], Vector]

    def value(self, t: Sequence[int]) -> Vector:
        return self.values[tuple(t)]

    def __add__(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Cochain(self.degree, {t: tuple(a + b for a, b in zip(v, other.values[t]))
                                     for t, v in self.values.items()})

    def __sub__(self, other: "Cochain") -> "Cochain":
        return self + other.scale(-1)

    def scale(self, k: int) -> "Cochain":
        return Cochain(self.degree, {t: tuple(k * x for x in v)
                                     for t, v in self.values.items()})


def zero_cochain(group: FiniteGroup, rank: int, degree: int) -> Cochain:
    z = (0,) * rank
    return Cochain(degree, {t: z for t in product(range(group.order), repeat=degree)})


def apply_differential(group: FiniteGroup, module: GIntModule, c: Cochain) -> Cochain:
    """Bar differential on total cochains, exact on ambient coordinates."""
    d = c.degree
    out = {}
    for t in product(range(group.order), repeat=d + 1):
        acc = list(module.action[t[0]].apply(c.value(t[1:])))
        sign = -1
        for i in range(d):
            merged = t[:i] + (group.mul(t[i], t[i + 1]),) + t[i + 2:]
            for j, x in enumerate(c.value(merged)):
                acc[j] += sign * x
            sign = -sign
        for j, x in enumerate(c.value(t[:d])):
            acc[j] += sign * x
        out[t] = tuple(acc)
    return Cochain(d + 1, out)


def is_cocycle(group: FiniteGroup, module: GIntModule, c: Cochain) -> bool:
    dc = apply_differential(group, module, c)
    return all(module.is_zero(v) for v in dc.values.values())


# ------------------------------------------------- reduced coordinates

@dataclass(frozen=True)
class _Reduced:
    """Smith-normal-form coordinates for Z^rank/relations.

    Slots with invariant factor 1 are dropped; what remains is a list of
    moduli (0 for free slots) and the transfer maps in both directions: u
    holds the rows of U for the kept slots (ambient -> reduced), uinv the
    matching columns of U^-1 (reduced -> ambient).  Vectors over several
    blocks of reduced coordinates, as cochains are, carry slot k % n in
    coordinate k.
    """

    rank: int
    u: IntMatrix
    uinv: IntMatrix
    moduli: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.moduli)

    def vanishes(self, m: IntMatrix) -> bool:
        """Whether every column of m, a matrix in reduced coordinates, is zero
        in the quotient: row k modulo moduli[k]."""
        return all(not (x % q if q else x)
                   for k, q in enumerate(self.moduli) for x in m.row(k))

    def to_red(self, v: Sequence[int]) -> Vector:
        return tuple(x % m if m else x for x, m in zip(self.u.apply(v), self.moduli))

    def to_amb(self, red: Sequence[int]) -> Vector:
        return self.uinv.apply(red)

    def kernel(self, rows: Iterable[dict[int, int]], ncols: int) -> list[Vector]:
        """Basis of the integer c with row_k . c = 0 mod moduli[k % n], the
        rows sparse: one `ColumnReduction` pass over the ncols columns, so a
        torsion-free module takes the plain integer kernel."""
        cr = ColumnReduction(ncols)
        n, moduli = self.n, self.moduli
        for k, row in enumerate(rows):
            cr.feed(row, moduli[k % n])
        return cr.kernel()

    def subquotient(self, rows: Iterable[dict[int, int]], ncols: int,
                    image: Iterable[Sequence[int]]) -> tuple[AbelianGroupStructure, list[Vector]]:
        """(kernel of the rows)/(image + torsion columns): the structure and
        representatives of its generators."""
        return subquotient_structure(self.kernel(rows, ncols),
                                     list(image) + self.torsion_columns(ncols))

    def cyclic_operators(self, act: IntMatrix, n: int) -> tuple[IntMatrix, IntMatrix]:
        """act - 1 and the norm 1 + act + ... + act^(n-1) for a generator of
        order n acting by the square matrix act in reduced coordinates (a
        module's `act`, or u tau uinv).  Only reduced matrices are
        multiplied; act^n must be the identity modulo the moduli."""
        ident = IntMatrix.identity(self.n)
        power, norm = ident, IntMatrix.zero(self.n, self.n)
        for _ in range(n):
            norm = norm + power
            power = power @ act
        if not self.vanishes(power - ident):
            raise ValueError("tau^n is not the identity on the quotient")
        return act - ident, norm

    def torsion_columns(self, ncols: int) -> list[Vector]:
        """The vectors moduli[k % n] * e_k: zero in the quotient."""
        n = self.n
        return [tuple(self.moduli[k % n] if i == k else 0 for i in range(ncols))
                for k in range(ncols) if self.moduli[k % n]]

    def cochains(self, group: FiniteGroup, d: int,
                 vectors: Iterable[Sequence[int]]) -> tuple[Cochain, ...]:
        """Normalized d-cochains with ambient values from block vectors."""
        n = self.n
        idx = {t: i for i, t in enumerate(_tuples(group, d))}
        zero = (0,) * self.rank
        return tuple(
            Cochain(d, {t: zero if 0 in t else self.to_amb(vec[idx[t] * n:idx[t] * n + n])
                        for t in product(range(group.order), repeat=d)})
            for vec in vectors)


@lru_cache(maxsize=64)
def _reduced(rank: int, relations: tuple[Vector, ...]) -> _Reduced:
    if not relations:
        ident = IntMatrix.identity(rank)
        return _Reduced(rank, ident, ident, (0,) * rank)
    snf = smith_normal_form(IntMatrix.from_rows(relations).transpose())
    diag = [snf.d.at(i, i) if i < min(rank, len(relations)) else 0 for i in range(rank)]
    kept = [i for i in range(rank) if diag[i] != 1]
    u = IntMatrix.from_rows([snf.u.row(i) for i in kept], cols=rank)
    uinv = IntMatrix.from_rows([[snf.uinv.at(i, j) for j in kept] for i in range(rank)],
                               cols=len(kept))
    return _Reduced(rank, u, uinv, tuple(diag[i] for i in kept))


def _tuples(group: FiniteGroup, d: int) -> list[tuple[int, ...]]:
    return list(product(range(1, group.order), repeat=d))


class _BarComplex:
    """Sparse normalized bar differentials over the module's reduced
    coordinates."""

    def __init__(self, group: FiniteGroup, module: GIntModule):
        self.group = group
        self.red = module.red
        self.act = module.act

    def dim(self, d: int) -> int:
        return self.red.n * (self.group.order - 1) ** d

    def _index(self, d: int):
        tup = _tuples(self.group, d)
        return tup, {t: i for i, t in enumerate(tup)}

    def rows(self, d: int):
        """Equation rows of the differential C^d -> C^{d+1}, sparse; row k
        holds modulo moduli[k % n] (see `_Reduced.kernel`)."""
        g = self.group
        n = self.red.n
        dom, dom_idx = self._index(d)
        for t in _tuples(g, d + 1):
            base_terms: list[tuple[int, int]] = []  # (tuple block, sign)
            sign = -1
            for i in range(d):
                m = g.mul(t[i], t[i + 1])
                if m != 0:
                    merged = t[:i] + (m,) + t[i + 2:]
                    base_terms.append((dom_idx[merged] * n, sign))
                sign = -sign
            tail_block = dom_idx[t[1:]] * n if d else 0
            head_block = dom_idx[t[:d]] * n if d else 0
            act = self.act[t[0]]
            for s in range(n):
                row: dict[int, int] = {}
                arow = act.row(s)
                for j in range(n):
                    a = arow[j]
                    if a:
                        row[tail_block + j] = row.get(tail_block + j, 0) + a
                for block, sg in base_terms:
                    row[block + s] = row.get(block + s, 0) + sg
                row[head_block + s] = row.get(head_block + s, 0) + sign
                yield {k: v for k, v in row.items() if v}

    def image_columns(self, d: int) -> list[Vector]:
        """Images of the basis cochains of C^{d-1} under the differential:
        the columns of the matrix whose rows `rows(d - 1)` yields."""
        if d == 0:
            return []
        cols = [[0] * self.dim(d) for _ in range(self.dim(d - 1))]
        for r, row in enumerate(self.rows(d - 1)):
            for k, v in row.items():
                cols[k][r] = v
        return [tuple(c) for c in cols]


@dataclass(frozen=True)
class CohomologyResult:
    structure: AbelianGroupStructure
    generators: tuple[Cochain, ...]
    periodic_vectors: Optional[tuple[Vector, ...]] = None


def _koszul_orders(group: FiniteGroup) -> Optional[list[int]]:
    """The orders of the generators when G is the direct sum of the cyclic
    groups they generate: they commute pairwise and their orders multiply to
    |G|.  None otherwise."""
    gens, mul = group.generators, group.mul
    if any(mul(a, b) != mul(b, a) for a, b in combinations(gens, 2)):
        return None
    orders = []
    for s in gens:
        k, x = 1, s
        while x:
            k, x = k + 1, mul(s, x)
        orders.append(k)
    return orders if prod(orders) == group.order else None


def _koszul_h1(group: FiniteGroup, module: GIntModule,
               orders: Sequence[int]) -> CohomologyResult:
    """H^1 of the direct sum of the cyclic groups <s_i> of order n_i on its
    Koszul complex, in reduced coordinates, one block m_i per generator:
    Z^1 = {(m_i) : N_i m_i = 0, (s_i - 1) m_j = (s_j - 1) m_i} and
    B^1 = {((s_i - 1) m)_i}.  Each class returns as the normalized bar
    cocycle f(s h) = m_s + s f(h) along the Cayley walk."""
    red = module.red
    n = red.n
    gens = group.generators
    ops = [red.cyclic_operators(module.act[s], k) for s, k in zip(gens, orders)]
    # equation blocks of n rows each, so row k holds modulo moduli[k % n]
    rows = [{i * n + c: x for c, x in row.items()}
            for i, (_, norm) in enumerate(ops) for row in sparse_rows(norm)]
    for i, j in combinations(range(len(gens)), 2):
        for ri, rj in zip(sparse_rows(ops[i][0]), sparse_rows(ops[j][0])):
            row = {j * n + c: x for c, x in ri.items()}
            row.update((i * n + c, -x) for c, x in rj.items())
            rows.append(row)
    image = [tuple(x for d, _ in ops for x in d.column(c)) for c in range(n)]
    structure, reps = red.subquotient(rows, n * len(gens), image)
    cocycles = []
    for vec in reps:
        m = {s: vec[i * n:i * n + n] for i, s in enumerate(gens)}
        f = {0: (0,) * n}
        for s, h, sh in _cayley_walk(group, gens):
            f[sh] = tuple(map(add, m[s], module.act[s].apply(f[h])))
        cocycles.append(Cochain(1, {(g,): red.to_amb(f[g]) for g in range(group.order)}))
    return CohomologyResult(structure, tuple(cocycles))


def cohomology(group: FiniteGroup, module: GIntModule, i: int) -> CohomologyResult:
    """H^i(G, M) with explicit cocycle representatives.

    H^1 of a group that is the direct sum of the cyclic groups of its
    generators (they commute pairwise and their orders multiply to |G|) runs
    on the Koszul complex of that sum: every cyclic group and every subgroup
    of (Z/3)^3 given by an F_3 basis.  Every other group and degree runs on
    the normalized bar complex; both give bar cocycles.

    >>> g = cyclic_group(3)
    >>> m = GIntModule(g, 1, [], [IntMatrix.identity(1)] * 3)
    >>> str(cohomology(g, m, 2).structure)
    'Z/3'
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    red = module.red
    if red.n == 0:
        return CohomologyResult(AbelianGroupStructure(0, ()), ())
    if i == 1:
        orders = _koszul_orders(group)
        if orders is not None:
            return _koszul_h1(group, module, orders)
    bar = _BarComplex(group, module)
    structure, reps = red.subquotient(bar.rows(i), bar.dim(i), bar.image_columns(i))
    return CohomologyResult(structure, red.cochains(group, i, reps))


# ------------------------------------------------------------- coboundaries

def is_coboundary(group: FiniteGroup, module: GIntModule,
                  c: Cochain) -> Optional[Cochain]:
    """A (d-1)-cochain b with db = c modulo relations, or None.

    Degrees 1 and 2 accept arbitrary cocycles; degree 3 requires the input to
    be normalized (zero on tuples containing the identity), which is how all
    representatives produced by this module come.
    """
    d = c.degree
    if d < 1 or d > 3:
        raise ValueError("coboundary solving is supported in degrees 1..3")
    if not is_cocycle(group, module, c):
        raise ValueError("input cochain is not a cocycle")
    bar = _BarComplex(group, module)
    red = bar.red
    if red.n == 0:
        return zero_cochain(group, module.rank, d - 1)

    base = None
    work = c
    if d == 2:
        b0v = c.value((0, 0))
        base = Cochain(1, {(g,): b0v for g in range(group.order)})
        work = c - apply_differential(group, module, base)
    if d == 3:
        for t, v in c.values.items():
            if 0 in t and not module.is_zero(v):
                raise ValueError("degree-3 inputs must be normalized")

    cols = bar.image_columns(d)
    rhs = []
    for t in _tuples(group, d):
        rhs.extend(red.to_red(work.value(t)))
    x = LatticeEchelon(cols + red.torsion_columns(len(rhs)), len(rhs)).solve(rhs)
    if x is None:
        return None
    (b,) = red.cochains(group, d - 1, [x[:len(cols)]])
    if base is not None:
        b = b + base
    return b


# ------------------------------------------------------- exact sequences

class ModuleSES:
    """0 -> A -> B -> C -> 0 of G-modules, with the maps as integer matrices."""

    def __init__(self, a: GIntModule, b: GIntModule, c: GIntModule,
                 map_ab: IntMatrix, map_bc: IntMatrix):
        if not (a.group.table == b.group.table == c.group.table):
            raise ValueError("modules must share the group")
        if map_ab.rows != b.rank or map_ab.cols != a.rank:
            raise ValueError("A->B map has wrong shape")
        if map_bc.rows != c.rank or map_bc.cols != b.rank:
            raise ValueError("B->C map has wrong shape")
        if not c.kills(map_bc @ map_ab):
            raise ValueError("composition A->B->C is nonzero")
        # injectivity of A->B modulo relations
        for v in b.red.kernel(sparse_rows(b.red.u @ map_ab), a.rank):
            if not a.is_zero(v):
                raise ValueError("A->B is not injective modulo relations")
        # each map's columns followed by the target's relations: solving
        # in this lattice lifts through the map modulo relations
        self._ab = LatticeEchelon(
            [map_ab.column(j) for j in range(a.rank)] + list(b.relations), b.rank)
        self._bc = LatticeEchelon(
            [map_bc.column(j) for j in range(b.rank)] + list(c.relations), c.rank)
        # surjectivity of B->C modulo relations
        for i in range(c.rank):
            if not self._bc.contains([1 if k == i else 0 for k in range(c.rank)]):
                raise ValueError("B->C is not surjective modulo relations")
        # G-equivariance of both maps
        for g in a.group.generators:
            if not b.kills(b.action[g] @ map_ab - map_ab @ a.action[g]):
                raise ValueError("A->B is not equivariant")
            if not c.kills(c.action[g] @ map_bc - map_bc @ b.action[g]):
                raise ValueError("B->C is not equivariant")
        self.a, self.b, self.c = a, b, c
        self.map_ab, self.map_bc = map_ab, map_bc

    def lift_bc(self, v: Sequence[int]) -> Vector:
        x = self._bc.solve(v)
        if x is None:
            raise ArithmeticError("value does not lift through B->C")
        return x[:self.b.rank]

    def pull_ab(self, v: Sequence[int]) -> Vector:
        x = self._ab.solve(v)
        if x is None:
            raise ArithmeticError("value is not in the image of A->B")
        return x[:self.a.rank]


def connecting_homomorphism(ses: ModuleSES, c: Cochain) -> Cochain:
    """delta of an i-cocycle over C: an (i+1)-cocycle over A.

    Lift values through B->C, apply the bar differential over B, pull the
    result back through A->B.  The class of the output is independent of the
    choices; the cochain itself is not.
    """
    if not is_cocycle(ses.a.group, ses.c, c):
        raise ValueError("input is not a cocycle over C")
    lift = Cochain(c.degree, {t: ses.lift_bc(v) for t, v in c.values.items()})
    db = apply_differential(ses.a.group, ses.b, lift)
    return Cochain(db.degree, {t: ses.pull_ab(v) for t, v in db.values.items()})


# ------------------------------------------------------------- invariants

@dataclass(frozen=True)
class InvariantsModule:
    module: GIntModule          # over the quotient group G/H
    inclusion: IntMatrix        # M^H ambient -> M ambient
    quotient: FiniteGroup
    coset_of: tuple[int, ...]


def invariants_module(module: GIntModule, subgroup: Iterable[int]) -> InvariantsModule:
    """M^H with its G/H action, for H normal in G."""
    g = module.group
    h = sorted(set(subgroup))
    if not g.is_normal(h):
        raise ValueError("subgroup is not normal")
    rank = module.rank
    rels = module.relations
    red = module.red
    # the preimage of M^H: v with u (a_x - 1) v = 0 in reduced coordinates
    # for every x in H, the blocks of rows stacked
    ident = IntMatrix.identity(rank)
    rows = [row for x in h if x != 0
            for row in sparse_rows(red.u @ (module.action[x] - ident))]
    basis = red.kernel(rows, rank)
    inv_rank = len(basis)
    quotient, coset_of = g.quotient(h)
    if inv_rank == 0:
        m = GIntModule(quotient, 0, [], [IntMatrix.identity(0)] * quotient.order)
        return InvariantsModule(m, IntMatrix.zero(rank, 0), quotient, coset_of)
    zb = IntMatrix.from_rows(basis).transpose()
    lattice = LatticeEchelon(basis, rank)

    def coords(v: Sequence[int]) -> Vector:
        x = lattice.solve(v)
        if x is None:
            raise ArithmeticError("vector claimed invariant is outside the sublattice")
        return x

    new_rels = [coords(r) for r in rels]
    reps = [None] * quotient.order
    for x in range(g.order):
        if reps[coset_of[x]] is None:
            reps[coset_of[x]] = x
    new_action = []
    for q in range(quotient.order):
        a = module.action[reps[q]]
        new_action.append(IntMatrix.from_rows([coords(a.apply(b)) for b in basis]).transpose())
    m = GIntModule(quotient, inv_rank, new_rels, new_action)
    return InvariantsModule(m, zb, quotient, coset_of)


# ----------------------------------------------------------------- cyclic

def cyclic_cohomology(tau: IntMatrix, n: int, module: GIntModule,
                      i: int) -> CohomologyResult:
    """H^i of the order-n cyclic group via the two-periodic complex.

    The complex alternates between tau - 1 and the norm 1 + tau + ... +
    tau^(n-1); representatives are single module vectors, returned both as
    such and as bar-resolution cochains through the standard comparison maps.
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    if i > 3:
        raise ValueError("bar representatives are provided for degrees 0..3")
    rank = module.rank
    if tau.rows != rank or tau.cols != rank:
        raise ValueError("action matrix has wrong shape")
    if not module.preserves(tau):
        raise ValueError("tau does not preserve the relations")
    red = module.red
    rd, rn = red.cyclic_operators(red.u @ tau @ red.uinv, n)
    if red.n == 0:
        return CohomologyResult(AbelianGroupStructure(0, ()), (), ())
    # H^0 = ker(tau - 1); odd i: ker(N)/im(tau - 1); even i > 0: ker(tau - 1)/im(N)
    kmat, imat = (rn, rd) if i % 2 else (rd, rn)
    image = [imat.column(j) for j in range(red.n)] if i else []
    structure, reps = red.subquotient(sparse_rows(kmat), red.n, image)
    amb_reps = [red.to_amb(r) for r in reps]

    def sigma(a: int, v: Vector) -> Vector:
        # v + tau v + ... + tau^(a-1) v
        acc = [0] * rank
        for _ in range(a):
            acc = [x + y for x, y in zip(acc, v)]
            v = tau.apply(v)
        return tuple(acc)

    zero = (0,) * rank
    gens = []
    for v in amb_reps:
        if i == 0:
            gens.append(Cochain(0, {(): v}))
        elif i == 1:
            gens.append(Cochain(1, {(a,): sigma(a, v) for a in range(n)}))
        elif i == 2:
            gens.append(Cochain(2, {(a, b): v if a + b >= n else zero
                                    for a in range(n) for b in range(n)}))
        else:
            gens.append(Cochain(3, {(a, b, cc): sigma(a, v) if b + cc >= n else zero
                                    for a in range(n) for b in range(n)
                                    for cc in range(n)}))
    return CohomologyResult(structure, tuple(gens), tuple(amb_reps))
