"""Cohomology of finite groups acting on finitely generated integer modules.

Modules are presented uniformly as an ambient lattice Z^rank together with a
relation lattice, so quotients like Z^27 modulo a rank-20 relation lattice
need no special casing.  Cochains live on the normalized bar resolution
(values on tuples containing the identity vanish), which keeps the cochain
spaces small enough that kernels of the differentials can be streamed through
integer column elimination.

Beyond the plain cohomology groups the module provides what the descent
computation actually consumes: explicit cocycle representatives, coboundary
solving (degrees one and two, plus normalized degree three), the connecting
homomorphism of a short exact sequence of modules, invariant submodules with
the induced quotient-group action, and the two-periodic complex of a cyclic
group together with the comparison maps into the bar complex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping, Optional, Sequence

from .exactlin import (
    AbelianGroupStructure,
    ColumnReduction,
    IntMatrix,
    LatticeEchelon,
    Vector,
    integer_kernel,
    smith_normal_form,
    solve_linear_diophantine,
    subquotient_structure,
    _inverse_unimodular,
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
        seen = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[g][x]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        if len(seen) != n:
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

    The action must fix the relation lattice and be multiplicative modulo it;
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
        lat = LatticeEchelon(self.relations, rank)
        for a in self.action:
            for r in self.relations:
                if not lat.contains(a.apply(r)):
                    raise ValueError("action does not preserve the relations")
        for g in group.generators:
            ag = self.action[g]
            for h in range(group.order):
                prod_ = ag @ self.action[h]
                gh = self.action[group.mul(g, h)]
                for j in range(rank):
                    diff = [prod_.at(i, j) - gh.at(i, j) for i in range(rank)]
                    if any(diff) and not lat.contains(diff):
                        raise ValueError("action is not multiplicative modulo relations")
        self.relation_lattice = lat

    def reduce_mod_relations(self, v: Sequence[int]) -> Vector:
        return self.relation_lattice.reduce(v)

    def is_zero(self, v: Sequence[int]) -> bool:
        return self.relation_lattice.contains(v)


def action_from_generators(group: FiniteGroup, rank: int,
                           gen_matrices: Mapping[int, IntMatrix]) -> list[IntMatrix]:
    """Propagate generator matrices to every element along the Cayley graph."""
    mats: list[Optional[IntMatrix]] = [None] * group.order
    mats[0] = IntMatrix.identity(rank)
    frontier = [0]
    while frontier:
        i = frontier.pop()
        for g, mg in gen_matrices.items():
            j = group.mul(g, i)
            if mats[j] is None:
                mats[j] = mg @ mats[i]
                frontier.append(j)
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

class _Reduced:
    """Smith-normal-form coordinates for Z^rank/relations.

    Slots with invariant factor 1 are dropped; what remains is a list of
    moduli (0 for free slots) and transfer maps in both directions.
    """

    def __init__(self, module: GIntModule):
        self.module = module
        rank = module.rank
        rels = module.relations
        if not rels:
            self.u = self.uinv = IntMatrix.identity(rank)
            self.kept = list(range(rank))
            self.moduli = (0,) * rank
        else:
            rc = IntMatrix.from_rows([[r[i] for r in rels] for i in range(rank)],
                                     cols=len(rels))
            snf = smith_normal_form(rc)
            self.u = snf.u
            self.uinv = _inverse_unimodular(snf.u)
            diag = [snf.d.at(i, i) if i < min(rank, len(rels)) else 0 for i in range(rank)]
            self.kept = [i for i in range(rank) if diag[i] != 1]
            self.moduli = tuple(diag[i] for i in self.kept)
        self.n = len(self.kept)
        self.act = []
        for a in module.action:
            full = self.u @ a @ self.uinv
            self.act.append(tuple(tuple(full.at(i, j) for j in self.kept)
                                  for i in self.kept))

    def to_red(self, v: Sequence[int]) -> Vector:
        y = self.u.apply(v)
        return self.norm(tuple(y[i] for i in self.kept))

    def to_amb(self, red: Sequence[int]) -> Vector:
        out = [0] * self.module.rank
        for j, x in enumerate(red):
            if x:
                col = self.uinv.column(self.kept[j])
                for i in range(self.module.rank):
                    out[i] += x * col[i]
        return tuple(out)

    def norm(self, red: Sequence[int]) -> Vector:
        return tuple(x % m if m else x for x, m in zip(red, self.moduli))

    def act_apply(self, g: int, red: Sequence[int]) -> Vector:
        rows = self.act[g]
        return self.norm(tuple(sum(r[j] * red[j] for j in range(self.n)) for r in rows))


def _tuples(group: FiniteGroup, d: int) -> list[tuple[int, ...]]:
    return list(product(range(1, group.order), repeat=d))


class _BarComplex:
    """Sparse normalized bar differentials over reduced coordinates."""

    def __init__(self, group: FiniteGroup, red: _Reduced):
        self.group = group
        self.red = red

    def dim(self, d: int) -> int:
        return self.red.n * (self.group.order - 1) ** d

    def _index(self, d: int):
        tup = _tuples(self.group, d)
        return tup, {t: i for i, t in enumerate(tup)}

    def rows(self, d: int):
        """Equation rows of the differential C^d -> C^{d+1}, sparse.

        Yields (row, modulus) pairs: the equation is 'row . c = 0 mod modulus'
        (modulus 0 means exact).
        """
        g = self.group
        red = self.red
        n = red.n
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
            act = red.act[t[0]]
            for s in range(n):
                row: dict[int, int] = {}
                arow = act[s]
                for j in range(n):
                    a = arow[j]
                    if a:
                        row[tail_block + j] = row.get(tail_block + j, 0) + a
                for block, sg in base_terms:
                    row[block + s] = row.get(block + s, 0) + sg
                row[head_block + s] = row.get(head_block + s, 0) + sign
                row = {k: v for k, v in row.items() if v}
                yield row, red.moduli[s]

    def kernel_basis(self, d: int) -> list[Vector]:
        """Basis of the lattice of d-cocycles (reduced coordinates)."""
        nc = self.dim(d)
        rows = list(self.rows(d))
        aux = [i for i, (_, m) in enumerate(rows) if m]
        aux_col = {i: nc + k for k, i in enumerate(aux)}
        cr = ColumnReduction(nc + len(aux))
        for i, (row, m) in enumerate(rows):
            if m:
                row = dict(row)
                row[aux_col[i]] = m
            cr.feed(row)
        ker = cr.kernel()
        if not aux:
            return [v for v in ker]
        lat = LatticeEchelon([v[:nc] for v in ker], nc)
        return [tuple(v) for v in lat.pivot_cols.values()]

    def image_columns(self, d: int) -> list[Vector]:
        """Images of the basis cochains of C^{d-1} under the differential."""
        if d == 0:
            return []
        g = self.group
        red = self.red
        n = red.n
        dom = _tuples(g, d - 1)
        cod, cod_idx = self._index(d)
        cols = [[0] * (n * len(cod)) for _ in range(n * len(dom))]
        dom_idx = {t: i for i, t in enumerate(dom)}
        for t in cod:
            block = cod_idx[t] * n
            act = red.act[t[0]]
            tail = t[1:]
            if tail in dom_idx:
                tb = dom_idx[tail] * n
                for s in range(n):
                    arow = act[s]
                    for j in range(n):
                        if arow[j]:
                            cols[tb + j][block + s] += arow[j]
            sign = -1
            for i in range(d - 1):
                m = g.mul(t[i], t[i + 1])
                if m != 0:
                    merged = t[:i] + (m,) + t[i + 2:]
                    mb = dom_idx[merged] * n
                    for s in range(n):
                        cols[mb + s][block + s] += sign
                sign = -sign
            head = t[:d - 1]
            if head in dom_idx:
                hb = dom_idx[head] * n
                for s in range(n):
                    cols[hb + s][block + s] += sign
        return [tuple(c) for c in cols]

    def lattice_columns(self, d: int) -> list[Vector]:
        """Generators of the torsion relations inside C^d coordinates."""
        n = self.red.n
        total = self.dim(d)
        out = []
        for i in range(total):
            m = self.red.moduli[i % n]
            if m:
                v = [0] * total
                v[i] = m
                out.append(tuple(v))
        return out


@dataclass(frozen=True)
class CohomologyResult:
    structure: AbelianGroupStructure
    generators: tuple[Cochain, ...]
    periodic_vectors: Optional[tuple[Vector, ...]] = None


def _result_cochains(group: FiniteGroup, red: _Reduced, d: int,
                     reps: list[Vector]) -> tuple[Cochain, ...]:
    n = red.n
    tup = _tuples(group, d)
    idx = {t: i for i, t in enumerate(tup)}
    zero = (0,) * red.module.rank
    out = []
    for rep in reps:
        vals = {}
        for t in product(range(group.order), repeat=d):
            if d == 0:
                vals[t] = red.to_amb(rep)
            elif 0 in t:
                vals[t] = zero
            else:
                block = idx[t] * n
                vals[t] = red.to_amb(rep[block:block + n])
        out.append(Cochain(d, vals))
    return tuple(out)


def cohomology(group: FiniteGroup, module: GIntModule, i: int) -> CohomologyResult:
    """H^i(G, M) with explicit cocycle representatives.

    >>> g = cyclic_group(3)
    >>> m = GIntModule(g, 1, [], [IntMatrix.identity(1)] * 3)
    >>> str(cohomology(g, m, 2).structure)
    'Z/3'
    """
    if i < 0:
        raise ValueError("degree must be nonnegative")
    red = _Reduced(module)
    bar = _BarComplex(group, red)
    if red.n == 0:
        return CohomologyResult(AbelianGroupStructure(0, ()), ())
    if i == 0:
        n = red.n
        aux_rows = []
        for g in group.generators:
            act = red.act[g]
            for s in range(n):
                row = {j: act[s][j] for j in range(n) if act[s][j]}
                row[s] = row.get(s, 0) - 1
                aux_rows.append(({k: v for k, v in row.items() if v}, red.moduli[s]))
        aux = [k for k, (_, m) in enumerate(aux_rows) if m]
        aux_col = {k: n + j for j, k in enumerate(aux)}
        cr = ColumnReduction(n + len(aux))
        for k, (row, m) in enumerate(aux_rows):
            if m:
                row = dict(row)
                row[aux_col[k]] = m
            cr.feed(row)
        ker = cr.kernel()
        if aux:
            lat = LatticeEchelon([v[:n] for v in ker], n)
            basis = [tuple(v) for v in lat.pivot_cols.values()]
        else:
            basis = ker
        lam = bar.lattice_columns(0)
        structure, reps, _ = subquotient_structure(basis, lam)
        return CohomologyResult(structure, _result_cochains(group, red, 0, reps))
    kernel = bar.kernel_basis(i)
    image = bar.image_columns(i) + bar.lattice_columns(i)
    structure, reps, _ = subquotient_structure(kernel, image)
    return CohomologyResult(structure, _result_cochains(group, red, i, reps))


# ------------------------------------------------------------- coboundaries

def is_coboundary(group: FiniteGroup, module: GIntModule,
                  c: Cochain) -> Optional[Cochain]:
    """A (d-1)-cochain b with db = c modulo relations, or None.

    Degrees 1 and 2 accept arbitrary cocycles; degree 3 requires the input to
    be normalized (zero on tuples containing the identity), which is how all
    representatives produced by this module come.
    """
    if not is_cocycle(group, module, c):
        raise ValueError("input cochain is not a cocycle")
    d = c.degree
    if d < 1 or d > 3:
        raise ValueError("coboundary solving is supported in degrees 1..3")
    red = _Reduced(module)
    n = red.n
    ng = group.order
    if n == 0:
        return zero_cochain(group, module.rank, d - 1)

    base = None
    work = c
    if d == 2:
        b0v = c.value((0, 0))
        base = Cochain(1, {(g,): b0v for g in range(ng)})
        work = c - apply_differential(group, module, base)
    if d == 3:
        for t, v in c.values.items():
            if 0 in t and not module.is_zero(v):
                raise ValueError("degree-3 inputs must be normalized")

    bar = _BarComplex(group, red)
    dom = _tuples(group, d - 1)
    cod = _tuples(group, d)
    dom_n = n * len(dom)
    cols = bar.image_columns(d)
    lam = bar.lattice_columns(d)
    rhs = []
    for t in cod:
        rhs.extend(red.to_red(work.value(t)))
    width = dom_n + len(lam)
    rows = []
    for k in range(len(rhs)):
        row = [col[k] for col in cols] + [l[k] for l in lam]
        rows.append(row)
    sol = solve_linear_diophantine(IntMatrix.from_rows(rows, cols=width), rhs)
    if sol is None:
        return None
    coeffs = sol[0][:dom_n]
    zero = (0,) * module.rank
    vals = {}
    dom_idx = {t: i for i, t in enumerate(dom)}
    for t in product(range(ng), repeat=d - 1):
        if 0 in t:
            vals[t] = zero
        else:
            block = dom_idx[t] * n
            vals[t] = red.to_amb(coeffs[block:block + n])
    b = Cochain(d - 1, vals)
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
        comp = map_bc @ map_ab
        for j in range(a.rank):
            if not c.is_zero(comp.column(j)):
                raise ValueError("composition A->B->C is nonzero")
        # injectivity of A->B modulo relations
        width = a.rank + len(b.relations)
        rows = []
        for i in range(b.rank):
            rows.append([map_ab.at(i, j) for j in range(a.rank)]
                        + [r[i] for r in b.relations])
        for v in integer_kernel(({j: x for j, x in enumerate(row) if x} for row in rows),
                                width):
            if not a.is_zero(v[:a.rank]):
                raise ValueError("A->B is not injective modulo relations")
        # surjectivity of B->C modulo relations
        for i in range(c.rank):
            e = [1 if k == i else 0 for k in range(c.rank)]
            if self._solve_through(map_bc, c.relations, e) is None:
                raise ValueError("B->C is not surjective modulo relations")
        # G-equivariance of both maps
        for g in a.group.generators:
            left = b.action[g] @ map_ab
            right = map_ab @ a.action[g]
            for j in range(a.rank):
                diff = [left.at(i, j) - right.at(i, j) for i in range(b.rank)]
                if not b.is_zero(diff):
                    raise ValueError("A->B is not equivariant")
            left = c.action[g] @ map_bc
            right = map_bc @ b.action[g]
            for j in range(b.rank):
                diff = [left.at(i, j) - right.at(i, j) for i in range(c.rank)]
                if not c.is_zero(diff):
                    raise ValueError("B->C is not equivariant")
        self.a, self.b, self.c = a, b, c
        self.map_ab, self.map_bc = map_ab, map_bc

    @staticmethod
    def _solve_through(m: IntMatrix, relations: Sequence[Vector],
                       target: Sequence[int]) -> Optional[Vector]:
        width = m.cols + len(relations)
        rows = [[m.at(i, j) for j in range(m.cols)] + [r[i] for r in relations]
                for i in range(m.rows)]
        sol = solve_linear_diophantine(IntMatrix.from_rows(rows, cols=width),
                                       list(target))
        return None if sol is None else sol[0][:m.cols]

    def lift_bc(self, v: Sequence[int]) -> Vector:
        x = self._solve_through(self.map_bc, self.c.relations, v)
        if x is None:
            raise ArithmeticError("value does not lift through B->C")
        return x

    def pull_ab(self, v: Sequence[int]) -> Vector:
        x = self._solve_through(self.map_ab, self.b.relations, v)
        if x is None:
            raise ArithmeticError("value is not in the image of A->B")
        return x


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
    nontriv = [x for x in h if x != 0]
    if not nontriv:
        basis = [tuple(1 if i == j else 0 for i in range(rank)) for j in range(rank)]
    else:
        width = rank + len(rels) * len(nontriv)
        rows = []
        for k, x in enumerate(nontriv):
            a = module.action[x]
            for i in range(rank):
                row = {j: a.at(i, j) for j in range(rank) if a.at(i, j)}
                row[i] = row.get(i, 0) - 1
                for ri, r in enumerate(rels):
                    col = rank + (k * len(rels) + ri)
                    if r[i]:
                        row[col] = -r[i]
                rows.append({kk: v for kk, v in row.items() if v})
        ker = integer_kernel(rows, width)
        lat = LatticeEchelon([v[:rank] for v in ker], rank)
        basis = [tuple(v) for v in lat.pivot_cols.values()]
    inv_rank = len(basis)
    quotient, coset_of = g.quotient(h)
    if inv_rank == 0:
        m = GIntModule(quotient, 0, [], [IntMatrix.from_rows([], cols=0)
                                         for _ in range(quotient.order)])
        return InvariantsModule(m, IntMatrix.from_rows([[] for _ in range(rank)], cols=0),
                                quotient, coset_of)
    zb = IntMatrix.from_rows([[basis[j][i] for j in range(inv_rank)] for i in range(rank)],
                             cols=inv_rank)

    def coords(v: Sequence[int]) -> Vector:
        sol = solve_linear_diophantine(zb, list(v))
        if sol is None:
            raise ArithmeticError("vector claimed invariant is outside the sublattice")
        return sol[0]

    new_rels = [coords(r) for r in rels]
    reps = [None] * quotient.order
    for x in range(g.order):
        if reps[coset_of[x]] is None:
            reps[coset_of[x]] = x
    new_action = []
    for q in range(quotient.order):
        a = module.action[reps[q]]
        cols = [coords(a.apply(b)) for b in basis]
        new_action.append(IntMatrix.from_rows(
            [[cols[j][i] for j in range(inv_rank)] for i in range(inv_rank)],
            cols=inv_rank))
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
    rank = module.rank
    if tau.rows != rank or tau.cols != rank:
        raise ValueError("action matrix has wrong shape")
    lat = module.relation_lattice
    for r in module.relations:
        if not lat.contains(tau.apply(r)):
            raise ValueError("tau does not preserve the relations")
    power = IntMatrix.identity(rank)
    norm_m = IntMatrix.zero(rank, rank)
    for _ in range(n):
        norm_m = IntMatrix.from_rows([[norm_m.at(a, b) + power.at(a, b)
                                       for b in range(rank)] for a in range(rank)])
        power = tau @ power
    ident = IntMatrix.identity(rank)
    for j in range(rank):
        diff = [power.at(a, j) - ident.at(a, j) for a in range(rank)]
        if not module.is_zero(diff):
            raise ValueError("tau^n is not the identity on the quotient")
    delta = IntMatrix.from_rows([[tau.at(a, b) - ident.at(a, b) for b in range(rank)]
                                 for a in range(rank)])
    if i < 0:
        raise ValueError("degree must be nonnegative")

    group = cyclic_group(n)
    # reuse the module's relation data; the reduced coordinates only depend on it
    red = _Reduced(GIntModule(cyclic_group(1), rank, module.relations,
                              [IntMatrix.identity(rank)]))
    if red.n == 0:
        return CohomologyResult(AbelianGroupStructure(0, ()), (), ())

    def red_matrix(m: IntMatrix):
        full = red.u @ m @ red.uinv
        return [[full.at(a, b) for b in red.kept] for a in red.kept]

    def kernel_of(mat) -> list[Vector]:
        nred = red.n
        rows = []
        for s in range(nred):
            row = {j: mat[s][j] for j in range(nred) if mat[s][j]}
            rows.append((row, red.moduli[s]))
        aux = [k for k, (_, m) in enumerate(rows) if m]
        aux_col = {k: nred + jj for jj, k in enumerate(aux)}
        cr = ColumnReduction(nred + len(aux))
        for k, (row, m) in enumerate(rows):
            if m:
                row = dict(row)
                row[aux_col[k]] = m
            cr.feed(row)
        ker = cr.kernel()
        if not aux:
            return ker
        l = LatticeEchelon([v[:nred] for v in ker], nred)
        return [tuple(v) for v in l.pivot_cols.values()]

    def image_of(mat) -> list[Vector]:
        nred = red.n
        return [tuple(mat[s][j] for s in range(nred)) for j in range(nred)]

    def torsion_cols() -> list[Vector]:
        out = []
        for s, m in enumerate(red.moduli):
            if m:
                v = [0] * red.n
                v[s] = m
                out.append(tuple(v))
        return out

    rd = red_matrix(delta)
    rn = red_matrix(norm_m)
    if i == 0:
        kernel, image = kernel_of(rd), []
    elif i % 2 == 1:
        kernel, image = kernel_of(rn), image_of(rd)
    else:
        kernel, image = kernel_of(rd), image_of(rn)
    structure, reps, _ = subquotient_structure(kernel, image + torsion_cols())
    amb_reps = [red.to_amb(r) for r in reps]

    def sigma(a: int, v: Vector) -> Vector:
        acc = [0] * rank
        p = IntMatrix.identity(rank)
        for _ in range(a):
            w = p.apply(v)
            for k in range(rank):
                acc[k] += w[k]
            p = tau @ p
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
        elif i == 3:
            gens.append(Cochain(3, {(a, b, cc): sigma(a, v) if b + cc >= n else zero
                                    for a in range(n) for b in range(n)
                                    for cc in range(n)}))
        else:
            raise ValueError("bar representatives are provided for degrees 0..3")
    return CohomologyResult(structure, tuple(gens), tuple(amb_reps))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
