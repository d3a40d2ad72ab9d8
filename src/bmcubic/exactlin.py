"""Exact linear algebra over the integers.

Everything in this module works with arbitrary-precision Python integers and
is fully deterministic: no floats, no randomized pivoting, no modular
shortcuts.  The four workhorses are

* :func:`smith_normal_form` -- ``U * M * V = D`` with ``U``, ``V`` unimodular
  and the diagonal of ``D`` a nonnegative divisibility chain ``d1 | d2 | ...``;
  ``U^-1`` comes with it, built from the inverses of the same row operations,
* :class:`ColumnReduction` (and :func:`integer_kernel`) -- the integer
  solutions of equations whose sparse rows are streamed in, each over Z or
  modulo an integer: a kernel modulo torsion is one pass,
* :class:`LatticeEchelon` -- a column echelon of the lattice spanned by
  some generators that keeps each pivot's coordinates in them (a pivot
  whose entries outgrow 64 bits is reduced modulo the later pivots):
  built once per lattice, it solves for the coordinates of any vector and
  gives a saturated basis of the relations among the generators,
* :func:`subquotient_structure` -- the abelian group (kernel lattice)/(image
  lattice) and representatives of its generators.  Cohomology of finite
  groups reduces to exactly this computation.

The pivot rule (smallest nonzero absolute value, ties broken by lowest
(row, col)) makes every output reproducible across runs and platforms.
Matrices here are desk scale, and two kernels read only nonzero entries: the
matrix product, which reads each row of its right factor once as (column,
value) pairs (the Galois action matrices are permutations, the relation
columns mostly zero), and the row-streaming kernel helper that the
cohomology code feeds sparse rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, mul, sub
from typing import Iterable, Optional, Sequence

Vector = tuple[int, ...]


def ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g.

    >>> ext_gcd(12, 18)
    (6, -1, 1)
    >>> ext_gcd(0, -5)
    (5, 0, -1)
    """
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major storage."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntMatrix":
        """Build a matrix from an iterable of equal-length rows.

        >>> IntMatrix.from_rows([[1, 2], [3, 4]]).entries
        (1, 2, 3, 4)
        """
        rows = [tuple(map(int, r)) for r in rows]
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0 if cols is None else cols
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), ncols, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @classmethod
    def zero(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vector:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def column(self, j: int) -> Vector:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(self.cols, self.rows,
                         tuple(self.at(i, j) for j in range(self.cols) for i in range(self.rows)))

    def _entrywise(self, other: "IntMatrix", op) -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in entrywise operation")
        return IntMatrix(self.rows, self.cols, tuple(map(op, self.entries, other.entries)))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        """Entrywise sum; `-` is the entrywise difference.  Shapes must agree.

        >>> a = IntMatrix.from_rows([[1, 2]])
        >>> (a + a).entries, (a - a).entries
        ((2, 4), (0, 0))
        >>> a - IntMatrix.zero(2, 1)
        Traceback (most recent call last):
        ...
        ValueError: shape mismatch in entrywise operation
        """
        return self._entrywise(other, add)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._entrywise(other, sub)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        """Matrix product, summed over the nonzero entries of both factors:
        each row of `other` is read once as its (column, value) pairs.

        >>> a = IntMatrix.from_rows([[1, 2], [3, 0]])
        >>> (a @ IntMatrix.from_rows([[0, 1], [1, 0]])).to_rows()
        [[2, 1], [0, 3]]
        >>> a @ IntMatrix.zero(3, 1)
        Traceback (most recent call last):
        ...
        ValueError: dimension mismatch in matrix product
        """
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        n, k, e = other.cols, self.cols, self.entries
        orows = [[(j, y) for j, y in enumerate(other.row(r)) if y] for r in range(k)]
        flat: list[int] = []
        for i in range(self.rows):
            acc = [0] * n
            for a, orow in zip(e[i * k:i * k + k], orows):
                if a:
                    for j, y in orow:
                        acc[j] += a * y
            flat += acc
        return IntMatrix(self.rows, n, tuple(flat))

    def apply(self, v: Sequence[int]) -> Vector:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("vector length does not match column count")
        n, e = self.cols, self.entries
        return tuple([sum(map(mul, e[i * n:i * n + n], v)) for i in range(self.rows)])

    def determinant(self) -> int:
        """Fraction-free Bareiss determinant.

        >>> IntMatrix.from_rows([[2, 4], [6, 8]]).determinant()
        -8
        """
        if self.rows != self.cols:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        a = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k]:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
                a[i][k] = 0
            prev = a[k][k]
        return sign * a[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.rows == self.cols and abs(self.determinant()) == 1


@dataclass(frozen=True)
class AbelianGroupStructure:
    """Finitely generated abelian group: Z^free_rank + sum of Z/d for d in torsion.

    Invariant factors are >= 2 and form an ascending divisibility chain, so
    two structures are equal iff the groups are isomorphic.

    >>> str(AbelianGroupStructure(0, (3,)))
    'Z/3'
    >>> str(AbelianGroupStructure(2, (2, 6)))
    'Z^2 + Z/2 + Z/6'
    """

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for d in self.torsion:
            if d < 2:
                raise ValueError("torsion invariants must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError("torsion invariants must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    def __str__(self) -> str:
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class SmithDecomposition:
    """U * M * V = D with U, V unimodular, D diagonal with a divisor chain;
    uinv is U^-1."""

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix
    uinv: IntMatrix

    @property
    def invariants(self) -> tuple[int, ...]:
        """Nonzero diagonal entries d1 | d2 | ... of D."""
        out = []
        for k in range(min(self.d.rows, self.d.cols)):
            e = self.d.at(k, k)
            if e:
                out.append(e)
        return tuple(out)

    @property
    def rank(self) -> int:
        return len(self.invariants)


def _min_abs_pivot(a: list[list[int]], k: int, nr: int, nc: int) -> Optional[tuple[int, int]]:
    # smallest |entry| in the active submatrix, ties by lowest (row, col)
    best = None
    best_abs = None
    for i in range(k, nr):
        ai = a[i]
        for j in range(k, nc):
            e = ai[j]
            if e:
                ae = abs(e)
                if best_abs is None or ae < best_abs:
                    best, best_abs = (i, j), ae
                    if ae == 1:
                        return best
    return best


def smith_normal_form(m: IntMatrix) -> SmithDecomposition:
    """Smith normal form with deterministic smallest-pivot selection.

    >>> s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    >>> [s.d.at(i, i) for i in range(2)]
    [2, 4]
    >>> (s.u @ IntMatrix.from_rows([[2, 4], [6, 8]]) @ s.v) == s.d
    True
    """
    nr, nc = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(nr).to_rows()
    v = IntMatrix.identity(nc).to_rows()
    # U^-1 stored by columns: each row operation on U is undone on the right
    uinv_cols = IntMatrix.identity(nr).to_rows()

    def row_op(i: int, j: int, q: int) -> None:
        # row_i -= q * row_j; on U^-1: col_j += q * col_i
        ai, aj = a[i], a[j]
        for t in range(nc):
            ai[t] -= q * aj[t]
        ui, uj = u[i], u[j]
        ci, cj = uinv_cols[i], uinv_cols[j]
        for t in range(nr):
            ui[t] -= q * uj[t]
            cj[t] += q * ci[t]

    def col_op(i: int, j: int, q: int) -> None:
        # col_i -= q * col_j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]
        uinv_cols[i], uinv_cols[j] = uinv_cols[j], uinv_cols[i]

    def swap_cols(i: int, j: int) -> None:
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]
        uinv_cols[i] = [-x for x in uinv_cols[i]]

    for k in range(min(nr, nc)):
        while True:
            loc = _min_abs_pivot(a, k, nr, nc)
            if loc is None:
                break
            pi, pj = loc
            if pi != k:
                swap_rows(k, pi)
            if pj != k:
                swap_cols(k, pj)
            p = a[k][k]
            dirty = False
            for i in range(k + 1, nr):
                if a[i][k]:
                    q = a[i][k] // p
                    row_op(i, k, q)
                    if a[i][k]:
                        dirty = True
            for j in range(k + 1, nc):
                if a[k][j]:
                    q = a[k][j] // p
                    col_op(j, k, q)
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue
            # enforce d_k | (remaining block) before moving on
            culprit = None
            for i in range(k + 1, nr):
                ai = a[i]
                for j in range(k + 1, nc):
                    if ai[j] % p:
                        culprit = i
                        break
                if culprit is not None:
                    break
            if culprit is None:
                break
            row_op(k, culprit, -1)  # row_k += row_culprit, creates a non-multiple in row k
        if a[k][k] < 0:
            negate_row(k)
    return SmithDecomposition(IntMatrix.from_rows(u, cols=nr),
                              IntMatrix.from_rows(a, cols=nc),
                              IntMatrix.from_rows(v, cols=nc),
                              IntMatrix.from_rows(uinv_cols, cols=nr).transpose())


class ColumnReduction:
    """Incremental integer column elimination against a stream of rows.

    Rows of a matrix are fed one at a time as sparse ``{col: coeff}`` maps,
    each with a modulus q (0 by default).  The object maintains integer
    column combinations forming a unimodular transform of the identity; a
    combination survives only if it pairs with every row fed so far to 0
    modulo that row's q.  Once all rows are in, the survivors are a basis of
    the lattice of integer solutions.  This streaming form is what makes the
    bar-resolution cochain complexes tractable: differentials there have at
    most a dozen nonzero entries per row.
    """

    def __init__(self, ncols: int):
        self.columns: list[list[int]] = [[1 if i == j else 0 for i in range(ncols)]
                                         for j in range(ncols)]

    def feed(self, row: dict[int, int], modulus: int = 0) -> None:
        """Keep the combinations c with row . c = 0 mod modulus.

        A nonzero modulus q enters as one more, zero column whose dot is q:
        the survivors then span the kernel of [dots | q], and dropping the
        zero column's coordinate is injective because q != 0, so the
        number of columns never changes.

        >>> cr = ColumnReduction(2)
        >>> cr.feed({0: 1, 1: 1}, 3)
        >>> cr.kernel()
        [(1, -1), (3, 0)]
        """
        if not row:
            return
        cols = self.columns
        items = list(row.items())
        dots = []
        for col in cols:
            s = 0
            for c, a in items:
                v = col[c]
                if v:
                    s += a * v
            dots.append(s)
        if modulus:
            cols.append([0] * len(cols[0]) if cols else [])
            dots.append(modulus)
        nz = [j for j, d in enumerate(dots) if d]
        if not nz:
            return
        # Euclid on the dots: unimodular column steps leave one nonzero dot
        # and keep the surviving columns small
        while len(nz) > 1:
            p = min(nz, key=lambda j: (abs(dots[j]), j))
            dp, cp = dots[p], cols[p]
            rest = []
            for j in nz:
                if j != p:
                    q = dots[j] // dp
                    cols[j] = [x - q * y for x, y in zip(cols[j], cp)]
                    dots[j] -= q * dp
                    if dots[j]:
                        rest.append(j)
            nz = rest + [p]
        cols.pop(nz[0])

    def kernel(self) -> list[Vector]:
        return [_positive_lead(c) for c in self.columns]


def _positive_lead(v: Sequence[int]) -> Vector:
    """v or -v, whichever has a positive first nonzero entry."""
    lead = next((x for x in v if x), 0)
    return tuple(-x for x in v) if lead < 0 else tuple(v)


def integer_kernel(rows: Iterable[dict[int, int]], ncols: int) -> list[Vector]:
    """Basis of the integer kernel of the matrix whose rows are streamed in.

    >>> integer_kernel([{0: 1, 1: 1}], 2)
    [(1, -1)]
    """
    red = ColumnReduction(ncols)
    for r in rows:
        red.feed(r)
    return red.kernel()


def sparse_rows(m: IntMatrix) -> Iterable[dict[int, int]]:
    """The rows of m as sparse {col: entry} maps, as `integer_kernel` takes them."""
    for i in range(m.rows):
        r = m.row(i)
        yield {j: x for j, x in enumerate(r) if x}


class LatticeEchelon:
    """Column echelon form of the lattice spanned by some generators, with
    each pivot's coordinates in the generators.

    Generators are inserted in order.  Each insertion step replaces a pivot
    w and the incoming vector v by two combinations through a 2 x 2 matrix
    of determinant 1 (from `ext_gcd`), and the same matrix acts on their
    coordinates.  A new or changed pivot with an entry beyond 64 bits is
    first reduced at every later pivot row modulo that pivot's leading
    entry, as in a Hermite form (Cohen, GTM 138, 2.4.2); without it the
    entries can double in size step after step, to 81,101 bits on 64
    generators of a torsion kernel.  A generator that reduces to zero
    leaves its coordinates as a relation; because every step is
    unimodular, the relations are a saturated basis of the integer kernel
    of the generator matrix, each with a positive leading entry.

    >>> lat = LatticeEchelon([(2, 0), (0, 2), (2, 2)], 2)
    >>> lat.contains((4, -2)), lat.contains((1, 0))
    (True, False)
    >>> lat.relations
    [(1, 1, -1)]
    """

    def __init__(self, vectors: Iterable[Sequence[int]], dim: int):
        self.dim = dim
        vectors = [[int(x) for x in v] for v in vectors]
        self.ngens = n = len(vectors)
        self.pivot_cols: dict[int, list[int]] = {}
        self.pivot_coords: dict[int, list[int]] = {}
        self.relations: list[Vector] = []
        for k, v in enumerate(vectors):
            self._insert(v, [1 if i == k else 0 for i in range(n)])

    def _insert(self, v: list[int], c: list[int]) -> None:
        cols, coords = self.pivot_cols, self.pivot_coords
        while True:
            r = next((i for i, x in enumerate(v) if x), None)
            if r is None:
                self.relations.append(_positive_lead(c))
                return
            if r not in cols:
                if v[r] < 0:
                    v, c = [-x for x in v], [-x for x in c]
                self._set_pivot(r, v, c)
                return
            w, cw = cols[r], coords[r]
            g, s, t = ext_gcd(w[r], v[r])
            x, y = w[r] // g, v[r] // g
            if t:
                self._set_pivot(r, [s * p + t * q for p, q in zip(w, v)],
                                [s * p + t * q for p, q in zip(cw, c)])
            v = [-y * p + x * q for p, q in zip(w, v)]
            c = [-y * p + x * q for p, q in zip(cw, c)]

    def _set_pivot(self, r: int, w: list[int], cw: list[int]) -> None:
        # once an entry outgrows 64 bits, w's entry at each later pivot row k
        # is reduced modulo that pivot's lead; smaller pivots stay as they are
        cols, coords = self.pivot_cols, self.pivot_coords
        if max(map(abs, w)).bit_length() > 64:
            for k in range(r + 1, self.dim):
                q = w[k] // cols[k][k] if k in cols else 0
                if q:
                    w = [a - q * b for a, b in zip(w, cols[k])]
                    cw = [a - q * b for a, b in zip(cw, coords[k])]
        cols[r], coords[r] = w, cw

    def solve(self, v: Sequence[int]) -> Optional[Vector]:
        """Coordinates x with sum_k x_k gen_k = v, or None when v is not in
        the lattice.  Solutions differ by the relations.

        >>> lat = LatticeEchelon([(2, 0), (0, 2), (2, 2)], 2)
        >>> lat.solve((4, -2))
        (3, 0, -1)
        >>> lat.solve((1, 0)) is None
        True
        """
        v = [int(x) for x in v]
        x = [0] * self.ngens
        for r in range(self.dim):
            if v[r]:
                w = self.pivot_cols.get(r)
                if w is None:
                    return None
                q, rem = divmod(v[r], w[r])
                if rem:
                    return None
                for i in range(r, self.dim):
                    v[i] -= q * w[i]
                x = [a + q * b for a, b in zip(x, self.pivot_coords[r])]
        return tuple(x)

    def contains(self, v: Sequence[int]) -> bool:
        return self.solve(v) is not None


def subquotient_structure(kernel_vectors: Sequence[Sequence[int]],
                          image_vectors: Sequence[Sequence[int]],
                          ) -> tuple[AbelianGroupStructure, list[Vector]]:
    """Structure of (lattice spanned by kernel_vectors)/(lattice of image_vectors).

    The kernel vectors must be Z-linearly independent and the image vectors
    must lie in the lattice they span (both are checked).  Returns the group
    structure and ambient representatives for its generators: torsion
    generators first, in invariant-factor order, then free generators.
    Membership in the image lattice is `LatticeEchelon(image_vectors, dim)`.

    >>> s, reps = subquotient_structure([(2, 0), (0, 2)], [(2, 0), (0, 4)])
    >>> str(s)
    'Z/2'
    >>> reps
    [(0, 2)]
    >>> LatticeEchelon([(2, 0), (0, 4)], 2).contains(reps[0])
    False
    """
    kernel_vectors = [tuple(int(x) for x in v) for v in kernel_vectors]
    image_vectors = [tuple(int(x) for x in v) for v in image_vectors]
    if not kernel_vectors:
        if any(any(x for x in v) for v in image_vectors):
            raise ValueError("image vectors outside the zero lattice")
        return AbelianGroupStructure(0, ()), []
    dim = len(kernel_vectors[0])
    s = len(kernel_vectors)
    lattice = LatticeEchelon(kernel_vectors, dim)
    if lattice.relations:
        raise ValueError("kernel vectors are not Z-linearly independent")
    coords = []
    for v in image_vectors:
        x = lattice.solve(v)
        if x is None:
            raise ValueError("vector is not in the kernel lattice")
        coords.append(x)
    amat = IntMatrix.from_rows([[c[i] for c in coords] for i in range(s)],
                               cols=len(image_vectors))
    snf = smith_normal_form(amat)
    r = snf.rank
    invariants = snf.invariants

    def ambient(i: int) -> Vector:
        # column i of U^-1: a basis of the kernel lattice adapted to the image
        col = snf.uinv.column(i)
        return tuple(sum(kernel_vectors[j][k] * col[j] for j in range(s)) for k in range(dim))

    reps = [ambient(i) for i in range(r) if invariants[i] > 1] + [ambient(i) for i in range(r, s)]
    structure = AbelianGroupStructure(s - r, tuple(d for d in invariants if d > 1))
    return structure, reps
