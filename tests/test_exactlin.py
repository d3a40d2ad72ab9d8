"""Tests for exact integer linear algebra.

The Smith normal form checks use an oracle that is independent of the
implementation: the product of the first i invariant factors of M equals the
gcd of all i x i minors of M.  Determinants feeding that oracle come from a
plain cofactor expansion written here, not from the module under test.
"""

from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, strategies as st

from bmcubic.exactlin import (
    AbelianGroupStructure,
    IntMatrix,
    LatticeEchelon,
    ext_gcd,
    integer_kernel,
    smith_normal_form,
    subquotient_structure,
)


# --- oracles -----------------------------------------------------------------

def cofactor_determinant(rows):
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j]:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            sign = -1 if j % 2 else 1
            total += sign * rows[0][j] * cofactor_determinant(minor)
    return total


def minor_gcd(m: IntMatrix, size: int) -> int:
    """gcd of all size x size minors of m (0 when there are none nonzero)."""
    g = 0
    rows = m.to_rows()
    for ri in combinations(range(m.rows), size):
        for ci in combinations(range(m.cols), size):
            sub = [[rows[i][j] for j in ci] for i in ri]
            g = gcd(g, cofactor_determinant(sub))
            if g == 1:
                return 1
    return g


# --- strategies --------------------------------------------------------------

@st.composite
def int_matrices(draw, max_dim=5, max_entry=9, min_dim=0):
    rows = draw(st.integers(min_dim, max_dim))
    cols = draw(st.integers(min_dim, max_dim))
    entries = draw(st.lists(st.integers(-max_entry, max_entry),
                            min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, tuple(entries))


int_vectors = st.lists(st.integers(-9, 9), min_size=1, max_size=5)


# --- basic helpers -----------------------------------------------------------

@given(st.integers(-200, 200), st.integers(-200, 200))
def test_ext_gcd(a, b):
    g, s, t = ext_gcd(a, b)
    assert g == gcd(a, b)
    assert s * a + t * b == g


@given(int_matrices(max_dim=4))
def test_determinant_matches_cofactor_expansion(m):
    if m.rows != m.cols:
        with pytest.raises(ValueError):
            m.determinant()
    else:
        assert m.determinant() == cofactor_determinant(m.to_rows())


def test_int_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])


def test_matrix_product_and_apply():
    a = IntMatrix.from_rows([[1, 2], [3, 4]])
    b = IntMatrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b).to_rows() == [[2, 1], [4, 3]]
    assert a.apply((1, 1)) == (3, 7)
    assert a.transpose().to_rows() == [[1, 3], [2, 4]]


@st.composite
def matrix_pairs(draw, max_dim=4, max_entry=9):
    """(a, b) with a.cols == b.rows; any dimension may be 0."""
    r, k, c = (draw(st.integers(0, max_dim)) for _ in range(3))
    a = draw(st.lists(st.integers(-max_entry, max_entry), min_size=r * k, max_size=r * k))
    b = draw(st.lists(st.integers(-max_entry, max_entry), min_size=k * c, max_size=k * c))
    return IntMatrix(r, k, tuple(a)), IntMatrix(k, c, tuple(b))


@given(matrix_pairs(), st.data())
def test_product_and_apply_match_triple_loop(pair, data):
    a, b = pair
    rows_a, rows_b = a.to_rows(), b.to_rows()
    naive = [[sum(rows_a[i][k] * rows_b[k][j] for k in range(a.cols))
              for j in range(b.cols)] for i in range(a.rows)]
    prod_ = a @ b
    assert (prod_.rows, prod_.cols) == (a.rows, b.cols)
    assert prod_.to_rows() == naive
    v = data.draw(st.lists(st.integers(-9, 9), min_size=a.cols, max_size=a.cols))
    assert a.apply(v) == tuple(sum(rows_a[i][k] * v[k] for k in range(a.cols))
                               for i in range(a.rows))
    with pytest.raises(ValueError):
        a.apply(v + [1])


# --- smith normal form -------------------------------------------------------

def test_snf_frozen_examples():
    s = smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert s.invariants == (2, 4)
    s = smith_normal_form(IntMatrix.identity(3))
    assert s.invariants == (1, 1, 1)
    s = smith_normal_form(IntMatrix.zero(2, 3))
    assert s.invariants == ()
    s = smith_normal_form(IntMatrix.from_rows([[2, 4, 4]]))
    assert s.invariants == (2,)
    # quotient structures read off the diagonal
    s = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 4]]))
    assert s.quotient_structure() == AbelianGroupStructure(0, (2, 4))


@given(int_matrices())
def test_snf_reconstruction(m):
    s = smith_normal_form(m)
    assert s.u.is_unimodular()
    assert s.v.is_unimodular()
    assert (s.u @ m @ s.v) == s.d
    assert s.uinv @ s.u == IntMatrix.identity(m.rows)
    # D diagonal, nonnegative, divisor chain
    for i in range(s.d.rows):
        for j in range(s.d.cols):
            if i != j:
                assert s.d.at(i, j) == 0
    inv = s.invariants
    assert all(x > 0 for x in inv)
    for a, b in zip(inv, inv[1:]):
        assert b % a == 0
    # nonzero entries come before zero ones on the diagonal
    diag = [s.d.at(k, k) for k in range(min(m.rows, m.cols))]
    assert diag[:len(inv)] == list(inv)
    assert all(x == 0 for x in diag[len(inv):])


@given(int_matrices(max_dim=4, max_entry=6))
def test_snf_invariants_match_minor_gcd_oracle(m):
    inv = smith_normal_form(m).invariants
    prod = 1
    for i in range(1, min(m.rows, m.cols) + 1):
        g = minor_gcd(m, i)
        if i <= len(inv):
            prod *= inv[i - 1]
            assert g == prod
        else:
            assert g == 0


@given(int_matrices())
def test_snf_deterministic_and_transpose_invariant(m):
    s1 = smith_normal_form(m)
    s2 = smith_normal_form(m)
    assert s1.u.entries == s2.u.entries
    assert s1.v.entries == s2.v.entries
    assert smith_normal_form(m.transpose()).invariants == s1.invariants


# --- kernels -----------------------------------------------------------------

def test_kernel_frozen():
    assert integer_kernel([{0: 1, 1: 1}], 2) == [(1, -1)]
    assert integer_kernel([{0: 1}, {1: 1}], 2) == []
    assert integer_kernel([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


@given(int_matrices())
def test_kernel_is_saturated_basis(m):
    rows = [{j: x for j, x in enumerate(m.row(i)) if x} for i in range(m.rows)]
    ker = integer_kernel(rows, m.cols)
    for v in ker:
        assert all(x == 0 for x in m.apply(v))
    rank = smith_normal_form(m).rank
    assert len(ker) == m.cols - rank
    if ker:
        kmat = IntMatrix.from_rows([[v[i] for v in ker] for i in range(m.cols)],
                                   cols=len(ker))
        # a saturated primitive basis: all invariant factors 1, full rank
        assert smith_normal_form(kmat).invariants == (1,) * len(ker)


# --- lattice echelon: solving and membership --------------------------------

def column_echelon(m):
    """The echelon of m's columns: solving in it solves M x = b."""
    return LatticeEchelon([m.column(j) for j in range(m.cols)], m.rows)


def test_solve_frozen():
    m = IntMatrix.from_rows([[1, 1]])
    lat = column_echelon(m)
    assert m.apply(lat.solve((3,))) == (3,)
    assert lat.relations == [(1, -1)]
    assert column_echelon(IntMatrix.from_rows([[2]])).solve((3,)) is None
    lat = column_echelon(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert lat.solve((2, 2)) == (-1, 1)
    assert lat.relations == []


@given(int_matrices(), st.data())
def test_solve_recovers_constructed_solutions(m, data):
    x = tuple(data.draw(st.integers(-9, 9)) for _ in range(m.cols))
    b = m.apply(x)
    lat = column_echelon(m)
    sol = lat.solve(b)
    assert sol is not None
    assert m.apply(sol) == b
    # the known solution differs from the found one by a relation
    diff = tuple(a - c for a, c in zip(x, sol))
    assert LatticeEchelon(lat.relations, m.cols).contains(diff)


@given(int_matrices())
def test_relations_are_saturated_basis(m):
    # the checks of test_kernel_is_saturated_basis, on the echelon's relations
    rel = column_echelon(m).relations
    for v in rel:
        assert all(x == 0 for x in m.apply(v))
    assert len(rel) == m.cols - smith_normal_form(m).rank
    if rel:
        rmat = IntMatrix.from_rows([[v[i] for v in rel] for i in range(m.cols)],
                                   cols=len(rel))
        assert smith_normal_form(rmat).invariants == (1,) * len(rel)


@given(int_matrices(min_dim=1), st.data())
def test_solve_agrees_with_smith_membership(m, data):
    # v = M x + e, e a small perturbation; the oracle reads U v against the
    # Smith diagonal: v is in the column lattice iff (U v)_i is divisible by
    # d_i for i < rank and vanishes beyond
    x = [data.draw(st.integers(-5, 5)) for _ in range(m.cols)]
    e = [data.draw(st.integers(-2, 2)) for _ in range(m.rows)]
    v = tuple(a + b for a, b in zip(m.apply(x), e))
    snf = smith_normal_form(m)
    y = snf.u.apply(v)
    member = all(y[i] % d == 0 for i, d in enumerate(snf.invariants)) \
        and not any(y[snf.rank:])
    lat = column_echelon(m)
    sol = lat.solve(v)
    assert (sol is not None) == member == lat.contains(v)
    if sol is not None:
        assert m.apply(sol) == v


def test_lattice_echelon_frozen():
    lat = LatticeEchelon([(2, 0), (0, 2)], 2)
    assert lat.contains((4, -2))
    assert not lat.contains((1, 0))
    assert LatticeEchelon([], 2).contains((0, 0))
    assert not LatticeEchelon([], 2).contains((0, 1))


@given(st.lists(st.tuples(*[st.integers(-9, 9)] * 4), max_size=4), st.data())
def test_lattice_echelon_contains_combinations(gens, data):
    lat = LatticeEchelon(gens, 4)
    coeffs = [data.draw(st.integers(-5, 5)) for _ in gens]
    v = [0] * 4
    for c, g in zip(coeffs, gens):
        for i in range(4):
            v[i] += c * g[i]
    assert lat.contains(tuple(v))


# --- subquotients ------------------------------------------------------------

def test_subquotient_frozen():
    s, reps, member = subquotient_structure([(2, 0), (0, 2)], [(2, 0), (0, 4)])
    assert s == AbelianGroupStructure(0, (2,))
    assert reps == [(0, 2)]
    assert member((2, 0)) == (1, 0)
    assert member((0, 2)) is None

    s, reps, member = subquotient_structure([(1, 0), (0, 1)], [(2, 0), (0, 2)])
    assert s == AbelianGroupStructure(0, (2, 2))
    assert len(reps) == 2

    s, reps, member = subquotient_structure([(1, 0)], [])
    assert s == AbelianGroupStructure(1, ())
    assert reps == [(1, 0)]
    assert member((3, 0)) is None
    assert member((0, 0)) == ()


def test_subquotient_validation():
    with pytest.raises(ValueError):
        subquotient_structure([(1, 0), (2, 0)], [])
    with pytest.raises(ValueError):
        subquotient_structure([(2, 0)], [(1, 0)])
    with pytest.raises(ValueError):
        # not in the kernel lattice at all
        subquotient_structure([(1, 0)], [(0, 1)])


@st.composite
def subquotient_instances(draw):
    """Independent kernel vectors in Z^4 plus image combinations inside them.

    Independence comes for free from a staircase shape: vector i has a
    positive leading entry in coordinate i.
    """
    dim = 4
    nker = draw(st.integers(1, 3))
    vecs = []
    for i in range(nker):
        head = [0] * i + [draw(st.integers(1, 4))]
        tail = [draw(st.integers(-4, 4)) for _ in range(dim - i - 1)]
        vecs.append(tuple(head + tail))
    nimg = draw(st.integers(0, 3))
    imgs = []
    for _ in range(nimg):
        coeffs = [draw(st.integers(-3, 3)) for _ in range(nker)]
        imgs.append(tuple(sum(c * v[i] for c, v in zip(coeffs, vecs)) for i in range(dim)))
    return vecs, imgs


@given(subquotient_instances(), st.data())
def test_subquotient_membership_and_orders(inst, data):
    vecs, imgs = inst
    s, reps, member = subquotient_structure(vecs, imgs)
    dim = 4
    # every image combination is a member and its expression reconstructs it
    if imgs:
        coeffs = [data.draw(st.integers(-3, 3)) for _ in imgs]
        v = tuple(sum(c * g[i] for c, g in zip(coeffs, imgs)) for i in range(dim))
        expr = member(v)
        assert expr is not None
        rebuilt = tuple(sum(e * g[i] for e, g in zip(expr, imgs)) for i in range(dim))
        assert rebuilt == v
    # torsion generators have exactly the stated order
    for d, rep in zip(s.torsion, reps):
        scaled = tuple(d * x for x in rep)
        assert member(scaled) is not None
        for e in range(1, d):
            assert member(tuple(e * x for x in rep)) is None
    # free generators are not torsion
    for rep in reps[len(s.torsion):]:
        for e in range(1, 4):
            assert member(tuple(e * x for x in rep)) is None


# --- group structure formatting ---------------------------------------------

def test_group_structure_str_and_order():
    assert str(AbelianGroupStructure(0, ())) == "0"
    assert str(AbelianGroupStructure(1, ())) == "Z"
    assert str(AbelianGroupStructure(0, (3,))) == "Z/3"
    assert str(AbelianGroupStructure(2, (2, 6))) == "Z^2 + Z/2 + Z/6"
    assert AbelianGroupStructure(0, (3, 3)).order() == 9
    assert AbelianGroupStructure(1, ()).order() is None
    assert AbelianGroupStructure(0, ()).is_trivial


def test_group_structure_validation():
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (1,))
    with pytest.raises(ValueError):
        AbelianGroupStructure(0, (4, 6))
    with pytest.raises(ValueError):
        AbelianGroupStructure(-1, ())
