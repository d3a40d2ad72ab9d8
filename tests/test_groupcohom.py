"""Group cohomology: complex identities, known values, connecting maps.

Known-value oracles are hand-derived from the two-periodic complex of cyclic
groups (ker/im of tau-1 and the norm); the bar-resolution machinery must
reproduce them, and the two resolutions must agree wherever both apply.
"""

from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcubic.exactlin import ColumnReduction, IntMatrix, LatticeEchelon
from bmcubic.groupcohom import (
    _BarComplex,
    Cochain,
    CohomologyResult,
    FiniteGroup,
    GIntModule,
    ModuleSES,
    action_from_generators,
    apply_differential,
    cohomology,
    connecting_homomorphism,
    cyclic_cohomology,
    cyclic_group,
    group_closure,
    invariants_module,
    is_coboundary,
    is_cocycle,
    zero_cochain,
)

A2_ROTATION = IntMatrix.from_rows([[0, -1], [1, -1]])


def trivial_module(g, rank=1, relations=()):
    return GIntModule(g, rank, relations, [IntMatrix.identity(rank)] * g.order)


def regular_module(g):
    mats = []
    for a in range(g.order):
        rows = [[1 if g.mul(a, j) == i else 0 for j in range(g.order)]
                for i in range(g.order)]
        mats.append(IntMatrix.from_rows(rows))
    return GIntModule(g, g.order, [], mats)


def a2_module():
    g = cyclic_group(3)
    return g, GIntModule(g, 2, [], action_from_generators(g, 2, {1: A2_ROTATION}))


S3 = group_closure([(1, 0, 2), (1, 2, 0)])
Z3 = cyclic_group(3)
Z2 = cyclic_group(2)


# ------------------------------------------------------------------ modules

def test_module_rejects_non_multiplicative_action():
    neg = IntMatrix.from_rows([[-1]])
    with pytest.raises(ValueError, match="not multiplicative"):
        GIntModule(Z3, 1, [], [IntMatrix.identity(1), neg, neg])
    # the same action is multiplicative modulo 2: accepted by the column test
    GIntModule(Z3, 1, [(2,)], [IntMatrix.identity(1), neg, neg])


def test_module_rejects_non_generator_breaking_a_relation():
    # element 2 is not a generator of Z3; only it moves (1, -1) off the lattice
    ident = IntMatrix.identity(2)
    bad = IntMatrix.from_rows([[1, 0], [0, 2]])
    assert Z3.generators == (1,)
    with pytest.raises(ValueError, match="preserve the relations"):
        GIntModule(Z3, 2, [(1, -1)], [ident, ident, bad])


small_entry = st.integers(min_value=-6, max_value=6)


@st.composite
def torsion_presentations(draw):
    """(rank, relations, vectors): rank <= 4, up to three relations with
    entries in -6..6, and vectors that are often in the relation lattice."""
    rank = draw(st.integers(min_value=1, max_value=4))
    rels = draw(st.lists(st.tuples(*[small_entry] * rank), max_size=3))
    vectors = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        coeffs = draw(st.lists(small_entry, min_size=len(rels), max_size=len(rels)))
        v = [sum(c * r[i] for c, r in zip(coeffs, rels)) for i in range(rank)]
        if draw(st.booleans()):
            v[draw(st.integers(min_value=0, max_value=rank - 1))] += draw(small_entry)
        vectors.append(tuple(v))
    return rank, rels, vectors


@given(torsion_presentations())
@settings(max_examples=150)
def test_membership_matches_lattice_echelon(case):
    # the module's test reads Smith coordinates; LatticeEchelon is an
    # independent column echelon of the same relations
    rank, rels, vectors = case
    m = trivial_module(Z2, rank, rels)
    lattice = LatticeEchelon(rels, rank)
    for v in vectors:
        assert m.is_zero(v) == lattice.contains(v)
    cols = IntMatrix.from_rows(vectors).transpose()
    assert m.kills(cols) == all(lattice.contains(v) for v in vectors)


# ------------------------------------------------------------------ groups

def test_closure_three_cycle():
    g = group_closure([(1, 2, 0)])
    assert g.order == 3
    assert g.mul(1, 1) == 2 and g.mul(g.mul(1, 1), 1) == 0


def test_closure_three_commuting_cycles():
    gens = [(1, 2, 0, 3, 4, 5, 6, 7, 8),
            (0, 1, 2, 4, 5, 3, 6, 7, 8),
            (0, 1, 2, 3, 4, 5, 7, 8, 6)]
    g = group_closure(gens)
    assert g.order == 27
    a, b = g.generators[0], g.generators[1]
    assert g.mul(a, b) == g.mul(b, a)


def test_closure_empty_and_cap():
    assert group_closure([]).order == 1
    with pytest.raises(ValueError):
        group_closure([IntMatrix.from_rows([[1, 1], [0, 1]])], cap=50)


def test_closure_matrix_generators():
    g = group_closure([A2_ROTATION])
    assert g.order == 3


def test_subgroup_and_normality():
    assert S3.order == 6
    rot = next(i for i in range(6) if S3.mul(S3.mul(i, i), i) == 0 and i != 0
               and S3.mul(i, i) != 0)
    a3 = {0, rot, S3.mul(rot, rot)}
    assert S3.is_normal(a3)
    flip = next(i for i in range(1, 6) if S3.mul(i, i) == 0)
    assert S3.is_subgroup({0, flip}) and not S3.is_normal({0, flip})


# ------------------------------------------------------------- differentials

cochain_coeff = st.integers(min_value=-4, max_value=4)


@st.composite
def random_cochains(draw, module, degree):
    n = module.group.order
    vals = {}
    from itertools import product as iproduct
    for t in iproduct(range(n), repeat=degree):
        vals[t] = tuple(draw(cochain_coeff) for _ in range(module.rank))
    return Cochain(degree, vals)


@given(st.data())
@settings(max_examples=40)
def test_apply_differential_squares_to_zero(data):
    m = data.draw(st.sampled_from([a2_module()[1], trivial_module(Z2, 1, [(2,)]),
                                   trivial_module(Z3, 2, [(3, 3)])]))
    d = data.draw(st.integers(min_value=0, max_value=1))
    c = data.draw(random_cochains(m, d))
    ddc = apply_differential(m.group, m, apply_differential(m.group, m, c))
    assert all(m.is_zero(v) for v in ddc.values.values())


# ----------------------------------------------------------------- cohomology

def test_trivial_group_positive_degrees():
    g = cyclic_group(1)
    m = trivial_module(g, rank=3)
    for i in (1, 2, 3):
        assert cohomology(g, m, i).structure.is_trivial


def test_h2_cyclic_on_z():
    res = cohomology(Z3, trivial_module(Z3), 2)
    assert str(res.structure) == "Z/3"
    gen = res.generators[0]
    assert is_cocycle(Z3, trivial_module(Z3), gen)


def test_h1_regular_module_vanishes():
    for g in (Z2, Z3, S3, cyclic_group(4)):
        m = regular_module(g)
        assert cohomology(g, m, 1).structure.is_trivial


def test_h1_a2_lattice():
    g, m = a2_module()
    res = cohomology(g, m, 1)
    assert str(res.structure) == "Z/3"
    assert is_cocycle(g, m, res.generators[0])


def test_h1_torsion_coefficients():
    m = trivial_module(Z2, 1, [(2,)])
    assert str(cohomology(Z2, m, 1).structure) == "Z/2"
    m3 = trivial_module(Z3, 1, [(2,)])
    assert cohomology(Z3, m3, 1).structure.is_trivial


def test_h0_invariants():
    m = regular_module(Z3)
    res = cohomology(Z3, m, 0)
    assert res.structure.free_rank == 1 and not res.structure.torsion
    vec = res.generators[0].value(())
    assert vec in ((1, 1, 1), (-1, -1, -1))


def test_regular_c4_degree_three_keeps_columns_small():
    # Euclid elimination in ColumnReduction.feed: without it the surviving
    # columns grow to thousands of bits within the first rows
    g = cyclic_group(4)
    m = regular_module(g)
    bar = _BarComplex(g, m)
    red = ColumnReduction(bar.dim(3))
    for row in islice(bar.rows(3), 65):
        red.feed(row)
    assert max(abs(x).bit_length() for col in red.columns for x in col) < 64
    assert cohomology(g, m, 3).structure.is_trivial


def test_generator_orders():
    cases = [(Z3, trivial_module(Z3), 2),
             (a2_module()[0], a2_module()[1], 1),
             (Z2, trivial_module(Z2, 1, [(2,)]), 1)]
    for g, m, i in cases:
        res = cohomology(g, m, i)
        (order,) = res.structure.torsion
        gen = res.generators[0]
        assert is_coboundary(g, m, gen) is None
        b = is_coboundary(g, m, gen.scale(order))
        assert b is not None
        diff = apply_differential(g, m, b) - gen.scale(order)
        assert all(m.is_zero(v) for v in diff.values.values())


# --------------------------------------------------------------- coboundaries

@given(st.data())
@settings(max_examples=30)
def test_coboundary_round_trip(data):
    m = data.draw(st.sampled_from([a2_module()[1], trivial_module(Z2, 1, [(2,)]),
                                   regular_module(Z2)]))
    g = m.group
    d = data.draw(st.integers(min_value=1, max_value=2))
    b = data.draw(random_cochains(m, d - 1))
    c = apply_differential(g, m, b)
    b2 = is_coboundary(g, m, c)
    assert b2 is not None
    diff = apply_differential(g, m, b2) - c
    assert all(m.is_zero(v) for v in diff.values.values())


def test_degree_three_round_trip_normalized():
    g, m = a2_module()
    vals = {}
    from itertools import product as iproduct
    for t in iproduct(range(3), repeat=2):
        vals[t] = (0, 0) if 0 in t else (t[0] - t[1], t[0] * t[1] - 2)
    b = Cochain(2, vals)
    c = apply_differential(g, m, b)
    b2 = is_coboundary(g, m, c)
    assert b2 is not None
    diff = apply_differential(g, m, b2) - c
    assert all(m.is_zero(v) for v in diff.values.values())


def test_zero_cochain_coboundary():
    g, m = a2_module()
    b = is_coboundary(g, m, zero_cochain(g, 2, 2))
    assert b is not None
    assert all(all(x == 0 for x in v) for v in b.values.values())


def test_non_cocycle_rejected():
    g, m = a2_module()
    vals = {(a, b): (1, 0) if (a, b) == (1, 2) else (0, 0)
            for a in range(3) for b in range(3)}
    with pytest.raises(ValueError):
        is_coboundary(g, m, Cochain(2, vals))


@pytest.mark.parametrize("d", [0, 4])
def test_coboundary_degree_rejected_before_the_cocycle_test(d):
    # the cochain is no cocycle either; the degree is what gets reported
    g, m = a2_module()
    c = zero_cochain(g, 2, d)
    c = Cochain(d, {t: (1, 0) for t in c.values})
    with pytest.raises(ValueError, match="degrees 1..3"):
        is_coboundary(g, m, c)


# ---------------------------------------------------------- connecting maps

def picard_toy_ses():
    """Z -> Z^4 -> Z^4/(relation) with basis (H, C, tC, ttC), tau cycling the C's."""
    g = Z3
    perm = IntMatrix.from_rows([[1, 0, 0, 0],
                                [0, 0, 0, 1],
                                [0, 1, 0, 0],
                                [0, 0, 1, 0]])
    action = action_from_generators(g, 4, {1: perm})
    rel = (-3, 1, 1, 1)
    a = trivial_module(g, rank=1)
    b = GIntModule(g, 4, [], action)
    c = GIntModule(g, 4, [rel], action)
    map_ab = IntMatrix.from_rows([[rel[i]] for i in range(4)], cols=1)
    map_bc = IntMatrix.identity(4)
    return ModuleSES(a, b, c, map_ab, map_bc), a, b, c


def test_connecting_carries_relation_class():
    ses, a, _, c = picard_toy_ses()
    v = (-1, 1, 0, 0)  # [C] - [H], the anticanonical twist of the curve class
    vals = {(0,): (0, 0, 0, 0), (1,): v,
            (2,): tuple(x + y for x, y in zip(v, c.action[1].apply(v)))}
    coc = Cochain(1, vals)
    assert is_cocycle(Z3, c, coc)
    delta = connecting_homomorphism(ses, coc)
    assert is_cocycle(Z3, a, delta)
    carry = Cochain(2, {(x, y): ((1,) if x + y >= 3 else (0,))[0:1]
                        for x in range(3) for y in range(3)})
    assert is_coboundary(Z3, a, delta - carry) is not None
    assert is_coboundary(Z3, a, delta) is None


def test_connecting_of_liftable_cocycle_is_trivial():
    ses, a, b, c = picard_toy_ses()
    v = (0, 1, -1, 0)  # C - tC lifts to a genuine cocycle over B
    vals = {(0,): (0, 0, 0, 0), (1,): v,
            (2,): tuple(x + y for x, y in zip(v, b.action[1].apply(v)))}
    coc = Cochain(1, vals)
    assert is_cocycle(Z3, b, coc)
    delta = connecting_homomorphism(ses, coc)
    assert is_coboundary(Z3, a, delta) is not None


def test_connecting_zero():
    ses, a, _, c = picard_toy_ses()
    delta = connecting_homomorphism(ses, zero_cochain(Z3, 4, 1))
    assert is_coboundary(Z3, a, delta) is not None


def test_ses_validation():
    g = Z3
    a = trivial_module(g)
    b = trivial_module(g, rank=2)
    c = trivial_module(g)
    with pytest.raises(ValueError):
        # composition A->B->C nonzero
        ModuleSES(a, b, c,
                  IntMatrix.from_rows([[1], [0]], cols=1),
                  IntMatrix.from_rows([[1, 0]], cols=2))
    with pytest.raises(ValueError):
        # B->C not surjective
        ModuleSES(a, b, c,
                  IntMatrix.from_rows([[1], [0]], cols=1),
                  IntMatrix.from_rows([[0, 2]], cols=2))


def test_ses_and_cyclic_rejections_name_the_failed_check():
    triv = IntMatrix.identity(1)
    neg = IntMatrix.from_rows([[-1]])
    zero_map = IntMatrix.from_rows([[0]])
    a = trivial_module(Z3)
    with pytest.raises(ValueError, match="composition A->B->C is nonzero"):
        ModuleSES(a, trivial_module(Z3, rank=2), a,
                  IntMatrix.from_rows([[1], [0]], cols=1),
                  IntMatrix.from_rows([[1, 0]], cols=2))
    with pytest.raises(ValueError, match="A->B is not injective modulo relations"):
        # Z -> Z/2 -> 0
        ModuleSES(a, trivial_module(Z3, 1, [(2,)]), trivial_module(Z3, 1, [(1,)]),
                  triv, triv)
    with pytest.raises(ValueError, match="B->C is not surjective modulo relations"):
        ModuleSES(a, trivial_module(Z3, rank=2), a,
                  IntMatrix.from_rows([[1], [0]], cols=1),
                  IntMatrix.from_rows([[0, 2]], cols=2))
    sign = GIntModule(Z2, 1, [], [triv, neg])
    zero_c = trivial_module(Z2, 1, [(1,)])
    with pytest.raises(ValueError, match="A->B is not equivariant"):
        # Z trivial -> Z with the sign action -> 0
        ModuleSES(trivial_module(Z2), sign, zero_c, triv, zero_map)
    with pytest.raises(ValueError, match="B->C is not equivariant"):
        # 0 -> Z trivial -> Z with the sign action
        ModuleSES(trivial_module(Z2, rank=0), trivial_module(Z2), sign,
                  IntMatrix.from_rows([[]], cols=0), triv)
    # Z/2 trivial -> Z/2 with the sign action -> 0 is equivariant only
    # modulo the torsion relation, and is accepted
    ses = ModuleSES(trivial_module(Z2, 1, [(2,)]),
                    GIntModule(Z2, 1, [(2,)], [triv, neg]),
                    trivial_module(Z2, rank=0), triv, IntMatrix.from_rows([], cols=1))
    assert ses.pull_ab((3,)) is not None
    with pytest.raises(ValueError, match="tau does not preserve the relations"):
        cyclic_cohomology(IntMatrix.from_rows([[1, 0], [0, 2]]), 3,
                          trivial_module(Z3, 2, [(1, -1)]), 1)
    with pytest.raises(ValueError, match="tau\\^n is not the identity on the quotient"):
        cyclic_cohomology(A2_ROTATION, 2, trivial_module(Z3, rank=2), 1)


# -------------------------------------------------------------- invariants

def test_invariants_full_group():
    m = regular_module(Z3)
    inv = invariants_module(m, range(3))
    assert inv.module.rank == 1
    assert inv.quotient.order == 1
    col = inv.inclusion.column(0)
    assert col in ((1, 1, 1), (-1, -1, -1))


def test_invariants_trivial_subgroup():
    g, m = a2_module()
    inv = invariants_module(m, [0])
    assert inv.module.rank == 2
    assert inv.quotient.order == 3
    res = cohomology(inv.quotient, inv.module, 1)
    assert str(res.structure) == "Z/3"


def test_invariants_s3_permutation():
    m = regular_module(S3)
    rot = next(i for i in range(1, 6) if S3.mul(S3.mul(i, i), i) == 0
               and S3.mul(i, i) != 0)
    a3 = [0, rot, S3.mul(rot, rot)]
    inv = invariants_module(m, a3)
    assert inv.module.rank == 2
    assert inv.quotient.order == 2
    assert cohomology(inv.quotient, inv.module, 1).structure.is_trivial


def test_invariants_rejects_non_normal():
    m = regular_module(S3)
    flip = next(i for i in range(1, 6) if S3.mul(i, i) == 0)
    with pytest.raises(ValueError):
        invariants_module(m, [0, flip])


def test_invariants_two_factor_group():
    gens = [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]
    g = group_closure(gens)
    assert g.order == 9
    m = regular_module(g)
    h = [0]
    x = g.generators[0]
    cur = x
    while cur != 0:
        h.append(cur)
        cur = g.mul(cur, x)
    inv = invariants_module(m, h)
    assert inv.quotient.order == 3
    assert cohomology(inv.quotient, inv.module, 1).structure.is_trivial


# ------------------------------------------------------------------- cyclic

def test_cyclic_trivial_action():
    for n in (2, 3, 4):
        g = cyclic_group(n)
        m = trivial_module(g)
        tau = IntMatrix.identity(1)
        assert cyclic_cohomology(tau, n, m, 1).structure.is_trivial
        res = cyclic_cohomology(tau, n, m, 2)
        assert res.structure.torsion == (n,)
        assert res.periodic_vectors


def test_cyclic_order_mismatch():
    m = trivial_module(Z3, rank=2)
    with pytest.raises(ValueError):
        cyclic_cohomology(A2_ROTATION, 2, m, 1)


def test_cyclic_degree_rejected_first():
    # the order mismatch above would raise later; the degree goes first, and
    # a degree past 3 is refused even where H^i is trivial
    m = trivial_module(Z3, rank=2)
    with pytest.raises(ValueError, match="nonnegative"):
        cyclic_cohomology(A2_ROTATION, 2, m, -1)
    with pytest.raises(ValueError, match="degrees 0..3"):
        cyclic_cohomology(A2_ROTATION, 2, m, 4)
    with pytest.raises(ValueError, match="degrees 0..3"):
        cyclic_cohomology(IntMatrix.identity(0), 3, trivial_module(Z3, rank=0), 4)


@pytest.mark.parametrize("i", [0, 1, 2])
def test_cyclic_matches_bar(i):
    cases = []
    g3 = Z3
    cases.append((A2_ROTATION, 3, GIntModule(g3, 2, [],
                                             action_from_generators(g3, 2, {1: A2_ROTATION}))))
    perm = IntMatrix.from_rows([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    cases.append((perm, 3, GIntModule(g3, 3, [], action_from_generators(g3, 3, {1: perm}))))
    cases.append((perm, 3, GIntModule(g3, 3, [(3, 3, 3)],
                                      action_from_generators(g3, 3, {1: perm}))))
    cases.append((IntMatrix.identity(1), 3, trivial_module(g3)))
    neg = IntMatrix.from_rows([[-1]])
    cases.append((neg, 2, GIntModule(Z2, 1, [], [IntMatrix.identity(1), neg])))
    for tau, n, m in cases:
        a = cyclic_cohomology(tau, n, m, i)
        b = cohomology(m.group, m, i)
        assert a.structure == b.structure, (tau, n, i)


@pytest.mark.parametrize("i", [1, 2, 3])
def test_cyclic_bar_representatives_are_cocycles(i):
    g, m = a2_module()
    res = cyclic_cohomology(A2_ROTATION, 3, m, i)
    for gen in res.generators:
        assert is_cocycle(g, m, gen)
    if i in (1, 3):
        assert res.structure.torsion == (3,)
