"""Line configuration, Galois action and H^1 of the Picard module.

The incidence rule and the label action are hardcoded in the module; the
tests here re-derive both from the defining linear forms by exact rank
computations over the radical splitting tower, for a generic coefficient
tuple and a few sampled ones.
"""

import random
from fractions import Fraction
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bmcubic import lines27
from bmcubic.calibrate import TowerAutomorphism, TowerField
from bmcubic.exactlin import IntMatrix, smith_normal_form
from bmcubic.groupcohom import (FiniteGroup, GIntModule, cohomology,
                                invariants_module, is_coboundary, is_cocycle)
from bmcubic.lines27 import (LABELS, LineLabel, _act_on_label,
                             _f3_reduced_basis, _f3_rowspace,
                             _realized_subgroup, _span_triples, galois_data,
                             h1_picard, incident, line_configuration,
                             line_forms, picard_presentation,
                             table_classification)

CG = (5, 9, 10, 12)


def splitting_tower(coeffs):
    a, b, c, d = coeffs
    return TowerField([Fraction(b, a), Fraction(c, a), Fraction(d, a)])


def det4(rows):
    field = rows[0][0].field
    total = field.zero
    for perm in permutations(range(4)):
        inversions = sum(1 for i, j in combinations(range(4), 2)
                         if perm[i] > perm[j])
        term = field.one if inversions % 2 == 0 else -field.one
        for i in range(4):
            term = term * rows[i][perm[i]]
        total = total + term
    return total


def random_generic_tuples(count, seed=20120):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cand = tuple(rng.randint(1, 20) for _ in range(4))
        try:
            splitting_tower(cand)
        except ValueError:
            continue
        out.append(cand)
    return out


# --- incidence: hardcoded rule vs rank of the defining forms ---------------

@pytest.mark.parametrize("coeffs", [(1, 2, 3, 5)] + random_generic_tuples(3))
def test_incidence_rule_matches_form_rank(coeffs):
    tower = splitting_tower(coeffs)
    forms = {lab: line_forms(tower, lab) for lab in LABELS}
    for u, v in combinations(LABELS, 2):
        stacked = [forms[u][0], forms[u][1], forms[v][0], forms[v][1]]
        meets = det4(stacked).is_zero
        assert meets == incident(u, v), f"{u} vs {v}"


def test_lines_lie_on_surface():
    coeffs = (1, 2, 3, 5)
    a, b, c, d = coeffs
    tower = splitting_tower(coeffs)
    # the slope u in x + u*<var> must cube to the coefficient ratio that
    # cancels the corresponding pair of terms of the diagonal cubic
    cubes = {0: (Fraction(b, a), Fraction(d, c)),
             1: (Fraction(c, a), Fraction(d, b)),
             2: (Fraction(d, a), Fraction(c, b))}
    slot = {0: (1, 3), 1: (2, 3), 2: (3, 2)}
    for lab in LABELS:
        f1, f2 = line_forms(tower, lab)
        u, w = f1[slot[lab.family][0]], f2[slot[lab.family][1]]
        q1, q2 = cubes[lab.family]
        assert u * u * u == tower.scalar(q1)
        assert w * w * w == tower.scalar(q2)


def test_each_line_meets_ten():
    config = line_configuration()
    for i in range(27):
        assert sum(config.incidence.at(i, j) for j in range(27)) == 10
    assert len(config.neighbors(LineLabel(0, 0, 0))) == 10


def test_incidence_is_symmetric_and_off_diagonal():
    config = line_configuration()
    for i in range(27):
        assert config.incidence.at(i, i) == 0
        assert config.gram.at(i, i) == -1
        for j in range(27):
            assert config.incidence.at(i, j) == config.incidence.at(j, i)
            assert config.incidence.at(i, j) in (0, 1)


def test_gram_rank_seven():
    config = line_configuration()
    assert smith_normal_form(config.gram).rank == 7


def test_label_validation():
    with pytest.raises(ValueError):
        LineLabel(3, 0, 0)
    with pytest.raises(ValueError):
        LineLabel(0, 3, 0)
    assert str(LineLabel(2, 1, 0)) == "P3(1,0)"


# --- Galois action: label formula vs tower automorphisms -------------------

def test_action_formula_matches_tower_automorphism():
    tower = splitting_tower((1, 2, 3, 5))
    forms = {lab: line_forms(tower, lab) for lab in LABELS}
    for g in product(range(3), repeat=3):
        sigma = TowerAutomorphism(tower, g)
        for lab in LABELS:
            image = forms[_act_on_label(g, lab)]
            moved = tuple(tuple(sigma(coef) for coef in form)
                          for form in forms[lab])
            assert moved == image


def test_galois_group_orders():
    assert galois_data(CG).group.order == 27
    assert galois_data((1, 1, 1, 2)).group.order == 3
    assert galois_data((1, 1, 1, 1)).group.order == 1
    assert galois_data((1, 2, 4, 8)).group.order == 3


def test_cube_class_relations():
    gal = galois_data((1, 1, 1, 2))
    assert gal.cube_class_relations == ((1, 0, 0), (0, 1, 0))
    assert galois_data(CG).cube_class_relations == ()
    full = galois_data((1, 1, 1, 1))
    assert len(full.cube_class_relations) == 3
    # annihilator pairing: every element is orthogonal to every relation
    for gal in (galois_data(CG), galois_data((1, 1, 1, 2)),
                galois_data((2, 3, 5, 7))):
        for g in gal.elements:
            for rel in gal.cube_class_relations:
                assert sum(x * y for x, y in zip(g, rel)) % 3 == 0
        assert len(gal.elements) * 3 ** len(gal.cube_class_relations) == 27


def test_sign_and_scaling_do_not_change_group():
    base = galois_data(CG).elements
    assert galois_data((-5, 9, -10, 12)).elements == base
    assert galois_data((10, 18, 20, 24)).elements == base


def test_invalid_coefficients_rejected():
    with pytest.raises(ValueError):
        galois_data((0, 1, 1, 1))
    with pytest.raises(ValueError):
        table_classification((1, 2, 3))


def test_permutations_are_group_homomorphism():
    gal = galois_data(CG)
    for i in range(gal.group.order):
        for j in range(gal.group.order):
            pi, pj = gal.permutations[i], gal.permutations[j]
            composed = tuple(pi[pj[x]] for x in range(27))
            assert composed == gal.permutations[gal.group.mul(i, j)]


@given(st.tuples(st.integers(0, 2), st.integers(0, 2), st.integers(0, 2)))
def test_any_triple_acts_by_incidence_automorphism(g):
    for u, v in combinations(LABELS, 2):
        assert incident(u, v) == incident(_act_on_label(g, u),
                                          _act_on_label(g, v))


# --- Picard presentation ----------------------------------------------------

def test_picard_quotient_free_of_rank_seven():
    pres = picard_presentation(galois_data(CG))
    assert len(pres.relations) == 20
    rel_matrix = IntMatrix.from_rows(pres.relations)
    snf = smith_normal_form(rel_matrix)
    assert snf.rank == 20
    assert all(d == 1 for d in snf.invariants)


def test_hyperplane_class_is_fixed():
    pres = picard_presentation(galois_data(CG))
    h = pres.hyperplane
    assert sum(h) == 3 and all(h[i] == 1 for i in range(3))
    for a in pres.module.action:
        moved = a.apply(h)
        assert pres.module.is_zero([x - y for x, y in zip(moved, h)])


def test_hyperplane_has_positive_degree_against_lines():
    # every line meets a plane section in one point: gram * h = (1, ..., 1)
    config = line_configuration()
    h = [1, 1, 1] + [0] * 24
    assert config.gram.apply(h) == tuple([1] * 27)


# --- H^1 --------------------------------------------------------------------

def test_h1_examples():
    assert str(h1_picard(CG).structure) == "Z/3"
    assert str(h1_picard((1, 1, 1, 2)).structure) == "Z/3 + Z/3"
    assert str(h1_picard((1, 1, 1, 1)).structure) == "0"
    assert str(h1_picard((1, 2, 4, 8)).structure) == "0"


def test_h1_generator_is_nontrivial_cocycle():
    res = h1_picard(CG)
    assert len(res.generators) == 1
    gen = res.generators[0]
    assert gen.degree == 1
    assert any(any(v) for v in gen.values.values())


def test_h1_cache_keyed_by_subgroup():
    assert h1_picard((1, 1, 1, 2)) is h1_picard((1, 1, 1, 16))
    assert h1_picard(CG) is h1_picard((10, 18, 20, 24))


def test_h1_and_presentation_share_one_picard_module(monkeypatch):
    # h1_picard's cohomology run reads the very module the presentation holds
    seen = []

    def spy(group, module, i):
        seen.append(module)
        return cohomology(group, module, i)

    monkeypatch.setattr(lines27, "cohomology", spy)
    gal = galois_data(CG)
    lines27._h1_for_subgroup.__wrapped__(gal.elements)
    assert len(seen) == 1
    assert seen[0] is picard_presentation(gal).module


def all_subgroups():
    """The 28 subgroups of (Z/3)^3, each as its sorted elements."""
    nonzero = [t for t in product(range(3), repeat=3) if any(t)]
    return sorted({tuple(sorted(_span_triples(list(basis))))
                   for r in range(4) for basis in combinations(nonzero, r)})


def test_koszul_h1_matches_bar_on_all_subgroups():
    # h1_picard runs on the Koszul complex of the F_3 basis; the same module
    # over FiniteGroup(order, table), whose generators are every non-identity
    # element, runs the bar complex
    subgroups = all_subgroups()
    assert len(subgroups) == 28
    for elements in subgroups:
        module = lines27._picard_module(elements)
        g = module.group
        koszul = lines27._h1_for_subgroup(elements)
        if g.order > 1:
            gb = FiniteGroup(g.order, g.table)
            mb = GIntModule(gb, 27, module.relations, module.action)
            assert koszul.structure == cohomology(gb, mb, 1).structure, elements
        for gen in koszul.generators:
            assert is_cocycle(g, module, gen)
            assert is_coboundary(g, module, gen) is None


def test_z3_plus_z3_picard_generators_are_independent():
    module = picard_presentation(galois_data((1, 1, 1, 2))).module
    g = module.group
    g1, g2 = h1_picard((1, 1, 1, 2)).generators
    for a, b in product(range(3), repeat=2):
        if a or b:
            c = g1.scale(a) + g2.scale(b)
            assert is_cocycle(g, module, c)
            assert is_coboundary(g, module, c) is None


def test_realized_subgroup_memo_holds_one_entry_per_subgroup():
    for cs in product(range(1, 13), repeat=4):
        galois_data(cs)
    assert _realized_subgroup.cache_info().currsize <= 28


@given(st.lists(st.tuples(*(st.integers(0, 2) for _ in range(3))), max_size=4),
       st.data())
def test_reduced_basis_depends_only_on_the_span(rows, data):
    combos = data.draw(st.lists(st.tuples(*(st.integers(0, 2) for _ in rows)),
                                max_size=3))
    extra = [tuple(sum(c * r[i] for c, r in zip(cs, rows)) for i in range(3))
             for cs in combos]
    other = data.draw(st.permutations(rows + extra))
    basis = _f3_reduced_basis(rows)
    assert _f3_reduced_basis(other) == basis
    assert _span_triples(list(basis)) == _span_triples(_f3_rowspace(rows))


def test_table_examples():
    assert str(table_classification(CG)) == "Z/3"
    assert str(table_classification((1, 1, 1, 2))) == "Z/3 + Z/3"
    assert str(table_classification((1, 1, 1, 1))) == "0"
    assert str(table_classification((1, 2, 4, 8))) == "0"
    assert str(table_classification((1, 8, 27, 3))) == "Z/3 + Z/3"
    assert str(table_classification((2, 2, 3, 3))) == "0"


@pytest.mark.parametrize("coeffs", [
    CG, (1, 1, 1, 2), (1, 1, 1, 1), (1, 2, 4, 8), (1, 8, 27, 3),
    (2, 2, 3, 3), (1, 2, 3, 5), (2, 3, 5, 7), (1, 1, 2, 3), (1, 2, 2, 4),
    (3, 4, 5, 6), (1, 6, 10, 15), (1, 4, 9, 36), (2, 4, 8, 16),
])
def test_h1_matches_table(coeffs):
    assert h1_picard(coeffs).structure == table_classification(coeffs)


@settings(max_examples=40)
@given(st.tuples(*(st.integers(1, 12) for _ in range(4))))
def test_h1_matches_table_sampled(coeffs):
    assert h1_picard(coeffs).structure == table_classification(coeffs)


def test_h0_rank_bounds():
    for coeffs in (CG, (1, 1, 1, 2), (1, 1, 1, 1), (1, 2, 3, 5)):
        gal = galois_data(coeffs)
        pres = picard_presentation(gal)
        h0 = cohomology(gal.group, pres.module, 0)
        assert h0.structure.torsion == ()
        assert h0.structure.free_rank >= 1
        assert (h0.structure.free_rank == 7) == (gal.group.order == 1)


# --- inflation from the index-3 subgroup ------------------------------------

def test_inflation_through_invariants():
    gal = galois_data(CG)
    pres = picard_presentation(gal)
    # subgroup fixing the cube root of ad/bc
    sub = [i for i, g in enumerate(gal.elements) if (g[0] + g[1] - g[2]) % 3 == 0]
    assert len(sub) == 9
    inv = invariants_module(pres.module, sub)
    assert inv.quotient.order == 3
    rel_rank = smith_normal_form(IntMatrix.from_rows(inv.module.relations)).rank
    assert inv.module.rank - rel_rank == 3
    assert str(cohomology(inv.quotient, inv.module, 1).structure) == "Z/3"
