import random
from fractions import Fraction

import pytest

from qhecke.algebra import (
    TwistedOperator,
    _dihedral_elements,
    braid_assumptions_hold,
    braid_defect,
    check_relations,
    diag_mult,
    gen_sigma,
    gen_unit,
    gen_var,
    generator_grading_check,
    left_mult,
    sigma_word,
    straightening_poly,
)
from qhecke.cli import _all_generators
from qhecke.config import build_setting
from qhecke.errors import NonIntegralResult
from qhecke.polyops import Poly, RatFun, monomials_up_to
from qhecke.presets import QuiverSpec, preset_klr, preset_nilhecke, preset_skew
from qhecke.repdata import Setting, q_poly
from qhecke.rootcore import build_root_datum
from qhecke.subgroup import CosetTable, TorusConstraint, fixed_subsystem

from conftest import make_setting
from oracles import (
    NonPolynomialCoefficient,
    NotInSpan,
    all_reduced_words,
    apply_per_term,
    bruhat_leq,
    demazure,
    demazure_word,
    normal_form,
    reassemble,
    sigma_basis_element,
)


@pytest.fixture(scope="module")
def nil_a2():
    return make_setting("A2")


@pytest.fixture(scope="module")
def skew_a2():
    return make_setting("A2", kind="skew")


@pytest.fixture(scope="module")
def halfint_a2():
    return make_setting(
        "A2", constraints=(TorusConstraint("torsion", (Fraction(1, 2), 0)),), kind="skew"
    )


class TestGenerators:
    def test_unit_products(self, halfint_a2):
        _, _, table, data = halfint_a2
        for i in table.indices:
            for j in table.indices:
                prod = gen_unit(table, i) * gen_unit(table, j)
                if i == j:
                    assert prod == gen_unit(table, i)
                else:
                    assert prod.is_zero()

    def test_sum_of_units_is_identity(self, halfint_a2):
        datum, _, table, data = halfint_a2
        n = datum.ambient_rank
        total = TwistedOperator(table)
        for i in table.indices:
            total = total + gen_unit(table, i)
        for i in table.indices:
            m = {i: Poly.monomial(n, (1, 2))}
            assert total.apply(m) == m

    def test_vars_commute(self, halfint_a2):
        _, _, table, _ = halfint_a2
        a = gen_var(table, 1, 0)
        b = gen_var(table, 1, 1)
        assert a * b == b * a

    def test_unit_apply_restricts(self, halfint_a2):
        datum, _, table, _ = halfint_a2
        n = datum.ambient_rank
        m = {0: Poly.variable(n, 0), 1: Poly.variable(n, 1)}
        out = gen_unit(table, 0).apply(m)
        assert out == {0: Poly.variable(n, 0)}

    def test_sigma_apply_own_root(self, skew_a2):
        # crossing applied to its own root is -2 q on a stabilized index
        datum, _, _, _ = skew_a2
        alpha = Poly.linear(datum.simple_roots[0])
        out = gen_sigma(skew_a2, 0, 0).apply({0: alpha})
        q = q_poly(skew_a2, 0, 0)
        assert out == {0: -2 * q}

    def test_a_crossing_that_kills_its_input_leaves_no_component(self, nil_a2):
        # the divided difference of a constant is zero: apply drops it
        n = nil_a2.datum.ambient_rank
        assert gen_sigma(nil_a2, 0, 0).apply({0: Poly.const(n, 1)}) == {}

    def test_nilhecke_sigma_is_divided_difference(self, nil_a2):
        datum, _, _, _ = nil_a2
        n = datum.ambient_rank
        f = Poly.variable(n, 0) ** 2 * Poly.variable(n, 1)
        out = sigma_word(nil_a2, 0, (0, 1, 0)).apply({0: f})
        expected = demazure_word(datum, (0, 1, 0), f)
        got = out.get(0, Poly(n))
        assert got == expected

    def test_apply_raises_on_nonintegral(self, nil_a2):
        datum, sub, table, data = nil_a2
        n = datum.ambient_rank
        group = sub.group
        alpha = Poly.linear(datum.simple_roots[0])
        bad = TwistedOperator(
            table, {(0, group.identity): RatFun(Poly.const(n, 1), alpha)}
        )
        with pytest.raises(NonIntegralResult):
            bad.apply({0: Poly.const(n, 1)})


class TestSigmaWord:
    def test_empty_word_is_unit(self, skew_a2):
        _, _, table, _ = skew_a2
        assert sigma_word(skew_a2, 0, ()) == gen_unit(table, 0)

    def test_single_letter(self, skew_a2):
        assert sigma_word(skew_a2, 0, (1,)) == gen_sigma(skew_a2, 0, 1)

    def test_braid_words_agree_nilhecke(self, nil_a2):
        assert sigma_word(nil_a2, 0, (0, 1, 0)) == sigma_word(nil_a2, 0, (1, 0, 1))

    def test_filtration_support(self, halfint_a2):
        _, sub, table, _ = halfint_a2
        group = sub.group
        for g in range(len(group)):
            word = group.reduced_word(g)
            for i in table.indices:
                op = sigma_word(halfint_a2, i, word)
                for (_, v) in op.terms:
                    assert bruhat_leq(group, v, g)

    def test_reduced_word_independence_mod_lower(self, halfint_a2):
        _, sub, table, _ = halfint_a2
        group = sub.group
        for g in range(len(group)):
            words = all_reduced_words(group, g)
            for i in table.indices:
                base = sigma_word(halfint_a2, i, words[0])
                for word in words[1:]:
                    diff = base - sigma_word(halfint_a2, i, word)
                    for (_, v) in diff.terms:
                        assert bruhat_leq(group, v, g) and v != g


class TestStraightening:
    def test_cross_wall_correction_vanishes(self, halfint_a2):
        datum, _, table, _ = halfint_a2
        for i in table.indices:
            for s in range(datum.rank):
                if table.act(i, s) != i:
                    assert straightening_poly(halfint_a2, i, s, 0) == {}

    def test_nilhecke_constant(self, nil_a2):
        datum, _, _, _ = nil_a2
        n = datum.ambient_rank
        for t in range(n):
            c = straightening_poly(nil_a2, 0, 0, t)
            coroot = datum.coroot(datum.simple_roots[0])
            expected = Poly.const(n, -Fraction(coroot[t]))
            got = c.get(0, Poly(n))
            assert got == expected

    def test_skew_multiple_of_q(self, skew_a2):
        datum, _, _, _ = skew_a2
        n = datum.ambient_rank
        c = straightening_poly(skew_a2, 0, 0, 1)
        q = q_poly(skew_a2, 0, 0)
        coroot = datum.coroot(datum.simple_roots[0])
        assert c[0] == q * (-Fraction(coroot[1]))


class TestRelations:
    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_nilhecke(self, label):
        setting = make_setting(label)
        for r in check_relations(setting):
            assert r.passed, (label, r.name, r.counterexample)

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_skew(self, label):
        setting = make_setting(label, kind="skew")
        for r in check_relations(setting):
            assert r.passed, (label, r.name, r.counterexample)

    def test_half_integral(self, halfint_a2):
        for r in check_relations(halfint_a2):
            assert r.passed, (r.name, r.counterexample)

    def test_general_twisting_data(self):
        # custom twisting data (highest-root power): the closed-form square
        # and braid extraction are skipped, the rest must hold exactly
        datum = build_root_datum("A2")
        setting = Setting(CosetTable(fixed_subsystem(datum, [])), [[(1, 1)]], [datum.roots])
        assert not setting.data.borel_flag
        results = check_relations(setting)
        names = {r.name for r in results}
        assert "square-closed-form" not in names
        assert "braid-defect-extraction" not in names
        for r in results:
            assert r.passed, (r.name, r.counterexample)

    def test_skew_square(self, skew_a2):
        sig = gen_sigma(skew_a2, 0, 0)
        assert sig * sig == sig.scale(-2)

    def test_grading(self, skew_a2, nil_a2, halfint_a2):
        for setting in (skew_a2, nil_a2, halfint_a2):
            for r in generator_grading_check(setting):
                assert r.passed, r.counterexample


class TestBraidDefect:
    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
    def test_dihedral_elements_lie_below_the_longest(self, label):
        # so extraction needs no Bruhat test beside membership in <s, t>
        group = build_root_datum(label).weyl()
        for s in range(group.datum.rank):
            for t in range(group.datum.rank):
                if s == t:
                    continue
                m = group.braid_order(s, t)
                by_length, word_of = _dihedral_elements(group, s, t, m)
                x = group.mul_word((s, t)[j % 2] for j in range(m))
                assert len(word_of) == 2 * m and by_length[m] == [x]
                assert all(bruhat_leq(group, g, x) for g in word_of)

    def test_nilhecke_all_zero(self, nil_a2):
        defect = braid_defect(nil_a2, 0, 0, 1)
        assert defect.all_zero() and defect.all_polynomial()

    def test_skew_a2_unit_coefficients(self, skew_a2):
        # full stabilizer with exponent one: the defect is the difference of
        # the two wall-crossing generators themselves
        _, sub, _, _ = skew_a2
        group = sub.group
        defect = braid_defect(skew_a2, 0, 0, 1)
        assert defect.order == 3
        one = RatFun.from_scalar(2, 1)
        assert defect.coefficients[group.simple[0]] == one
        assert defect.coefficients[group.simple[1]] == -one
        for g, c in defect.coefficients.items():
            if g not in (group.simple[0], group.simple[1]):
                assert c.is_zero()
        assert defect.all_polynomial()

    def test_skew_b2_matches_closed_form(self):
        setting = make_setting("B2", kind="skew")
        datum, sub, _, _ = setting
        group = sub.group
        defect = braid_defect(setting, 0, 0, 1)
        assert defect.order == 4
        a_s = Poly.linear(datum.simple_roots[0])
        a_t = Poly.linear(datum.simple_roots[1])
        s_m = datum.simple_reflection_matrix(0)
        t_m = datum.simple_reflection_matrix(1)
        q_st = (
            demazure(datum, 0, a_t) * demazure(datum, 1, a_s)
            + a_t.substitute_linear(s_m) * demazure_word(datum, (0, 1), a_s)
            + a_s.substitute_linear(t_m) * demazure_word(datum, (1, 0), a_t)
        )
        st = group.mul(group.simple[0], group.simple[1])
        ts = group.mul(group.simple[1], group.simple[0])
        assert defect.coefficients[st] == RatFun(q_st)
        assert defect.coefficients[ts] == RatFun(-q_st)
        assert defect.all_polynomial()

    def test_trivial_stabilizer_zero(self):
        # GL3 with distinct weights: trivial W, sequences all regular
        datum = build_root_datum("GL3")
        sub = fixed_subsystem(datum, [TorusConstraint("generic", (0, 1, 2))])
        table = CosetTable(sub)
        setting = Setting(table, [datum.positive_roots], [datum.roots])
        for i in table.indices:
            defect = braid_defect(setting, i, 0, 1)
            assert defect.all_zero()

    @pytest.mark.parametrize("label", ["B2", "G2"])
    def test_assumption_certification(self, label):
        setting = make_setting(label)
        assert braid_assumptions_hold(setting, 0, 1)
        if label == "G2":
            assert not braid_assumptions_hold(make_setting(label, kind="skew"), 0, 1)


class TestNormalForm:
    def test_unit(self, halfint_a2):
        datum, sub, table, _ = halfint_a2
        group = sub.group
        nf = normal_form(halfint_a2, gen_unit(table, 1))
        assert nf.support() == [group.identity]
        me = nf.coefficients[group.identity]
        assert me == {1: Poly.const(datum.ambient_rank, 1)}

    def test_sigma(self, halfint_a2):
        datum, sub, table, _ = halfint_a2
        group = sub.group
        for i in table.indices:
            for s in range(datum.rank):
                sig = gen_sigma(halfint_a2, i, s)
                nf = normal_form(halfint_a2, sig)
                top = nf.coefficients[group.simple[s]]
                assert top[i] == Poly.const(datum.ambient_rank, 1)
                assert reassemble(halfint_a2, nf) == sig

    def test_roundtrip_random_products(self, halfint_a2):
        import random

        datum, _, table, _ = halfint_a2
        rng = random.Random(3)
        gens = []
        for i in table.indices:
            gens.append(gen_unit(table, i))
            gens.append(gen_var(table, i, 0))
            for s in range(datum.rank):
                gens.append(gen_sigma(halfint_a2, i, s))
        for _ in range(10):
            op = rng.choice(gens)
            for _ in range(rng.randrange(1, 3)):
                op = op * rng.choice(gens)
            nf = normal_form(halfint_a2, op)
            assert reassemble(halfint_a2, nf) == op

    def test_leading_coefficient_of_products(self, halfint_a2):
        # length-additive crossing products have unit leading coefficient
        datum, sub, _, _ = halfint_a2
        group = sub.group
        one = Poly.const(datum.ambient_rank, 1)
        for s in range(datum.rank):
            for w in range(len(group)):
                sw = group.mul(group.simple[s], w)
                if group.length(sw) != group.length(w) + 1:
                    continue
                op = sigma_basis_element(halfint_a2, group.simple[s]) * sigma_basis_element(
                    halfint_a2, w
                )
                nf = normal_form(halfint_a2, op)
                top = nf.coefficients.get(sw)
                assert top is not None
                assert all(f == one for f in top.values())

    def test_not_in_span(self, halfint_a2):
        datum, sub, table, _ = halfint_a2
        group = sub.group
        alpha = Poly.linear(datum.simple_roots[0])
        ratio = TwistedOperator(
            table,
            {(0, group.identity): RatFun(Poly.const(datum.ambient_rank, 1), alpha)},
        )
        with pytest.raises((NotInSpan, NonPolynomialCoefficient)):
            normal_form(halfint_a2, ratio)


class TestAssociativity:
    def test_random_triples(self, halfint_a2):
        import random

        datum, _, table, _ = halfint_a2
        rng = random.Random(11)
        gens = []
        for i in table.indices:
            gens.append(gen_unit(table, i))
            for t in range(datum.ambient_rank):
                gens.append(gen_var(table, i, t))
            for s in range(datum.rank):
                gens.append(gen_sigma(halfint_a2, i, s))
        for _ in range(15):
            a, b, c = (rng.choice(gens) for _ in range(3))
            assert (a * b) * c == a * (b * c)


APPLY_PRESETS = {
    "nil:A2": preset_nilhecke("A2"),
    "nil:B2": preset_nilhecke("B2"),
    "nil:G2": preset_nilhecke("G2"),
    "nil:A3": preset_nilhecke("A3"),
    "skew:B2": preset_skew("B2"),
    "klr-arrow-2-2": preset_klr(QuiverSpec((1, 2), ((1, 2),), {1: 2, 2: 2})),
    "klr-looparrow-2-2": preset_klr(QuiverSpec((1, 2), ((1, 1), (1, 2)), {1: 2, 2: 2})),
    "klr-jordan-3": preset_klr(QuiverSpec((1,), ((1, 1),), {1: 3})),
}


def _sources(op):
    table = op.table
    return sorted({table.act_elem(i, g) for (i, g) in op.terms})


def _assert_apply_matches_the_oracle(op, n, monos):
    for j in _sources(op):
        for e in monos:
            m = {j: Poly.monomial(n, e)}
            assert op.apply(m) == apply_per_term(op, m), (op, j, e)


class TestApplyAgainstThePerTermOracle:
    """`TwistedOperator.apply` divides once per output component; the
    oracle builds one reduced RatFun per term and adds them."""

    @pytest.mark.parametrize("key", sorted(APPLY_PRESETS))
    def test_every_generator_on_monomials_up_to_degree_4(self, key):
        setting = build_setting(APPLY_PRESETS[key])
        n = setting.datum.ambient_rank
        monos = monomials_up_to(n, 4)
        for _, gen in _all_generators(setting):
            _assert_apply_matches_the_oracle(gen, n, monos)

    @pytest.mark.parametrize("key", sorted(APPLY_PRESETS))
    def test_every_product_of_two_generators(self, key):
        # every A * B the products suite can draw, applied on all its source
        # cosets to the monomials the suite draws from
        cfg = APPLY_PRESETS[key]
        setting = build_setting(cfg)
        n = setting.datum.ambient_rank
        gens = [gen for _, gen in _all_generators(setting)]
        monos = monomials_up_to(n, min(cfg.degree_bound, 2))
        for A in gens:
            for B in gens:
                _assert_apply_matches_the_oracle(A * B, n, monos)

    def test_operator_over_two_denominators(self, nil_a2):
        # sigma_0 + sigma_1 on one component: numerators over alpha_0 and
        # alpha_1 meet in one component and are divided out together
        n = nil_a2.datum.ambient_rank
        op = gen_sigma(nil_a2, 0, 0) + gen_sigma(nil_a2, 0, 1) + gen_var(nil_a2.table, 0, 1)
        _assert_apply_matches_the_oracle(op, n, monomials_up_to(n, 4))

    def test_nonintegral_raises_on_both_paths(self, nil_a2):
        datum, _, table, _ = nil_a2
        n = datum.ambient_rank
        group = nil_a2.group
        alpha0 = Poly.linear(datum.simple_roots[0])
        alpha1 = Poly.linear(datum.simple_roots[1])
        # 1/alpha_0, and alpha_1 / alpha_0 - (s_0 applied) / alpha_0, whose
        # two terms share a denominator that still does not divide
        single = TwistedOperator(table, {(0, group.identity): RatFun(Poly.const(n, 1), alpha0)})
        shared = TwistedOperator(
            table,
            {
                (0, group.identity): RatFun(alpha1, alpha0),
                (0, group.simple[0]): RatFun(Poly.const(n, 2), alpha0),
            },
        )
        for op in (single, shared):
            m = {0: Poly.const(n, 1)}
            with pytest.raises(NonIntegralResult):
                op.apply(m)
            with pytest.raises(NonIntegralResult):
                apply_per_term(op, m)

    def test_index_by_source_is_built_once(self, nil_a2):
        n = nil_a2.datum.ambient_rank
        sig = gen_sigma(nil_a2, 0, 0)
        assert sig._sources is None
        sig.apply({0: Poly.const(n, 1)})
        sources, slots = sig._sources
        # both terms read component 0 and share the denominator alpha_0
        assert list(sources) == [0] and len(sources[0]) == 2 and len(slots) == 1
        sig.apply({0: Poly.monomial(n, (1, 0))})
        assert sig._sources[0] is sources
