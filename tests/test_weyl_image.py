"""The Weyl action by element index (`weyl_image`, with its per-group memo
of monomial images) against the matrix path it replaced: substituting
`group.matrix(g)` into the whole polynomial."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import corrupt_one_image
from qhecke import algebra, localize
from qhecke.config import build_setting
from qhecke._kernel_py import pack
from qhecke.polyops import Poly, RatFun, monomials_up_to
from qhecke.presets import preset_nilhecke, preset_skew
from qhecke.rootcore import build_root_datum

LABELS = ("A2", "B2", "G2", "A3", "B3", "GL4")
# one setting per label for the whole module: its group's memo stays warm
# from one example to the next, as it does across the suites of a check
SETTINGS = {label: build_setting(preset_nilhecke(label)) for label in LABELS}


@st.composite
def poly(draw, n, max_terms=4):
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 3), min_size=n, max_size=n).map(tuple),
                st.fractions(min_value=-3, max_value=3, max_denominator=3),
            ),
            max_size=max_terms,
        )
    )
    out = Poly(n)
    for e, c in terms:
        out = out + Poly.monomial(n, e) * c
    return out


@st.composite
def label_and_poly(draw):
    label = draw(st.sampled_from(LABELS))
    return label, draw(poly(SETTINGS[label].datum.ambient_rank))


@st.composite
def label_and_ratfun(draw):
    """A reduced RatFun: built with reduce=True, its denominator a random
    polynomial or a product of roots (the algebra's denominators)."""
    label = draw(st.sampled_from(LABELS))
    datum = SETTINGS[label].datum
    n = datum.ambient_rank
    num = draw(poly(n))
    if draw(st.booleans()):
        den = draw(poly(n).filter(bool))
    else:
        den = Poly.const(n, draw(st.sampled_from((1, 2, -3))))
        for r in draw(st.lists(st.sampled_from(datum.roots), max_size=3)):
            den = den * Poly.linear(r)
    return label, RatFun(num, den)


class TestAgainstTheMatrixPath:
    @settings(max_examples=40, deadline=None)
    @given(label_and_poly())
    def test_poly_every_element(self, case):
        label, f = case
        group = SETTINGS[label].group
        for g in range(len(group)):
            want = f.substitute_linear(group.matrix(g))
            assert f.weyl_image(group, g) == want
            # a second call reads the memo only
            assert f.weyl_image(group, g) == want

    @settings(max_examples=25, deadline=None)
    @given(label_and_ratfun())
    def test_ratfun_every_element(self, case):
        label, f = case
        group = SETTINGS[label].group
        for g in range(len(group)):
            got = f.weyl_image(group, g)
            m = group.matrix(g)
            # the matrix path constructs with reduce=True; the unreduced
            # construction must land on the same num and den
            want = RatFun(f.num.substitute_linear(m), f.den.substitute_linear(m))
            assert got.num == want.num and got.den == want.den
            assert got == f.substitute_linear(m)

    @pytest.mark.parametrize("label", LABELS)
    def test_identity_returns_its_argument(self, label):
        group = SETTINGS[label].group
        n = SETTINGS[label].datum.ambient_rank
        f = Poly.variable(n, 0) * 3 + 1
        r = RatFun(f, Poly.variable(n, n - 1))
        assert f.weyl_image(group, group.identity) is f
        assert r.weyl_image(group, group.identity) is r

    def test_memo_fills_per_monomial_on_first_use(self):
        setting = build_setting(preset_nilhecke("A2"))
        group = setting.group
        g = group.mul(group.simple[0], group.simple[1])
        f = Poly.from_pairs(2, [[[2, 0], 1], [[0, 1], -2], [[0, 0], 5]])
        assert group.monomial_images(g) == {}
        f.weyl_image(group, g)
        # x0^2 comes from x0, x0 and x1 from the constant monomial: the
        # monomials of f and the divisors on their chains, nothing else
        chain = {pack((2, 0)), pack((1, 0)), pack((0, 1)), pack((0, 0))}
        assert set(group.monomial_images(g)) == chain
        f.weyl_image(group, group.identity)
        assert group.monomial_images(group.identity) == {}

    def test_second_setting_keeps_its_own_memo(self):
        cfg = preset_nilhecke("B2")
        first, second = build_setting(cfg), build_setting(cfg)
        assert first.group is not second.group
        f = Poly.from_pairs(2, [[[1, 2], 1], [[3, 0], -1]])
        images = [f.weyl_image(first.group, g) for g in range(len(first.group))]
        assert all(second.group.monomial_images(g) == {} for g in range(len(second.group)))
        # a wrong entry in the first memo does not reach the second setting
        first.group.monomial_images(first.group.simple[0])[pack((1, 2))] = {pack((0, 0)): 7}
        assert [f.weyl_image(second.group, g) for g in range(len(second.group))] == images


class TestChainedImages:
    """A memo miss builds image(e) = image(e / x_k) * g(x_k) for the last
    variable x_k of e; whatever order the monomials first arrive in, every
    image equals the matrix substitution."""

    @pytest.mark.parametrize("order", ("ascending", "descending"))
    @pytest.mark.parametrize("label", ("A3", "B3", "G2"))
    def test_every_element_up_to_degree_5(self, label, order):
        group = build_root_datum(label).weyl()
        n = group.datum.ambient_rank
        monos = [Poly.monomial(n, e) for e in monomials_up_to(n, 5)]
        if order == "descending":
            monos.reverse()
        for g in range(len(group)):
            m = group.matrix(g)
            for f in monos:
                assert f.weyl_image(group, g) == f.substitute_linear(m)
        # every monomial up to degree 5 and nothing else is in the memo
        keys = {pack(e) for e in monomials_up_to(n, 5)}
        assert all(set(group.monomial_images(g)) == keys for g in range(len(group)) if g)

    def test_chain_from_a_filled_divisor(self):
        group = build_root_datum("A3").weyl()
        g = group.simple[1]
        x1 = Poly.variable(3, 1)
        x1.weyl_image(group, g)
        f = Poly.monomial(3, (0, 3, 2))
        assert f.weyl_image(group, g) == f.substitute_linear(group.matrix(g))
        chain = {(0, 0, 0), (0, 1, 0), (0, 2, 0), (0, 3, 0), (0, 3, 1), (0, 3, 2)}
        assert set(group.monomial_images(g)) == {pack(e) for e in chain}


class TestColumnsPerElement:
    """A memo miss reads the element's columns from the group, which builds
    them from `matrix(g)` once per element."""

    @pytest.mark.parametrize("label", ("A3", "B3", "G2"))
    def test_columns_are_the_matrix_columns(self, label):
        group = build_root_datum(label).weyl()
        n = group.datum.ambient_rank
        for g in range(len(group)):
            m = group.matrix(g)
            assert group.columns(g) == tuple(tuple(row[k] for row in m) for k in range(n))
            assert group.columns(g) is group.columns(g)

    def test_matrix_read_once_per_element(self, monkeypatch):
        group = build_root_datum("B3").weyl()
        reads = []
        real = type(group).matrix

        def spy(self, g):
            reads.append(g)
            return real(self, g)

        monkeypatch.setattr(type(group), "matrix", spy)
        monos = [Poly.monomial(3, e) for e in monomials_up_to(3, 3)]
        for g in range(len(group)):
            for f in reversed(monos):
                f.weyl_image(group, g)
        # one read per element, and one more per element whose matrix
        # extends it by a letter (`matrix` recurses along the reduced
        # word); a read per memo miss would be several per element
        assert set(reads) == set(range(len(group)))
        assert len(reads) < 2 * len(group)

    def test_result_shares_no_dict_with_the_memo(self):
        group = build_root_datum("A2").weyl()
        g = group.simple[0]
        x0 = Poly.variable(2, 0)
        image = x0.weyl_image(group, g)
        image.d.clear()
        assert x0.weyl_image(group, g) == x0.substitute_linear(group.matrix(g))


class TestCorruptedMemoIsCaught:
    @pytest.mark.parametrize("label", ("A2", "B2"))
    def test_localization_suite_fails(self, label):
        setting = build_setting(preset_nilhecke(label))
        assert all(r.passed for r in localize.intertwining_check(setting))
        assert all(r.passed for r in localize.theta_equivariance_check(setting))
        corrupt_one_image(setting)
        assert not all(r.passed for r in localize.intertwining_check(setting))
        assert not all(r.passed for r in localize.theta_equivariance_check(setting))

    @pytest.mark.parametrize("label", ("A2", "B2"))
    def test_relations_suite_fails(self, label):
        setting = build_setting(preset_nilhecke(label))
        corrupt_one_image(setting)
        assert not all(r.passed for r in algebra.check_relations(setting))
        assert all(r.passed for r in algebra.check_relations(build_setting(preset_nilhecke(label))))

    @pytest.mark.parametrize("label", ("A2", "B2", "G2", "A3"))
    def test_skew_relations_fail(self, label):
        # straightening computes s(x_t) from the reflection matrix, so the
        # corrupted memo shows on the relations side of a skew setting too
        setting = build_setting(preset_skew(label))
        corrupt_one_image(setting)
        failed = [r.name for r in algebra.check_relations(setting) if not r.passed]
        assert "straightening" in failed
        assert all(r.passed for r in algebra.check_relations(build_setting(preset_skew(label))))

    def test_skew_localization_fails(self):
        setting = build_setting(preset_skew("A2"))
        corrupt_one_image(setting)
        assert not all(r.passed for r in localize.intertwining_check(setting))
        assert not all(r.passed for r in localize.theta_equivariance_check(setting))
