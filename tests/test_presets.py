from itertools import combinations_with_replacement

import pytest

from qhecke.algebra import (
    TwistedOperator,
    check_relations,
    gen_sigma,
    gen_unit,
)
from qhecke.config import build_setting, emit_config, parse_config
from qhecke.errors import ParseError, UnsupportedDimension
from qhecke.polyops import Poly
from qhecke.presets import (
    QuiverSpec,
    coset_sequences,
    klr_oracle_check,
    preset_klr,
    preset_nilhecke,
    preset_skew,
)
from qhecke.repdata import h_count


ARROW_11 = QuiverSpec(vertices=(1, 2), arrows=((1, 2),), dimension={1: 1, 2: 1})
ARROW_21 = QuiverSpec(vertices=(1, 2), arrows=((1, 2),), dimension={1: 2, 2: 1})
ARROW_22 = QuiverSpec(vertices=(1, 2), arrows=((1, 2),), dimension={1: 2, 2: 2})
JORDAN = QuiverSpec(vertices=(1,), arrows=((1, 1),), dimension={1: 2})


def monomials(n, degree):
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for k in combo:
                e[k] += 1
            out.append(tuple(e))
    return out


class TestNilHecke:
    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_build_and_relations(self, label):
        cfg = preset_nilhecke(label)
        setting = build_setting(cfg)
        _, _, table, data = setting
        assert len(table) == 1 and data.r == 0
        assert all(r.passed for r in check_relations(setting))

    def test_squares_vanish(self):
        cfg = preset_nilhecke("A2")
        setting = build_setting(cfg)
        for s in range(2):
            sig = gen_sigma(setting, 0, s)
            assert (sig * sig).is_zero()


class TestSkew:
    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_square_is_minus_two(self, label):
        cfg = preset_skew(label)
        setting = build_setting(cfg)
        for s in range(2):
            sig = gen_sigma(setting, 0, s)
            assert sig * sig == sig.scale(-2)

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_shifted_generators_give_group_action(self, label):
        # (sigma(s)+1)^2 = 1 and the braid power of the shifted pair acts as
        # the identity on all monomials of degree <= 4
        cfg = preset_skew(label)
        setting = build_setting(cfg)
        datum, sub, table, _ = setting
        group = sub.group
        n = datum.ambient_rank
        unit = gen_unit(table, 0)
        m_st = group.braid_order(0, 1)
        shifted = [gen_sigma(setting, 0, s) + unit for s in range(2)]
        for s in range(2):
            assert shifted[s] * shifted[s] == unit
        power = unit
        for _ in range(m_st):
            power = power * shifted[0] * shifted[1]
        for e in monomials(n, 4):
            m = {0: Poly.monomial(n, e)}
            assert power.apply(m) == m

    def test_relations(self):
        for label in ("A2", "B2"):
            cfg = preset_skew(label)
            setting = build_setting(cfg)
            assert all(r.passed for r in check_relations(setting))


class TestKlrPresets:
    def test_arrow_11(self):
        cfg = preset_klr(ARROW_11)
        setting = build_setting(cfg)
        _, sub, table, _ = setting
        assert len(table) == 2
        assert sub.group_order == 1
        seqs = coset_sequences(ARROW_11, table)
        h_by_seq = {
            seqs[i]: h_count(setting, i, 0) for i in table.indices
        }
        # arrow 1 -> 2 twists the crossing on the (2,1) side of the wall
        assert h_by_seq == {(1, 2): 0, (2, 1): 1}

    def test_arrow_11_wall_square(self):
        cfg = preset_klr(ARROW_11)
        setting = build_setting(cfg)
        _, sub, table, _ = setting
        seqs = coset_sequences(ARROW_11, table)
        i12 = seqs.index((1, 2))
        i21 = seqs.index((2, 1))
        group = sub.group
        # sigma_{12}(s) sigma_{21}(s) = (-1)^{h_{21}} alpha^{h_{12}+h_{21}} 1_{12}
        lhs = gen_sigma(setting, i12, 0) * gen_sigma(setting, i21, 0)
        from qhecke.polyops import Poly, RatFun

        value = RatFun(-Poly.linear((1, -1)))
        expected = TwistedOperator(table, {(i12, group.identity): value})
        assert lhs == expected

    def test_jordan_loop(self):
        cfg = preset_klr(JORDAN)
        setting = build_setting(cfg)
        _, _, table, _ = setting
        assert len(table) == 1
        assert h_count(setting, 0, 0) == 1
        sig = gen_sigma(setting, 0, 0)
        assert sig * sig == sig.scale(-2)

    def test_arrow_21_counts(self):
        cfg = preset_klr(ARROW_21)
        datum, sub, table, data = build_setting(cfg)
        assert len(table) == 3
        assert sub.group_order == 2
        seqs = coset_sequences(ARROW_21, table)
        assert sorted(seqs) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]

    def test_arrow_and_loop_invariant(self):
        # h equals the arrow count into the left slot, read off the quiver
        for quiver in (ARROW_11, ARROW_21, ARROW_22, JORDAN):
            cfg = preset_klr(quiver)
            setting = build_setting(cfg)
            _, _, table, _ = setting
            seqs = coset_sequences(quiver, table)
            for i in table.indices:
                for k in range(quiver.total_dimension - 1):
                    expected = sum(
                        1
                        for (q, qp) in quiver.arrows
                        if q == seqs[i][k + 1] and qp == seqs[i][k]
                    )
                    assert h_count(setting, i, k) == expected

    def test_relations_all_quivers(self):
        for quiver in (ARROW_11, ARROW_21, ARROW_22, JORDAN):
            cfg = preset_klr(quiver)
            setting = build_setting(cfg)
            assert all(r.passed for r in check_relations(setting))

    def test_dimension_bounds(self):
        with pytest.raises(UnsupportedDimension):
            preset_klr(QuiverSpec(vertices=(1,), arrows=(), dimension={1: 7}))
        with pytest.raises(UnsupportedDimension):
            preset_klr(QuiverSpec(vertices=(1,), arrows=(), dimension={1: 0}))


class TestQuiverSpecValidation:
    """`QuiverSpec` goes through `config.check_quiver`, the validator
    `--quiver` uses too."""

    @pytest.mark.parametrize(
        "dimension", [{"a": 2, 1: 1}, {"a": 2, "1": 1}, [2, 1]],
        ids=["by-vertex", "by-name", "list"],
    )
    def test_three_spellings_of_the_dimension(self, dimension):
        spec = QuiverSpec(["a", 1], [["a", 1]], dimension)
        assert spec.vertices == ("a", 1) and spec.arrows == (("a", 1),)
        assert spec.dimension == {"a": 2, 1: 1}

    @pytest.mark.parametrize(
        "vertices,arrows,dimension,message",
        [
            ((1, 2), ((1, 3),), {1: 1}, "touches an unknown vertex"),
            ((1, 2), (), {3: 1}, "dimension at unknown vertex 3"),
            ((1, 2), (), {1: 1, "1": 2}, "dimension given twice at vertex 1"),
            ((1, 2), (), {1: -1}, "must be at least 0"),
            ((1, 2), (), [1], "one entry per vertex"),
        ],
        ids=["arrow", "dimension-key", "dimension-twice", "negative", "short-list"],
    )
    def test_bad_input_is_a_parse_error(self, vertices, arrows, dimension, message):
        with pytest.raises(ParseError, match=message):
            QuiverSpec(vertices, arrows, dimension)


class TestOracle:
    @pytest.mark.parametrize(
        "quiver", [ARROW_11, ARROW_21, JORDAN], ids=["arrow11", "arrow21", "jordan"]
    )
    def test_oracle_agrees(self, quiver):
        for r in klr_oracle_check(quiver):
            assert r.passed, (r.name, r.counterexample)

    def test_oracle_agrees_bigger(self):
        for r in klr_oracle_check(ARROW_22):
            assert r.passed, (r.name, r.counterexample)

    def test_multiple_arrows(self):
        double = QuiverSpec(
            vertices=(1, 2), arrows=((1, 2), (1, 2)), dimension={1: 1, 2: 1}
        )
        cfg = preset_klr(double)
        setting = build_setting(cfg)
        _, _, table, _ = setting
        seqs = coset_sequences(double, table)
        i21 = seqs.index((2, 1))
        assert h_count(setting, i21, 0) == 2
        for r in klr_oracle_check(double):
            assert r.passed, (r.name, r.counterexample)


class TestRoundTrip:
    def test_presets_roundtrip_bit_exact(self):
        for cfg in (
            preset_nilhecke("G2"),
            preset_skew("B2"),
            preset_klr(ARROW_21),
            preset_klr(JORDAN),
        ):
            text = emit_config(cfg)
            again = emit_config(parse_config(text))
            assert again == text
