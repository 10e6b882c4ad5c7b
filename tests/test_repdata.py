from collections import Counter
from fractions import Fraction
from operator import and_

import pytest

from qhecke import repdata
from qhecke.config import build_setting
from qhecke.errors import InternalInvariantError, UnsuitableData
from qhecke.polyops import Poly
from qhecke.presets import QuiverSpec, preset_klr
from qhecke.repdata import (
    Setting,
    fiber_split_check,
    fiber_weights,
    h_count,
    q_poly,
    validate,
)
from qhecke.rootcore import build_root_datum
from qhecke.subgroup import CosetTable, TorusConstraint, fixed_subsystem

import oracles
from oracles import as_counter


@pytest.fixture(scope="module")
def a2():
    return build_root_datum("A2")


@pytest.fixture(scope="module")
def a2_table(a2):
    return CosetTable(fixed_subsystem(a2, []))


@pytest.fixture(scope="module")
def gl2_table():
    gl2 = build_root_datum("GL2")
    return CosetTable(fixed_subsystem(gl2, [TorusConstraint("generic", (0, 1))]))


class TestValidate:
    def test_positive_system_suitable(self, a2, a2_table):
        setting = Setting(a2_table, [a2.positive_roots], [a2.roots])
        assert setting.data.borel_flag
        assert all(r.passed for r in validate(setting))

    def test_highest_root_power_suitable(self, a2, a2_table):
        setting = Setting(a2_table, [[(1, 1)]], [a2.roots])
        assert not setting.data.borel_flag
        assert all(r.passed for r in validate(setting))

    def test_single_simple_fails_closure(self, a2, a2_table):
        setting = Setting(a2_table, [[(1, 0)]], [a2.roots])
        results = validate(setting)
        assert not all(r.passed for r in results)
        with pytest.raises(UnsuitableData):
            validate(setting, strict=True)

    def test_zero_weights_of_v_dropped(self, a2, a2_table):
        setting = Setting(a2_table, [a2.positive_roots], [list(a2.roots) + [(0, 0)]])
        assert (0, 0) not in setting.data.V_sets[0]
        assert all(r.passed for r in validate(setting))

    def test_non_w_stable_v_fails(self, a2):
        constraint = TorusConstraint("torsion", (Fraction(1, 2), 0))
        table = CosetTable(fixed_subsystem(a2, [constraint]))
        results = validate(Setting(table, [a2.positive_roots], [[(0, 1)]]))
        assert not all(r.passed for r in results)


class TestCounts:
    def test_empty_v_gives_zero(self, a2_table):
        setting = Setting(a2_table)
        # no copies at all: borel flag vacuous, every h is 0
        assert setting.data.borel_flag
        assert h_count(setting, 0, 0) == 0
        assert q_poly(setting, 0, 0) == Poly.const(2, 1)

    def test_gl2_quiver_h_with_explicit_v(self, gl2_table):
        # V = {e_1 - e_2}: counts 1 at the identity coset, 0 across the wall
        gl2 = gl2_table.sub.datum
        setting = Setting(gl2_table, [gl2.positive_roots], [[(1, -1)]])
        table = gl2_table
        i_e = next(i for i in table.indices if table.rep(i) == table.group.identity)
        i_s = table.act(i_e, 0)
        assert h_count(setting, i_e, 0) == 1
        assert h_count(setting, i_s, 0) == 0

    def test_jordan_adjoint_h_is_one_everywhere(self, gl2_table):
        gl2 = gl2_table.sub.datum
        table = CosetTable(fixed_subsystem(gl2, []))
        setting = Setting(table, [gl2.positive_roots], [gl2.roots])
        for i in table.indices:
            assert h_count(setting, i, 0) == 1

    def test_borel_q_is_root_power(self, a2, a2_table):
        setting = Setting(a2_table, [a2.positive_roots] * 2, [a2.roots] * 2)
        for i in a2_table.indices:
            for s in range(2):
                h = h_count(setting, i, s)
                assert h == 2
                assert q_poly(setting, i, s) == Poly.linear(a2.simple_roots[s]) ** h

    def test_q_highest_root_example(self, a2, a2_table):
        # U = {highest root}: only it leaves U under either reflection, so q
        # is the highest-root form exactly when its image lies in V
        theta = (1, 1)
        setting_in = Setting(a2_table, [[theta]], [a2.roots])
        assert q_poly(setting_in, 0, 0) == Poly.linear(theta)
        setting_out = Setting(a2_table, [[theta]], [[(1, 0), (-1, 0)]])
        assert q_poly(setting_out, 0, 0) == Poly.const(2, 1)

    def test_h_requires_borel(self, a2, a2_table):
        setting = Setting(a2_table, [[(1, 1)]], [a2.roots])
        with pytest.raises(ValueError):
            h_count(setting, 0, 0)


class TestQPolyMemo:
    """q_poly is computed, and checked against alpha_s^h, once per (i, s)
    and kept in its setting's `qpolys`."""

    @pytest.fixture
    def klr_setting(self):
        return build_setting(preset_klr(QuiverSpec((1, 2), ((1, 1), (1, 2)), {1: 2, 2: 1})))

    def test_one_entry_per_index_and_reflection(self, klr_setting):
        table, rank = klr_setting.table, klr_setting.datum.rank
        keys = {(i, s) for i in table.indices for s in range(rank)}
        assert klr_setting.qpolys == {}
        first = {key: q_poly(klr_setting, *key) for key in sorted(keys)}
        assert set(klr_setting.qpolys) == keys
        for key in keys:
            assert q_poly(klr_setting, *key) is first[key]
        assert set(klr_setting.qpolys) == keys

    def test_second_setting_keeps_its_own_memo(self, a2, a2_table):
        first = Setting(a2_table, [a2.positive_roots] * 2, [a2.roots] * 2)
        second = Setting(a2_table, [a2.positive_roots] * 2, [a2.roots] * 2)
        want = q_poly(first, 0, 1)
        assert second.qpolys == {}
        first.qpolys[0, 1] = Poly.const(2, 7)
        assert q_poly(second, 0, 1) == want
        assert q_poly(first, 0, 1) == Poly.const(2, 7)

    def test_borel_check_runs_on_the_first_call(self, a2, a2_table, monkeypatch):
        setting = Setting(a2_table, [a2.positive_roots], [a2.roots])
        monkeypatch.setattr(repdata, "h_count", lambda setting, i, s: 2)
        with pytest.raises(InternalInvariantError, match="alpha_s"):
            q_poly(setting, 0, 0)
        assert setting.qpolys == {}
        monkeypatch.undo()
        assert q_poly(setting, 0, 0) == Poly.linear(a2.simple_roots[0])
        assert set(setting.qpolys) == {(0, 0)}


class TestFibers:
    def test_identity_fiber_contains_u(self, a2, a2_table):
        setting = Setting(a2_table, [a2.positive_roots], [a2.roots])
        fw = fiber_weights(setting, setting.group.identity)
        assert as_counter(setting.weights, sum(fw)) == Counter(a2.positive_roots)
        assert as_counter(setting.weights, sum(fw)) == oracles.fiber_weights(setting, setting.group.identity)

    def test_empty_v(self, a2_table):
        setting = Setting(a2_table)
        assert fiber_weights(setting, setting.group.identity) == ()
        assert oracles.fiber_weights(setting, setting.group.identity) == Counter()

    def test_pair_fiber_is_intersection(self, a2, a2_table):
        setting = Setting(a2_table, [a2.positive_roots], [a2.roots])
        group = setting.group
        s0 = group.simple[0]
        fp = map(and_, fiber_weights(setting, group.identity), fiber_weights(setting, s0))
        expected = Counter(
            set(a2.positive_roots) & {group.act(s0, r) for r in a2.positive_roots}
        )
        assert as_counter(setting.weights, sum(fp)) == expected
        assert expected == oracles.fiber_pair_weights(setting, group.identity, s0)

    @pytest.mark.parametrize(
        "label,constraint",
        [
            ("A2", None),
            ("A2", ("torsion", (Fraction(1, 2), 0))),
            ("B2", None),
            ("G2", None),
        ],
    )
    def test_split_identity(self, label, constraint):
        datum = build_root_datum(label)
        constraints = [TorusConstraint(*constraint)] if constraint else []
        table = CosetTable(fixed_subsystem(datum, constraints))
        setting = Setting(table, [datum.positive_roots], [datum.roots])
        for r in fiber_split_check(setting):
            assert r.passed, (label, r.name)

    def test_split_identity_non_borel(self, a2, a2_table):
        setting = Setting(a2_table, [[(1, 1)]], [a2.roots])
        for r in fiber_split_check(setting):
            assert r.passed, r.name
