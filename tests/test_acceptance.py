"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Everything is exact symbolic equality; the only tolerances are the stated
wall-clock bounds, asserted per criterion.  Run with `pytest -v -s` to see
the per-criterion lines.
"""

import time
from fractions import Fraction

import pytest

from qhecke import cli
from qhecke.algebra import (
    braid_assumptions_hold,
    braid_defect,
    check_relations,
    gen_sigma,
    gen_unit,
    generator_grading_check,
    sigma_word,
)
from qhecke.config import build_setting
from qhecke.localize import (
    euler_identities_check,
    intertwining_check,
    inversion_additivity_suite,
    leading_term_suite,
    pathway_agreement_check,
)
from qhecke.polyops import Poly, RatFun
from qhecke.presets import QuiverSpec, klr_oracle_check, preset_klr
from qhecke.repdata import Setting, q_poly
from qhecke.rootcore import build_root_datum
from qhecke.subgroup import (
    CosetTable,
    TorusConstraint,
    fixed_subsystem,
    length_comparison_check,
)

from conftest import make_setting
from oracles import demazure, demazure_word

QUIVERS = {
    "arrow-d11": QuiverSpec(vertices=(1, 2), arrows=((1, 2),), dimension={1: 1, 2: 1}),
    "arrow-d21": QuiverSpec(vertices=(1, 2), arrows=((1, 2),), dimension={1: 2, 2: 1}),
    "arrow-d22": QuiverSpec(vertices=(1, 2), arrows=((1, 2),), dimension={1: 2, 2: 2}),
    "jordan-d2": QuiverSpec(vertices=(1,), arrows=((1, 1),), dimension={1: 2}),
}


def _nil(label):
    return make_setting(label)


def _skew(label, copies=1):
    datum = build_root_datum(label)
    table = CosetTable(fixed_subsystem(datum, []))
    return Setting(table, [datum.positive_roots] * copies, [datum.roots] * copies)


def _halfint_a2():
    return make_setting(
        "A2", constraints=(TorusConstraint("torsion", (Fraction(1, 2), 0)),), kind="skew"
    )


def _klr(name):
    cfg = preset_klr(QUIVERS[name])
    return build_setting(cfg)


@pytest.fixture(scope="module")
def configurations():
    configs = {}
    for label in ("A2", "B2", "G2"):
        configs[f"nil-{label}"] = _nil(label)
    for label in ("A2", "B2"):
        configs[f"skew-{label}"] = _skew(label)
    configs["skew2-B2"] = _skew("B2", copies=2)
    configs["halfint-A2"] = _halfint_a2()
    for name in QUIVERS:
        configs[f"klr-{name}"] = _klr(name)
    for name, setting in configs.items():
        assert len(setting.group) <= 48, name
    return configs


def _report(name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _monomials(n, degree):
    from itertools import combinations_with_replacement

    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for k in combo:
                e[k] += 1
            out.append(tuple(e))
    return out


def test_criterion_1_nilhecke_suite():
    timings = []
    for label in ("A2", "B2", "G2"):
        t0 = time.monotonic()
        setting = _nil(label)
        datum, sub, _, _ = setting
        for s in range(datum.rank):
            sig = gen_sigma(setting, 0, s)
            assert (sig * sig).is_zero(), (label, s)
        for s in range(datum.rank):
            for t in range(s + 1, datum.rank):
                if sub.group.braid_order(s, t) < 3:
                    continue
                defect = braid_defect(setting, 0, s, t)
                assert defect.all_zero(), (label, s, t)
        elapsed = time.monotonic() - t0
        timings.append((label, elapsed))
        assert elapsed < 10.0, f"{label} took {elapsed:.2f}s"
    detail = ", ".join(f"{l} {e:.2f}s" for l, e in timings) + " (bound 10s per type)"
    _report("nilhecke-suite", True, detail)


def test_criterion_2_skew_suite():
    t0 = time.monotonic()
    for label in ("A2", "B2"):
        setting = _skew(label)
        datum, sub, table, _ = setting
        group = sub.group
        n = datum.ambient_rank
        unit = gen_unit(table, 0)
        for s in range(datum.rank):
            sig = gen_sigma(setting, 0, s)
            assert sig * sig == sig.scale(-2), (label, s)
        m_st = group.braid_order(0, 1)
        shifted = [gen_sigma(setting, 0, s) + unit for s in range(2)]
        power = unit
        for _ in range(m_st):
            power = power * shifted[0] * shifted[1]
        for e in _monomials(n, 4):
            m = {0: Poly.monomial(n, e)}
            assert power.apply(m) == m, (label, e)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _report("skew-suite", True, f"A2+B2 in {elapsed:.2f}s (bound 30s)")


def test_criterion_3_relation_suite(configurations):
    t0 = time.monotonic()
    failures = []
    for name, setting in configurations.items():
        for r in check_relations(setting):
            if not r.passed:
                failures.append((name, r.name, r.counterexample))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 120.0
    _report(
        "relation-suite",
        ok,
        f"{len(configurations)} configurations in {elapsed:.2f}s (bound 120s); "
        f"failures: {failures if failures else 'none'}",
    )


def test_criterion_4_braid_defects(configurations):
    pairs = 0
    for name, setting in configurations.items():
        datum, sub, table, _ = setting
        group = sub.group
        for s in range(datum.rank):
            for t in range(s + 1, datum.rank):
                m = group.braid_order(s, t)
                if m < 3:
                    continue
                certified = braid_assumptions_hold(setting, s, t)
                for i in table.indices:
                    defect = braid_defect(setting, i, s, t)
                    pairs += 1
                    if certified:
                        assert defect.all_polynomial(), (name, i, s, t)

    # closed form, order 3, full stabilizer with unit exponents
    setting = _skew("A2")
    group = setting.group
    defect = braid_defect(setting, 0, 0, 1)
    one = RatFun.from_scalar(2, 1)
    assert defect.coefficients[group.simple[0]] == one
    assert defect.coefficients[group.simple[1]] == -one

    # closed form, order 4, full stabilizer, exponents one and two
    for copies in (1, 2):
        setting = _skew("B2", copies=copies)
        datum, group = setting.datum, setting.group
        h = copies
        a_s = Poly.linear(datum.simple_roots[0])
        a_t = Poly.linear(datum.simple_roots[1])
        s_m = datum.simple_reflection_matrix(0)
        t_m = datum.simple_reflection_matrix(1)
        q_st = (
            demazure(datum, 0, a_t ** h) * demazure(datum, 1, a_s ** h)
            + (a_t ** h).substitute_linear(s_m) * demazure_word(datum, (0, 1), a_s ** h)
            + (a_s ** h).substitute_linear(t_m) * demazure_word(datum, (1, 0), a_t ** h)
        )
        defect = braid_defect(setting, 0, 0, 1)
        st = group.mul(group.simple[0], group.simple[1])
        ts = group.mul(group.simple[1], group.simple[0])
        assert defect.coefficients[st] == RatFun(q_st), f"copies={copies}"
        assert defect.coefficients[ts] == RatFun(-q_st), f"copies={copies}"
    _report(
        "braid-defect-extraction",
        True,
        f"{pairs} (i, s, t) instances, zero remainder everywhere; "
        "order-3 and order-4 closed forms match extraction",
    )


def test_criterion_5_localization_crosscheck(configurations):
    t0 = time.monotonic()
    for name, setting in configurations.items():
        for r in pathway_agreement_check(setting):
            assert r.passed, (name, r.name)
        for r in intertwining_check(setting, 3):
            assert r.passed, (name, r.name, r.counterexample)
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _report(
        "localization-crosscheck",
        True,
        f"{len(configurations)} configurations in {elapsed:.2f}s (bound 120s)",
    )


def test_criterion_6_euler_identities(configurations):
    for name, setting in configurations.items():
        datum, sub, _, _ = setting
        for r in euler_identities_check(setting):
            assert r.passed, (name, r.name, r.counterexample)
        for r in leading_term_suite(setting):
            assert r.passed, (name, r.name, r.counterexample)
        for F in (
            datum.positive_roots,
            tuple(tuple(-x for x in a) for a in datum.positive_roots),
        ):
            for r in inversion_additivity_suite(sub.group, F):
                assert r.passed, (name, r.counterexample)
    _report(
        "euler-identities",
        True,
        f"sign law, power forms, cut additivity and leading terms exhaustive "
        f"on {len(configurations)} configurations",
    )


def test_criterion_7_klr_oracle():
    for name in ("arrow-d11", "arrow-d21", "jordan-d2"):
        for r in klr_oracle_check(QUIVERS[name]):
            assert r.passed, (name, r.name, r.counterexample)
    _report(
        "klr-oracle",
        True,
        "independent quiver construction matches on h-counts, squares and "
        "braid defects for arrow d=(1,1), d=(2,1) and the loop d=(2)",
    )


def test_criterion_8_combinatorial_layer(configurations):
    for name, (datum, sub, table, data) in configurations.items():
        for r in cli._coset_checks(table):
            assert r.passed, (name, r.name, r.counterexample)
        for r in length_comparison_check(sub):
            assert r.passed, (name, r.name)
        factorization = cli._factorization_checks(sub)
        for r in factorization:
            assert r.passed, (name, r.name, r.counterexample)
        # each J-only check once per J, each two-sided check once per (J, K)
        keys = [(r.name, r.details) for r in factorization]
        assert len(set(keys)) == len(keys), name
    _report(
        "combinatorial-layer",
        True,
        f"canonical representatives, action, lengths and factorizations "
        f"exhaustive on {len(configurations)} configurations",
    )


def test_criterion_9_grading(configurations):
    for name, setting in configurations.items():
        for r in generator_grading_check(setting):
            assert r.passed, (name, r.counterexample)
        # degree bookkeeping spelled out: units 0, variables 2, crossings per
        # the two cases
        datum, _, table, _ = setting
        for i in table.indices:
            assert gen_unit(table, i).graded_degree() == 0
            for s in range(datum.rank):
                sig = gen_sigma(setting, i, s)
                q = q_poly(setting, i, s)
                if table.stab(i, s):
                    assert sig.graded_degree() == 2 * q.degree() - 2
                else:
                    assert sig.graded_degree() == 2 * q.degree()
    _report(
        "grading",
        True,
        f"all generators homogeneous of the stated degrees on "
        f"{len(configurations)} configurations",
    )
