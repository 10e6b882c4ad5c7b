"""Euler classes packed over the weight table against the weight-multiset
assembly (`oracles`), exhaustively: every Lambda_g, every crossing-cell
class E(x, xw) over all pairs, every q-translate, and every tangent and
fiber set.  A sample of expanded classes is checked against sympy, and
every expansion and every `localize_sigma` entry against the forms
multiplied out one call at a time (`oracles.form_product`).

The settings cover both families of twisting data, KLR quivers with and
without a loop, a copy with empty V, and explicit weights off the roots:
(2, 0) in V, which no fiber reaches, and (2, 0) in U and V, whose W-orbit
and negatives enter the classes with scale 2 beside the root (1, 0).  The
last setting is a positive system whose V = {alpha_1} is not W-stable."""

import random
from collections import Counter

import pytest
import sympy

import oracles
from oracles import as_counter, euler_of, matches, sympy_product, to_sympy
from qhecke.config import Config, build_setting
from qhecke import localize
from qhecke.localize import (
    crossing_cells,
    eu_zbar_w,
    leading_term_suite,
    localize_sigma,
    q_translate,
    tangent_n,
)
from qhecke.polyops import EulerClass, Poly
from qhecke.presets import QuiverSpec, preset_klr, preset_nilhecke, preset_skew
from qhecke.repdata import fiber_weights

CONFIGS = {
    "nil:A2": lambda: preset_nilhecke("A2"),
    "nil:G2": lambda: preset_nilhecke("G2"),
    "skew:B2": lambda: preset_skew("B2"),
    "skew:A3": lambda: preset_skew("A3"),
    "klr-arrow-2-2": lambda: preset_klr(QuiverSpec((1, 2), ((1, 2),), {1: 2, 2: 2})),
    "klr-looparrow-2-2": lambda: preset_klr(
        QuiverSpec((1, 2), ((1, 1), (1, 2)), {1: 2, 2: 2})
    ),
    "B2-two-copies-one-empty-V": lambda: Config(
        group="B2", r=2, U=["positive_roots"] * 2, V=["all_roots", []]
    ),
    "A2-U10-all-roots": lambda: Config(group="A2", r=1, U=[[[1, 0]]], V=["all_roots"]),
    "A2-U10-V20-11": lambda: Config(group="A2", r=1, U=[[[1, 0]]], V=[[[2, 0], [1, 1]]]),
    "A2-U20-10-V20": lambda: Config(
        group="A2", r=1, U=[[[2, 0], [1, 0]]], V=[[[2, 0], [-2, 0], [1, 0], [0, 2]]]
    ),
    "A2-positive-V10": lambda: Config(group="A2", r=1, U=["positive_roots"], V=[[[1, 0]]]),
}


@pytest.fixture(scope="module", params=sorted(CONFIGS))
def setting(request):
    return build_setting(CONFIGS[request.param]())


def test_tangent_and_fiber_sets(setting):
    table = setting.weights
    for g in range(len(setting.group)):
        assert as_counter(table, tangent_n(setting, g)) == oracles.tangent_n(setting, g)
        fibers = fiber_weights(setting, g)
        assert len(fibers) == setting.data.r
        assert as_counter(table, sum(fibers)) == oracles.fiber_weights(setting, g)


def test_every_lambda(setting):
    for g, lam in enumerate(setting.lambdas):
        assert matches(lam, euler_of(oracles.lambda_weights(setting, g))), g


def test_every_crossing_cell_class(setting):
    size = len(setting.group)
    for x in range(size):
        for w in range(size):
            want = euler_of(oracles.eu_zbar_weights(setting, x, w))
            assert matches(eu_zbar_w(setting, x, w), want), (x, w)


def test_every_crossing_row_has_one_denominator(setting):
    # row x of sigma(i, s) holds Lambda_x / E and, on stabilized cosets,
    # Lambda_x / (-E): one denominator D_x, the forms E has more of than
    # Lambda_x, which `intertwining_check` clears the row by
    group, n = setting.group, setting.datum.ambient_rank
    for i in setting.table.indices:
        for s in range(setting.datum.rank):
            dens = {}
            for (x, _), a in localize_sigma(setting, i, s).items():
                dens.setdefault(x, set()).add(a.den)
            for x, found in dens.items():
                lam = euler_of(oracles.lambda_weights(setting, x))[1]
                cell = euler_of(oracles.eu_zbar_weights(setting, x, group.simple[s]))[1]
                want = Poly.const(n, 1)
                for form, mult in (cell - lam).items():
                    want = want * Poly.linear(form) ** mult
                assert found == {want}, (i, s, x)


def test_every_q_translate(setting):
    for x in range(len(setting.group)):
        for s in range(setting.datum.rank):
            assert matches(q_translate(setting, x, s), euler_of(oracles.q_weights(setting, x, s)))


def test_negate_maps_each_entry_to_its_negative(setting):
    table = setting.weights
    for w, b in zip(table.entries, table.bit):
        assert table.negate(b) == table.bit[table.index[tuple(-x for x in w)]]
    for g in range(len(setting.group)):
        for part in (tangent_n(setting, g), *fiber_weights(setting, g)):
            want = Counter({tuple(-x for x in w): m for w, m in as_counter(table, part).items()})
            assert as_counter(table, table.negate(part)) == want


def test_expand_against_sympy(setting):
    n = setting.datum.ambient_rank
    xs = sympy.symbols(f"x0:{n}")
    rng = random.Random(0)
    size = len(setting.group)
    for _ in range(4):
        g, x, w = rng.randrange(size), rng.randrange(size), rng.randrange(size)
        for e, ms in (
            (setting.lambdas[g], oracles.lambda_weights(setting, g)),
            (eu_zbar_w(setting, x, w), oracles.eu_zbar_weights(setting, x, w)),
        ):
            want = sympy_product(ms.elements(), xs)
            assert sympy.expand(to_sympy(e.expand(), xs) - want) == 0


def test_non_root_weights_are_indexed_with_their_orbits():
    setting = build_setting(CONFIGS["A2-U20-10-V20"]())
    table, group = setting.weights, setting.group
    assert table.entries[: len(group.roots)] == group.roots
    extra = table.entries[len(group.roots):]
    assert (2, 0) in extra and (-2, 0) in extra
    for g in range(len(group)):
        perm = table.perm(g)
        assert sorted(perm) == list(range(len(table.entries)))
        for e, weight in enumerate(table.entries):
            assert table.entries[perm[e]] == group.act(g, weight)
    # (2, 0) is twice the form of the root (1, 0)
    assert matches(oracles.table_class(table, [(2, 0), (-1, 0)]), (-2, {(1, 0): 2}))


def every_class(setting):
    """Every Lambda_g, crossing-cell class E(x, xw) and q-translate."""
    size = len(setting.group)
    yield from setting.lambdas
    for x in range(size):
        for w in range(size):
            yield eu_zbar_w(setting, x, w)
        for s in range(setting.datum.rank):
            yield q_translate(setting, x, s)


class TestExpansionAgainstTheFormProduct:
    """The table expands each count vector once (`WeightTable.product`);
    `oracles.form_product` multiplies the forms out on every call."""

    def test_every_class(self, setting):
        n = setting.datum.ambient_rank
        for e in every_class(setting):
            assert e.expand() == Poly(n, oracles.form_product(n, e.scalar, e.forms)), e

    def test_every_localize_sigma_entry(self, setting):
        for i in setting.table.indices:
            for s in range(setting.datum.rank):
                cells = {(x, y): e for x, y, e in crossing_cells(setting, i, s)}
                for (x, y), a in localize_sigma(setting, i, s).items():
                    want = oracles.euler_quotient(setting.lambdas[x], cells[x, y])
                    assert (a.num, a.den) == (want.num, want.den), (i, s, x, y)

    def test_tables_with_the_same_forms_share_no_memo(self):
        cfg = CONFIGS["skew:B2"]()
        first, second = build_setting(cfg), build_setting(cfg)
        assert first.weights.forms == second.weights.forms
        for e in every_class(first):
            e.expand()
        # the second table multiplies its forms out again
        classes = list(every_class(second))
        calls = []
        real = Poly.__mul__

        def spy(self, other):
            calls.append(1)
            return real(self, other)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(Poly, "__mul__", spy)
            for e in classes:
                e.expand()
        assert calls
        counts = first.lambdas[-1].counts
        assert first.weights.product(counts) is not second.weights.product(counts)

    def test_mutating_a_result_leaves_later_expansions_unchanged(self, setting):
        n = setting.datum.ambient_rank
        lam = setting.lambdas[-1]
        want = Poly(n, oracles.form_product(n, lam.scalar, lam.forms))
        got = lam.expand()
        got.d.clear()
        assert lam.expand() == want
        # a class with scalar 1 and another with the same counts share the
        # table's product: neither result reaches it
        one = EulerClass(setting.weights, 1, lam.counts)
        other = -one
        first = one.expand()
        first.d[0] = 7
        assert one.expand() == Poly(n, oracles.form_product(n, 1, lam.forms))
        assert other.expand() == Poly(n, oracles.form_product(n, -1, lam.forms))
        q = one / EulerClass(setting.weights)
        q.num.d.clear()
        q.den.d[0] = 3
        again = one / EulerClass(setting.weights)
        assert again.num == one.expand() and again.den == Poly.const(n, 1)


def leading_pairs(group):
    """Every additive (s, w), in the suite's order."""
    return [
        (s, w)
        for s, t in enumerate(group.simple)
        for w in range(len(group))
        if group.length(group.mul(t, w)) == group.length(w) + 1
    ]


class TestLeadingAgainstTheClassOracle:
    """`localize.leading_term_suite` checks the identity at the coset
    representatives where every V_k is W-stable, and at every element
    otherwise; `oracles.leading_term_check` checks it at every element."""

    def test_same_results_for_every_pair(self, setting, monkeypatch):
        # the suite asserts the statement only for positive-system data, but
        # its comparison is defined on any: with the flag lifted, the custom
        # settings fail at some pairs, so counterexamples are compared too
        custom = not setting.data.borel_flag
        monkeypatch.setattr(setting.data, "borel_flag", True)
        want = [oracles.leading_term_check(setting, s, w) for s, w in leading_pairs(setting.group)]
        lemma, *got = leading_term_suite(setting)
        stable = all(setting.sub.stabilizes(V) for V in setting.data.V_sets)
        assert lemma.name == "weight-equivariance" and lemma.passed, lemma
        assert ("out of scope" in lemma.details) == (not stable)
        assert got == want
        assert not custom or any(not r.passed for r in got)

    @pytest.mark.parametrize(
        "config", [lambda: preset_nilhecke("A3"), CONFIGS["klr-arrow-2-2"]]
    )
    def test_three_classes_per_pair_and_representative(self, monkeypatch, config):
        setting = build_setting(config())
        calls = []
        real = localize.eu_zbar_w

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(localize, "eu_zbar_w", counting)
        results = leading_term_suite(setting)
        assert all(r.passed for r in results)
        assert results[0].details.endswith(f"one element per coset, {len(setting.table)} in all")
        pairs = len(leading_pairs(setting.group))
        assert len(calls) == 3 * pairs * len(setting.table)
