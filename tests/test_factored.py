"""Factored Euler classes and their quotients against three oracles: the
weight-multiset assembly (`oracles.euler_of`), the unreduced RatFun over
the product of the raw linear forms, and sympy's `cancel`.  Classes are
packed over a weight table holding the roots and their doubles, so every
weight the strategies draw is an entry."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qhecke.errors import InternalInvariantError, ZeroWeight
from qhecke.polyops import EulerClass, Poly, RatFun, primitive_form
from qhecke.repdata import WeightTable
from qhecke.rootcore import build_root_datum

from oracles import euler_of, matches, sympy_product, table_class, to_sympy

LABELS = ("A2", "B2", "G2", "A3")
DATA = {label: build_root_datum(label) for label in LABELS}
ROOTS = {label: DATA[label].roots for label in LABELS}
TABLES = {
    label: WeightTable(d.weyl(), [[tuple(2 * x for x in r) for r in d.roots]], [()])
    for label, d in DATA.items()
}


def raw_product(n, weights) -> Poly:
    """The old Euler class: the product of the weights' linear forms."""
    out = Poly.const(n, 1)
    for w in weights:
        out = out * Poly.linear(w)
    return out


@st.composite
def setting(draw):
    label = draw(st.sampled_from(LABELS))
    return TABLES[label], ROOTS[label]


@st.composite
def weights(draw, roots, max_size=5):
    """Roots of the setting, some doubled, negated or both."""
    picks = draw(st.lists(st.sampled_from(roots), max_size=max_size))
    scales = draw(st.lists(st.sampled_from((1, 2, -1, -2)), min_size=len(picks), max_size=len(picks)))
    return [tuple(c * x for x in r) for r, c in zip(picks, scales)]


class TestPrimitiveForm:
    @pytest.mark.parametrize(
        "weight,expected",
        [
            ((1, 0), (1, (1, 0))),
            ((-1, 0), (-1, (1, 0))),
            ((0, -2), (-2, (0, 1))),
            ((2, -4), (2, (1, -2))),
            ((-3, 6, 9), (-3, (1, -2, -3))),
        ],
    )
    def test_gcd_and_sign(self, weight, expected):
        assert primitive_form(weight) == expected

    def test_zero_weight(self):
        with pytest.raises(ZeroWeight):
            euler_of(Counter({(0, 0): 1}))
        with pytest.raises(ZeroWeight):
            primitive_form((0, 0))
        # the weight table indexes no zero weight, so no class can hold one
        table = WeightTable(DATA["A2"].weyl(), [[(0, 0), (2, 0)]], [()])
        assert (0, 0) not in table.index and (2, 0) in table.index

    def test_non_integer_weight_is_an_invariant_breach(self):
        with pytest.raises(InternalInvariantError):
            primitive_form((Fraction(1, 2), 0))

    def test_zero_scalar_is_an_invariant_breach(self):
        table = TABLES["A2"]
        with pytest.raises(InternalInvariantError):
            EulerClass(table, 0)
        with pytest.raises(InternalInvariantError):
            EulerClass(table) * 0

    def test_a_field_overflow_is_an_invariant_breach(self):
        e = table_class(TABLES["A2"], [(1, 0)])
        with pytest.raises(InternalInvariantError):
            for _ in range(TABLES["A2"].width):
                e = e * e


class TestEulerClass:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_expand_is_the_raw_product(self, data):
        table, roots = data.draw(setting())
        ws = data.draw(weights(roots, max_size=6))
        e = table_class(table, ws)
        assert matches(e, euler_of(Counter(ws)))
        assert e.expand() == raw_product(table.n, ws)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equality_and_product(self, data):
        table, roots = data.draw(setting())
        n = table.n
        w1 = data.draw(weights(roots))
        w2 = data.draw(weights(roots))
        e1 = table_class(table, w1)
        e2 = table_class(table, w2)
        assert (e1 == e2) == (raw_product(n, w1) == raw_product(n, w2))
        assert (e1 == e2) == (euler_of(Counter(w1)) == euler_of(Counter(w2)))
        assert matches(e1 * e2, euler_of(Counter(w1 + w2)))
        assert (e1 * e2).expand() == raw_product(n, w1 + w2)
        assert (-e1).expand() == -raw_product(n, w1)

    def test_classes_over_different_tables_do_not_mix(self):
        a2 = table_class(TABLES["A2"], [(1, 0)])
        other = WeightTable(DATA["A2"].weyl(), [[(2, 0)]], [()])
        b = table_class(other, [(1, 0)])
        for op in (lambda: a2 == b, lambda: a2 * b, lambda: a2 / b):
            with pytest.raises(InternalInvariantError):
                op()

    def test_negated_and_doubled_roots_share_a_form(self):
        table = TABLES["A2"]
        e = table_class(table, [(1, 1), (-2, -2)])
        assert e.forms == Counter({(1, 1): 2}) and e.scalar == -2
        assert e == table_class(table, [(-1, -1), (2, 2)])


def is_cancelled_quotient(q: RatFun, ws1, ws2, xs) -> bool:
    """q is prod(ws1) / prod(ws2) in lowest terms, by sympy."""
    num, den = to_sympy(q.num, xs), to_sympy(q.den, xs)
    want = sympy_product(ws1, xs) / sympy_product(ws2, xs)
    return sympy.cancel(num / den - want) == 0 and sympy.gcd(num, den).is_number


class TestEulerQuotient:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_quotient_is_the_expanded_fraction(self, data):
        table, roots = data.draw(setting())
        n = table.n
        w1 = data.draw(weights(roots))
        w2 = data.draw(weights(roots))
        # half the time the denominator shares forms with the numerator
        if w1 and data.draw(st.booleans()):
            w2 = w2 + [w1[0]]
        e1 = table_class(table, w1)
        e2 = table_class(table, w2)
        q = e1 / e2
        assert q == RatFun(e1.expand(), e2.expand(), reduce=False)
        assert q == RatFun(raw_product(n, w1), raw_product(n, w2), reduce=False)
        # the common multiset cancels: only the forms left over are expanded
        f1, f2 = euler_of(Counter(w1))[1], euler_of(Counter(w2))[1]
        assert q.num.degree() == (f1 - f2).total()
        assert q.den.degree() == (f2 - f1).total()
        assert e1 / e1 == 1 and (e1 * e2) / e2 == RatFun(e1.expand())

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_quotient_against_sympy_cancel(self, data):
        table, roots = data.draw(setting())
        w1 = data.draw(weights(roots, max_size=4))
        w2 = data.draw(weights(roots, max_size=4))
        if w1 and data.draw(st.booleans()):
            w2 = w2 + [w1[0]]
        q = table_class(table, w1) / table_class(table, w2)
        assert is_cancelled_quotient(q, w1, w2, sympy.symbols(f"x0:{table.n}"))


class TestAgainstSympy:
    """A fixed sample, checked with sympy.cancel as an independent oracle."""

    @pytest.mark.parametrize("label", LABELS)
    def test_operations(self, label):
        roots = ROOTS[label]
        n = DATA[label].ambient_rank
        xs = sympy.symbols(f"x0:{n}")
        rng = random.Random(label)

        def rand_weights():
            return [tuple(rng.choice((1, 2, -1, -2)) * x for x in rng.choice(roots))
                    for _ in range(rng.randrange(5))]

        for _ in range(6):
            w1, w2 = rand_weights(), rand_weights()
            # each coordinate is scaled apart, so most weights are no roots
            table = WeightTable(DATA[label].weyl(), [w1 + w2], [()])
            e1 = table_class(table, w1)
            e2 = table_class(table, w2)
            s1, s2 = sympy_product(w1, xs), sympy_product(w2, xs)
            assert sympy.expand(to_sympy(e1.expand(), xs) - s1) == 0
            assert sympy.expand(to_sympy((e1 * e2).expand(), xs) - s1 * s2) == 0
            assert is_cancelled_quotient(e1 / e2, w1, w2, xs)
            assert is_cancelled_quotient(e1 / (e1 * e2), w1, w1 + w2, xs)
            assert (e1 == e2) == (sympy.expand(s1 - s2) == 0)
