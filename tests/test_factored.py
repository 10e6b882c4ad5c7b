"""The factored Euler-class types against two oracles: the unreduced RatFun
over the product of the raw linear forms, and sympy's `cancel`."""

import random
from collections import Counter
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from qhecke.errors import InternalInvariantError, ZeroWeight
from qhecke.polyops import EulerClass, FactoredFrac, Poly, RatFun, primitive_form
from qhecke.rootcore import build_root_datum

LABELS = ("A2", "B2", "G2", "A3")
ROOTS = {label: build_root_datum(label).roots for label in LABELS}
RANK = {label: build_root_datum(label).ambient_rank for label in LABELS}


def raw_product(n, weights) -> Poly:
    """The old Euler class: the product of the weights' linear forms."""
    out = Poly.const(n, 1)
    for w in weights:
        out = out * Poly.linear(w)
    return out


@st.composite
def setting(draw):
    label = draw(st.sampled_from(LABELS))
    return RANK[label], ROOTS[label]


@st.composite
def weights(draw, roots, max_size=5):
    """Roots of the setting, some doubled, negated or both."""
    picks = draw(st.lists(st.sampled_from(roots), max_size=max_size))
    scales = draw(st.lists(st.sampled_from((1, 2, -1, -2)), min_size=len(picks), max_size=len(picks)))
    return [tuple(c * x for x in r) for r, c in zip(picks, scales)]


@st.composite
def numerator(draw, n):
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, 2), min_size=n, max_size=n).map(tuple),
                st.integers(-3, 3),
            ),
            max_size=3,
        )
    )
    d = {}
    for e, c in terms:
        d[e] = d.get(e, 0) + c
    return Poly(n, {e: c for e, c in d.items() if c})


@st.composite
def fraction(draw, n, roots):
    """(factored value, oracle RatFun, the raw denominator weights)."""
    ws = draw(weights(roots))
    num = draw(numerator(n))
    den = EulerClass.of_weights(n, Counter(ws))
    return FactoredFrac(num, den), RatFun(num, raw_product(n, ws), reduce=False), ws


@st.composite
def two_fractions(draw):
    n, roots = draw(setting())
    return n, roots, draw(fraction(n, roots)), draw(fraction(n, roots))


def same_value(factored, oracle) -> bool:
    return factored.expand() == oracle


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
            EulerClass.of_weights(2, Counter({(0, 0): 1}))

    def test_non_integer_weight_is_an_invariant_breach(self):
        with pytest.raises(InternalInvariantError):
            primitive_form((Fraction(1, 2), 0))

    def test_zero_scalar_is_an_invariant_breach(self):
        with pytest.raises(InternalInvariantError):
            EulerClass(2, 0)
        with pytest.raises(InternalInvariantError):
            EulerClass(2) * 0


class TestEulerClass:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_expand_is_the_raw_product(self, data):
        n, roots = data.draw(setting())
        ws = data.draw(weights(roots, max_size=6))
        assert EulerClass.of_weights(n, Counter(ws)).expand() == raw_product(n, ws)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equality_and_product(self, data):
        n, roots = data.draw(setting())
        w1 = data.draw(weights(roots))
        w2 = data.draw(weights(roots))
        e1 = EulerClass.of_weights(n, Counter(w1))
        e2 = EulerClass.of_weights(n, Counter(w2))
        assert (e1 == e2) == (raw_product(n, w1) == raw_product(n, w2))
        assert (e1 * e2).expand() == raw_product(n, w1 + w2)
        assert (-e1).expand() == -raw_product(n, w1)

    def test_negated_and_doubled_roots_share_a_form(self):
        e = EulerClass.of_weights(2, Counter({(1, 1): 1, (-2, -2): 1}))
        assert e.forms == Counter({(1, 1): 2}) and e.scalar == -2
        assert e == EulerClass.of_weights(2, Counter({(-1, -1): 1, (2, 2): 1}))


class TestFactoredFrac:
    @settings(max_examples=100, deadline=None)
    @given(two_fractions())
    def test_product(self, case):
        n, roots, (f1, r1, _), (f2, r2, _) = case
        assert same_value(f1 * f2, r1 * r2)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_product_with_euler_class(self, data):
        n, roots = data.draw(setting())
        f, r, ws = data.draw(fraction(n, roots))
        lam = data.draw(weights(roots))
        # half the time Lambda shares forms with the denominator
        if ws and data.draw(st.booleans()):
            lam = lam + [ws[0]]
        e = EulerClass.of_weights(n, Counter(lam))
        product = f * e
        assert same_value(product, r * RatFun(raw_product(n, lam)))
        # Lambda cancels as a multiset; only the forms left over multiply
        assert product.den.forms == f.den.forms - e.forms
        if f:
            assert product.num.degree() == f.num.degree() + (e.forms - f.den.forms).total()

    @settings(max_examples=100, deadline=None)
    @given(two_fractions())
    def test_sum(self, case):
        n, roots, (f1, r1, _), (f2, r2, _) = case
        assert same_value(f1 + f2, r1 + r2)
        assert same_value(f1 + f2 * -1, r1 - r2)

    @settings(max_examples=100, deadline=None)
    @given(two_fractions())
    def test_equality_and_truth(self, case):
        n, roots, (f1, r1, _), (f2, r2, _) = case
        assert (f1 == f2) == (r1 == r2)
        assert bool(f1) == bool(r1) and bool(f2) == bool(r2)
        assert f1 == r1 and f2 == r2

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_equal_values_in_other_forms(self, data):
        n, roots = data.draw(setting())
        f, r, _ = data.draw(fraction(n, roots))
        lam = data.draw(weights(roots))
        e = EulerClass.of_weights(n, Counter(lam))
        # f * Lambda / Lambda, and f plus a zero over another denominator
        g = f * e * e.reciprocal()
        h = f + FactoredFrac(Poly.zero(n), e)
        for other in (g, h):
            assert f == other and other == f
            assert same_value(other, r)
        if f:
            assert f != f * 2 and f != f * -1


def to_sympy(poly: Poly, xs):
    out = sympy.Integer(0)
    for e, c in poly.d.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c)
        for x, k in zip(xs, e):
            term *= x**k
        out += term
    return out


def sympy_fraction(num: Poly, ws, xs):
    den = sympy.Integer(1)
    for w in ws:
        den *= sum(c * x for c, x in zip(w, xs))
    return to_sympy(num, xs) / den


def expanded_sympy(value, xs):
    r = value.expand()
    return to_sympy(r.num, xs) / to_sympy(r.den, xs)


class TestAgainstSympy:
    """A fixed sample, checked with sympy.cancel as an independent oracle."""

    @pytest.mark.parametrize("label", LABELS)
    def test_operations(self, label):
        n, roots = RANK[label], ROOTS[label]
        xs = sympy.symbols(f"x0:{n}")
        rng = random.Random(label)

        def rand_weights():
            return [tuple(rng.choice((1, 2, -1, -2)) * x for x in rng.choice(roots))
                    for _ in range(rng.randrange(5))]

        def rand_num():
            d = {}
            for _ in range(rng.randrange(1, 4)):
                e = tuple(rng.randrange(3) for _ in range(n))
                d[e] = d.get(e, 0) + rng.choice((-3, -2, -1, 1, 2, 3))
            return Poly(n, {e: c for e, c in d.items() if c})

        for _ in range(6):
            w1, w2, w3 = rand_weights(), rand_weights(), rand_weights()
            n1, n2 = rand_num(), rand_num()
            f1 = FactoredFrac(n1, EulerClass.of_weights(n, Counter(w1)))
            f2 = FactoredFrac(n2, EulerClass.of_weights(n, Counter(w2)))
            e3 = EulerClass.of_weights(n, Counter(w3))
            s1, s2 = sympy_fraction(n1, w1, xs), sympy_fraction(n2, w2, xs)
            s3 = sympy_fraction(Poly.const(n, 1), w3, xs) ** -1
            for value, want in (
                (f1 * f2, s1 * s2),
                (f1 * e3, s1 * s3),
                (f1 + f2, s1 + s2),
                (f1 + f2 * -1, s1 - s2),
            ):
                assert sympy.cancel(expanded_sympy(value, xs) - want) == 0
            assert sympy.expand(to_sympy(e3.expand(), xs) - s3) == 0
            assert (f1 == f2) == (sympy.cancel(s1 - s2) == 0)
