import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qhecke
from qhecke.errors import DivisionByZeroDenominator
from qhecke.polyops import (
    Poly,
    RatFun,
    add_term,
    monomials_up_to,
)
from qhecke.rootcore import build_root_datum

from oracles import demazure, demazure_product_rule_check, demazure_word


@pytest.fixture(scope="module")
def a2():
    return build_root_datum("A2")


@pytest.fixture(scope="module")
def b2():
    return build_root_datum("B2")


def monomials(n, degree):
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for k in combo:
                e[k] += 1
            out.append(tuple(e))
    return out


class TestPoly:
    def test_zero_and_const(self):
        z = Poly(3)
        assert z.is_zero() and z.degree() == -1
        c = Poly.const(3, Fraction(2, 3))
        assert c.constant_value() == Fraction(2, 3)
        assert (c - c).is_zero()

    def test_arithmetic(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        assert (x + y) * (x - y) == x * x - y * y
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y
        assert x * 0 == Poly(2)

    def test_substitute_identity(self):
        f = (Poly.variable(2, 0) + Poly.variable(2, 1)) ** 3
        ident = ((1, 0), (0, 1))
        assert f.substitute_linear(ident) == f

    def test_substitute_is_group_action(self, a2):
        group = a2.weyl()
        f = Poly.variable(2, 0) ** 2 * Poly.variable(2, 1) + Poly.variable(2, 1) ** 3
        for g1 in range(len(group)):
            for g2 in range(len(group)):
                m1, m2 = group.matrix(g1), group.matrix(g2)
                m12 = group.matrix(group.mul(g1, g2))
                lhs = f.substitute_linear(m12)
                rhs = f.substitute_linear(m2).substitute_linear(m1)
                assert lhs == rhs

    def test_weyl_action_on_roots_matches_matrices(self, a2):
        # s1 sends the second simple root to the sum of the two
        s1 = a2.simple_reflection_matrix(0)
        alpha2 = Poly.linear(a2.simple_roots[1])
        expected = Poly.linear((1, 1))
        assert alpha2.substitute_linear(s1) == expected

    def test_divexact(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        f = (x + y) * (x - y) * (x + 2 * y)
        assert f.divexact(x + y) == (x - y) * (x + 2 * y)
        assert f.divexact(x + 3 * y) is None
        with pytest.raises(DivisionByZeroDenominator):
            f.divexact(Poly(2))

    def test_homogeneity_and_degree(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        assert (x * y + y * y).is_homogeneous()
        assert not (x + y * y).is_homogeneous()
        assert (x * y).degree() == 2
        assert (x * y).artifact_degree() == 4

    @pytest.mark.parametrize("n,degree", [(1, 0), (1, 4), (2, 3), (3, 3), (4, 2), (5, 4)])
    def test_monomials_up_to(self, n, degree):
        # every monomial once, by degree, in combinations_with_replacement order
        got = monomials_up_to(n, degree)
        assert len(got) == comb(n + degree, degree)
        assert got == monomials(n, degree)

    def test_serialization_roundtrip(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        f = x ** 2 - Fraction(1, 2) * y + 3
        pairs = f.to_pairs()
        assert Poly.from_pairs(2, pairs) == f
        # graded-lex order is canonical
        assert pairs == sorted(pairs, key=lambda p: (sum(p[0]), p[0]))


class TestRatFun:
    def test_cross_multiplication_equality(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        a = RatFun(x * x - y * y, x - y, reduce=False)
        b = RatFun(x + y)
        assert a == b
        assert RatFun(x, y) != RatFun(y, x)

    def test_self_quotient_is_one(self, a2):
        alpha = Poly.linear(a2.simple_roots[0])
        assert RatFun(alpha, alpha) == RatFun.from_scalar(2, 1)

    def test_zero_denominator_rejected(self):
        with pytest.raises(DivisionByZeroDenominator):
            RatFun(Poly.variable(2, 0), Poly(2))

    def test_arithmetic(self):
        x = Poly.variable(1, 0)
        half = RatFun(Poly.const(1, 1), 2 * x)
        assert half + half == RatFun(Poly.const(1, 1), x)
        assert half - half == RatFun.from_scalar(1, 0)
        assert half * (2 * x) == 1
        assert (half / half) == 1

    def test_pow(self):
        x = Poly.variable(1, 0)
        r = RatFun(Poly.const(1, 1), x)
        assert r ** 2 == RatFun(Poly.const(1, 1), x * x)
        assert r ** -1 == RatFun(x)
        assert r ** 0 == 1

    def test_is_polynomial(self):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        assert RatFun(x * y, y, reduce=False).polynomial() == x
        assert RatFun(x, y).polynomial() is None

    @pytest.mark.parametrize("c", [1, -1, 2, Fraction(3, 2)])
    def test_constant_denominator_matches_divexact(self, c):
        x = Poly.variable(2, 0)
        y = Poly.variable(2, 1)
        den = Poly.const(2, c)
        for num in (Poly(2), Poly.const(2, 3), x * y - 5 * x, (x + Fraction(1, 3) * y) ** 3):
            q = RatFun(num, den, reduce=False).polynomial()
            expected = num.divexact(den)
            assert q == expected
            assert sorted(q.d.items()) == sorted(expected.d.items())
            assert all(type(v) is type(expected.d[e]) for e, v in q.d.items())


class TestAddTerm:
    def test_missing_key_reads_as_zero(self):
        out = {"a": 1}
        add_term(out, "b", 2)
        assert out == {"a": 1, "b": 2}
        add_term(out, "c", 0)
        assert out == {"a": 1, "b": 2}

    def test_vanishing_sum_drops_the_key(self):
        out = {"a": Fraction(1, 2), "b": 3}
        add_term(out, "a", Fraction(-1, 2))
        assert out == {"b": 3}
        x = RatFun(Poly.variable(2, 0))
        acc = {0: x}
        add_term(acc, 0, -x)
        assert acc == {}

    def test_existing_key_keeps_its_position(self):
        # sums of RatFuns run in term order, and report bytes follow it
        out = {"a": 1, "b": 2, "c": 3}
        add_term(out, "a", 5)
        add_term(out, "b", -2)
        add_term(out, "d", 4)
        add_term(out, "c", 1)
        assert list(out.items()) == [("a", 6), ("c", 4), ("d", 4)]


class TestDemazure:
    def test_on_own_root(self, a2):
        alpha1 = Poly.linear(a2.simple_roots[0])
        assert demazure(a2, 0, alpha1) == Poly.const(2, -2)

    def test_invariant_kernel(self, a2):
        alpha1 = Poly.linear(a2.simple_roots[0])
        assert demazure(a2, 0, alpha1 * alpha1).is_zero()

    def test_on_other_simple(self, a2):
        alpha2 = Poly.linear(a2.simple_roots[1])
        assert demazure(a2, 0, alpha2) == Poly.const(2, 1)

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_squares_vanish_on_monomials(self, label):
        datum = build_root_datum(label)
        n = datum.ambient_rank
        for k in range(datum.rank):
            for e in monomials(n, 5):
                f = Poly(n, {e: 1})
                assert demazure(datum, k, demazure(datum, k, f)).is_zero()

    @pytest.mark.parametrize(
        "label,lengths", [("A2", 3), ("B2", 4), ("G2", 6)]
    )
    def test_braid_relations(self, label, lengths):
        datum = build_root_datum(label)
        n = datum.ambient_rank
        w1 = tuple((0, 1)[j % 2] for j in range(lengths))
        w2 = tuple((1, 0)[j % 2] for j in range(lengths))
        for e in monomials(n, min(lengths + 1, 5)):
            f = Poly(n, {e: 1})
            assert demazure_word(datum, w1, f) == demazure_word(datum, w2, f)

    def test_product_rule_trivial_cases(self, a2):
        alpha1 = Poly.linear(a2.simple_roots[0])
        f = Poly.variable(2, 1) ** 2
        assert demazure_product_rule_check(a2, 0, Poly.const(2, 1), f)
        assert demazure_product_rule_check(a2, 0, alpha1, alpha1)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_product_rule_random(self, data):
        datum = build_root_datum(data.draw(st.sampled_from(["A2", "B2"])))
        n = datum.ambient_rank
        monos = monomials(n, 3)
        coeff = st.integers(min_value=-3, max_value=3)

        def poly(draw):
            terms = draw(
                st.lists(st.tuples(st.sampled_from(monos), coeff), max_size=4)
            )
            out = Poly(n)
            for e, c in terms:
                out = out + Poly(n, {e: c} if c else {})
            return out

        x = poly(data.draw)
        f = poly(data.draw)
        k = data.draw(st.integers(min_value=0, max_value=datum.rank - 1))
        assert demazure_product_rule_check(datum, k, x, f)


def test_no_stale_module_or_environment_picks_the_kernel():
    """`polyops` always runs on `_kernel_py`: a stale compiled
    `qhecke._kernel` and a `QHECKE_PURE` variable are both ignored.  In a
    subprocess, because reloading `polyops` here would make a second `Poly`
    class."""
    script = (
        "import sys, types\n"
        "sys.modules['qhecke._kernel'] = types.ModuleType('qhecke._kernel')\n"
        "from qhecke import polyops\n"
        "print(polyops._k.__name__, polyops.KERNEL_NAME)\n"
    )
    src = os.path.dirname(os.path.dirname(qhecke.__file__))
    env = {**os.environ, "QHECKE_PURE": "", "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["qhecke._kernel_py", "pure"]
