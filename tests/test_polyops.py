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
from qhecke._kernel_py import DEGREE_LIMIT, MAX_VARS, kmul, pack, unpack
from qhecke.errors import DivisionByZeroDenominator, InternalInvariantError, ParseError
from qhecke.polyops import (
    Poly,
    RatFun,
    _columns,
    add_term,
    monomials_up_to,
)
from qhecke.rootcore import build_root_datum

from oracles import (
    demazure,
    demazure_product_rule_check,
    demazure_word,
    tuple_dict,
    tuple_kdivexact,
    tuple_kmul,
    tuple_kpow,
    tuple_ksubst,
)


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

    @pytest.mark.parametrize(
        "pairs",
        [
            [[[1, 0], "1"], [[1, 0], "-1"]],
            [[[1, 0], 2], [[0, 1], 1], [[1, 0], 2]],
            [[[1, 0], "0"], [[1, 0], "3"]],
            [[[0, 0], 5], [[0, 0], "0"]],
        ],
        ids=["cancelling", "equal", "zero-first", "zero-last"],
    )
    def test_repeated_exponents_are_refused(self, pairs):
        # a repeated term is neither summed nor overwritten: the input is
        # ambiguous, and [[1,0],"1"], [[1,0],"-1"] read as -x0 before
        with pytest.raises(ParseError, match=r"exponents \[\d, \d\] are repeated"):
            Poly.from_pairs(2, pairs)


@st.composite
def sized_poly(draw, n, max_terms=4, max_exponent=3):
    """A random polynomial in n variables with Fraction coefficients."""
    terms = draw(
        st.lists(
            st.tuples(
                st.lists(st.integers(0, max_exponent), min_size=n, max_size=n),
                st.fractions(min_value=-4, max_value=4, max_denominator=5),
            ),
            max_size=max_terms,
        )
    )
    out = Poly(n)
    for e, c in terms:
        out = out + Poly.monomial(n, e) * c
    return out


nvars = st.integers(1, 6)


class TestPackedKernelAgainstTheTupleOracle:
    """Each kernel op on packed keys against the exponent-tuple kernel of
    `tests/oracles.py`, on random polynomials in 1 to 6 variables."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kmul(self, data):
        n = data.draw(nvars)
        f, g = data.draw(sized_poly(n)), data.draw(sized_poly(n))
        assert tuple_dict(f * g) == tuple_kmul(tuple_dict(f), tuple_dict(g))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kmul_with_a_single_term_side(self, data):
        n = data.draw(nvars)
        f = data.draw(sized_poly(n))
        e = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        c = data.draw(st.fractions(min_value=-4, max_value=4, max_denominator=5).filter(bool))
        for single in (Poly.monomial(n, e) * c, Poly.const(n, 1)):
            want = tuple_kmul(tuple_dict(single), tuple_dict(f))
            assert tuple_dict(single * f) == want
            assert tuple_dict(f * single) == want

    @pytest.mark.parametrize("swap", (False, True), ids=("single-first", "single-second"))
    def test_kmul_single_term_edge_cases(self, swap):
        def mul(a, b):
            return kmul(b, a) if swap else kmul(a, b)

        # 2 * 1/2 is the int 1, as every integral coefficient of the kernel
        one = mul({0: 2}, {0: Fraction(1, 2)})
        assert one == {0: 1} and type(one[0]) is int
        # the constant 1 returns a copy of the other factor
        x = {pack((1, 0)): Fraction(3, 2), 0: 4}
        got = mul({0: 1}, x)
        assert got == x and got is not x
        got = mul({pack((0, 1)): 2}, {pack((1, 0)): Fraction(1, 2), 0: Fraction(1, 4)})
        assert got == {pack((1, 1)): 1, pack((0, 1)): Fraction(1, 2)}
        assert type(got[pack((1, 1))]) is int

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_kpow(self, data):
        n = data.draw(nvars)
        f = data.draw(sized_poly(n, max_terms=3, max_exponent=2))
        m = data.draw(st.integers(0, 4))
        assert tuple_dict(f**m) == tuple_kpow(tuple_dict(f), m, n)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_ksubst(self, data):
        n = data.draw(nvars)
        f = data.draw(sized_poly(n, max_terms=3, max_exponent=2))
        row = st.lists(st.integers(-2, 2), min_size=n, max_size=n).map(tuple)
        matrix = data.draw(st.lists(row, min_size=n, max_size=n).map(tuple))
        want = tuple_ksubst(tuple_dict(f), _columns(matrix, n), n)
        assert tuple_dict(f.substitute_linear(matrix)) == want

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_kdivexact(self, data):
        n = data.draw(nvars)
        f, g = data.draw(sized_poly(n)), data.draw(sized_poly(n).filter(bool))
        h = data.draw(sized_poly(n, max_terms=2))
        for a in (f * g, f * g + h, f):
            q = a.divexact(g)
            want = tuple_kdivexact(tuple_dict(a), tuple_dict(g))
            assert (q is None) == (want is None)
            if q is not None:
                assert tuple_dict(q) == want
                assert q * g == a

    @pytest.mark.parametrize(
        "a,b",
        [
            # the quotient's x1 field borrows from the x0 field above it
            ([[[1, 0], 1]], [[[0, 1], 1]]),
            ([[[2, 0], 1]], [[[1, 1], 1]]),
            # the second step, x1 / x0, borrows from the degree field
            ([[[2, 0], 1], [[0, 1], 1]], [[[1, 0], 1]]),
            # the degree field goes negative, and with it the whole key
            ([[[0, 0], 1]], [[[1, 0], 1]]),
            ([[[1, 0], 1]], [[[2, 0], 1]]),
            ([[[1, 1], 1]], [[[0, 3], 1], [[1, 0], 1]]),
        ],
        ids=["x0/x1", "x0^2/x0x1", "x0^2+x1/x0", "1/x0", "x0/x0^2", "x0x1/x1^3+x0"],
    )
    def test_failed_division(self, a, b):
        a, b = Poly.from_pairs(2, a), Poly.from_pairs(2, b)
        assert a.divexact(b) is None
        assert tuple_kdivexact(tuple_dict(a), tuple_dict(b)) is None

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_key_order_is_graded_lex(self, data):
        # exponents up to 5000 in at most 6 variables stay below the limit
        n = data.draw(nvars)
        exps = data.draw(
            st.lists(st.lists(st.integers(0, 5000), min_size=n, max_size=n).map(tuple))
        )
        keys = [pack(e) for e in exps]
        assert [unpack(k, n) for k in keys] == exps
        assert [unpack(k, n) for k in sorted(keys)] == sorted(exps, key=lambda e: (sum(e), e))

    def test_unpack_at_the_edges(self):
        # the widest key and the largest exponent a field holds
        top = DEGREE_LIMIT - 1
        for k in (0, MAX_VARS - 1):
            e = tuple(top if i == k else 0 for i in range(MAX_VARS))
            assert unpack(pack(e), MAX_VARS) == e
        assert unpack(pack(()), 0) == ()


class TestFieldLimit:
    def test_parsed_degree_at_the_guard_is_refused(self):
        top = DEGREE_LIMIT - 1
        assert Poly.from_pairs(2, [[[top, 0], 1]]).degree() == top
        for e in ([DEGREE_LIMIT, 0], [top, 1], [DEGREE_LIMIT // 2] * 2):
            with pytest.raises(ParseError, match="past the limit 32767"):
                Poly.from_pairs(2, [[e, 1]])

    def test_product_reaching_the_guard_raises(self):
        x = Poly.variable(2, 0)
        assert (x ** (DEGREE_LIMIT - 1)).degree() == DEGREE_LIMIT - 1
        with pytest.raises(InternalInvariantError, match="reaches degree 32768"):
            x**DEGREE_LIMIT
        big = Poly.from_pairs(2, [[[0, DEGREE_LIMIT - 2], 1], [[0, 0], 1]])
        with pytest.raises(InternalInvariantError):
            big * (x + 1) * (x + 1)

    def test_more_variables_than_fields_raise(self):
        with pytest.raises(InternalInvariantError):
            Poly.variable(17, 0)


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
                f = Poly.monomial(n, e)
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
            f = Poly.monomial(n, e)
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
                out = out + Poly.monomial(n, e) * c
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
