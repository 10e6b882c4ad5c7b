import random
from collections import Counter
from fractions import Fraction

import pytest

from qhecke import localize
from qhecke.algebra import gen_sigma
from qhecke.localize import (
    additivity_sides,
    eu_zbar_s,
    eu_zbar_w,
    euler,
    euler_identities_check,
    fp_apply,
    intertwining_check,
    inversion_additivity_check,
    inversion_additivity_suite,
    leading_term_suite,
    localize_op,
    localize_sigma,
    localize_diagonal,
    pathway_agreement_check,
    q_translate,
    tangent_m,
    tangent_n,
    theta,
    theta_equivariance_check,
)
from qhecke.config import build_setting
from qhecke.errors import InternalInvariantError
from qhecke.polyops import EulerClass, Poly, RatFun, add_term
from qhecke.presets import preset_nilhecke
from qhecke.repdata import Setting, fiber_weights, h_count
from qhecke.rootcore import build_root_datum
from qhecke.subgroup import CosetTable, TorusConstraint, fixed_subsystem

import oracles
from conftest import corrupt_one_image, make_setting, second_denominator
from oracles import as_counter, leading_term_check, matches
from test_euler_index import CONFIGS as EULER_CONFIGS


def root_indices(group, roots) -> frozenset:
    return frozenset(group.root_index[r] for r in roots)


def additive_pairs(group):
    """Every (s, w) with l(sw) = l(w) + 1."""
    for s in range(group.datum.rank):
        for w in range(len(group)):
            if group.length(group.mul(group.simple[s], w)) == group.length(w) + 1:
                yield s, w


def fp_mul(A: dict, B: dict) -> dict:
    """Plain sparse matrix product: (A*B)_{x,y} = sum_w A_{x,w} B_{w,y}."""
    by_row = {}
    for (w, y), b in B.items():
        by_row.setdefault(w, []).append((y, b))
    out = {}
    for (x, w), a in A.items():
        for y, b in by_row.get(w, ()):
            add_term(out, (x, y), a * b)
    return out


def fp_identity(setting) -> dict:
    """The all-ones diagonal: the identity of the fixed-point algebra."""
    n = setting.datum.ambient_rank
    return {(g, g): Poly.const(n, 1) for g in range(len(setting.group))}


SETTINGS = [
    ("A1-nil", lambda: make_setting("A1")),
    ("A2-nil", lambda: make_setting("A2")),
    ("B2-nil", lambda: make_setting("B2")),
    ("G2-nil", lambda: make_setting("G2")),
    ("A2-skew", lambda: make_setting("A2", kind="skew")),
    ("B2-skew", lambda: make_setting("B2", kind="skew")),
    (
        "A2-halfint",
        lambda: make_setting(
            "A2", constraints=(TorusConstraint("torsion", (Fraction(1, 2), 0)),), kind="skew"
        ),
    ),
]


@pytest.fixture(scope="module", params=[s[0] for s in SETTINGS])
def setting(request):
    return dict(SETTINGS)[request.param]()


class TestEuler:
    A2 = make_setting("A2", kind="skew")

    def set_of(self, *weights):
        table = self.A2.weights
        return [table.bit[table.index[w]] for w in weights]

    def test_empty_product(self):
        assert euler(self.A2).expand() == Poly.const(2, 1)

    def test_multiplicity(self):
        sets = self.set_of((1, 0), (1, 0))
        assert euler(self.A2, *sets).expand() == Poly.variable(2, 0) ** 2

    def test_zero_weight_rejected(self):
        # a zero weight of U is never indexed, so no class can hold it
        setting = make_setting("A2")
        setting = Setting(setting.table, [[(0, 0), (1, 0)]], [setting.datum.roots])
        assert (0, 0) not in setting.weights.index
        assert all(as_counter(setting.weights, sum(fiber_weights(setting, g)))[(0, 0)] == 0
                   for g in range(len(setting.group)))

    def test_dual_sign(self):
        table = self.A2.weights
        ms = self.set_of((1, 0), (1, 1), (1, 1))
        dual = self.set_of((-1, 0), (-1, -1), (-1, -1))
        assert [table.negate(part) for part in ms] == dual
        assert euler(self.A2, *dual).expand() == euler(self.A2, *ms).expand() * Fraction((-1) ** 3)


class TestTangent:
    def test_identity_full_subsystem(self):
        setting = make_setting("A2")
        datum, sub, _, _ = setting
        negatives = {tuple(-x for x in r) for r in datum.positive_roots}
        tangent = tangent_n(setting, sub.group.identity)
        assert as_counter(setting.weights, tangent) == Counter(negatives)

    def test_cached_values_cannot_be_changed_by_callers(self):
        setting = make_setting("A2")
        _, sub, _, _ = setting
        g = sub.group.simple[0]
        first = tangent_n(setting, g)
        # an int is immutable: no caller can change the memo through it
        assert isinstance(first, int) and tangent_n(setting, g) == first
        assert as_counter(setting.weights, tangent_n(setting, g)) == oracles.tangent_n(setting, g)

    def test_curve_weights(self):
        setting = make_setting("A2")
        datum, sub, _, _ = setting
        group = sub.group
        for g in range(len(group)):
            for s in range(datum.rank):
                gs = group.mul(g, group.simple[s])
                img = Poly.linear(group.act(g, datum.simple_roots[s]))
                assert euler(setting, tangent_m(setting, gs, g)).expand() == img
                assert euler(setting, tangent_m(setting, g, gs)).expand() == -img

    def test_wall_unstabilized_equal(self):
        setting = make_setting(
            "A2", constraints=(TorusConstraint("torsion", (Fraction(1, 2), 0)),), kind="skew"
        )
        datum, sub, table, _ = setting
        group = sub.group
        for g in range(len(group)):
            i = table.coset_of[g]
            for s in range(datum.rank):
                if table.stab(i, s):
                    continue
                gs = group.mul(g, group.simple[s])
                assert tangent_n(setting, g) == tangent_n(setting, gs)
                assert not tangent_m(setting, g, gs)
                assert not tangent_m(setting, gs, g)


class TestLambda:
    def test_rank_one_values(self):
        setting = make_setting("A1")
        datum, sub, _, _ = setting
        group = sub.group
        alpha = Poly.linear(datum.simple_roots[0])
        assert setting.lambdas[group.identity].expand() == -alpha
        assert setting.lambdas[group.simple[0]].expand() == alpha

    def test_empty_twist_is_tangent_product(self):
        setting = make_setting("A2")
        _, sub, _, _ = setting
        group = sub.group
        for g in range(len(group)):
            expected = euler(setting, tangent_n(setting, g))
            assert setting.lambdas[g] == expected
            assert matches(setting.lambdas[g], oracles.euler_of(oracles.tangent_n(setting, g)))


class TestCrossingCells:
    def test_rank_one_closed_form(self):
        setting = make_setting("A1")
        _, sub, _, _ = setting
        group = sub.group
        alpha = Poly.variable(1, 0)
        assert eu_zbar_s(setting, group.identity, 0).expand() == -(alpha ** 2)

    def test_skew_rank_one_power_form(self):
        setting = make_setting("A1", kind="skew")
        e = setting.group.identity
        # h = 1: the power form collapses to Lambda itself
        assert eu_zbar_s(setting, e, 0) == setting.lambdas[e]

    def test_general_matches_simple_case(self, setting):
        datum, sub, _, _ = setting
        group = sub.group
        for g in range(len(group)):
            for s in range(datum.rank):
                assert eu_zbar_w(setting, g, group.simple[s]) == eu_zbar_s(setting, g, s)

    def test_closed_form_identity(self, setting):
        # multiset pathway equals x(alpha_s) * Lambda_x / Q_x(s)
        datum, sub, table, _ = setting
        lambdas = setting.lambdas
        group = sub.group
        for g in range(len(group)):
            i = table.coset_of[g]
            for s in range(datum.rank):
                value = RatFun(eu_zbar_s(setting, g, s).expand())
                q_x = q_translate(setting, g, s).expand()
                lam = RatFun(lambdas[g].expand())
                if table.stab(i, s):
                    img = RatFun(Poly.linear(group.act(g, datum.simple_roots[s])))
                    assert value == img * lam / RatFun(q_x)
                else:
                    assert value == lam / RatFun(q_x)


class TestTheta:
    def test_zero(self, setting):
        assert theta(setting, {}) == {}

    def test_unit_support(self, setting):
        datum, _, table, _ = setting
        m = {0: Poly.const(datum.ambient_rank, 1)}
        vec = theta(setting, m)
        fixed = table.fixed_points_of(0)
        assert sorted(vec) == sorted(fixed)
        for g in fixed:
            assert vec[g] == Poly.const(datum.ambient_rank, 1)

    def test_entries_are_weyl_images(self, setting):
        datum, _, table, _ = setting
        group = setting.group
        n = datum.ambient_rank
        f = Poly.variable(n, 0) * Poly.variable(n, n - 1) + Poly.const(n, 3)
        for i in table.indices:
            vec = theta(setting, {i: f})
            assert vec == {g: f.weyl_image(group, g) for g in table.fixed_points_of(i)}
            assert all(isinstance(v, Poly) for v in vec.values())

    def test_injectivity(self, setting):
        _, sub, _, _ = setting
        if len(sub.group) > 8:
            degree = 2
        else:
            degree = 3
        for r in oracles.theta_injectivity_check(setting, degree):
            assert r.passed, r.counterexample

    def test_equivariance(self, setting):
        for r in theta_equivariance_check(setting, 2):
            assert r.passed, r.counterexample

    def test_multiplicative_normalized(self, setting):
        datum, _, table, _ = setting
        n = datum.ambient_rank
        x = Poly.variable(n, 0)
        y = Poly.variable(n, min(1, n - 1))
        for i in table.indices:
            a = {i: x}
            b = {i: y}
            ab = {i: x * y}
            va = theta(setting, a)
            vb = theta(setting, b)
            vab = theta(setting, ab)
            for g in table.fixed_points_of(i):
                assert vab[g] == va[g] * vb[g]


class TestFixedPointAlgebra:
    def test_identity_element(self, setting):
        ident = fp_identity(setting)
        mat = localize_sigma(setting, 0, 0)
        assert _fp_eq(fp_mul(ident, mat), mat)
        assert _fp_eq(fp_mul(mat, ident), mat)

    def test_mismatched_middle_vanishes(self, setting):
        datum, sub, _, _ = setting
        n = datum.ambient_rank
        group = sub.group
        if len(group) < 2:
            pytest.skip("needs two fixed points")
        one = RatFun.from_scalar(n, 1)
        A = {(0, 1): one}
        B = {(0, 1): one}
        assert fp_mul(A, B) == {}

    def test_associativity_random(self, setting):
        import random

        datum, sub, _, _ = setting
        n = datum.ambient_rank
        group = sub.group
        rng = random.Random(5)
        size = len(group)
        # constants, a variable and the crossing matrix's fractions
        entries = [RatFun.from_scalar(n, -2), RatFun(Poly.variable(n, 0))]
        entries += localize_sigma(setting, 0, 0).values()

        def rand_matrix():
            out = {}
            for _ in range(3):
                x, y = rng.randrange(size), rng.randrange(size)
                out[(x, y)] = rng.choice(entries) * rng.randrange(1, 3)
            return out

        for _ in range(5):
            A, B, C = rand_matrix(), rand_matrix(), rand_matrix()
            assert _fp_eq(fp_mul(fp_mul(A, B), C), fp_mul(A, fp_mul(B, C)))

    def test_apply_matches_mul(self, setting):
        datum, _, table, _ = setting
        n = datum.ambient_rank
        mat = localize_sigma(setting, 0, 0)
        m = {table.act(0, 0): Poly.const(n, 1)}
        vec = theta(setting, m)
        via_apply = fp_apply(mat, vec)
        as_matrix = {(g, 0): c for g, c in vec.items()}
        via_mul = fp_mul(mat, as_matrix)
        assert _fp_eq({g: c for (g, _), c in via_mul.items()}, via_apply)


def _fp_eq(a, b):
    if set(a) != set(b):
        return False
    return all(a[k] == b[k] for k in a)


class TestPathways:
    def test_agreement(self, setting):
        for r in pathway_agreement_check(setting):
            assert r.passed, r.name

    def test_intertwining(self, setting):
        for r in intertwining_check(setting, 3):
            assert r.passed, (r.name, r.counterexample)

    def test_localize_op_of_product(self, setting):
        # translation is multiplicative against the plain product
        _, _, table, _ = setting
        a = gen_sigma(setting, 0, 0)
        b = gen_sigma(setting, table.act(0, 0), 0)
        lhs = localize_op(setting, a * b)
        rhs = fp_mul(localize_op(setting, a), localize_op(setting, b))
        assert _fp_eq(lhs, rhs)


class TestClearedCrossingEntries:
    def test_lambda_times_the_uncleared_entry(self, setting):
        # expanded oracle: Lambda_x * (1/E) as RatFuns, E from crossing_cells
        one = Poly.const(setting.datum.ambient_rank, 1)
        for i in setting.table.indices:
            for s in range(setting.datum.rank):
                mat = localize_sigma(setting, i, s)
                cells = list(localize.crossing_cells(setting, i, s))
                assert sorted(mat) == sorted((x, y) for x, y, _ in cells)
                for x, y, e in cells:
                    lam = RatFun(setting.lambdas[x].expand())
                    assert mat[(x, y)] == lam * RatFun(one, e.expand())

    def test_closed_form_on_borel_data(self, setting):
        # Lambda_x / E(x, xs) = x(alpha_s)^{-k}, k = 1 - h on stabilized
        # cosets (and minus it on the diagonal), k = -h across walls
        datum, _, table, data = setting
        if not data.borel_flag:
            pytest.skip("closed form holds for positive-system twisting data")
        group = setting.group
        for i in table.indices:
            for s in range(datum.rank):
                mat = localize_sigma(setting, i, s)
                stab = table.stab(i, s)
                k = 1 - h_count(setting, i, s) if stab else -h_count(setting, i, s)
                for x in table.fixed_points_of(i):
                    alpha = RatFun(Poly.linear(group.act(x, datum.simple_roots[s])))
                    want = alpha ** (-k)
                    assert mat[(x, group.mul(x, group.simple[s]))] == want
                    if stab:
                        assert mat[(x, x)] == -want
                    # the denominator is at most a power of one linear form
                    assert mat[(x, group.mul(x, group.simple[s]))].den.degree() <= max(k, 0)


    def test_clear_rows(self, setting):
        # `intertwining_check` multiplies row x by the one denominator D_x
        # of its entries and keeps their numerators
        for i in setting.table.indices:
            for s in range(setting.datum.rank):
                factor = {}
                for (x, _), a in localize_sigma(setting, i, s).items():
                    assert factor.setdefault(x, a.den) == a.den, (i, s, x)
                    assert a * factor[x] == a.num and factor[x]

    def test_clear_rows_raises_when_a_row_does_not_divide(self, setting, monkeypatch):
        # an entry over a second denominator is not cleared by D_x, and
        # `intertwining_check` refuses its row rather than drop that factor
        monkeypatch.setattr(localize, "localize_sigma", second_denominator(localize_sigma))
        with pytest.raises(InternalInvariantError, match="has two denominators"):
            intertwining_check(setting, degree=0)


class TestLocalizationMutants:
    """Corruptions the localization suites must see on nil:A2, at the same
    counts as in the rescaled basis: 2 of 5 pathway checks (the two
    crossings) and both intertwining checks."""

    @staticmethod
    def failures(setting):
        pathway = pathway_agreement_check(setting)
        intertwining = intertwining_check(setting)
        return (
            sum(not r.passed for r in pathway),
            len(pathway),
            sum(not r.passed for r in intertwining),
            len(intertwining),
        )

    @pytest.mark.parametrize("k", [0, 3, 5])
    def test_a_negated_lambda_entry(self, k):
        setting = build_setting(preset_nilhecke("A2"))
        assert self.failures(setting) == (0, 5, 0, 2)
        lambdas = list(setting.lambdas)
        lambdas[k] = -lambdas[k]
        setting.__dict__["lambdas"] = tuple(lambdas)
        assert self.failures(setting) == (2, 5, 2, 2)

    def test_a_sign_flip_in_the_crossing_cell(self, monkeypatch):
        real = localize.eu_zbar_w
        monkeypatch.setattr(localize, "eu_zbar_w", lambda *args: -real(*args))
        assert self.failures(build_setting(preset_nilhecke("A2"))) == (2, 5, 2, 2)

    def test_a_second_denominator_in_one_row(self, monkeypatch):
        # the value is unchanged, so the pathway checks pass, but row
        # clearing reads one denominator per row and must refuse two
        setting = build_setting(preset_nilhecke("A2"))
        monkeypatch.setattr(localize, "localize_sigma", second_denominator(localize_sigma))
        assert all(r.passed for r in pathway_agreement_check(setting))
        with pytest.raises(InternalInvariantError, match="has two denominators"):
            intertwining_check(setting)


def _drop_last_row(localize_sigma):
    """`localize_sigma` without the entries of its last row."""

    def wrapped(setting, i, s):
        mat = localize_sigma(setting, i, s)
        last = next(reversed(mat))[0]
        return {key: a for key, a in mat.items() if key[0] != last}

    return wrapped


def _extra_row(localize_sigma):
    """`localize_sigma` with one more row: the first entry's value at a point
    that is no row (a group element when one is left, past the group
    otherwise), in the first entry's column."""

    def wrapped(setting, i, s):
        mat = localize_sigma(setting, i, s)
        (x, y), a = next(iter(mat.items()))
        rows = {key[0] for key in mat}
        size = len(setting.group)
        extra = next((g for g in range(size) if g not in rows), size)
        return {**mat, (extra, y): a}

    return wrapped


def _entry_off_the_columns(localize_sigma):
    """`localize_sigma` with one more entry in its first row, over that
    row's denominator, at a column that is no fixed point of i*s when there
    is one: the product with a vector over those points never reads it."""

    def wrapped(setting, i, s):
        mat = localize_sigma(setting, i, s)
        (x, _), a = next(iter(mat.items()))
        columns = setting.table.fixed_points_of(setting.table.act(i, s))
        off = next((g for g in range(len(setting.group)) if g not in columns), None)
        if off is None:
            return mat
        return {**mat, (x, off): RatFun(a.num * 3, a.den, reduce=False)}

    return wrapped


def _negated(f):
    return lambda *args: -f(*args)


ROW_MUTANTS = {
    "none": None,
    "eu_zbar_w-sign-flip": lambda mp: mp.setattr(
        localize, "eu_zbar_w", _negated(localize.eu_zbar_w)
    ),
    "second-denominator": lambda mp: mp.setattr(
        localize, "localize_sigma", second_denominator(localize.localize_sigma)
    ),
    "corrupt-one-image": "corrupt",
    "row-dropped": lambda mp: mp.setattr(
        localize, "localize_sigma", _drop_last_row(localize.localize_sigma)
    ),
    "extra-row": lambda mp: mp.setattr(
        localize, "localize_sigma", _extra_row(localize.localize_sigma)
    ),
    "entry-off-the-columns": lambda mp: mp.setattr(
        localize, "localize_sigma", _entry_off_the_columns(localize.localize_sigma)
    ),
}


def _outcome(check, setting):
    """The results of a check, or the type and message of what it raised."""
    try:
        return check(setting)
    except (KeyError, InternalInvariantError) as exc:
        return type(exc).__name__, str(exc)


class TestRowsAgainstTheVectorOracle:
    """`intertwining_check` and `theta_equivariance_check` compare each
    fixed-point row on kernel dicts; `oracles` keeps them as they compared
    whole localized vectors of Polys.  Both give the same results, first
    counterexamples included, or raise the same error, on every setting of
    `test_euler_index.py` under every mutant."""

    @pytest.fixture(scope="class", params=sorted(EULER_CONFIGS))
    def config(self, request):
        return EULER_CONFIGS[request.param]()

    @pytest.mark.parametrize("mutant", sorted(ROW_MUTANTS))
    def test_same_outcome(self, config, mutant):
        outcomes = []
        with pytest.MonkeyPatch.context() as mp:
            patch = ROW_MUTANTS[mutant]
            if callable(patch):
                patch(mp)
            for checks in (
                (intertwining_check, theta_equivariance_check),
                (oracles.intertwining_check, oracles.theta_equivariance_check),
            ):
                setting = build_setting(config)
                if patch == "corrupt":
                    corrupt_one_image(setting)
                outcomes.append([_outcome(check, setting) for check in checks])
        got, want = outcomes
        assert got == want
        if mutant in ("eu_zbar_w-sign-flip", "extra-row"):
            assert not all(r.passed for r in got[0])
        elif mutant == "corrupt-one-image":
            assert not all(r.passed for r in got[0] + got[1])
        elif mutant == "row-dropped":
            assert got[0][0] == "KeyError"


class TestSharedCrossingMatrices:
    def test_checks_leave_the_matrices_unchanged(self):
        setting = build_setting(EULER_CONFIGS["klr-looparrow-2-2"]())
        matrices = localize.crossing_matrices(setting)

        def entries():
            return [
                (key, k, a.num.to_pairs(), a.den.to_pairs())
                for key, mat in matrices.items()
                for k, a in mat.items()
            ]

        before = entries()
        assert all(r.passed for r in pathway_agreement_check(setting, matrices))
        assert all(r.passed for r in intertwining_check(setting, matrices=matrices))
        assert entries() == before

    def test_same_results_with_and_without_shared_matrices(self):
        config = EULER_CONFIGS["A2-U10-V20-11"]
        alone = build_setting(config())
        shared = build_setting(config())
        matrices = localize.crossing_matrices(shared)
        assert pathway_agreement_check(shared, matrices) == pathway_agreement_check(alone)
        assert intertwining_check(shared, matrices=matrices) == intertwining_check(alone)


class TestWeightMemoMutants:
    """One flipped bit in a memoised tangent or fiber set fails the leading
    suite and the euler suite.  nil:A3 has no copies, hence no fiber sets,
    so the fiber mutant runs on skew:A3 in its place.  The bit is flipped at
    g = s_0, so the lemma's first counterexample is the move from e, the
    first element, under the reflection h = g of Phi, its index given here.
    Each setting is one coset, so leading checks u = e only, and fails where
    u*s = g."""

    BUILD = {
        "nil:A3": lambda: make_setting("A3"),
        "skew:A3": lambda: make_setting("A3", kind="skew"),
        "skew:B2": lambda: make_setting("B2", kind="skew"),
    }

    @staticmethod
    def failures(setting):
        lemma, *leading = leading_term_suite(setting)
        euler = euler_identities_check(setting)
        return (
            sum(not r.passed for r in leading),
            len(leading),
            lemma.counterexample,
            sorted(r.name for r in euler if not r.passed),
        )

    @pytest.mark.parametrize(
        "name, failing, h",
        [("nil:A3", (3, 36), 2), ("skew:B2", (1, 8), 1)],
    )
    def test_a_flipped_tangent_bit(self, monkeypatch, name, failing, h):
        setting = self.BUILD[name]()
        assert self.failures(setting) == (0, failing[1], None, [])
        setting = self.BUILD[name]()
        g = setting.group.simple[0]
        assert setting.sub._refl[h] == g
        flipped = tangent_n(setting, g) ^ setting.weights.bit[0]
        monkeypatch.setitem(setting.tangents, g, flipped)
        assert self.failures(setting) == (
            *failing,
            {"element": (), "reflection": h, "which": "tangent"},
            ["curve-euler-classes", "lambda-sign-law", "power-forms"],
        )

    @pytest.mark.parametrize(
        "name, failing, h",
        [("skew:A3", (3, 36), 2), ("skew:B2", (1, 8), 1)],
    )
    def test_a_flipped_fiber_bit(self, monkeypatch, name, failing, h):
        setting = self.BUILD[name]()
        assert self.failures(setting) == (0, failing[1], None, [])
        setting = self.BUILD[name]()
        g = setting.group.simple[0]
        assert setting.sub._refl[h] == g
        fibers = fiber_weights(setting, g)
        flipped = (fibers[0] ^ setting.weights.bit[0],) + fibers[1:]
        monkeypatch.setitem(setting.fibers, g, flipped)
        assert self.failures(setting) == (
            *failing,
            {"element": (), "reflection": h, "which": "fiber"},
            ["lambda-sign-law", "power-forms", "q-translation"],
        )


class TestEulerIdentities:
    def test_suite(self, setting):
        for r in euler_identities_check(setting):
            assert r.passed, (r.name, r.counterexample)

    def test_leading_terms(self, setting):
        results = leading_term_suite(setting)
        for r in results:
            assert r.passed, (r.name, r.counterexample)
        assert "one element per coset" in results[0].details


class TestDiagonalMatrices:
    def test_unit_and_variables_are_explicit_diagonals(self, setting):
        datum, _, table, _ = setting
        group = setting.group
        n = datum.ambient_rank
        for i in table.indices:
            points = table.fixed_points_of(i)
            unit = {i: Poly.const(n, 1)}
            assert localize_diagonal(setting, unit) == {(g, g): Poly.const(n, 1) for g in points}
            for t in range(n):
                x_t = Poly.variable(n, t)
                want = {(g, g): x_t.weyl_image(group, g) for g in points}
                assert localize_diagonal(setting, {i: x_t}) == want


def _leading_pairs(setting):
    group = setting.group
    return [
        (s, w)
        for s in range(setting.datum.rank)
        for w in range(len(group))
        if group.length(group.mul(group.simple[s], w)) == group.length(w) + 1
    ]


class TestLeadingTermClassComparison:
    def test_same_verdicts_as_the_reciprocal_products(self, setting):
        # oracle: 1/E(u,s) * 1/E(us,w) * Lambda_us against 1/E(u,sw) as
        # fractions, which the check compares with denominators cleared
        group, lambdas = setting.group, setting.lambdas
        one = Poly.const(setting.datum.ambient_rank, 1)

        def inverse(e):
            return RatFun(one, e.expand())

        for s, w in _leading_pairs(setting):
            s_elem = group.simple[s]
            sw = group.mul(s_elem, w)
            want = all(
                inverse(eu_zbar_w(setting, u, s_elem))
                * inverse(eu_zbar_w(setting, group.mul(u, s_elem), w))
                * RatFun(lambdas[group.mul(u, s_elem)].expand())
                == inverse(eu_zbar_w(setting, u, sw))
                for u in range(len(group))
            )
            assert leading_term_check(setting, s, w).passed == want

    @pytest.mark.parametrize(
        "build, k",
        [
            (lambda: make_setting("A3"), 0),
            (lambda: make_setting("A3"), 23),
            (lambda: make_setting("B2", kind="skew"), 5),
            (lambda: build_setting(EULER_CONFIGS["klr-arrow-2-2"]()), 23),
        ],
    )
    def test_a_negated_lambda_fails_the_lemma(self, build, k):
        # no representative u has u*s = k, so no leading pair reads Lambda_k;
        # the lemma compares every stored Lambda with the class of its sets
        setting = build()
        assert all(r.passed for r in leading_term_suite(setting))
        lambdas = list(setting.lambdas)
        lambdas[k] = -lambdas[k]
        setting.__dict__["lambdas"] = tuple(lambdas)
        lemma, *leading = leading_term_suite(setting)
        assert not lemma.passed
        assert lemma.counterexample == {
            "element": setting.group.reduced_word(k), "which": "lambda"
        }
        assert all(r.passed for r in leading)


class TestLeadingCountGuard:
    def test_a_sum_past_a_field_raises_as_the_class_product_does(self, monkeypatch):
        # every crossing-cell class gains half a field of the first form, so
        # E(u,s) * E(us,w) reaches that field's top bit
        setting = make_setting("A2")
        table = setting.weights
        half = 1 << (table.width - 2)
        real = localize.eu_zbar_w

        def swollen(*args):
            e = real(*args)
            return EulerClass(table, e.scalar, e.counts + half)

        monkeypatch.setattr(localize, "eu_zbar_w", swollen)
        monkeypatch.setattr(oracles, "eu_zbar_w", swollen)
        group = setting.group
        with pytest.raises(InternalInvariantError, match="overflows its count fields"):
            oracles.leading_term_check(setting, 0, group.identity)
        with pytest.raises(InternalInvariantError, match="overflows its count fields"):
            leading_term_suite(setting)


class TestNonBorelBoundary:
    def test_leading_suite_skipped_for_custom_twist(self):
        # asymmetric custom twisting data breaks cut additivity, so the
        # multiplicativity genuinely fails there; the suite declares the skip
        datum = build_root_datum("A2")
        setting = Setting(CosetTable(fixed_subsystem(datum, [])), [[(1, 1)]], [datum.roots])
        results = leading_term_suite(setting)
        assert len(results) == 1 and results[0].passed
        assert "skipped" in results[0].details
        # and the raw check indeed fails on such data
        group = setting.group
        failures = [
            (s, w)
            for s in range(2)
            for w in range(len(group))
            if group.length(group.mul(group.simple[s], w)) == group.length(w) + 1
            and not leading_term_check(setting, s, w).passed
        ]
        assert failures

    def test_cut_additivity_fails_for_asymmetric_sets(self):
        datum = build_root_datum("A2")
        group = datum.weyl()
        F = root_indices(group, ((1, 1),))
        verdicts = {
            inversion_additivity_check(group, 0, additivity_sides(group, F, w, s))
            for s, w in additive_pairs(group)
        }
        assert False in verdicts


class TestInversionAdditivity:
    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_positive_and_negative_cuts(self, label):
        datum = build_root_datum(label)
        sub = fixed_subsystem(datum, [])
        group = sub.group
        for F in (
            datum.positive_roots,
            tuple(tuple(-x for x in a) for a in datum.positive_roots),
        ):
            for r in inversion_additivity_suite(group, F):
                assert r.passed, (label, r.counterexample)

    def test_single_case(self):
        datum = build_root_datum("A2")
        group = datum.weyl()
        F = root_indices(group, datum.positive_roots)
        sides = additivity_sides(group, F, group.simple[1], 0)
        for x in range(len(group)):
            assert inversion_additivity_check(group, x, sides)

    def test_a_failing_set_still_counts_every_triple(self):
        # the scan stops at the first failure, the count in the details not
        datum = build_root_datum("A2")
        group = datum.weyl()
        (r,) = inversion_additivity_suite(group, [(1, 1)])
        assert not r.passed and r.counterexample is not None
        assert r.details == f"{datum.rank * len(group) ** 2 // 2} triples"

    def test_length_must_be_additive(self):
        datum = build_root_datum("A2")
        group = datum.weyl()
        F = root_indices(group, datum.positive_roots)
        with pytest.raises(ValueError):
            additivity_sides(group, F, group.simple[0], 0)

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
    def test_verdicts_match_the_counter_oracle(self, label):
        datum = build_root_datum(label)
        group = datum.weyl()
        rng = random.Random(f"cut-additivity {label}")
        sets = [datum.positive_roots, tuple(tuple(-x for x in a) for a in datum.positive_roots)]
        sets += [rng.sample(datum.roots, rng.randint(1, len(datum.roots))) for _ in range(8)]
        failing = 0
        for roots in sets:
            F = root_indices(group, roots)
            for s, w in additive_pairs(group):
                sides = additivity_sides(group, F, w, s)
                want_sides = oracles.additivity_sides(group, roots, w, s)
                for x in range(len(group)):
                    got = inversion_additivity_check(group, x, sides)
                    assert got == oracles.inversion_additivity_check(group, x, want_sides)
                    failing += not got
        assert failing

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3", "B3"])
    def test_suite_matches_the_suite_on_sorted_lists(self, label, monkeypatch):
        # most random weight sets fail, so the first-failure counterexample
        # is compared too
        datum = build_root_datum(label)
        group = datum.weyl()
        rng = random.Random(f"cut-additivity suite {label}")
        sets = [rng.sample(datum.roots, rng.randint(1, len(datum.roots))) for _ in range(6)]
        got = [inversion_additivity_suite(group, F) for F in sets]
        monkeypatch.setattr(localize, "additivity_sides", oracles.sorted_additivity_sides)
        monkeypatch.setattr(localize, "inversion_additivity_check", oracles.sorted_inversion_check)
        want = [inversion_additivity_suite(group, F) for F in sets]
        assert got == want
        assert sum(not results[0].passed for results in got) >= 3

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("mutate", ["drop", "duplicate"])
    def test_a_corrupted_side_fails_at_every_x(self, side, mutate):
        datum = build_root_datum("B3")
        group = datum.weyl()
        F = root_indices(group, datum.positive_roots)
        for s, w in additive_pairs(group):
            sides = list(additivity_sides(group, F, w, s))
            part = sides[side]
            sides[side] = part[1:] if mutate == "drop" else part + part[:1]
            for x in range(len(group)):
                assert not inversion_additivity_check(group, x, sides), (s, w, x)
