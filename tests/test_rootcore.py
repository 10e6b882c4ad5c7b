import os
import resource
import time
from fractions import Fraction
from math import factorial

import pytest

from qhecke.errors import InvalidRootDatum
from qhecke.rootcore import MAX_GROUP_ORDER, _dot, _mat_vec, build_root_datum

from oracles import all_reduced_words, bruhat_leq, matrix_root_system, simple_combination

EXPLICIT_A2 = {
    "ambient_rank": 2,
    "simple_roots": [[1, 0], [0, 1]],
    "coroots": [[2, -1], [-1, 2]],
}


@pytest.fixture(scope="module")
def a2():
    return build_root_datum("A2")


@pytest.fixture(scope="module")
def b2():
    return build_root_datum("B2")


@pytest.fixture(scope="module")
def g2():
    return build_root_datum("G2")


class TestBuild:
    def test_a2_positive_system(self, a2):
        assert set(a2.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_b2_reflection_identities(self, b2):
        # the short simple root pairs to -2 against the long one's coroot
        group = b2.weyl()
        short = next(
            k
            for k in range(2)
            if _dot(b2.simple_roots[1 - k], b2.coroot(b2.simple_roots[k])) == -2
        )
        long = 1 - short
        s, t = group.simple[short], group.simple[long]
        a_s, a_t = b2.simple_roots[short], b2.simple_roots[long]
        # s(alpha_t) = 2 alpha_s + alpha_t, t(alpha_s) = alpha_s + alpha_t
        assert group.act(s, a_t) == tuple(2 * x + y for x, y in zip(a_s, a_t))
        assert group.act(t, a_s) == tuple(x + y for x, y in zip(a_s, a_t))
        # st(alpha_s) = alpha_s + alpha_t
        st = group.mul(s, t)
        assert group.act(st, a_s) == tuple(x + y for x, y in zip(a_s, a_t))

    def test_g2_reflection_identities(self, g2):
        group = g2.weyl()
        a_s, a_t = g2.simple_roots  # short, long
        s, t = group.simple
        assert group.act(s, a_t) == tuple(3 * x + y for x, y in zip(a_s, a_t))
        ts = group.mul(t, s)
        assert group.act(ts, a_t) == tuple(3 * x + 2 * y for x, y in zip(a_s, a_t))

    @pytest.mark.parametrize(
        "label,n_roots,order",
        [
            ("A1", 2, 2),
            ("A2", 6, 6),
            ("A3", 12, 24),
            ("B2", 8, 8),
            ("B3", 18, 48),
            ("C3", 18, 48),
            ("D4", 24, 192),
            ("G2", 12, 12),
            ("F4", 48, 1152),
        ],
    )
    def test_cardinalities(self, label, n_roots, order):
        datum = build_root_datum(label)
        assert len(datum.roots) == n_roots
        assert len(datum.weyl()) == order

    def test_gl_style(self):
        datum = build_root_datum("GL3")
        assert datum.ambient_rank == 3
        assert len(datum.roots) == 6
        group = datum.weyl()
        assert len(group) == 6
        # matrices fix the diagonal direction orthogonal to the root span
        for g in range(len(group)):
            assert group.act(g, (1, 1, 1)) == (1, 1, 1)

    def test_explicit_datum(self):
        datum = build_root_datum(EXPLICIT_A2)
        assert set(datum.positive_roots) == {(1, 0), (0, 1), (1, 1)}

    def test_invalid_label(self):
        with pytest.raises(InvalidRootDatum):
            build_root_datum("E8")
        with pytest.raises(InvalidRootDatum):
            build_root_datum("A9")

    def test_invalid_pairing(self):
        with pytest.raises(InvalidRootDatum):
            build_root_datum(
                {
                    "ambient_rank": 2,
                    "simple_roots": [[1, 0], [0, 1]],
                    "coroots": [[1, 0], [0, 2]],
                }
            )

    def test_explicit_roots_must_match(self):
        with pytest.raises(InvalidRootDatum):
            build_root_datum(
                {
                    "ambient_rank": 2,
                    "simple_roots": [[1, 0], [0, 1]],
                    "coroots": [[2, -1], [-1, 2]],
                    "roots": [[1, 0], [-1, 0]],
                }
            )


LABELS = (
    [f"A{n}" for n in range(1, 5)]
    + [f"{f}{n}" for f in "BCD" for n in range(2, 5)]
    + ["G2", "F4"]
    + [f"GL{d}" for d in range(2, 7)]
)

EXPLICIT = {
    "explicit-A2": EXPLICIT_A2,
    # B2 in the orthogonal realization, roots +-e_a +- e_b and +-e_a
    "explicit-B2": {
        "ambient_rank": 2,
        "simple_roots": [[1, -1], [0, 1]],
        "coroots": [[1, -1], [0, 2]],
    },
    # rational coroots: A1 on (2, 2), and A2 on the even lattice
    "explicit-A1-half": {"ambient_rank": 2, "simple_roots": [[2, 2]], "coroots": [["1/2", "1/2"]]},
    "explicit-A2-even": {
        "ambient_rank": 2,
        "simple_roots": [[2, 0], [0, 2]],
        "coroots": [[1, "-1/2"], ["-1/2", 1]],
    },
    "explicit-A2-in-GL3": {
        "ambient_rank": 3,
        "simple_roots": [[1, -1, 0], [0, 1, -1]],
        "coroots": [[1, -1, 0], [0, 1, -1]],
        "roots": [[1, -1, 0], [0, 1, -1], [1, 0, -1], [-1, 1, 0], [0, -1, 1], [-1, 0, 1]],
    },
}


class TestAgainstTheEliminationOracle:
    """Roots generated with simple-root coordinates and reflection formulas
    agree with the integer matrices and one Fraction elimination per root."""

    @pytest.mark.parametrize("spec", LABELS + list(EXPLICIT), ids=str)
    def test_construction(self, spec):
        datum = build_root_datum(EXPLICIT.get(spec, spec))
        roots, coroot_of, positive, perms = matrix_root_system(datum)
        assert datum.roots == roots
        assert datum.positive_roots == positive
        for r in roots:
            assert datum.coroot(r) == coroot_of[r]
            assert all(type(x) is int or x.denominator != 1 for x in datum.coroot(r))
        assert datum._simple_perms == perms
        group = datum.weyl()
        assert tuple(group.perms[s] for s in group.simple) == tuple(map(bytes, perms))
        for s, m in zip(group.simple, datum._simple_refl):
            assert group.perms[s] == group._perm_of(_mat_vec(m, r) for r in roots)

    def test_oracle_solves_a_combination(self):
        datum = build_root_datum("G2")
        assert simple_combination(datum, (3, 2)) == [3, 2]
        assert simple_combination(build_root_datum("GL3"), (1, 1, 1)) is None


class TestMalformedExplicitData:
    """Malformed explicit data is refused with a message naming the field."""

    @pytest.mark.parametrize(
        "spec,field",
        [
            # alpha_2 = -alpha_1: the coset search never terminated
            ({"ambient_rank": 2, "simple_roots": [[1, 0], [-1, 0]], "coroots": [[2, 0], [-2, 0]]},
             "simple_roots"),
            ({"ambient_rank": 3, "simple_roots": [[1, -1, 0], [0, 1, -1], [1, 0, -1]],
              "coroots": [[1, -1, 0], [0, 1, -1], [1, 0, -1]]},
             "simple_roots"),
            ({"ambient_rank": 3, "simple_roots": [[1, 0], [0, 1]], "coroots": [[2, -1], [-1, 2]]},
             "simple_roots"),
            ({"ambient_rank": 2, "simple_roots": [[1, 0], [0, 1]], "coroots": [[2, -1], [-1]]},
             "coroots"),
            ({"ambient_rank": 2.5, "simple_roots": [[1, 0], [0, 1]], "coroots": [[2, -1], [-1, 2]]},
             "ambient_rank"),
            ({"ambient_rank": True, "simple_roots": [[1]], "coroots": [[2]]}, "ambient_rank"),
            ({"gl": 3.9}, "gl"),
            ({"gl": True}, "gl"),
            ({"ambient_rank": 2, "simple_roots": 5, "coroots": []}, "simple_roots"),
            ({"ambient_rank": 2, "simple_roots": [[1, 0]], "coroots": [[None, 1]]}, "coroots"),
            ({"ambient_rank": 2, "simple_roots": [[1, 0]]}, r"root datum needs fields \['coroots'\]"),
            ({"ambient_rank": 1, "simple_roots": [[float("inf")]], "coroots": [[2]]}, "simple_roots"),
            ({"ambient_rank": 2, "simple_roots": [[1.0, 0], [0, 1]], "coroots": [[2, -1], [-1, 2]]},
             "simple_roots"),
            ({"ambient_rank": 1, "simple_roots": [[10]], "coroots": [[0.2]]}, "coroots"),
            ({"ambient_rank": 2, "simple_roots": [[1, 0]], "coroots": [[2, 1]]},
             r"coroot \(2, 1\) outside the root span"),
            ({"ambient_rank": 1, "simple_roots": [[1]], "coroots": [[2]], "roots": [[True], [-1]]},
             "roots"),
            # integer strings are not integers
            ({"ambient_rank": 2, "simple_roots": [["1", "-1"]], "coroots": [[1, -1]]},
             "simple_roots"),
            ({"ambient_rank": 2, "simple_roots": [[1, -1]], "coroots": [[1, -1]],
              "roots": [["1", "-1"], [-1, 1]]},
             "roots"),
        ],
    )
    def test_refused(self, spec, field):
        with pytest.raises(InvalidRootDatum, match=f"^{field}"):
            build_root_datum(spec)

    @pytest.mark.parametrize("label", ["", "GLx", "GL3.9"])
    def test_bad_label(self, label):
        with pytest.raises(InvalidRootDatum, match="unsupported label"):
            build_root_datum(label)

    def test_rational_coroot_entries(self):
        datum = build_root_datum(EXPLICIT["explicit-A2-even"])
        assert datum.coroot((2, 2)) == (Fraction(1, 2), Fraction(1, 2))


def _address_space() -> int:
    """This process's current virtual memory size in bytes."""
    with open("/proc/self/statm", encoding="ascii") as f:
        return int(f.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")


def _refused_within_a_small_address_space(spec, pattern):
    """build_root_datum(spec) raises InvalidRootDatum matching pattern
    within 1 s while the address space may grow by 64 MB at most."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = _address_space() + (64 << 20)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
    try:
        start = time.perf_counter()
        with pytest.raises(InvalidRootDatum, match=pattern):
            build_root_datum(spec)
        elapsed = time.perf_counter() - start
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
    assert elapsed < 1


class TestSizeRefusedBeforeAllocating:
    """An ambient rank or GL size past the packed kernel's 16 variables is
    refused before any vector is built: one explicit datum with
    ambient_rank 10**50 once grew a process to 5.4 GB.  So is a GL size
    whose Weyl group, S_d, is past the group enumeration bound."""

    @pytest.mark.parametrize(
        "spec,message",
        [
            ({"ambient_rank": 10**50, "simple_roots": [], "coroots": []}, "ambient_rank"),
            ({"ambient_rank": 10**9, "simple_roots": [], "coroots": []}, "ambient_rank"),
            ({"ambient_rank": 17, "simple_roots": [], "coroots": []}, "ambient_rank"),
            ({"gl": 10**50}, "GL datum"),
            ("GL1000000000", "GL datum"),
            ("GL17", "GL datum"),
        ],
        ids=["rank-1e50", "rank-1e9", "rank-17", "gl-1e50", "GL1e9", "GL17"],
    )
    def test_refused_within_a_small_address_space(self, spec, message):
        _refused_within_a_small_address_space(spec, f"^{message}.*16")

    @pytest.mark.parametrize("spec", ["GL10", "GL16", {"gl": 12}], ids=["GL10", "GL16", "gl-12"])
    def test_gl_group_past_the_enumeration_bound(self, spec):
        # S_10 has 3,628,800 elements: refused before the roots, let alone
        # the 2,000,000 elements the enumeration would visit first
        _refused_within_a_small_address_space(spec, r"^GL datum GL1\d has a Weyl group.*2,000,000")

    def test_the_largest_accepted_sizes(self):
        gl9 = build_root_datum("GL9")
        assert gl9.ambient_rank == 9 and len(gl9.roots) == 72
        assert len(build_root_datum({"gl": 9}).roots) == 72
        assert factorial(9) <= MAX_GROUP_ORDER < factorial(10)
        explicit = {"ambient_rank": 16, "simple_roots": [[1] + [0] * 15], "coroots": [[2] + [0] * 15]}
        assert len(build_root_datum(explicit).roots) == 2


class TestGroupOps:
    def test_involutions(self, a2):
        group = a2.weyl()
        for s in group.simple:
            assert group.mul(s, s) == group.identity

    def test_action_example(self, a2):
        group = a2.weyl()
        assert group.act(group.simple[0], a2.simple_roots[1]) == (1, 1)

    def test_identity_has_empty_word(self, a2):
        group = a2.weyl()
        assert group.length(group.identity) == 0
        assert group.reduced_word(group.identity) == ()

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "A3"])
    def test_reduced_words_remultiply(self, label):
        datum = build_root_datum(label)
        group = datum.weyl()
        for g in range(len(group)):
            word = group.reduced_word(g)
            assert len(word) == group.length(g)
            assert group.mul_word(word) == g

    def test_longest_elements(self, a2, b2):
        ga, gb = a2.weyl(), b2.weyl()
        assert max(ga.length(g) for g in range(len(ga))) == 3
        assert ga.reduced_word(max(range(len(ga)), key=ga.length)) == (0, 1, 0)
        assert max(gb.length(g) for g in range(len(gb))) == 4

    @pytest.mark.parametrize("label", ["A2", "B2"])
    def test_length_subadditive(self, label):
        group = build_root_datum(label).weyl()
        for a in range(len(group)):
            for b in range(len(group)):
                ab = group.mul(a, b)
                assert group.length(ab) <= group.length(a) + group.length(b)


def subword_closure(group, word):
    """All products of subwords of a word, by brute-force enumeration."""
    from itertools import combinations

    out = set()
    for r in range(len(word) + 1):
        for positions in combinations(range(len(word)), r):
            out.add(group.mul_word(word[p] for p in positions))
    return out


class TestBruhat:
    def test_identity_below_everything(self, a2):
        group = a2.weyl()
        for g in range(len(group)):
            assert bruhat_leq(group, group.identity, g)
            assert bruhat_leq(group, g, g)

    def test_spec_examples(self, a2):
        group = a2.weyl()
        s1, s2 = group.simple
        s1s2 = group.mul(s1, s2)
        s2s1 = group.mul(s2, s1)
        assert bruhat_leq(group, s1, s1s2)
        assert not bruhat_leq(group, s1s2, s2s1)

    @pytest.mark.parametrize("label", ["A2", "B2", "G2", "B3"])
    def test_against_subword_oracle(self, label):
        datum = build_root_datum(label)
        group = datum.weyl()
        assert len(group) <= 48
        for w in range(len(group)):
            expected = subword_closure(group, group.reduced_word(w))
            for u in range(len(group)):
                assert bruhat_leq(group, u, w) == (u in expected)

    @pytest.mark.parametrize("label", ["A2", "B2", "G2"])
    def test_subword_closure_word_independent(self, label):
        datum = build_root_datum(label)
        group = datum.weyl()
        for w in range(len(group)):
            closures = {
                frozenset(subword_closure(group, word))
                for word in all_reduced_words(group, w)
            }
            assert len(closures) == 1
