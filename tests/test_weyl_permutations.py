"""Weyl groups acting by root permutations, checked against integer matrices.

The matrix of an element is rebuilt here from its reduced word with plain
integer arithmetic, independently of the group's own lazy matrices, and
every permutation answer is compared with the matrix computation.
"""

import random
from collections import Counter

import pytest

from qhecke.errors import InvalidRootDatum
from qhecke.rootcore import build_root_datum

from oracles import reflection_matrix

# degrees of the basic invariants: |W| is their product and the Poincare
# polynomial sum_w q^l(w) is prod_i (1 + q + ... + q^(d_i - 1))
DEGREES = {
    "A1": (2,),
    "A2": (2, 3),
    "A3": (2, 3, 4),
    "A4": (2, 3, 4, 5),
    "B2": (2, 4),
    "B3": (2, 4, 6),
    "B4": (2, 4, 6, 8),
    "C2": (2, 4),
    "C3": (2, 4, 6),
    "C4": (2, 4, 6, 8),
    "D2": (2, 2),
    "D3": (2, 3, 4),
    "D4": (2, 4, 4, 6),
    "G2": (2, 6),
    "F4": (2, 6, 8, 12),
    "GL2": (2,),
    "GL3": (2, 3),
    "GL4": (2, 3, 4),
    "GL5": (2, 3, 4, 5),
    "GL6": (2, 3, 4, 5, 6),
}

# B2 in the orthogonal realization, roots +-e_a +- e_b and +-e_a
EXPLICIT_B2 = {
    "ambient_rank": 2,
    "simple_roots": [[1, -1], [0, 1]],
    "coroots": [[1, -1], [0, 2]],
}

SPECS = [(label, label, DEGREES[label]) for label in DEGREES]
SPECS.append(("explicit-B2", EXPLICIT_B2, DEGREES["B2"]))


def mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0])))
        for i in range(len(a))
    )


def mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def word_matrix(datum, word):
    n = datum.ambient_rank
    m = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    for k in word:
        m = mat_mul(m, datum.simple_reflection_matrix(k))
    return m


def poincare(degrees):
    poly = Counter({0: 1})
    for d in degrees:
        out = Counter()
        for e, c in poly.items():
            for j in range(d):
                out[e + j] += c
        poly = out
    return poly


@pytest.fixture(scope="module", params=SPECS, ids=[name for name, _, _ in SPECS])
def setting(request):
    _, spec, degrees = request.param
    datum = build_root_datum(spec)
    group = datum.weyl()
    mats = [word_matrix(datum, group.reduced_word(g)) for g in range(len(group))]
    return datum, group, mats, degrees


class TestAgainstMatrices:
    def test_matrix_is_the_reduced_word_product(self, setting):
        datum, group, mats, degrees = setting
        assert len(set(mats)) == len(group)
        for g in range(len(group)):
            assert group.matrix(g) == mats[g]

    def test_act_on_every_root(self, setting):
        datum, group, mats, degrees = setting
        for g in range(len(group)):
            for r in datum.roots:
                assert group.act(g, r) == mat_vec(mats[g], r)

    def test_mul(self, setting):
        datum, group, mats, degrees = setting
        index = {m: g for g, m in enumerate(mats)}
        n = len(group)
        if n <= 48:
            pairs = [(a, b) for a in range(n) for b in range(n)]
        else:
            rng = random.Random(0)
            pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(500)]
            pairs += [(g, s) for g in range(n) for s in group.simple]
            pairs += [(s, g) for g in range(n) for s in group.simple]
        for a, b in pairs:
            assert group.mul(a, b) == index[mat_mul(mats[a], mats[b])]

    def test_inverse(self, setting):
        datum, group, mats, degrees = setting
        for g in range(len(group)):
            assert group.mul(g, group.inv(g)) == group.identity
            assert mat_mul(mats[g], mats[group.inv(g)]) == mats[group.identity]

    def test_length_is_the_inversion_count(self, setting):
        datum, group, mats, degrees = setting
        neg = {tuple(-x for x in r) for r in datum.positive_roots}
        for g in range(len(group)):
            inversions = sum(1 for a in datum.positive_roots if mat_vec(mats[g], a) in neg)
            assert group.length(g) == inversions
            descents = [
                k for k in range(datum.rank)
                if mat_vec(mats[g], datum.simple_roots[k]) in neg
            ]
            assert [k for k in range(datum.rank) if group.descends_right(g, k)] == descents

    def test_reduced_words_replay(self, setting):
        datum, group, mats, degrees = setting
        for g in range(len(group)):
            word = group.reduced_word(g)
            assert len(word) == group.length(g)
            assert group.mul_word(word) == g

    def test_words_end_in_the_smallest_right_descent(self, setting):
        # the normal form every report prints: word(g) = word(g s_k) + (k,)
        datum, group, mats, degrees = setting
        neg = {tuple(-x for x in r) for r in datum.positive_roots}
        for g in range(1, len(group)):
            word = group.reduced_word(g)
            k = min(
                k for k in range(datum.rank)
                if mat_vec(mats[g], datum.simple_roots[k]) in neg
            )
            assert word[-1] == k
            assert group.reduced_word(group.mul(g, group.simple[k])) == word[:-1]

    def test_canonical_order(self, setting):
        datum, group, mats, degrees = setting
        keys = [(group.length(g), group.reduced_word(g)) for g in range(len(group))]
        assert keys == sorted(keys)

    def test_order_and_poincare_polynomial(self, setting):
        datum, group, mats, degrees = setting
        order = 1
        for d in degrees:
            order *= d
        assert len(group) == order
        assert Counter(group.length(g) for g in range(len(group))) == poincare(degrees)

    def test_reflections_by_root(self, setting):
        datum, group, mats, degrees = setting
        for r in datum.positive_roots:
            m = reflection_matrix(datum, r)
            assert mats[group.reflection(r)] == m
            assert group.from_root_images(mat_vec(m, v) for v in datum.roots) == group.reflection(r)


class TestNonRootVectors:
    @pytest.mark.parametrize("label", ["A2", "B3", "GL4", "F4"])
    def test_non_root_vector_acts_through_the_matrix(self, label):
        datum = build_root_datum(label)
        group = datum.weyl()
        rng = random.Random(1)
        roots = set(datum.roots)
        vectors = [tuple(rng.randrange(-3, 4) for _ in range(datum.ambient_rank)) for _ in range(20)]
        vectors = [v for v in vectors if v not in roots]
        assert vectors
        for g in range(len(group)):
            m = word_matrix(datum, group.reduced_word(g))
            for v in vectors:
                assert group.act(g, v) == mat_vec(m, v)
                assert group.act(g, list(v)) == mat_vec(m, v)

    def test_from_root_images_rejects_a_non_element(self):
        datum = build_root_datum("A2")
        group = datum.weyl()
        with pytest.raises(InvalidRootDatum):
            group.from_root_images(mat_vec(((2, 0), (0, 1)), v) for v in datum.roots)
        # the diagram automorphism permutes the roots but lies outside W
        with pytest.raises(KeyError):
            group.from_root_images(mat_vec(((0, 1), (1, 0)), v) for v in datum.roots)
