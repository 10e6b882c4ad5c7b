import copy
import json
from fractions import Fraction

import pytest

from qhecke.cli import _factorization_checks, cmd_preset
from qhecke.config import build_setting
from qhecke.errors import InternalInvariantError
from qhecke.rootcore import build_root_datum
from qhecke.subgroup import (
    CosetTable,
    TorusConstraint,
    _subgroup_elements,
    factorization_check,
    fixed_subsystem,
    length_comparison_check,
    member_of_W,
    parabolic_checks,
    parabolic_data,
    s_adapted,
)

from oracles import (
    all_reduced_words,
    coset_table_per_element,
    factorization_all_pairs,
    reflection_matrix,
    w_minimal_reps_by_length,
)


@pytest.fixture(scope="module")
def a2():
    return build_root_datum("A2")


@pytest.fixture(scope="module")
def a2_halfint(a2):
    constraint = TorusConstraint("torsion", (Fraction(1, 2), 0))
    return fixed_subsystem(a2, [constraint])


def exhaustive_subgroup(group, gens):
    members = {group.identity}
    frontier = [group.identity]
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = group.mul(g, s)
                if h not in members:
                    members.add(h)
                    new.append(h)
        frontier = new
    return members


class TestFixedSubsystem:
    def test_no_constraints_gives_everything(self, a2):
        sub = fixed_subsystem(a2, [])
        assert sub.roots == frozenset(a2.roots)
        assert sub.group_order == 6
        assert len(CosetTable(sub)) == 1

    def test_half_integral_torsion(self, a2, a2_halfint):
        assert a2_halfint.roots == {(0, 1), (0, -1)}
        assert a2_halfint.group_order == 2
        assert len(CosetTable(a2_halfint)) == 3

    def test_gl2_generic(self):
        gl2 = build_root_datum("GL2")
        sub = fixed_subsystem(gl2, [TorusConstraint("generic", (0, 1))])
        assert sub.roots == frozenset()
        assert sub.group_order == 1
        table = CosetTable(sub)
        assert len(table) == 2
        group = sub.group
        assert table.rep(0) == group.identity
        assert table.rep(1) == group.simple[0]
        assert table.act(0, 0) == 1 and table.act(1, 0) == 0

    def test_closure_invariants(self, a2_halfint):
        roots = a2_halfint.roots
        assert roots == {tuple(-x for x in r) for r in roots}
        root_set = set(a2_halfint.datum.roots)
        for a in roots:
            for b in roots:
                s = tuple(x + y for x, y in zip(a, b))
                if s in root_set:
                    assert s in roots

    def test_simples_positive_combinations(self, a2):
        b2 = build_root_datum("B2")
        # rank-1 subsystem on a long root: kill the short ones
        constraint = TorusConstraint("torsion", (0, Fraction(1, 2)))
        sub = fixed_subsystem(b2, [constraint])
        assert all(r in sub.roots or tuple(-x for x in r) in sub.roots or True for r in b2.roots)
        assert sub.group_order >= 2
        for r in length_comparison_check(sub):
            assert r.passed, r


class TestMembership:
    def test_identity(self, a2_halfint):
        assert member_of_W(a2_halfint, a2_halfint.group.identity)

    def test_spec_examples(self, a2, a2_halfint):
        group = a2.weyl()
        assert member_of_W(a2_halfint, group.simple[1])
        assert not member_of_W(a2_halfint, group.simple[0])

    def test_full_subsystem_contains_all(self, a2):
        sub = fixed_subsystem(a2, [])
        for g in range(len(sub.group)):
            assert member_of_W(sub, g)

    @pytest.mark.parametrize(
        "label,values",
        [
            ("A2", (Fraction(1, 2), 0)),
            ("B2", (Fraction(1, 2), 0)),
            ("B2", (0, Fraction(1, 2))),
            ("B3", (Fraction(1, 2), 0, 0)),
        ],
    )
    def test_against_exhaustive_subgroup(self, label, values):
        datum = build_root_datum(label)
        sub = fixed_subsystem(datum, [TorusConstraint("torsion", values)])
        expected = exhaustive_subgroup(sub.group, sub._refl)
        assert sub.members == expected
        for g in range(len(sub.group)):
            assert member_of_W(sub, g) == (g in expected)


COSET_CASES = [
    ("A2", (Fraction(1, 2), 0)),
    ("B2", (0, Fraction(1, 2))),
    ("B3", (Fraction(1, 2), 0, 0)),
    ("G2", (Fraction(1, 2), 0)),
]


class TestCosetTable:
    @pytest.mark.parametrize("label,values", COSET_CASES)
    def test_fixed_points_partition_the_group(self, label, values):
        datum = build_root_datum(label)
        sub = fixed_subsystem(datum, [TorusConstraint("torsion", values)])
        table = CosetTable(sub)
        seen = []
        for i in table.indices:
            fixed = table.fixed_points_of(i)
            assert isinstance(fixed, tuple)
            assert list(fixed) == [g for g in range(len(sub.group)) if table.coset_of[g] == i]
            seen.extend(fixed)
        assert sorted(seen) == list(range(len(sub.group)))

    @pytest.mark.parametrize("label,values", COSET_CASES)
    def test_canonicity_unique_per_coset(self, label, values):
        datum = build_root_datum(label)
        sub = fixed_subsystem(datum, [TorusConstraint("torsion", values)])
        assert len(sub.group) <= 48
        table = CosetTable(sub)
        group = sub.group
        assert len(table) * sub.group_order == len(group)
        pos_big = datum._positive_set
        target = set(sub.positives)
        canonical = set()
        for g in range(len(group)):
            ginv = group.inv(g)
            if {a for a in sub.roots if group.act(ginv, a) in pos_big} == target:
                canonical.add(g)
        assert canonical == set(table.reps)
        # exactly one canonical element per coset
        assert len(canonical) == len(table)
        cosets = {}
        for g in canonical:
            cosets.setdefault(table.coset_of[g], []).append(g)
        assert all(len(v) == 1 for v in cosets.values())

    def test_action_matches_rep_product(self, a2_halfint):
        table = CosetTable(a2_halfint)
        group = a2_halfint.group
        for i in table.indices:
            for k in range(a2_halfint.datum.rank):
                j = table.act(i, k)
                if j != i:
                    assert table.rep(j) == group.mul(table.rep(i), group.simple[k])
                else:
                    x = table.rep(i)
                    conj = group.mul(group.mul(x, group.simple[k]), group.inv(x))
                    assert member_of_W(a2_halfint, conj)
                    # the conjugate is the reflection in x(alpha_k)
                    root = group.act(x, a2_halfint.datum.simple_roots[k])
                    assert group.matrix(conj) == reflection_matrix(a2_halfint.datum, root)

    def test_action_well_defined_on_pairs(self, a2_halfint):
        table = CosetTable(a2_halfint)
        group = a2_halfint.group
        rank = a2_halfint.datum.rank
        for i in table.indices:
            for k1 in range(rank):
                for k2 in range(rank):
                    prod = group.mul(group.simple[k1], group.simple[k2])
                    assert table.act(table.act(i, k1), k2) == table.act_elem(i, prod)

    def test_stab_flags_match_membership(self, a2_halfint):
        table = CosetTable(a2_halfint)
        group = a2_halfint.group
        for i in table.indices:
            for k in range(a2_halfint.datum.rank):
                x = table.rep(i)
                conj = group.mul(group.mul(x, group.simple[k]), group.inv(x))
                assert table.stab(i, k) == member_of_W(a2_halfint, conj)


# the KLR quivers of the benchmark workloads, and loop+arrow (3,3) on GL6
KLR_QUIVERS = {
    "arrow-2-2": ((1, 2), ((1, 2),), (2, 2)),
    "jordan-3": ((1,), ((1, 1),), (3,)),
    "a3line-1-2-1": ((1, 2, 3), ((1, 2), (2, 3)), (1, 2, 1)),
    "looparrow-2-2": ((1, 2), ((1, 1), (1, 2)), (2, 2)),
    "arrow-3-2": ((1, 2), ((1, 2),), (3, 2)),
    "looparrow-3-2": ((1, 2), ((1, 1), (1, 2)), (3, 2)),
    "looparrow-3-3": ((1, 2), ((1, 1), (1, 2)), (3, 3)),
}

SUBSYSTEMS = (
    [f"{family}:{label}" for family in ("nilhecke", "skew") for label in ("A2", "B2", "G2", "A3")]
    + [f"nilhecke:{label}" for label in ("A4", "B4", "C4", "D4", "F4", "GL6")]
    + [f"klr:{key}" for key in KLR_QUIVERS]
    + ["a2-halfint", "gl2-generic"]
)


def named_subsystem(name):
    """The fixed subsystem of a `qhecke preset` name, of "klr:<key>" for a
    quiver of KLR_QUIVERS, or of the A2 half-integral torsion constraint
    and the GL2 generic constraint of the fixtures above, or of B3 cut by
    the torsion constraint (0, 0, 1/2)."""
    if name == "a2-halfint":
        constraint = TorusConstraint("torsion", (Fraction(1, 2), 0))
        return fixed_subsystem(build_root_datum("A2"), [constraint])
    if name == "b3-torsion":
        constraint = TorusConstraint("torsion", (0, 0, Fraction(1, 2)))
        return fixed_subsystem(build_root_datum("B3"), [constraint])
    if name == "gl2-generic":
        return fixed_subsystem(build_root_datum("GL2"), [TorusConstraint("generic", (0, 1))])
    if name.startswith("klr:"):
        vertices, arrows, dimension = KLR_QUIVERS[name[4:]]
        quiver = {"vertices": list(vertices), "arrows": [list(a) for a in arrows],
                  "dimension": list(dimension)}
        cfg = cmd_preset("klr", json.dumps(quiver))
    else:
        cfg = cmd_preset(name, None)
    return build_setting(cfg).sub


class TestCosetsBuiltOnce:
    """One canonicalization per coset, the rest of the coset its W-orbit,
    against the table that canonicalized every element of W_big."""

    @pytest.mark.parametrize("name", SUBSYSTEMS)
    def test_matches_per_element_table(self, name):
        sub = named_subsystem(name)
        table, ref = CosetTable(sub), coset_table_per_element(sub)
        assert table.reps == ref.reps
        assert table.coset_of == ref.coset_of
        assert table.indices == ref.indices
        assert table.action == ref.action
        assert table.stab_flags == ref.stab_flags
        for i in ref.indices:
            assert table.fixed_points_of(i) == ref.fixed_points_of(i)

    @pytest.mark.parametrize("name", SUBSYSTEMS)
    def test_each_representative_is_its_cosets_first_element(self, name):
        # the representative is the coset's minimal-length element, and
        # elements are enumerated by length, so it comes first
        table = CosetTable(named_subsystem(name))
        for i in table.indices:
            assert table.rep(i) == table.fixed_points_of(i)[0]

    @pytest.mark.parametrize(
        "name,cosets", [("nilhecke:F4", 1), ("a2-halfint", 3), ("klr:arrow-3-2", 10)]
    )
    def test_one_canonicalization_per_coset(self, monkeypatch, name, cosets):
        sub = named_subsystem(name)
        calls = []
        real = CosetTable._canonicalize

        def counting(self, g):
            calls.append(g)
            return real(self, g)

        monkeypatch.setattr(CosetTable, "_canonicalize", counting)
        table = CosetTable(sub)
        assert len(table) == cosets
        assert len(calls) == cosets

    @pytest.mark.parametrize("name", ["a2-halfint", "klr:arrow-2-2"])
    def test_missing_member_breaks_the_invariant(self, name):
        # every choice of the one non-identity element left out of W
        sub = named_subsystem(name)
        dropped = sorted(sub.members - {sub.group.identity})
        assert dropped
        for w in dropped:
            mutant = copy.copy(sub)
            mutant.members = sub.members - {w}
            with pytest.raises(InternalInvariantError):
                CosetTable(mutant)


class TestLengthComparison:
    def test_full_subsystem_lengths_agree(self, a2):
        sub = fixed_subsystem(a2, [])
        for g in range(len(sub.group)):
            assert sub.length_in(g) == sub.group.length(g)
        for r in length_comparison_check(sub):
            assert r.passed

    def test_half_integral(self, a2_halfint):
        group = a2_halfint.group
        assert a2_halfint.length_in(group.simple[1]) == 1 == group.length(group.simple[1])
        for r in length_comparison_check(a2_halfint):
            assert r.passed

    @pytest.mark.parametrize(
        "label,values",
        [("B2", (Fraction(1, 2), 0)), ("B2", (0, Fraction(1, 2))), ("G2", (Fraction(1, 2), 0))],
    )
    def test_exhaustive(self, label, values):
        datum = build_root_datum(label)
        sub = fixed_subsystem(datum, [TorusConstraint("torsion", values)])
        for r in length_comparison_check(sub):
            assert r.passed, (label, values, r.name)


class TestAdaptedness:
    def test_empty_and_full_always_adapted(self, a2_halfint):
        assert s_adapted(a2_halfint, [])
        assert s_adapted(a2_halfint, range(a2_halfint.datum.rank))

    def test_a2_halfint_singleton(self, a2_halfint):
        # S = {reflection in the second simple root}; J = {first} never meets
        # its reduced words, J = {second} contains them all
        assert s_adapted(a2_halfint, [0])
        assert s_adapted(a2_halfint, [1])

    @pytest.mark.parametrize(
        "label,kind,values,most_words",
        [
            # (0 2) = s0 s1 s0 = s1 s0 s1 lies in W
            ("GL4", "generic", (0, 1, 0, 1), 2),
            ("GL5", "generic", (0, 1, 0, 1, 0), 2),
            ("A3", "torsion", (Fraction(1, 2), 0, Fraction(1, 2)), 6),
            ("A2", "torsion", (Fraction(1, 2), 0), 1),
            ("B2", "torsion", (0, Fraction(1, 2)), 1),
            ("B3", "torsion", (Fraction(1, 2), 0, 0), 1),
            ("B3", "torsion", (0, 0, Fraction(1, 2)), 1),
        ],
    )
    def test_one_reduced_word_decides(self, label, kind, values, most_words):
        # the definition reads every reduced word of each reflection of W
        from itertools import combinations

        datum = build_root_datum(label)
        sub = fixed_subsystem(datum, [TorusConstraint(kind, values)])
        words = [all_reduced_words(sub.group, t) for t in sub._refl]
        assert max(map(len, words)) == most_words
        for size in range(datum.rank + 1):
            for J in map(set, combinations(range(datum.rank), size)):
                every_word = all(
                    not set(w) & J or set(w) <= J for ws in words for w in ws
                )
                assert s_adapted(sub, J) == every_word, J

    def test_non_adapted_example(self):
        # B2 with the subsystem generated by the long root through both walls:
        # the W-simple reflection is a product using both big generators
        b2 = build_root_datum("B2")
        sub = fixed_subsystem(b2, [TorusConstraint("torsion", (Fraction(1, 2), 0))])
        long_words = {
            sub.group.reduced_word(t) for t in sub._refl
        }
        has_long = any(len(w) > 1 for w in long_words)
        if has_long:
            assert not s_adapted(sub, [0]) or not s_adapted(sub, [1])

    @pytest.mark.parametrize(
        "label,values",
        [
            ("A2", (Fraction(1, 2), 0)),
            ("B2", (0, Fraction(1, 2))),
            ("B3", (Fraction(1, 2), 0, 0)),
        ],
    )
    def test_factorization_on_adapted_pairs(self, label, values):
        from itertools import combinations

        datum = build_root_datum(label)
        sub = fixed_subsystem(datum, [TorusConstraint("torsion", values)])
        rank = datum.rank
        adapted = [
            J
            for size in range(rank + 1)
            for J in combinations(range(rank), size)
            if s_adapted(sub, J)
        ]
        assert () in adapted and tuple(range(rank)) in adapted
        for J in adapted:
            for r in parabolic_checks(sub, J):
                assert r.passed, (label, J, r.name, r.counterexample)
            for K in adapted:
                for r in factorization_check(sub, J, K):
                    assert r.passed, (label, J, K, r.name, r.counterexample)

    def test_shared_subset_data_gives_the_same_results(self):
        # every subset, adapted or not, so that some results fail
        from itertools import combinations

        datum = build_root_datum("B3")
        sub = fixed_subsystem(datum, [TorusConstraint("torsion", (0, 0, Fraction(1, 2)))])
        subsets = [J for size in range(4) for J in combinations(range(3), size)]
        cache = {}
        verdicts = set()
        for J in subsets:
            shared = parabolic_checks(sub, J, cache)
            fresh = parabolic_checks(sub, J)
            assert [r.as_dict() for r in shared] == [r.as_dict() for r in fresh]
            verdicts.update(r.passed for r in fresh)
            for K in subsets:
                shared = factorization_check(sub, J, K, cache)
                fresh = factorization_check(sub, J, K)
                assert [r.as_dict() for r in shared] == [r.as_dict() for r in fresh]
                verdicts.update(r.passed for r in fresh)
        assert verdicts == {True, False}
        assert set(cache) == set(subsets)

    @pytest.mark.parametrize(
        "label,values",
        [("A2", (Fraction(1, 2), 0)), ("B3", (0, 0, Fraction(1, 2))), ("A3", (0, 0, 0))],
    )
    def test_suite_is_the_all_pairs_loop_without_repeats(self, label, values):
        sub = fixed_subsystem(build_root_datum(label), [TorusConstraint("torsion", values)])
        want = []
        for r in factorization_all_pairs(sub):
            if r not in want:
                want.append(r)
        got = _factorization_checks(sub)
        assert got == want
        assert len(factorization_all_pairs(sub)) > len(got)


class TestDescentsByLookup:
    """`parabolic_data` reads each right descent of W off the sign of one
    root; `oracles.w_minimal_reps_by_length` compares two Phi-inversion
    counts.  Every subset J of the big simples, adapted or not.  In
    "b3-torsion" a simple root of Phi is not a simple root of B3."""

    @pytest.mark.parametrize(
        "name",
        ["a2-halfint", "b3-torsion", "skew:G2", "nilhecke:A3", "klr:a3line-1-2-1",
         "klr:looparrow-3-2"],
    )
    def test_same_minimal_representatives(self, name):
        from itertools import combinations

        sub = named_subsystem(name)
        group, rank = sub.group, sub.datum.rank
        for J in (J for size in range(rank + 1) for J in combinations(range(rank), size)):
            WJ = _subgroup_elements(group, [group.simple[k] for k in J])
            want = w_minimal_reps_by_length(sub, [t for t in sub._refl if t in WJ])
            assert parabolic_data(sub, J).W_min == want, J
