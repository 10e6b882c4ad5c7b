"""Torus constraints, fixed root subsystems and coset combinatorics.

A finite list of constraint vectors cuts out the subsystem of roots killed by
the defining subgroup: torsion constraints test integrality of the pairing,
generic (one-parameter) constraints test vanishing.  The reflections in that
subsystem generate the small Weyl group W inside the big one, and the right
cosets W\\W_big get canonical representatives characterized by
Phi cap x(Phi_big^+) = Phi^+ (a Borel-compatibility condition, not
length-minimality).  Canonicalization runs once per coset, and the coset is
filled as the W-orbit of its representative; cosets that overlap are a
broken invariant, not a property of the input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InternalInvariantError, NonCanonicalizable, ParseError
from .report import CheckResult
from .rootcore import RootDatum, WeylGroup, _dot, _vec


@dataclass(frozen=True)
class TorusConstraint:
    """One defining constraint: kind "torsion" (pairing in Z) or "generic"
    (pairing zero)."""

    kind: str
    values: tuple

    def __post_init__(self):
        if self.kind not in ("torsion", "generic"):
            raise ParseError(f"unknown constraint kind {self.kind!r}")
        object.__setattr__(self, "values", _vec(self.values))

    def keeps(self, root) -> bool:
        p = Fraction(_dot(root, self.values))
        if self.kind == "torsion":
            return p.denominator == 1
        return p == 0


class SubSystem:
    """The fixed subsystem Phi with its positives, simples and Weyl group W."""

    def __init__(self, datum: RootDatum, roots):
        self.datum = datum
        self.roots = frozenset(roots)
        self.positives = tuple(sorted(r for r in self.roots if r in datum._positive_set))
        self.negatives = frozenset(tuple(-x for x in r) for r in self.positives)
        pos = set(self.positives)
        self.simples = tuple(
            sorted(
                b
                for b in pos
                if not any(
                    tuple(x - y for x, y in zip(b, g)) in pos for g in pos if g != b
                )
            )
        )
        group = datum.weyl()
        self.group = group
        self._refl = tuple(group.reflection(b) for b in self.simples)
        # the same data by root index, for permutation lookups
        index = group.root_index
        self._pos_index = tuple(index[b] for b in self.positives)
        self._simple_index = tuple(index[b] for b in self.simples)
        self._neg_simple_index = tuple(index[tuple(-x for x in b)] for b in self.simples)
        self._root_index = tuple(index[a] for a in sorted(self.roots))
        self._negative = bytes(r in self.negatives for r in group.roots)
        self.members = _subgroup_elements(group, self._refl)
        self.group_order = len(self.members)

    def reflection(self, simple_index: int) -> int:
        """Group index of the reflection in the simple_index-th simple of Phi."""
        return self._refl[simple_index]

    def length_in(self, g: int) -> int:
        """Length of g inside W: inversions of Phi^+ (only sensible for g in W)."""
        p, neg = self.group.perms[g], self._negative
        return sum(neg[p[i]] for i in self._pos_index)

    def __repr__(self):
        return (
            f"SubSystem(#roots={len(self.roots)}, #simples={len(self.simples)}, "
            f"#W={self.group_order})"
        )


def fixed_subsystem(datum: RootDatum, constraints) -> SubSystem:
    """Subsystem of roots surviving every constraint (all of them if none)."""
    constraints = tuple(constraints)
    for c in constraints:
        if len(c.values) != datum.ambient_rank:
            raise ParseError(
                f"constraint vector has length {len(c.values)}, "
                f"ambient rank is {datum.ambient_rank}"
            )
    kept = [r for r in datum.roots if all(c.keeps(r) for c in constraints)]
    return SubSystem(datum, kept)


def member_of_W(sub: SubSystem, g: int) -> bool:
    """Descent to the identity through simple reflections of Phi.

    Repeatedly multiplies by a reflection whose simple root is sent negative
    (in Phi); membership in W is equivalent to reaching the identity.
    """
    group = sub.group
    limit = len(sub.positives) + 1
    for _ in range(limit):
        if g == group.identity:
            return True
        p = group.perms[g]
        k = next(
            (k for k, i in enumerate(sub._simple_index) if sub._negative[p[i]]),
            None,
        )
        if k is None:
            return False
        g = group.mul(g, sub.reflection(k))
    return g == group.identity


class CosetTable:
    """Canonical representatives of W\\W_big with the right action by W_big.

    Each coset is built once: the first element of W_big (in enumeration
    order) not yet placed is canonicalized to its representative r, and the
    coset is filled as the W-orbit {w r : w in W}.  Cosets are disjoint, so
    an element placed twice, or a canonicalized element missing from its
    representative's orbit, is a broken invariant (`InternalInvariantError`).
    """

    def __init__(self, sub: SubSystem):
        self.sub = sub
        self.group = sub.group
        group = self.group
        canon = [None] * len(group)
        reps = []
        for g in range(len(group)):
            if canon[g] is not None:
                continue
            r = self._canonicalize(g)
            for w in sub.members:
                h = group.mul(w, r)
                if canon[h] is not None:
                    raise InternalInvariantError(
                        f"element {h} lies in the cosets of {canon[h]} and of {r}"
                    )
                canon[h] = r
            if canon[g] is None:
                raise InternalInvariantError(
                    f"element {g} is missing from the orbit of its representative {r}"
                )
            reps.append(r)
        reps.sort(key=lambda g: (group.length(g), group.reduced_word(g)))
        self.reps = tuple(reps)
        rep_index = {g: i for i, g in enumerate(reps)}
        self.coset_of = tuple(rep_index[c] for c in canon)
        self.indices = tuple(range(len(reps)))
        rank = sub.datum.rank
        self.action = tuple(
            tuple(self.coset_of[group.mul(x, group.simple[k])] for k in range(rank))
            for x in reps
        )
        self.stab_flags = tuple(
            tuple(self.action[i][k] == i for k in range(rank))
            for i in range(len(reps))
        )
        fixed = [[] for _ in reps]
        for g, i in enumerate(self.coset_of):
            fixed[i].append(g)
        self._fixed = tuple(map(tuple, fixed))

    def _canonicalize(self, g: int) -> int:
        """Replace g by the representative of Wg with Phi cap g(Phi_big^+) = Phi^+."""
        sub, group = self.sub, self.group
        neg_big = group.negative
        pinv = group.perms[group.inv(g)]
        # root indices of Phi cap g(Phi_big^+)
        current = {i for i in sub._root_index if not neg_big[pinv[i]]}
        for _ in range(len(sub.positives) + 1):
            k = next((k for k, i in enumerate(sub._neg_simple_index) if i in current), None)
            if k is None:
                if set(sub._pos_index) != current:
                    raise NonCanonicalizable("canonicalization stalled off the positives")
                return g
            s = sub.reflection(k)
            ps = group.perms[s]
            current = {ps[i] for i in current}
            g = group.mul(s, g)
        raise NonCanonicalizable("canonicalization exceeded the iteration bound")

    def __len__(self):
        return len(self.reps)

    def rep(self, i: int) -> int:
        return self.reps[i]

    def act(self, i: int, k: int) -> int:
        """Index of coset i moved by the k-th simple reflection of W_big."""
        return self.action[i][k]

    def act_elem(self, i: int, g: int) -> int:
        """Index of coset i moved by an arbitrary group element."""
        return self.coset_of[self.group.mul(self.reps[i], g)]

    def stab(self, i: int, k: int) -> bool:
        return self.stab_flags[i][k]

    def fixed_points_of(self, i: int) -> tuple:
        """All group elements in the coset Wx_i, in enumeration order."""
        return self._fixed[i]


def length_comparison_check(sub: SubSystem) -> list:
    """l_S(w) <= l_Sbig(w) on W, and simple reflections of W_big lying in W
    are reflections in simples of Phi."""
    group = sub.group
    results = []
    bad = [
        g
        for g in sorted(sub.members)
        if sub.length_in(g) > group.length(g)
    ]
    results.append(
        CheckResult(
            "length-comparison",
            not bad,
            f"checked {len(sub.members)} elements of W",
            None if not bad else {"element_words": [group.reduced_word(g) for g in bad]},
        )
    )
    refl = set(sub._refl)
    bad2 = [k for k, s in enumerate(group.simple) if s in sub.members and s not in refl]
    results.append(
        CheckResult(
            "big-simples-in-W-are-simples",
            not bad2,
            f"checked {len(group.simple)} simple reflections",
            None if not bad2 else {"simple_indices": bad2},
        )
    )
    return results


def _subgroup_elements(group: WeylGroup, gen_indices) -> frozenset:
    members = {group.identity}
    frontier = [group.identity]
    gens = tuple(gen_indices)
    while frontier:
        new = []
        for g in frontier:
            for s in gens:
                h = group.mul(g, s)
                if h not in members:
                    members.add(h)
                    new.append(h)
        frontier = new
    return frozenset(members)


def s_adapted(sub: SubSystem, J) -> bool:
    """Adaptedness of J: every reduced expression of a simple reflection of W
    either avoids J or stays inside J.  Braid moves join any two reduced
    words of an element (Matsumoto) and keep its set of letters, so the
    group's one reduced word decides."""
    group = sub.group
    J = frozenset(J)
    for s in sub._refl:
        letters = set(group.reduced_word(s))
        if letters & J and not letters <= J:
            return False
    return True


def _minimal_coset_reps(group: WeylGroup, J) -> frozenset:
    """Elements with no right descent in J (representatives of W_big/W_J)."""
    return frozenset(
        g
        for g in range(len(group))
        if not any(group.descends_right(g, k) for k in J)
    )


def _w_minimal_reps(sub: SubSystem, L_refl) -> frozenset:
    """Elements of W with no right descent along the reflections in L_refl,
    descents measured by Phi-inversion count."""
    group = sub.group
    out = set()
    for g in sub.members:
        lg = sub.length_in(g)
        if all(sub.length_in(group.mul(g, t)) > lg for t in L_refl):
            out.add(g)
    return frozenset(out)


@dataclass(frozen=True)
class ParabolicData:
    """What the factorization checks need of one subset J of the big simples;
    shared by every pair (J, K) it occurs in."""

    big_min: frozenset  # minimal representatives of W_big/W_J
    big_min_inv: frozenset  # their inverses
    W_min: frozenset  # W-minimal representatives along the reflections in W_J
    W_min_inv: frozenset
    parts_outside_W: tuple  # words of w in W with w^J or w_J outside W


def parabolic_data(sub: SubSystem, J) -> ParabolicData:
    """W_J, its minimal coset representatives in W_big and in W, and the
    factorization parts of every w in W."""
    group = sub.group
    J = tuple(sorted(set(J)))
    WJ = _subgroup_elements(group, (group.simple[k] for k in J))
    L_refl = tuple(t for t in sub._refl if t in WJ)
    big_min = _minimal_coset_reps(group, J)
    W_min = _w_minimal_reps(sub, L_refl)
    bad = []
    for w in sorted(sub.members):
        y = w
        while True:
            k = next((k for k in J if group.descends_right(y, k)), None)
            if k is None:
                break
            y = group.mul(y, group.simple[k])
        wJ = group.mul(group.inv(y), w)
        if y not in sub.members or wJ not in sub.members:
            bad.append(group.reduced_word(w))
    return ParabolicData(
        big_min,
        frozenset(map(group.inv, big_min)),
        W_min,
        frozenset(map(group.inv, W_min)),
        tuple(bad),
    )


def _parabolic(sub: SubSystem, L, cache) -> ParabolicData:
    """`parabolic_data` of the sorted subset L, kept in the dict `cache`."""
    data = cache.get(L)
    if data is None:
        data = cache[L] = parabolic_data(sub, L)
    return data


def parabolic_checks(sub: SubSystem, J, cache=None) -> list:
    """The coset factorizations of W against W_big that read J alone: for
    S-adapted J, minimal coset representatives restrict, and the canonical
    factorization w = w^J w_J of any w in W has both parts in W.  `cache`,
    a dict, keeps each subset's `ParabolicData` across calls."""
    group = sub.group
    J = tuple(sorted(set(J)))
    pJ = _parabolic(sub, J, {} if cache is None else cache)
    lhs = pJ.W_min
    rhs = sub.members & pJ.big_min
    bad = list(pJ.parts_outside_W)
    return [
        CheckResult(
            "minimal-reps-restrict",
            lhs == rhs,
            f"J={J}: {len(lhs)} vs {len(rhs)} representatives",
            None
            if lhs == rhs
            else {"only_W_side": sorted(map(group.reduced_word, lhs - rhs)),
                  "only_big_side": sorted(map(group.reduced_word, rhs - lhs))},
        ),
        CheckResult(
            "factorization-parts-in-W",
            not bad,
            f"J={J}: checked {len(sub.members)} elements",
            None if not bad else {"elements": bad},
        ),
    ]


def factorization_check(sub: SubSystem, J, K, cache=None) -> list:
    """Two-sided coset factorizations of W against W_big: for S-adapted J
    and K, the minimal representatives of W_J backslash W_big / W_K
    restrict to W.  `cache`, a dict, keeps each subset's `ParabolicData`
    across calls."""
    group = sub.group
    J = tuple(sorted(set(J)))
    K = tuple(sorted(set(K)))
    if cache is None:
        cache = {}
    pJ, pK = _parabolic(sub, J, cache), _parabolic(sub, K, cache)
    two_sided_big = pJ.big_min_inv & pK.big_min
    two_sided_W = sub.members & pJ.W_min_inv & pK.W_min
    lhs = two_sided_big & sub.members
    return [
        CheckResult(
            "two-sided-reps-restrict",
            lhs == two_sided_W,
            f"J={J}, K={K}: {len(lhs)} vs {len(two_sided_W)}",
            None
            if lhs == two_sided_W
            else {"only_big": sorted(map(group.reduced_word, lhs - two_sided_W)),
                  "only_W": sorted(map(group.reduced_word, two_sided_W - lhs))},
        )
    ]
