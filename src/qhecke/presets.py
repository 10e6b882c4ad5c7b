"""Turnkey configurations and the independent quiver-side oracle.

Three families: divided-difference algebras (no twisting data), skew group
rings (one adjoint copy, every crossing twists by its root), and quiver
Hecke algebras attached to a quiver with dimension vector, realized inside a
GL ambient group with one generic torus constraint separating the vertices.

The oracle rebuilds the quiver Hecke operators from the quiver combinatorics
alone (vertex sequences, arrow counts, permutation tracking) without the
root-system machinery, and the check compares presentation-level data:
h-counts, crossing squares and braid-defect coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import TwistedOperator, braid_defect, gen_sigma
from .config import Config, check_quiver
from .errors import UnsupportedDimension
from .polyops import Poly, RatFun, add_term
from .repdata import h_count
from .report import verdict


@dataclass(frozen=True)
class QuiverSpec:
    """Finite quiver with dimension vector; loops and parallel arrows allowed.
    The fields go through `config.check_quiver`, which normalizes them."""

    vertices: tuple
    arrows: tuple  # ordered pairs (source, target)
    dimension: dict

    def __post_init__(self):
        checked = check_quiver(self.vertices, self.arrows, self.dimension)
        for name, value in zip(("vertices", "arrows", "dimension"), checked):
            object.__setattr__(self, name, value)

    @property
    def total_dimension(self) -> int:
        return sum(self.dimension.get(q, 0) for q in self.vertices)


def preset_nilhecke(label: str) -> Config:
    """Divided-difference preset: trivial constraints, no twisting data."""
    return Config(group=label)


def preset_skew(label: str) -> Config:
    """Skew-group preset: one copy, positives against the full adjoint weights."""
    return Config(group=label, r=1, U=["positive_roots"], V=["all_roots"])


def _base_assignment(quiver: QuiverSpec):
    """Positions 0..d-1 sorted by vertex; returns the vertex of each position."""
    base = []
    for q in sorted(quiver.vertices, key=str):
        base.extend([q] * quiver.dimension.get(q, 0))
    return tuple(base)


def preset_klr(quiver: QuiverSpec) -> Config:
    """Quiver Hecke preset inside GL_d with a separating generic constraint."""
    d = quiver.total_dimension
    if d < 1:
        raise UnsupportedDimension("dimension vector must be nonzero")
    if d > 6:
        raise UnsupportedDimension("desk scale keeps d <= 6")
    if d == 1:
        raise UnsupportedDimension("GL ambient needs d >= 2")
    base = _base_assignment(quiver)
    kappa = {q: k for k, q in enumerate(sorted(quiver.vertices, key=str))}
    constraint = {
        "kind": "generic",
        "values": [Fraction(kappa[q]) for q in base],
    }
    V = []
    for (q, qp) in quiver.arrows:
        weights = []
        for b in range(d):
            for c in range(d):
                if b != c and base[b] == qp and base[c] == q:
                    v = [0] * d
                    v[b], v[c] = 1, -1
                    weights.append(v)
        V.append(sorted(weights))
    return Config(
        group=f"GL{d}",
        torus=[constraint],
        r=len(V),
        U=["positive_roots"] * len(V),
        V=V,
    )


def coset_sequences(quiver: QuiverSpec, table):
    """Vertex sequence attached to each coset index: position k carries the
    base vertex of the preimage slot under the representative's permutation."""
    base = _base_assignment(quiver)
    d = len(base)
    group = table.group
    out = []
    for i in table.indices:
        mat = group.matrix(table.rep(i))
        # column a has a single 1 in row pi(a); slot k carries base[pi(k)]
        pi = [next(r for r in range(d) if mat[r][a]) for a in range(d)]
        out.append(tuple(base[pi[k]] for k in range(d)))
    return out


def _perm_matrix(pi, d):
    return tuple(
        tuple(1 if pi[a] == r else 0 for a in range(d)) for r in range(d)
    )


def _perm_element(group, pi):
    """Group index of the coordinate permutation e_a -> e_{pi[a]}, found by
    the permutation it induces on the roots."""
    d = len(pi)
    src = [0] * d
    for a in range(d):
        src[pi[a]] = a
    return group.from_root_images(
        tuple(r[src[b]] for b in range(d)) for r in group.roots
    )


class QuiverOracle:
    """Quiver Hecke operators rebuilt from quiver combinatorics alone.

    States are vertex sequences; the crossing at slot k twists by
    (y_k - y_{k+1})^(number of arrows from the right vertex to the left one)
    and acts by divided difference when the two vertices agree and by a
    twisted swap otherwise.  No root-system data enters: only arrow counts
    and sequence bookkeeping.
    """

    def __init__(self, quiver: QuiverSpec):
        self.quiver = quiver
        self.d = quiver.total_dimension

    def arrow_count(self, source, target) -> int:
        return sum(1 for (q, qp) in self.quiver.arrows if q == source and qp == target)

    def h_value(self, seq, k: int) -> int:
        """Crossing exponent at slot k: arrows from seq[k+1] into seq[k]."""
        return self.arrow_count(seq[k + 1], seq[k])

    def crossing(self, seq, k: int):
        """Terms of the crossing generator on the state seq at slot k:
        list of (target_seq, coefficient, permutation-as-tuple)."""
        d = self.d
        ident = tuple(range(d))
        tau = tau_of(k, d)
        y = [0] * d
        y[k], y[k + 1] = 1, -1
        alpha = Poly.linear(tuple(y))
        h = self.h_value(seq, k)
        q = alpha ** h
        if seq[k] == seq[k + 1]:
            c = RatFun(q, alpha)
            return [(seq, c, tau), (seq, -c, ident)]
        return [(seq, RatFun(q), tau)]

    def crossing_word(self, seq, word):
        """Left-to-right crossing product with sequence tracking; returns
        terms keyed by (sequence, permutation)."""
        d = self.d
        ident = tuple(range(d))
        terms = {(seq, ident): RatFun.from_scalar(d, 1)}
        cur = seq
        for k in word:
            nxt = self.crossing(cur, k)
            out = {}
            for (s0, pi), c in terms.items():
                mat = _perm_matrix(pi, d)
                for _, c2, pi2 in nxt:
                    comp = tuple(pi[pi2[a]] for a in range(d))
                    add_term(out, (s0, comp), c * c2.substitute_linear(mat))
            terms = out
            cur = tuple(cur[t] for t in tau_of(k, d))
        return terms


def tau_of(k: int, d: int):
    tau = list(range(d))
    tau[k], tau[k + 1] = tau[k + 1], tau[k]
    return tuple(tau)


def klr_oracle_check(quiver: QuiverSpec) -> list:
    """Same h-counts, same crossing squares, same braid defects, computed
    once from the root-system construction and once from the quiver."""
    from .config import build_setting

    cfg = preset_klr(quiver)
    setting = build_setting(cfg)
    table, group = setting.table, setting.group
    d = quiver.total_dimension
    oracle = QuiverOracle(quiver)
    seqs = coset_sequences(quiver, table)
    seq_index = {s: i for i, s in enumerate(seqs)}

    def oracle_as_operator(seq, word) -> TwistedOperator:
        terms = {}
        for (s0, pi), c in oracle.crossing_word(seq, word).items():
            g = _perm_element(group, pi)
            terms[(seq_index[s0], g)] = c
        return TwistedOperator(table, terms)

    def h_counts():
        for i in table.indices:
            for k in range(d - 1):
                root_h = h_count(setting, i, k)
                orh = oracle.h_value(seqs[i], k)
                if root_h != orh:
                    yield {"i": i, "k": k, "root": root_h, "oracle": orh}

    def squares():
        for i in table.indices:
            for k in range(d - 1):
                root_sq = gen_sigma(setting, i, k) * gen_sigma(setting, table.act(i, k), k)
                if root_sq != oracle_as_operator(seqs[i], (k, k)):
                    yield {"i": i, "k": k}

    def braid_defects():
        for i in table.indices:
            for k in range(d - 2):
                root_bd = braid_defect(setting, i, k, k + 1)
                lhs = oracle_as_operator(seqs[i], (k, k + 1, k))
                rhs = oracle_as_operator(seqs[i], (k + 1, k, k + 1))
                recon = TwistedOperator(table)
                e = group.identity
                for g, q in root_bd.coefficients.items():
                    if q.is_zero():
                        continue
                    basis = oracle_as_operator(seqs[i], root_bd.words[g])
                    recon = recon + TwistedOperator(table, {(seq_index[seqs[i]], e): q}) * basis
                if lhs - rhs != recon:
                    yield {"i": i, "k": k}

    return [
        verdict("oracle-h-counts", h_counts(), f"#I={len(table.indices)}"),
        verdict("oracle-squares", squares()),
        verdict("oracle-braid-defects", braid_defects()),
    ]
