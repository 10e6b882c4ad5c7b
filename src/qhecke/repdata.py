"""Weight-level representation input: the twisting data and its fibers.

The input is r copies of a weight set U_k (the nilpotent directions) and r
copies of a weight set V_k (the target representation).  Everything the
algebra needs is derived here: the h-counts and q-polynomials twisting the
crossing generators, and the fiber weight multisets F_w, F_{x,y} over fixed
points.  Zero weights of V are dropped at ingestion; no derived quantity ever
references them.

Suitability is checked conservatively at weight level (closure under adding
positive roots, and the same for U_k cap s(U_k)); a lenient mode downgrades
failures to warnings since the weight test is sufficient but not necessary.

A `Setting` bundles the twisting data with the coset table it is read
against, and owns what is derived from both: the Lambda table and the
tangent weights of every fixed point.
"""

from __future__ import annotations

from collections import Counter
from functools import cached_property

from .errors import InternalInvariantError, UnsuitableData
from .polyops import Poly
from .report import CheckResult
from .rootcore import RootDatum
from .subgroup import CosetTable


class SpringerData:
    """Immutable bundle of U/V weight sets over a fixed root datum."""

    def __init__(self, datum: RootDatum, U_sets, V_sets):
        self.datum = datum
        self.U_sets = tuple(frozenset(map(tuple, u)) for u in U_sets)
        vs = []
        for v in V_sets:
            cleaned = frozenset(t for t in map(tuple, v) if any(t))
            vs.append(cleaned)
        self.V_sets = tuple(vs)
        if len(self.U_sets) != len(self.V_sets):
            raise ValueError("U and V must have the same number of copies")
        self.r = len(self.U_sets)
        pos = frozenset(datum.positive_roots)
        self.borel_flag = all(u == pos for u in self.U_sets)

    def __repr__(self):
        return f"SpringerData(r={self.r}, borel={self.borel_flag})"


class Setting:
    """The construction data of one Springer theory: root datum, fixed
    subsystem, coset table and the twisting data U_k, V_k read over the
    table's root datum.  Unpacks as (datum, sub, table, data).

    Functions that read the twisting data take the setting; functions that
    need only the cosets take the table, and only W the subsystem."""

    def __init__(self, table: CosetTable, U_sets=(), V_sets=()):
        self.datum = table.sub.datum
        self.sub = table.sub
        self.group = table.group
        self.table = table
        self.data = SpringerData(self.datum, U_sets, V_sets)
        self.tangents = {}  # element -> tangent weights, filled by localize.tangent_n

    def __iter__(self):
        return iter((self.datum, self.sub, self.table, self.data))

    @cached_property
    def lambdas(self) -> tuple:
        """Lambda_w for every group element, computed on first use."""
        from . import localize

        return localize.lambda_table(self)


def validate(setting: Setting, strict: bool = False) -> list:
    """All weight-level invariants; raises UnsuitableData in strict mode."""
    datum, sub, _, data = setting
    root_set = set(datum.roots)
    pos = datum._positive_set
    group = setting.group
    results = []

    def closed_under(name, add_set, weights) -> CheckResult:
        """Fails at the first a + b that is a root outside `weights`."""
        for a in weights:
            for b in add_set:
                s = tuple(x + y for x, y in zip(a, b))
                if s in root_set and s not in weights:
                    return CheckResult(name, False, "", {"weight": a, "added": b})
        return CheckResult(name, True)

    for k, U in enumerate(data.U_sets):
        ok = U <= root_set
        results.append(
            CheckResult(f"U[{k}]-weights-are-roots", ok, "", None if ok else {"copy": k})
        )
        if not ok:
            continue
        results.append(closed_under(f"U[{k}]-closed-under-positives", pos, U))
        for s_idx in range(datum.rank):
            sU = frozenset(group.act(group.simple[s_idx], a) for a in U)
            results.append(closed_under(f"U[{k}]-cap-s{s_idx}U-closed", pos, U & sU))

    phi = sub.roots
    for k, V in enumerate(data.V_sets):
        ok = V <= root_set
        results.append(
            CheckResult(f"V[{k}]-weights-are-roots", ok, "", None if ok else {"copy": k})
        )
        if not ok:
            continue
        stable = all(group.act(g, v) in V for g in sub.members for v in V)
        results.append(CheckResult(f"V[{k}]-W-stable", stable))
        results.append(closed_under(f"V[{k}]-closed-under-Phi", phi, V))

    failures = [r for r in results if not r.passed]
    results.append(
        CheckResult(
            "summary",
            not failures,
            f"{len(results)} weight-level checks over r={data.r} copies",
        )
    )
    if strict and failures:
        raise UnsuitableData("; ".join(r.name for r in failures))
    return results


def h_count(setting: Setting, i: int, s: int) -> int:
    """Number of copies V_k containing x_i(alpha_s); the crossing exponent.

    Only meaningful with the positive-system twisting data.  The wall/loop
    split is asserted: across a wall only weights outside Phi contribute,
    on a stabilized index only weights inside Phi contribute.
    """
    data, table, group = setting.data, setting.table, setting.group
    if not data.borel_flag:
        raise ValueError("h-counts require the positive-system twisting data")
    w = group.act(table.rep(i), data.datum.simple_roots[s])
    total = sum(1 for V in data.V_sets if w in V)
    in_phi = w in table.sub.roots
    if table.stab(i, s):
        split = sum(1 for V in data.V_sets if w in V and in_phi)
    else:
        split = sum(1 for V in data.V_sets if w in V and not in_phi)
    if split != total:
        raise InternalInvariantError(
            f"wall/loop split mismatch at (i={i}, s={s}): {split} != {total}"
        )
    return total


def q_poly(setting: Setting, i: int, s: int) -> Poly:
    """Product of the linear forms alpha over all copies k and weights
    alpha in U_k with s(alpha) outside U_k and x_i(alpha) in V_k."""
    datum, _, table, data = setting
    group = setting.group
    s_elem = group.simple[s]
    x = table.rep(i)
    out = Poly.const(datum.ambient_rank, 1)
    for U, V in zip(data.U_sets, data.V_sets):
        for a in sorted(U):
            if group.act(s_elem, a) in U:
                continue
            if group.act(x, a) in V:
                out = out * Poly.linear(a)
    if data.borel_flag:
        h = h_count(setting, i, s)
        expected = Poly.linear(datum.simple_roots[s]) ** h
        if out != expected:
            raise InternalInvariantError(f"q != alpha_s^h at (i={i}, s={s})")
    return out


def fiber_weights(setting: Setting, g: int) -> Counter:
    """Multiset of weights of the fiber over the fixed point of g:
    one copy of V_k cap g(U_k) per k."""
    group, data = setting.group, setting.data
    out = Counter()
    for U, V in zip(data.U_sets, data.V_sets):
        gU = {group.act(g, a) for a in U}
        for w in V & gU:
            out[w] += 1
    return out


def fiber_pair_weights(setting: Setting, gx: int, gy: int) -> Counter:
    """Multiset of weights of V_k cap x(U_k) cap y(U_k), summed over k."""
    group, data = setting.group, setting.data
    out = Counter()
    for U, V in zip(data.U_sets, data.V_sets):
        xU = {group.act(gx, a) for a in U}
        yU = {group.act(gy, a) for a in U}
        for w in V & xU & yU:
            out[w] += 1
    return out


def fiber_split_check(setting: Setting) -> list:
    """F_{x_i} minus F_{x_i, x_i s} is the multiset of x_i-translates of the
    q-support; with positive-system twisting data this is x_i(alpha_s)
    repeated h_i(s) times."""
    datum, _, table, data = setting
    group = setting.group
    results = []
    for i in table.indices:
        x = table.rep(i)
        for s in range(datum.rank):
            xs = group.mul(x, group.simple[s])
            lhs = fiber_weights(setting, x)
            rhs = fiber_pair_weights(setting, x, xs)
            expected = Counter()
            for U, V in zip(data.U_sets, data.V_sets):
                for a in U:
                    xa = group.act(x, a)
                    if group.act(group.simple[s], a) not in U and xa in V:
                        expected[xa] += 1
            ok = lhs - rhs == expected and rhs - lhs == Counter()
            if ok and data.borel_flag:
                h = h_count(setting, i, s)
                ok = expected == Counter(
                    {group.act(x, datum.simple_roots[s]): h} if h else {}
                )
            results.append(
                CheckResult(
                    f"fiber-split(i={i},s={s})",
                    ok,
                    "",
                    None if ok else {"lhs": sorted(lhs.items()), "rhs": sorted(rhs.items())},
                )
            )
    return results
