"""Weight-level representation input: the twisting data and its fibers.

The input is r copies of a weight set U_k (the nilpotent directions) and r
copies of a weight set V_k (the target representation).  Everything the
algebra needs is derived here: the h-counts and q-polynomials twisting the
crossing generators, and the fibers F_w, F_{x,y} over fixed points, one set
of the weight table (`WeightTable`) per copy.  Zero weights of V are dropped
at ingestion; no derived quantity ever references them.

Suitability is checked conservatively at weight level (closure under adding
positive roots, and the same for U_k cap s(U_k)); a lenient mode downgrades
failures to warnings since the weight test is sufficient but not necessary.

A `Setting` bundles the twisting data with the coset table it is read
against, and owns what is derived from both: the weight table its Euler
classes are packed over, the Lambda table, the tangent and fiber sets of
every fixed point and the q-polynomial of every crossing.
"""

from __future__ import annotations

from functools import cached_property
from operator import and_

from .errors import InternalInvariantError, UnsuitableData
from .polyops import EulerClass, Poly, primitive_form
from .report import CheckResult, verdict
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
    table's root datum, read by its attributes.

    Functions that read the twisting data take the setting; functions that
    need only the cosets take the table, and only W the subsystem."""

    def __init__(self, table: CosetTable, U_sets=(), V_sets=()):
        self.datum = table.sub.datum
        self.sub = table.sub
        self.group = table.group
        self.table = table
        self.data = SpringerData(self.datum, U_sets, V_sets)
        self.tangents = {}  # element -> tangent set, filled by localize.tangent_n
        self.fibers = {}  # element -> fiber set per copy, filled by fiber_weights
        self.qpolys = {}  # (i, s) -> q-polynomial, filled by q_poly

    def __iter__(self):
        """(datum, sub, table, data).  The benchmark's
        `perfbench/worker.py::group_facts` is the only reader that unpacks
        a setting; code in `src` reads the attributes."""
        return iter((self.datum, self.sub, self.table, self.data))

    @cached_property
    def weights(self) -> "WeightTable":
        """The weight table of the Euler classes, built on first use."""
        return WeightTable(self.group, self.data.U_sets, self.data.V_sets)

    @cached_property
    def lambdas(self) -> tuple:
        """Lambda_w for every group element, computed on first use."""
        from . import localize

        return localize.lambda_table(self)


class WeightTable:
    """Every weight an Euler class of a setting can use, indexed once: the
    group's roots in its order, so g acts on them by `group.perms[g]`, then
    the W-orbits of the non-root U/V weights and their negatives.  Entry e
    is an integer scale times one of the sorted primitive `forms`.

    A set of entries is an int with entry e at bit `shift[e]`.  The entries
    of one form share its field of `width` bits, one layer of fields each, so
    the packed counts of an Euler class (one field per form) are a sum of
    sets with its layers folded onto the first.  A class sums one tangent and
    r fiber sets, at most (r + 1) * layers per field; the width leaves room
    for products of 16 such classes below each field's top (guard) bit.
    `copies` holds, per copy k, U_k as entries and V_k as a set.

    The table also expands Euler classes: `product` keeps the product of
    forms of each count vector it is asked for, so classes that differ only
    in their scalar share one expansion, for as long as the table lives.
    """

    def __init__(self, group, U_sets=(), V_sets=()):
        self.group, self.n = group, group.datum.ambient_rank
        entries, index = list(group.roots), dict(group.root_index)
        for w in sorted(set().union(*U_sets, *V_sets)):
            if any(w) and w not in index:
                pair = (w, tuple(-x for x in w))
                for v in sorted({group.act(g, u) for g in range(len(group)) for u in pair}):
                    index[v] = len(entries)
                    entries.append(v)
        self.entries, self.index = tuple(entries), index
        split = [primitive_form(w) for w in entries]
        self.forms = tuple(sorted({f for _, f in split}))
        nforms = len(self.forms)
        field_of = {f: j for j, f in enumerate(self.forms)}
        layers = [0] * nforms
        slots = []
        for _, f in split:
            slots.append(layers[field_of[f]] * nforms + field_of[f])
            layers[field_of[f]] += 1
        self.width = width = (16 * (len(U_sets) + 1) * max(layers)).bit_length() + 1
        self.shift = tuple(width * slot for slot in slots)
        self.bit = tuple(1 << k for k in self.shift)
        self.neg = tuple(self.bit[index[tuple(-x for x in w)]] for w in entries)
        self.field = (1 << width) - 1
        self.guard = sum(1 << (width * j + width - 1) for j in range(nforms))
        self._low = (1 << (width * nforms)) - 1
        self._folds = tuple(width * nforms * k for k in range(1, max(layers)))
        scales = {}
        for b, (c, _) in zip(self.bit, split):
            scales[c] = scales.get(c, 0) | b
        scales.pop(1, None)
        self.scales = tuple(scales.items())
        self.copies = tuple(
            (tuple(index[u] for u in U if any(u)), sum(self.bit[index[v]] for v in V))
            for U, V in zip(U_sets, V_sets)
        )
        self._products = {}  # packed counts -> Poly, filled by product

    def perm(self, g: int):
        """Entry e goes to entry perm(g)[e] under the element g; the
        non-root entries by `group.act`, so read it once per element."""
        p = self.group.perms[g]
        extra = self.entries[len(p):]
        return tuple(p) + tuple(self.index[self.group.act(g, w)] for w in extra) if extra else p

    def euler(self, sets) -> EulerClass:
        """Euler class of the multiset sum of `sets`.  Each part must be a set
        (every entry at most once): the scale of a part is read off its
        entries' bits, not their counts."""
        scalar = 1
        total = 0
        for part in sets:
            total += part
            for c, mask in self.scales:
                k = (part & mask).bit_count()
                if k:
                    scalar *= c**k
        low = self._low
        counts = total & low
        for k in self._folds:
            counts += (total >> k) & low
        return EulerClass(self, scalar, counts)

    def unpack(self, counts: int) -> list:
        """The fields of a packed count vector, in form order."""
        width, field = self.width, self.field
        return [(counts >> (width * j)) & field for j in range(len(self.forms))]

    def pack(self, fields) -> int:
        """The packed count vector of these fields, in form order."""
        width = self.width
        return sum(m << (width * j) for j, m in enumerate(fields))

    @cached_property
    def linear(self) -> tuple:
        """The linear polynomial of each form, in form order."""
        return tuple(Poly.linear(f) for f in self.forms)

    def product(self, counts: int) -> Poly:
        """prod(form ** mult) over the fields of a packed count vector,
        expanded on first use and kept.  The Poly is shared: callers read it
        and never mutate it (`EulerClass.expand` copies it)."""
        p = self._products.get(counts)
        if p is None:
            p = Poly.const(self.n, 1)
            for lin, mult in zip(self.linear, self.unpack(counts)):
                if mult:
                    p = p * (lin if mult == 1 else lin**mult)
            self._products[counts] = p
        return p

    def multiset(self, total: int) -> dict:
        """{weight: multiplicity} of a sum of sets."""
        field = self.field
        return {w: m for w, k in zip(self.entries, self.shift) if (m := (total >> k) & field)}

    def negate(self, part: int) -> int:
        """The set holding the negative of each weight of the set `part`."""
        return sum(neg for b, neg in zip(self.bit, self.neg) if part & b)


def validate(setting: Setting, strict: bool = False) -> list:
    """All weight-level invariants; raises UnsuitableData in strict mode."""
    datum, sub, data = setting.datum, setting.sub, setting.data
    root_set = set(datum.roots)
    pos = datum._positive_set
    group = setting.group
    results = []

    def closed_under(name, add_set, weights) -> CheckResult:
        """Fails at the first a + b that is a root outside `weights`."""
        outside = root_set - weights
        failures = (
            {"weight": a, "added": b}
            for a in weights
            for b in add_set
            if tuple(x + y for x, y in zip(a, b)) in outside
        )
        return verdict(name, failures)

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
    alpha in U_k with s(alpha) outside U_k and x_i(alpha) in V_k.
    Computed, and with positive-system data checked against alpha_s^h,
    once per (i, s)."""
    q = setting.qpolys.get((i, s))
    if q is not None:
        return q
    datum, table, data, group = setting.datum, setting.table, setting.data, setting.group
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
    setting.qpolys[i, s] = out
    return out


def fiber_weights(setting: Setting, g: int) -> tuple:
    """The fiber over the fixed point of g, per copy k: V_k cap g(U_k) as a
    set of the weight table.  Computed once per element."""
    fibers = setting.fibers.get(g)
    if fibers is None:
        table = setting.weights
        p, bit = table.perm(g), table.bit
        fibers = tuple(sum(bit[p[u]] for u in U) & V for U, V in table.copies)
        setting.fibers[g] = fibers
    return fibers


def fiber_split_check(setting: Setting) -> list:
    """F_{x_i} minus F_{x_i, x_i s} is the multiset of x_i-translates of the
    q-support; with positive-system twisting data this is x_i(alpha_s)
    repeated h_i(s) times.  Multisets are sums of the per-copy sets; the
    pair fiber F_{x,y} is V_k cap x(U_k) cap y(U_k) per copy, so it lies in
    the fiber copy by copy and their difference is the integer one."""
    datum, table, data, group = setting.datum, setting.table, setting.data, setting.group
    weights = setting.weights
    bit, index = weights.bit, weights.index
    results = []
    for i in table.indices:
        x = table.rep(i)
        for s in range(datum.rank):
            xs = group.mul(x, group.simple[s])
            lhs = sum(fiber_weights(setting, x))
            rhs = sum(map(and_, fiber_weights(setting, x), fiber_weights(setting, xs)))
            expected = 0
            for U, V in zip(data.U_sets, data.V_sets):
                for a in U:
                    xa = group.act(x, a)
                    if group.act(group.simple[s], a) not in U and xa in V:
                        expected += bit[index[xa]]
            ok = lhs - rhs == expected
            if ok and data.borel_flag:
                h = h_count(setting, i, s)
                ok = expected == h * bit[index[group.act(x, datum.simple_roots[s])]]
            results.append(
                CheckResult(
                    f"fiber-split(i={i},s={s})",
                    ok,
                    "",
                    None if ok else {
                        "lhs": sorted(weights.multiset(lhs).items()),
                        "rhs": sorted(weights.multiset(rhs).items()),
                    },
                )
            )
    return results
