"""The twisted-operator algebra acting on a direct sum of polynomial rings.

A module element, a family of polynomials over the cosets, is a plain dict
{coset index: Poly} holding no zero value; `apply` and `module_act` return
the same shape.

An operator is a finite sum of terms (i, c, w): the term consumes the
component indexed by the coset i*w, substitutes the group element w into the
input polynomial, multiplies by the rational-function coefficient c and
deposits the result in component i.  Products follow the induced rule
(i, c, w) * (i*w, c', w') = (i, c*w(c'), w*w'); everything is exact.

Generators: unit projections, multiplication by coordinate variables, and
the crossing generators built from the q-polynomials (divided difference on
stabilized indices, twisted shift across walls).  The braid-defect
extraction runs descending-length elimination against the crossing-word
basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ExtractionStuck, NonIntegralResult
from .polyops import Poly, RatFun, add_term
from .repdata import Setting, h_count, q_poly
from .report import verdict
from .subgroup import CosetTable


def module_act(table: CosetTable, g: int, m: dict) -> dict:
    """Left group action on the module: component i lands in i*g^{-1}."""
    group = table.group
    ginv = group.inv(g)
    # i -> i*g^{-1} permutes the cosets, so no two components collide, and
    # g is a ring automorphism, so no nonzero component maps to zero
    return {table.act_elem(i, ginv): f.weyl_image(group, g) for i, f in m.items()}


class TwistedOperator:
    """Finite sum of twisted terms keyed by (component index, group element)."""

    __slots__ = ("table", "terms", "_sources")

    def __init__(self, table: CosetTable, terms=None):
        self.table = table
        t = {}
        if terms:
            for key, c in terms.items():
                if c:
                    t[key] = c
        self.terms = t
        self._sources = None

    def __add__(self, other):
        out = dict(self.terms)
        for key, c in other.terms.items():
            add_term(out, key, c)
        return TwistedOperator(self.table, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return TwistedOperator(self.table, {k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        if isinstance(scalar, (int, Fraction)):
            if not scalar:
                return TwistedOperator(self.table)
        return TwistedOperator(
            self.table, {k: c * scalar for k, c in self.terms.items()}
        )

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        table, group = self.table, self.table.group
        out = {}
        for (i, g1), c1 in self.terms.items():
            j = table.act_elem(i, g1)
            for (j2, g2), c2 in other.terms.items():
                if j2 != j:
                    continue
                add_term(out, (i, group.mul(g1, g2)), c1 * c2.weyl_image(group, g1))
        return TwistedOperator(table, out)

    __rmul__ = scale

    def __eq__(self, other):
        if not isinstance(other, TwistedOperator):
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[k] == other.terms[k] for k in self.terms)

    def is_zero(self):
        return not self.terms

    def _by_source(self):
        """The terms indexed by the component they read, built on first use
        (nothing changes `terms` after construction): component j ->
        [(slot, g, numerator)], where slot k stands for the k-th distinct
        (output component, denominator) pair `slots[k]` among the terms."""
        if self._sources is None:
            table = self.table
            sources, slots = {}, {}
            for (i, g), c in self.terms.items():
                k = slots.setdefault((i, c.den), len(slots))
                sources.setdefault(table.act_elem(i, g), []).append((k, g, c.num))
            self._sources = sources, list(slots)
        return self._sources

    def apply(self, m: dict) -> dict:
        """Evaluate on a module element; results must clear denominators.

        Per output component, the numerators over one denominator are summed
        as polynomials, the sums brought over one common denominator, and
        that is divided out once: a value is a polynomial exactly when its
        denominator divides its numerator, however it is written, and the
        quotient is then the same.  A component whose quotient is zero is
        left out."""
        group = self.table.group
        sources, slots = self._by_source()
        nums = {}
        for j, f in m.items():
            for k, g, num in sources.get(j, ()):
                add_term(nums, k, num * f.weyl_image(group, g))
        acc = {}  # output component -> (numerator, denominator)
        for k, num in nums.items():
            i, den = slots[k]
            if i in acc:
                num0, den0 = acc[i]
                acc[i] = (num0 * den + num * den0, den0 * den)
            else:
                acc[i] = (num, den)
        out = {}
        for i, (num, den) in acc.items():
            val = RatFun(num, den, reduce=False)
            q = val.polynomial()
            if q is None:
                raise NonIntegralResult(
                    f"component {i} evaluated to a non-polynomial: {val!r}"
                )
            if q:
                out[i] = q
        return out

    def graded_degree(self):
        """Common artifact degree of all terms, or None if inhomogeneous."""
        deg = None
        for c in self.terms.values():
            if not c.is_homogeneous():
                return None
            d = c.artifact_degree()
            if deg is None:
                deg = d
            elif deg != d:
                return None
        return 0 if deg is None else deg

    def __repr__(self):
        group = self.table.group
        parts = [
            f"({i}, {c!r}, {group.reduced_word(g)})"
            for (i, g), c in sorted(self.terms.items())
        ]
        return "TwistedOperator[" + ", ".join(parts) + "]"


def gen_unit(table: CosetTable, i: int) -> TwistedOperator:
    return left_mult(table, i, 1)


def gen_var(table: CosetTable, i: int, t: int) -> TwistedOperator:
    return left_mult(table, i, Poly.variable(table.sub.datum.ambient_rank, t))


def gen_sigma(setting: Setting, i: int, s: int) -> TwistedOperator:
    """Crossing generator at (i, s): q-twisted divided difference when the
    reflection stabilizes the coset, q-twisted shift across the wall."""
    table, group = setting.table, setting.group
    q = q_poly(setting, i, s)
    s_elem = group.simple[s]
    if table.stab(i, s):
        alpha = Poly.linear(setting.datum.simple_roots[s])
        c = RatFun(q, alpha)
        return TwistedOperator(table, {(i, s_elem): c, (i, group.identity): -c})
    return TwistedOperator(table, {(i, s_elem): RatFun(q)})


def left_mult(table: CosetTable, i: int, c) -> TwistedOperator:
    """Multiplication by a coefficient inside component i."""
    if isinstance(c, Poly):
        c = RatFun(c)
    elif isinstance(c, (int, Fraction)):
        c = RatFun.from_scalar(table.sub.datum.ambient_rank, c)
    return TwistedOperator(table, {(i, table.group.identity): c})


def diag_mult(table: CosetTable, m: dict) -> TwistedOperator:
    """Left multiplication by a module element, acting diagonally."""
    e = table.group.identity
    return TwistedOperator(table, {(i, e): RatFun(f) for i, f in m.items()})


def sigma_word(setting: Setting, i: int, word) -> TwistedOperator:
    """Left-to-right crossing product with index tracking along the word."""
    table = setting.table
    op = gen_unit(table, i)
    cur = i
    for k in word:
        op = op * gen_sigma(setting, cur, k)
        cur = table.act(cur, k)
    return op


def straightening_poly(setting: Setting, i: int, s: int, t: int) -> dict:
    """The polynomial correction in the variable-crossing commutation."""
    n = setting.datum.ambient_rank
    return gen_sigma(setting, i, s).apply({i: Poly.variable(n, t)})


@dataclass
class BraidDefect:
    """Extraction result: defect coefficients over the short-word basis."""

    i: int
    s: int
    t: int
    order: int
    coefficients: dict  # group element -> RatFun
    polynomial_flags: dict  # group element -> bool
    words: dict  # group element -> reduced word

    def all_zero(self) -> bool:
        return all(c.is_zero() for c in self.coefficients.values())

    def all_polynomial(self) -> bool:
        return all(self.polynomial_flags.values())


def _dihedral_elements(group, s: int, t: int, m: int):
    """Elements of <s,t> keyed by length; each short word is unique.  They
    make up the Bruhat interval below the longest element of <s,t>."""
    out = {0: [group.identity]}
    words = {group.identity: ()}
    for length in range(1, m + 1):
        elems = []
        for first in (s, t):
            word = tuple((first, (s + t) - first)[j % 2] for j in range(length))
            g = group.mul_word(word)
            if g not in words:
                words[g] = word
                elems.append(g)
        out[length] = elems
    return out, words


def braid_defect(setting: Setting, i: int, s: int, t: int) -> BraidDefect:
    """Difference of the two alternating crossing words, eliminated against
    the shorter crossing words by descending length."""
    table, group = setting.table, setting.group
    m = group.braid_order(s, t)
    if m not in (3, 4, 6):
        raise ValueError(f"braid extraction needs order 3, 4 or 6; got {m}")
    word_s = tuple((s, t)[j % 2] for j in range(m))
    word_t = tuple((t, s)[j % 2] for j in range(m))
    delta = sigma_word(setting, i, word_s) - sigma_word(setting, i, word_t)
    by_length, word_of = _dihedral_elements(group, s, t, m)
    x = group.mul_word(word_s)
    allowed = set(word_of) - {x}

    coefficients = {}
    guard = 0
    while delta.terms:
        guard += 1
        if guard > 8 * m:
            raise ExtractionStuck("descending elimination did not terminate")
        support = sorted(delta.terms)
        for (row, g) in support:
            if row != i:
                raise ExtractionStuck(f"stray row {row} in defect support")
            if g not in word_of:
                raise ExtractionStuck(
                    f"support element {group.reduced_word(g)} outside the interval"
                )
        v = max((g for (_, g) in support), key=lambda g: (group.length(g), g))
        if v not in allowed:
            raise ExtractionStuck(
                f"maximal support element {group.reduced_word(v)} not below the braid word"
            )
        basis = sigma_word(setting, i, word_of[v])
        lead = basis.terms[(i, v)]
        qv = delta.terms[(i, v)] / lead
        coefficients[v] = qv
        delta = delta - left_mult(table, i, qv) * basis

    for length in range(m):
        for g in by_length[length]:
            coefficients.setdefault(g, RatFun.from_scalar(setting.datum.ambient_rank, 0))
    flags = {g: c.polynomial() is not None for g, c in coefficients.items()}
    return BraidDefect(
        i, s, t, m, coefficients, flags, {g: word_of[g] for g in coefficients}
    )


def braid_assumptions_hold(setting: Setting, s: int, t: int) -> bool:
    """Exponent bounds under which defect coefficients are certified
    polynomial: order 4 needs h in {0,1,2} on doubly stabilized indices,
    order 6 needs h = 0 there."""
    if not setting.data.borel_flag:
        return False
    table = setting.table
    m = table.group.braid_order(s, t)
    if m in (2, 3):
        return True
    for i in table.indices:
        if table.stab(i, s) and table.stab(i, t):
            hs = h_count(setting, i, s)
            ht = h_count(setting, i, t)
            if m == 4 and not (hs in (0, 1, 2) and ht in (0, 1, 2)):
                return False
            if m == 6 and not (hs == 0 and ht == 0):
                return False
    return True


def check_relations(setting: Setting) -> list:
    """Exact verification of the defining relations on all generators."""
    datum, table, data, group = setting.datum, setting.table, setting.data, setting.group
    n = datum.ambient_rank

    def idempotents():
        for i in table.indices:
            for j in table.indices:
                prod = gen_unit(table, i) * gen_unit(table, j)
                want = gen_unit(table, i) if i == j else TwistedOperator(table)
                if prod != want:
                    yield {"i": i, "j": j}

    def sandwiches():
        for i in table.indices:
            for t in range(n):
                z = gen_var(table, i, t)
                if gen_unit(table, i) * z * gen_unit(table, i) != z:
                    yield {"i": i, "t": t}
            for s in range(datum.rank):
                sig = gen_sigma(setting, i, s)
                if gen_unit(table, i) * sig * gen_unit(table, table.act(i, s)) != sig:
                    yield {"i": i, "s": s}

    def commutations():
        for i in table.indices:
            for t1 in range(n):
                for t2 in range(t1 + 1, n):
                    a, b = gen_var(table, i, t1), gen_var(table, i, t2)
                    if a * b != b * a:
                        yield {"i": i, "t": (t1, t2)}

    def squares():
        for i in table.indices:
            for s in range(datum.rank):
                isx = table.act(i, s)
                lhs = gen_sigma(setting, i, s) * gen_sigma(setting, isx, s)
                alpha = Poly.linear(datum.simple_roots[s])
                h_i = h_count(setting, i, s)
                if isx == i:
                    if h_i % 2 == 0:
                        rhs = TwistedOperator(table)
                    else:
                        rhs = (
                            left_mult(table, i, alpha ** (h_i - 1))
                            * gen_sigma(setting, i, s)
                        ).scale(-2)
                else:
                    h_is = h_count(setting, isx, s)
                    value = alpha ** (h_i + h_is) * Fraction((-1) ** h_is)
                    rhs = left_mult(table, i, value)
                if lhs != rhs:
                    yield {"i": i, "s": s}

    def straightenings():
        for i in table.indices:
            for s in range(datum.rank):
                isx = table.act(i, s)
                sig = gen_sigma(setting, i, s)
                # s(x_t) from the reflection matrix, not the group's memo of
                # monomial images, which the operator products read
                reflection = datum.simple_reflection_matrix(s)
                for t in range(n):
                    lhs = sig * gen_var(table, isx, t) - left_mult(
                        table, i, Poly.variable(n, t).substitute_linear(reflection)
                    ) * sig
                    c = straightening_poly(setting, i, s, t)
                    rhs = diag_mult(table, c) if isx == i else TwistedOperator(table)
                    if lhs != rhs:
                        yield {"i": i, "s": s, "t": t}

    def commuting_braids():
        for s in range(datum.rank):
            for t in range(s + 1, datum.rank):
                if group.braid_order(s, t) != 2:
                    continue
                for i in table.indices:
                    lhs = gen_sigma(setting, i, s) * gen_sigma(setting, table.act(i, s), t)
                    rhs = gen_sigma(setting, i, t) * gen_sigma(setting, table.act(i, t), s)
                    if lhs != rhs:
                        yield {"i": i, "s": s, "t": t}

    def braid_defects(certified):
        for (s, t), cert in certified.items():
            for i in table.indices:
                try:
                    defect = braid_defect(setting, i, s, t)
                except ExtractionStuck as exc:
                    yield {"i": i, "s": s, "t": t, "error": str(exc)}
                    continue
                if cert and not defect.all_polynomial():
                    yield {"i": i, "s": s, "t": t, "nonpoly": True}

    results = [
        verdict("idempotents", idempotents(), f"#I={len(table.indices)}"),
        verdict("idempotent-sandwich", sandwiches()),
        verdict("polynomial-commutation", commutations()),
    ]
    if data.borel_flag:
        results.append(verdict("square-closed-form", squares()))
    results.append(verdict("straightening", straightenings()))
    results.append(verdict("commuting-braid", commuting_braids()))
    if data.borel_flag:
        # (s, t) -> whether the defects of order m(s, t) > 2 are certified
        certified = {
            (s, t): braid_assumptions_hold(setting, s, t)
            for s in range(datum.rank)
            for t in range(s + 1, datum.rank)
            if group.braid_order(s, t) != 2
        }
        details = "; ".join(
            f"m({s},{t})={group.braid_order(s, t)}{'' if cert else ' (uncertified)'}"
            for (s, t), cert in certified.items()
        )
        results.append(
            verdict("braid-defect-extraction", braid_defects(certified), details)
        )
    return results


def generator_grading_check(setting: Setting) -> list:
    """Degree bookkeeping: units 0, variables 2, crossings 2 deg q - 2 on
    stabilized indices and 2 deg q across walls."""
    datum, table = setting.datum, setting.table

    def failures():
        for i in table.indices:
            if gen_unit(table, i).graded_degree() != 0:
                yield {"i": i, "gen": "unit"}
            for t in range(datum.ambient_rank):
                if gen_var(table, i, t).graded_degree() != 2:
                    yield {"i": i, "gen": f"var{t}"}
            for s in range(datum.rank):
                sig = gen_sigma(setting, i, s)
                q = q_poly(setting, i, s)
                want = 2 * q.degree() - 2 if table.stab(i, s) else 2 * q.degree()
                if sig.graded_degree() != want:
                    yield {"i": i, "s": s, "want": want}

    return [verdict("generator-grading", failures())]
