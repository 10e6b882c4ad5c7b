"""Reference implementations that only the tests call.

- Divided differences (Demazure operators), the independent side of the
  nil Hecke relation tests.
- The reflection matrix of any root, against which the group's conjugated
  reflections are checked.
- Normal forms over the crossing-word basis sigma(w): descending-length
  elimination and reassembly, which round-trip the generators and their
  products.
- Cut additivity of weight sets as `Counter`s of root tuples, translated
  root by root through `group.act`; the program compares the same sides as
  sorted lists of root indices (`localize.additivity_sides`).
- The weight-multiset assembly of Euler classes: tangent and fiber weights
  as `Counter`s of weight tuples and a class as (scalar, Counter of
  primitive forms).  The program packs the same classes over its weight
  table (`repdata.WeightTable`); `tests/test_euler_index.py` compares the
  two exhaustively.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import sympy

from qhecke.algebra import ModuleElement, TwistedOperator, diag_mult, left_mult, sigma_word
from qhecke.errors import InternalDivisibilityFailure, QheckeError
from qhecke.polyops import Poly, primitive_form
from qhecke.repdata import Setting
from qhecke.rootcore import _reflection_matrix


def demazure(datum, k: int, f: Poly) -> Poly:
    """Divided-difference operator of the k-th simple reflection.

    delta_k(f) = (s_k(f) - f) / alpha_k; the numerator vanishes on the
    reflection hyperplane so the division is always exact.
    """
    s = datum.simple_reflection_matrix(k)
    alpha = Poly.linear(datum.simple_roots[k])
    g = f.substitute_linear(s) - f
    q = g.divexact(alpha)
    if q is None:
        raise InternalDivisibilityFailure("divided difference did not divide")
    return q


def demazure_word(datum, word, f: Poly) -> Poly:
    for k in reversed(tuple(word)):
        f = demazure(datum, k, f)
    return f


def demazure_product_rule_check(datum, k: int, x: Poly, f: Poly) -> bool:
    """delta_k(x*f) == delta_k(x)*f + s_k(x)*delta_k(f), exactly."""
    s = datum.simple_reflection_matrix(k)
    lhs = demazure(datum, k, x * f)
    rhs = demazure(datum, k, x) * f + x.substitute_linear(s) * demazure(datum, k, f)
    return lhs == rhs


def reflection_matrix(datum, root):
    """Integer matrix of the reflection in `root`."""
    return _reflection_matrix(datum.ambient_rank, tuple(root), datum.coroot(root))


# -- the crossing-word basis -------------------------------------------------


class NotInSpan(QheckeError):
    pass


class NonPolynomialCoefficient(QheckeError):
    pass


def sigma_basis_element(setting: Setting, g: int) -> TwistedOperator:
    """sigma(w) summed over all components, for the fixed reduced word of w."""
    table = setting.table
    word = table.group.reduced_word(g)
    op = TwistedOperator(table)
    for i in table.indices:
        op = op + sigma_word(setting, i, word)
    return op


@dataclass
class NormalForm:
    """Coefficients of an operator over the crossing-word basis sigma(w)."""

    coefficients: dict  # group element -> ModuleElement

    def support(self):
        return sorted(self.coefficients)


def normal_form(setting: Setting, op: TwistedOperator) -> NormalForm:
    """Descending-length elimination against sigma(w) for the fixed reduced
    words; coefficients must come out polynomial and the remainder zero."""
    table, group = setting.table, setting.group
    n = setting.datum.ambient_rank
    basis_cache: dict[int, TwistedOperator] = {}
    coeffs: dict[int, dict[int, Poly]] = {}
    remaining = TwistedOperator(table, dict(op.terms))
    guard = 0
    while remaining.terms:
        guard += 1
        if guard > len(group) * (1 + len(table.indices)):
            raise NotInSpan("elimination did not terminate")
        v = max(
            (g for (_, g) in remaining.terms),
            key=lambda g: (group.length(g), g),
        )
        basis = basis_cache.get(v)
        if basis is None:
            basis = sigma_basis_element(setting, v)
            basis_cache[v] = basis
        row_coeffs = {}
        for i in table.indices:
            c = remaining.terms.get((i, v))
            if c is None:
                continue
            lead = basis.terms[(i, v)]
            q = (c / lead).polynomial()
            if q is None:
                raise NonPolynomialCoefficient(
                    f"coefficient of sigma({group.reduced_word(v)}) at row {i}"
                )
            row_coeffs[i] = q
        if not row_coeffs:
            raise NotInSpan(
                f"no eliminable row at {group.reduced_word(v)}"
            )
        coeffs[v] = row_coeffs
        correction = TwistedOperator(table)
        for i, q in row_coeffs.items():
            correction = correction + left_mult(table, i, q) * basis
        remaining = remaining - correction
        for i in table.indices:
            if (i, v) in remaining.terms:
                raise NotInSpan("leading coefficient failed to cancel")
    return NormalForm({g: ModuleElement(n, cs) for g, cs in coeffs.items()})


def reassemble(setting: Setting, nf: NormalForm) -> TwistedOperator:
    table = setting.table
    out = TwistedOperator(table)
    for g, me in nf.coefficients.items():
        out = out + diag_mult(table, me) * sigma_basis_element(setting, g)
    return out


# -- cut additivity from root multisets --------------------------------------


def additivity_sides(group, F, w: int, s: int) -> tuple:
    """s(cut(w)) + cut(s) and cut(sw) as Counters of root tuples, where
    cut(y) = F minus y(F); needs l(sw) = l(w) + 1."""
    s_elem = group.simple[s]
    sw = group.mul(s_elem, w)
    if group.length(sw) != group.length(w) + 1:
        raise ValueError("length must be additive")
    F = frozenset(map(tuple, F))

    def cut(y: int) -> Counter:
        yF = {group.act(y, f) for f in F}
        return Counter(f for f in F if f not in yF)

    lhs = Counter()
    for f, mult in cut(w).items():
        lhs[group.act(s_elem, f)] += mult
    lhs.update(cut(s_elem))
    return lhs, cut(sw)


def inversion_additivity_check(group, x: int, sides) -> bool:
    """The two `additivity_sides`, translated by x root by root, agree."""
    lhs, rhs = sides
    lhs_x = Counter()
    for f, mult in lhs.items():
        lhs_x[group.act(x, f)] += mult
    rhs_x = Counter()
    for f, mult in rhs.items():
        rhs_x[group.act(x, f)] += mult
    return lhs_x == rhs_x


# -- Euler classes from weight multisets ------------------------------------


def euler_of(weights: Counter) -> tuple:
    """(scalar, Counter of primitive forms) of the product of a weight
    multiset; entries of multiplicity <= 0 are skipped."""
    scalar = 1
    forms = Counter()
    for w, mult in weights.items():
        if mult > 0:
            c, form = primitive_form(w)
            forms[form] += mult
            scalar *= c**mult
    return scalar, forms


def matches(e, cls: tuple) -> bool:
    """The packed class `e` has the oracle's scalar and form multiset."""
    return e.scalar == cls[0] and Counter(e.forms) == cls[1]


def table_class(table, weights):
    """The program's class of a list of weights of `table`, repeats allowed."""
    return table.euler([table.bit[table.index[tuple(w)]] for w in weights])


def as_counter(table, total: int) -> Counter:
    """A sum of weight-table sets as a Counter of weight tuples."""
    return Counter(table.multiset(total))


def tangent_n(setting, g: int) -> Counter:
    """Subsystem roots landing in g(negatives)."""
    group = setting.group
    return Counter(
        r for r in setting.sub.roots if group.act(group.inv(g), r) in setting.datum._negative_set
    )


def tangent_m(setting, gx: int, gy: int) -> Counter:
    nx, ny = tangent_n(setting, gx), tangent_n(setting, gy)
    return nx - (nx & ny)


def fiber_weights(setting, g: int) -> Counter:
    """One copy of V_k cap g(U_k) per k."""
    group, data = setting.group, setting.data
    out = Counter()
    for U, V in zip(data.U_sets, data.V_sets):
        out.update(V & {group.act(g, a) for a in U})
    return out


def fiber_pair_weights(setting, gx: int, gy: int) -> Counter:
    group, data = setting.group, setting.data
    out = Counter()
    for U, V in zip(data.U_sets, data.V_sets):
        out.update(V & {group.act(gx, a) for a in U} & {group.act(gy, a) for a in U})
    return out


def lambda_weights(setting, g: int) -> Counter:
    return fiber_weights(setting, g) + tangent_n(setting, g)


def eu_zbar_weights(setting, gx: int, w: int) -> Counter:
    gxw = setting.group.mul(gx, w)
    return fiber_pair_weights(setting, gx, gxw) + tangent_n(setting, gx) + tangent_m(setting, gxw, gx)


def q_weights(setting, gx: int, s: int) -> Counter:
    group = setting.group
    xs = group.mul(gx, group.simple[s])
    return fiber_weights(setting, gx) - fiber_pair_weights(setting, gx, xs)


def to_sympy(poly: Poly, xs):
    """A Poly as a sympy expression in the symbols xs."""
    out = sympy.Integer(0)
    for e, c in poly.d.items():
        term = sympy.Rational(c.numerator, c.denominator) if isinstance(c, Fraction) else sympy.Integer(c)
        for x, k in zip(xs, e):
            term *= x**k
        out += term
    return out


def sympy_product(ws, xs):
    """The product of the weights' linear forms, in sympy."""
    out = sympy.Integer(1)
    for w in ws:
        out *= sum(c * x for c, x in zip(w, xs))
    return out
