"""Reference implementations that only the tests call.

- Divided differences (Demazure operators), the independent side of the
  nil Hecke relation tests.
- The reflection matrix of any root, against which the group's conjugated
  reflections are checked.
- Every reduced word of an element, and Bruhat order by the subword
  property.  The program reads one reduced word per element: braid moves
  join any two reduced words and keep the set of letters, and braid
  extraction stays inside a dihedral subgroup, which is a Bruhat interval.
- Injectivity of the localization map on monomials of bounded degree.
- The intertwining and equivariance checks as they compared whole
  localized vectors, dicts {fixed point: Poly} built by `theta` and
  `fp_apply` (`intertwining_check`, `theta_equivariance_check`); the
  program compares each fixed-point row on kernel dicts, and
  `tests/test_localize.py` checks that both give the same results.
- Root data generated by the integer reflection matrices (coroots by their
  transposes), with each root's sign from a Fraction elimination against
  the simple roots.  The program carries integer simple-root coordinates
  through its generation instead; `tests/test_rootcore.py` compares the
  two on every accepted label.
- An operator applied to a module element one term at a time, each term a
  reduced `RatFun` (`apply_per_term`), against which `TwistedOperator.apply`
  and its one division per component are checked.
- The integrality suite as it swept every generator on every monomial up
  to the degree bound (`integrality_sweep_all`).  The program settles a
  generator whose denominators are all constant without applying it;
  `tests/test_cli.py` checks that both give the same result.
- The factorization suite as it ran all three checks on every pair (J, K)
  of S-adapted subsets, so that the two checks of J alone recur once per K
  (`factorization_all_pairs`); `tests/test_subgroup.py` checks that the
  program's suite is that list with its later repeats removed.
- The coset table as it canonicalized every element of W_big on its own
  (`coset_table_per_element`); the program canonicalizes one element per
  coset and fills the rest as its W-orbit, and `tests/test_subgroup.py`
  checks that both give the same table.
- Normal forms over the crossing-word basis sigma(w): descending-length
  elimination and reassembly, which round-trip the generators and their
  products.
- Cut additivity of weight sets as `Counter`s of root tuples, translated
  root by root through `group.act`, and as sorted lists of root indices,
  each side sorted again after x (`sorted_additivity_sides`,
  `sorted_inversion_check`); the program holds the sides as bytes and
  moves them by x's byte table (`localize.additivity_sides`).
- The leading-term check of one (s, w) at every element u, three
  `eu_zbar_w` calls per u (`leading_term_check`); where every V_k is
  W-stable the program's suite checks the same products at the coset
  representatives only, resting on its `weight-equivariance` lemma, and
  `tests/test_euler_index.py` checks that both give the same results.
- The W-minimal coset representatives with each right descent measured by
  two Phi-inversion counts (`w_minimal_reps_by_length`); the program reads
  a descent off the sign of one root, and `tests/test_subgroup.py` checks
  that both give the same sets.
- The weight-multiset assembly of Euler classes: tangent and fiber weights
  as `Counter`s of weight tuples and a class as (scalar, Counter of
  primitive forms).  The program packs the same classes over its weight
  table (`repdata.WeightTable`); `tests/test_euler_index.py` compares the
  two exhaustively.
- The expansion of a class as its forms multiplied out one call at a time
  (`form_product`, and `euler_quotient` for a quotient of two classes),
  against which the table's per-count-vector products are checked.
- The polynomial kernel on exponent-tuple keys, the layout the program
  kept before it packed each monomial into one int (`qhecke._kernel_py`);
  `tests/test_polyops.py` checks the packed kernel's products, powers,
  substitutions and divisions against it.
"""

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import sympy

from qhecke import _kernel_py as _k
from qhecke import localize
from qhecke.algebra import (
    TwistedOperator,
    diag_mult,
    gen_sigma,
    left_mult,
    module_act,
    sigma_word,
)
from qhecke.cli import _all_generators
from qhecke.errors import InternalInvariantError, NonIntegralResult, QheckeError
from qhecke.localize import eu_zbar_w, theta
from qhecke.polyops import Poly, RatFun, add_term, monomials_up_to, primitive_form
from qhecke.repdata import Setting
from qhecke.report import CheckResult, verdict
from qhecke.rootcore import _reflection_matrix, _vec
from qhecke.subgroup import CosetTable, factorization_check, parabolic_checks, s_adapted


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
        raise InternalInvariantError("divided difference did not divide")
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


# -- reduced words and Bruhat order --------------------------------------------


def all_reduced_words(group, g: int) -> list:
    """Every reduced word of g, by peeling off each right descent."""
    if group.length(g) == 0:
        return [()]
    return [
        w + (k,)
        for k in range(group.datum.rank)
        if group.descends_right(g, k)
        for w in all_reduced_words(group, group.mul(g, group.simple[k]))
    ]


def downset(group, g: int) -> frozenset:
    """All elements below g in Bruhat order: the products of the subwords
    of one reduced word of g."""
    cur = {group.identity}
    for k in group.reduced_word(g):
        cur |= {group.mul(u, group.simple[k]) for u in cur}
    return frozenset(cur)


def bruhat_leq(group, u: int, g: int) -> bool:
    return u in downset(group, g)


# -- root data by matrices and elimination ------------------------------------


def _mat_vec(m, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def simple_combination(datum, root):
    """Solve root = sum c_k alpha_k over Q, or None if outside the span."""
    n, m = datum.ambient_rank, datum.rank
    rows = [
        [Fraction(datum.simple_roots[k][i]) for k in range(m)] + [Fraction(root[i])]
        for i in range(n)
    ]
    piv_cols, piv_rows = [], []
    r = 0
    for c in range(m):
        pivot = next((i for i in range(r, n) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pr = rows[r]
        inv = Fraction(1) / pr[c]
        rows[r] = pr = [x * inv for x in pr]
        for i in range(n):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], pr)]
        piv_cols.append(c)
        piv_rows.append(r)
        r += 1
    for i in range(r, n):
        if rows[i][m] != 0:
            return None
    coeffs = [Fraction(0)] * m
    for c, i in zip(piv_cols, piv_rows):
        coeffs[c] = rows[i][m]
    return coeffs


def matrix_root_system(datum):
    """(roots, coroot of each root, positive roots, each simple reflection's
    permutation of the root indices) of the datum's simple roots and
    coroots, by the integer reflection matrices and one elimination per
    root.  Raises AssertionError on a root of mixed sign."""
    mats = [datum.simple_reflection_matrix(k) for k in range(datum.rank)]
    coroot_of = dict(zip(datum.simple_roots, datum.simple_coroots))
    frontier = list(datum.simple_roots)
    while frontier:
        new = []
        for r in frontier:
            for m in mats:
                img = _mat_vec(m, r)
                if img not in coroot_of:
                    coroot_of[img] = _vec(_mat_vec(tuple(zip(*m)), coroot_of[r]))
                    new.append(img)
        frontier = new
    roots = tuple(sorted(coroot_of))
    index = {r: i for i, r in enumerate(roots)}
    perms = tuple(tuple(index[_mat_vec(m, r)] for r in roots) for m in mats)
    positive = []
    for r in roots:
        coeffs = simple_combination(datum, r)
        assert coeffs is not None, r
        assert all(c >= 0 for c in coeffs) or all(c <= 0 for c in coeffs), r
        if all(c >= 0 for c in coeffs):
            positive.append(r)
    return roots, coroot_of, tuple(positive), perms


# -- the crossing-word basis -------------------------------------------------


class NotInSpan(QheckeError):
    pass


class NonPolynomialCoefficient(QheckeError):
    pass


def apply_per_term(op: TwistedOperator, m: dict) -> dict:
    """op applied to m one term at a time: each term's value is a reduced
    `RatFun`, the values are summed per component with `RatFun` addition,
    and each sum is divided out.  The program instead sums the numerators
    over each denominator and divides once per component."""
    table, group = op.table, op.table.group
    acc = {}
    for (i, g), c in op.terms.items():
        f = m.get(table.act_elem(i, g))
        if f is None:
            continue
        add_term(acc, i, c * RatFun(f.weyl_image(group, g)))
    out = {}
    for i, val in acc.items():
        q = val.polynomial()
        if q is None:
            raise NonIntegralResult(f"component {i} evaluated to a non-polynomial: {val!r}")
        out[i] = q
    return out


def integrality_sweep_all(setting: Setting, degree_bound: int) -> list:
    """Generators stay polynomial on every monomial up to the degree bound.

    This is the documented property test, not a proof: exact divisibility is
    certified on the monomial family only.  A generator is applied only on
    the cosets its terms read; it sends every other component to zero.
    """
    table = setting.table
    n = setting.datum.ambient_rank
    monos = monomials_up_to(n, degree_bound)

    def failures():
        for name, gen in _all_generators(setting):
            sources = {table.act_elem(i, g) for (i, g) in gen.terms}
            for i in table.indices:
                if i not in sources:
                    continue
                for e in monos:
                    m = {i: Poly.monomial(n, e)}
                    try:
                        gen.apply(m)
                    except NonIntegralResult:
                        yield {"generator": name, "component": i, "monomial": e}

    return [verdict("generators-integral", failures(), f"degree bound {degree_bound}")]


def factorization_all_pairs(sub) -> list:
    """`adapted-subsets`, then for every pair (J, K) of S-adapted subsets the
    two checks of J alone and the two-sided check of (J, K)."""
    from itertools import combinations

    rank = sub.datum.rank
    adapted = [
        J
        for size in range(rank + 1)
        for J in combinations(range(rank), size)
        if s_adapted(sub, J)
    ]
    results = [
        CheckResult(
            "adapted-subsets",
            bool(adapted),
            f"{len(adapted)} adapted subsets incl. empty and full",
        )
    ]
    for J in adapted:
        for K in adapted:
            results += parabolic_checks(sub, J) + factorization_check(sub, J, K)
    return results


def coset_table_per_element(sub) -> CosetTable:
    """The coset table as it was built by canonicalizing every element of
    W_big on its own, |W_big| calls of `_canonicalize`; the program
    canonicalizes one element per coset and fills the coset as the W-orbit
    of its representative."""
    table = CosetTable.__new__(CosetTable)
    table.sub = sub
    table.group = sub.group
    group = table.group
    canon = [table._canonicalize(g) for g in range(len(group))]
    reps = sorted(set(canon), key=lambda g: (group.length(g), group.reduced_word(g)))
    table.reps = tuple(reps)
    rep_index = {g: i for i, g in enumerate(reps)}
    table.coset_of = tuple(rep_index[c] for c in canon)
    table.indices = tuple(range(len(reps)))
    rank = sub.datum.rank
    table.action = tuple(
        tuple(table.coset_of[group.mul(x, group.simple[k])] for k in range(rank))
        for x in reps
    )
    table.stab_flags = tuple(
        tuple(table.action[i][k] == i for k in range(rank))
        for i in range(len(reps))
    )
    fixed = [[] for _ in reps]
    for g, i in enumerate(table.coset_of):
        fixed[i].append(g)
    table._fixed = tuple(map(tuple, fixed))
    return table


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

    coefficients: dict  # group element -> {component: Poly}

    def support(self):
        return sorted(self.coefficients)


def normal_form(setting: Setting, op: TwistedOperator) -> NormalForm:
    """Descending-length elimination against sigma(w) for the fixed reduced
    words; coefficients must come out polynomial and the remainder zero."""
    table, group = setting.table, setting.group
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
    return NormalForm(coeffs)


def reassemble(setting: Setting, nf: NormalForm) -> TwistedOperator:
    table = setting.table
    out = TwistedOperator(table)
    for g, me in nf.coefficients.items():
        out = out + diag_mult(table, me) * sigma_basis_element(setting, g)
    return out


# -- localization ----------------------------------------------------------


def theta_injectivity_check(setting: Setting, degree: int = 3) -> list:
    """Distinct monomials of bounded degree have distinct localizations."""
    n = setting.datum.ambient_rank
    monomials = monomials_up_to(n, degree)
    images = []
    for i in setting.table.indices:
        for e in monomials:
            images.append(((i, e), theta(setting, {i: Poly.monomial(n, e)})))
    failures = (
        {"first": images[a][0], "second": images[b][0]}
        for a in range(len(images))
        for b in range(a + 1, len(images))
        if images[a][1] == images[b][1]
    )
    return [verdict("localization-injective", failures, f"{len(images)} monomials")]



def intertwining_check(setting: Setting, degree: int = 3) -> list:
    """The localization map intertwines crossing generators with their
    fixed-point matrices on all monomials up to the given degree.  Every
    entry of row x of `localize_sigma` lies over the one denominator D_x,
    which depends only on the Euler classes' counts (Lambda_x / E at
    (x, xs) and Lambda_x / (-E) at (x, x)); row x of both sides is
    multiplied by it once per generator, so each monomial costs polynomial
    arithmetic only.  `localize_sigma`, `theta` and `fp_apply` are read
    from the module, so a patch of `localize` reaches them."""
    datum, table = setting.datum, setting.table
    monomials = monomials_up_to(datum.ambient_rank, degree)
    return [
        verdict(f"intertwine(i={i},s={s})", _intertwining_failures(setting, i, s, monomials))
        for i in table.indices
        for s in range(datum.rank)
    ]


def _intertwining_failures(setting: Setting, i: int, s: int, monomials):
    """The monomials, in order, on which sigma(i, s) and its fixed-point
    matrix disagree."""
    n = setting.datum.ambient_rank
    factor, mat = {}, {}
    for (x, y), a in localize.localize_sigma(setting, i, s).items():
        if factor.setdefault(x, a.den) != a.den:
            raise InternalInvariantError(f"row {x} of sigma({i},{s}) has two denominators")
        mat[(x, y)] = a.num
    sig = gen_sigma(setting, i, s)
    src = setting.table.act(i, s)
    for e in monomials:
        f = {src: Poly.monomial(n, e)}
        lhs = localize.fp_apply(mat, localize.theta(setting, f))
        rhs = {x: factor[x] * v for x, v in localize.theta(setting, sig.apply(f)).items()}
        if lhs != rhs:
            yield {"i": i, "s": s, "monomial": e}


def theta_equivariance_check(setting: Setting, degree: int = 3) -> list:
    """Group-equivariance of localization: the entry of w(c) at x equals
    that of c at xw."""
    datum, table, group = setting.datum, setting.table, setting.group
    n = datum.ambient_rank
    monomials = monomials_up_to(n, degree)
    theta = localize.theta

    def failures(k):
        w = group.simple[k]
        for i in table.indices:
            for e in monomials:
                c = {i: Poly.monomial(n, e)}
                lhs = theta(setting, module_act(table, w, c))
                rhs = {group.mul(x, group.inv(w)): v for x, v in theta(setting, c).items()}
                if lhs != rhs:
                    yield {"i": i, "monomial": e, "simple": k}

    return [verdict(f"equivariance(s={k})", failures(k)) for k in range(datum.rank)]


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


def sorted_additivity_sides(group, F: frozenset, w: int, s: int) -> tuple:
    """The two multisets compared by the cut additivity of (w, s), before
    translation by x, as sorted lists of root indices: s(cut(w)) + cut(s)
    and cut(sw), where cut(y) = F minus y(F) for a set F of root indices.
    Needs l(sw) = l(w) + 1."""
    s_elem = group.simple[s]
    sw = group.mul(s_elem, w)
    if group.length(sw) != group.length(w) + 1:
        raise ValueError("length must be additive")

    def cut(y: int) -> frozenset:
        p = group.perms[y]
        return F.difference(p[i] for i in F)

    ps = group.perms[s_elem]
    return sorted([ps[i] for i in cut(w)] + [*cut(s_elem)]), sorted(cut(sw))


def sorted_inversion_check(group, x: int, sides) -> bool:
    """The two `sorted_additivity_sides`, moved by x's root permutation,
    agree when sorted again."""
    lhs, rhs = sides
    p = group.perms[x]
    return sorted(p[i] for i in lhs) == sorted(p[i] for i in rhs)


# -- W-minimal representatives by length ---------------------------------------


def w_minimal_reps_by_length(sub, L_refl) -> frozenset:
    """Elements of W with no right descent along the reflections in L_refl,
    descents measured by Phi-inversion count."""
    group = sub.group
    return frozenset(
        g
        for g in sub.members
        if all(sub.length_in(group.mul(g, t)) > sub.length_in(g) for t in L_refl)
    )


# -- leading terms on Euler class products ------------------------------------


def leading_term_check(setting: Setting, s: int, w: int) -> CheckResult:
    """Composition of crossing-cell classes matches the longer cell at all
    leading pairs (u, u*sw); needs l(sw) = l(w) + 1."""
    group, lambdas = setting.group, setting.lambdas
    s_elem = group.simple[s]
    sw = group.mul(s_elem, w)
    if group.length(sw) != group.length(w) + 1:
        raise ValueError("length must be additive")

    def failures():
        for u in range(len(group)):
            us = group.mul(u, s_elem)
            # 1/E(u,s) * 1/E(us,w) * Lambda_us == 1/E(u,sw), denominators cleared
            lhs = eu_zbar_w(setting, u, sw) * lambdas[us]
            rhs = eu_zbar_w(setting, u, s_elem) * eu_zbar_w(setting, us, w)
            if lhs != rhs:
                yield {"u": group.reduced_word(u)}

    return verdict(f"leading-term(s={s},w={group.reduced_word(w)})", failures())


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


def form_product(n: int, scalar, forms) -> dict:
    """Kernel dict of scalar * prod(form ** mult) over a {form: mult} map."""
    d = {0: scalar}
    for form in sorted(forms):
        lin = Poly.linear(form).d
        mult = forms[form]
        d = _k.kmul(d, lin if mult == 1 else _k.kpow(lin, mult))
    return d


def euler_quotient(a, b) -> RatFun:
    """a / b for two Euler classes over one table, each side multiplied out
    by `form_product` from the forms left after the counts cancel."""
    n, forms = a.table.n, a.table.forms
    x, y = a.table.unpack(a.counts), b.table.unpack(b.counts)
    num = {f: p - q for f, p, q in zip(forms, x, y) if p > q}
    den = {f: q - p for f, p, q in zip(forms, x, y) if q > p}
    return RatFun(
        Poly(n, form_product(n, _k.norm_coeff(Fraction(a.scalar) / b.scalar), num)),
        Poly(n, form_product(n, 1, den)),
        reduce=False,
    )


def to_sympy(poly: Poly, xs):
    """A Poly as a sympy expression in the symbols xs."""
    out = sympy.Integer(0)
    for e, c in poly.to_pairs():
        term = sympy.Rational(c)
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


# -- the exponent-tuple kernel ------------------------------------------------


def tuple_dict(poly: Poly) -> dict:
    """A Poly's terms keyed by exponent tuples."""
    return {tuple(e): Fraction(c) for e, c in poly.to_pairs()}


def _tuple_add_to(out: dict, e: tuple, c) -> None:
    s = out.get(e, 0) + c
    if s:
        out[e] = s
    elif e in out:
        del out[e]


def tuple_kmul(a: dict, b: dict) -> dict:
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            _tuple_add_to(out, tuple(x + y for x, y in zip(ea, eb)), ca * cb)
    return out


def tuple_kpow(a: dict, m: int, nvars: int) -> dict:
    out = {(0,) * nvars: 1}
    for _ in range(m):
        out = tuple_kmul(out, a)
    return out


def tuple_ksubst(a: dict, cols, nvars: int) -> dict:
    """Variable k replaced by the linear form cols[k], term by term."""
    lin = [
        {tuple(int(j == i) for j in range(nvars)): c for i, c in enumerate(col) if c}
        for col in cols
    ]
    out = {}
    for e, c in a.items():
        term = {(0,) * nvars: c}
        for k, ek in enumerate(e):
            term = tuple_kmul(term, tuple_kpow(lin[k], ek, nvars))
        for e2, c2 in term.items():
            _tuple_add_to(out, e2, c2)
    return out


def _grlex(e: tuple) -> tuple:
    return (sum(e), e)


def tuple_kdivexact(a: dict, b: dict):
    """Quotient a/b by graded-lex long division, or None when inexact."""
    eb = max(b, key=_grlex)
    rem = dict(a)
    quot = {}
    while rem:
        ea = max(rem, key=_grlex)
        eq = tuple(x - y for x, y in zip(ea, eb))
        if any(x < 0 for x in eq):
            return None
        cq = Fraction(rem[ea]) / b[eb]
        quot[eq] = cq
        for e, c in b.items():
            _tuple_add_to(rem, tuple(x + y for x, y in zip(e, eq)), -cq * c)
    return quot
