"""Euler classes of fixed points and the localization pathway.

Every fixed point carries an Euler class: the product of the weights of its
fiber and tangent data.  Localization sends a module element, a dict
{coset index: Poly} as in `algebra`, to the vector w(c)/Lambda_w over the
fixed points, and an operator to a sparse matrix with the rescaled product
psi_{x,w} * psi_{w,y} = Lambda_w psi_{x,y}.  Here row x of every vector and
matrix is multiplied by Lambda_x, which is never zero: in this
Lambda-cleared basis a module element localizes to the polynomials w(c),
operators multiply as plain sparse matrices, and the operator translation
of c*w at (u, uw) is u(c).  Comparing that translation with the
multiplicity-formula matrix Lambda_x / E(x, xw), built from the fixed
points' weights, is the central cross-check between the two pathways.

Every Euler class here stays factored (`polyops.EulerClass`) over the
setting's weight table (`repdata.WeightTable`).  The tangent set n_g of each
fixed point and its fiber set per copy are bitsets over the table, computed
once per element; the class of a pair combines them with bit operations, a
product of classes adds packed counts, and a quotient of two cancels by a
fieldwise min and expands only the forms left over.  Only the operator
translation `localize_op` works with the algebra's `RatFun`s, which keeps
the pathway comparison independent.  The unit and variable matrices are
theta's diagonal on the unit and on x_t, and leading terms compare Euler
classes with denominators cleared, at one fixed point per coset wherever the
twisting data make the classes W-equivariant (`leading_term_suite`).

The intertwining and equivariance checks evaluate these products one
fixed-point row at a time and build no vector.  Each crossing matrix is
built once per (i, s) (`crossing_matrices`, shared with the pathway check)
and split into rows on kernel dicts (`polyops.CrossingRows`): row x keeps
its one denominator D_x and its numerators N_{x,y}.  For a monomial e on
the coset src = i*s, row x then compares sum_y N_{x,y} * y(e), over the
fixed points y of src, with D_x * x(sigma(e)), each image read from the
group's per-element monomial memos, and the first row that differs ends
the monomial's scan.  Equivariance compares g(w(e)) with (g*w)(e) the same
way, at each fixed point g of the coset carrying w(e) (`polyops.images_agree`).
`theta` and `fp_apply` build the whole vectors; the tests compare the two
on every setting.

Orientation convention: n_w is computed from its definition (weights of the
subsystem lying in w(negatives)), and the Euler class of the closure of a
crossing cell at the pair (x, xw) uses the curve-direction set at the
*target* point, n_{xw} minus (n_{xw} cap n_x).  With this placement the
weight pathway reproduces the closed forms x(alpha_s) Q_x(s)^{-1} Lambda_x
exactly; the swapped placement flips the sign.
"""

from __future__ import annotations

from fractions import Fraction
from operator import and_

from .polyops import (
    CrossingRows,
    EulerClass,
    Poly,
    add_term,
    images_agree,
    monomials_up_to,
)
from .repdata import Setting, fiber_weights, h_count, q_poly
from .report import CheckResult, verdict
from .algebra import TwistedOperator, gen_sigma, gen_unit, gen_var, module_act


def euler(setting: Setting, *sets) -> EulerClass:
    """Product of the weights of the multiset sum of sets of the setting's
    weight table, factored; the empty product is 1."""
    return setting.weights.euler(sets)


def tangent_n(setting: Setting, g: int) -> int:
    """The tangent space at the fixed point of g as a set of the weight
    table: the subsystem roots landing in the image of the negatives.
    Computed once per element."""
    tangent = setting.tangents.get(g)
    if tangent is None:
        group = setting.group
        neg_big = group.negative
        pinv = group.perms[group.inv(g)]
        bit = setting.weights.bit
        tangent = sum(bit[i] for i in setting.sub._root_index if neg_big[pinv[i]])
        setting.tangents[g] = tangent
    return tangent


def tangent_m(setting: Setting, gx: int, gy: int) -> int:
    """n_x minus (n_x cap n_y), as a set."""
    return tangent_n(setting, gx) & ~tangent_n(setting, gy)


def lambda_table(setting: Setting):
    """Lambda_w for every group element, factored: the Euler class of the
    fixed point of w, its tangent weights plus its fiber weights.  A product
    of nonzero weights, so never zero.  Read it as `setting.lambdas`, which
    keeps it."""
    return tuple(
        euler(setting, tangent_n(setting, g), *fiber_weights(setting, g))
        for g in range(len(setting.group))
    )


def q_translate(setting: Setting, gx: int, s: int) -> EulerClass:
    """Euler class of F_x / F_{x,xs}: the x-translate of the q-support."""
    group = setting.group
    xs = group.mul(gx, group.simple[s])
    pairs = zip(fiber_weights(setting, gx), fiber_weights(setting, xs))
    return euler(setting, *(fx & ~fxs for fx, fxs in pairs))


def eu_zbar_w(setting: Setting, gx: int, w: int) -> EulerClass:
    """Euler class of the closed cell of w at the pair (x, xw):
    fiber pair weights, tangent at x, and the curve direction at xw.  The
    last two make the set n_x | n_xw, each root once."""
    gxw = setting.group.mul(gx, w)
    tangent = tangent_n(setting, gx) | tangent_n(setting, gxw)
    fibers = map(and_, fiber_weights(setting, gx), fiber_weights(setting, gxw))
    return euler(setting, tangent, *fibers)


def eu_zbar_s(setting: Setting, gx: int, s: int) -> EulerClass:
    """Euler class of the crossing cell at (x, xs); on stabilized cosets
    the diagonal entry at (x, x) is minus it."""
    return eu_zbar_w(setting, gx, setting.group.simple[s])


def theta(setting: Setting, m: dict) -> dict:
    """Localization of a module element in the Lambda-cleared basis: the
    polynomial w(c) at each fixed point w of the coset carrying the
    component.  Cosets are disjoint and w acts injectively, so every
    component gives its own nonzero entries."""
    table, group = setting.table, setting.group
    return {
        g: f.weyl_image(group, g)
        for i, f in m.items()
        for g in table.fixed_points_of(i)
    }


def fp_apply(A: dict, v: dict) -> dict:
    """(A*v)_x = sum_w A_{x,w} v_w."""
    out: dict = {}
    for (x, w), a in A.items():
        b = v.get(w)
        if b is not None:
            add_term(out, x, a * b)
    return out


def localize_diagonal(setting: Setting, m: dict) -> dict:
    """Multiplication by m as a fixed-point matrix: theta(m) on the
    diagonal.  The unit of coset i is 1 at every fixed point g of i, and
    x_t on coset i is g(x_t) there."""
    return {(g, g): v for g, v in theta(setting, m).items()}


def crossing_cells(setting: Setting, i: int, s: int):
    """(x, y, E) for every fixed-point pair (x, y) the crossing generator
    sigma(i, s) touches: the crossing cell's Euler class E(x, xs) at
    (x, xs) and, on stabilized cosets, minus it at (x, x).  The entry of the
    multiplicity-formula matrix at (x, y) is 1/E."""
    table, group = setting.table, setting.group
    stab = table.stab(i, s)
    s_elem = group.simple[s]
    for g in table.fixed_points_of(i):
        off = eu_zbar_s(setting, g, s)
        yield g, group.mul(g, s_elem), off
        if stab:
            yield g, g, -off


def localize_sigma(setting: Setting, i: int, s: int) -> dict:
    """Multiplicity-formula matrix of a crossing generator in the
    Lambda-cleared basis: Lambda_x / E at every entry of `crossing_cells`."""
    lambdas = setting.lambdas
    return {(x, y): lambdas[x] / e for x, y, e in crossing_cells(setting, i, s)}


def localize_op(setting: Setting, op: TwistedOperator) -> dict:
    """Translate a twisted operator into the fixed-point matrix compatible
    with theta: entry u(c) at (u, uw)."""
    table, group = setting.table, setting.group
    out: dict = {}
    for (i, w), c in op.terms.items():
        for u in table.fixed_points_of(i):
            add_term(out, (u, group.mul(u, w)), c.weyl_image(group, u))
    return out


def crossing_matrices(setting: Setting) -> dict:
    """`localize_sigma` of every crossing generator, keyed by (i, s): built
    once, for `pathway_agreement_check` and `intertwining_check` to share.
    Neither writes it."""
    return {
        (i, s): localize_sigma(setting, i, s)
        for i in setting.table.indices
        for s in range(setting.datum.rank)
    }


def pathway_agreement_check(setting: Setting, matrices: dict | None = None) -> list:
    """Operator translation vs multiplicity formula, entry by entry, for
    every generator: the geometric entries, quotients of Euler classes, are
    compared with the algebra side's RatFuns.  The crossing matrices are
    `matrices` when given, else built here."""
    datum, table = setting.datum, setting.table
    if matrices is None:
        matrices = crossing_matrices(setting)
    n = datum.ambient_rank
    results = []
    for i in table.indices:
        geo = localize_diagonal(setting, {i: Poly.const(n, 1)})
        alg = localize_op(setting, gen_unit(table, i))
        results.append(CheckResult(f"pathway-unit(i={i})", geo == alg))
        for t in range(n):
            geo = localize_diagonal(setting, {i: Poly.variable(n, t)})
            alg = localize_op(setting, gen_var(table, i, t))
            results.append(CheckResult(f"pathway-var(i={i},t={t})", geo == alg))
        for s in range(datum.rank):
            alg = localize_op(setting, gen_sigma(setting, i, s))
            results.append(CheckResult(f"pathway-crossing(i={i},s={s})", matrices[i, s] == alg))
    return results


def intertwining_check(setting: Setting, degree: int = 3, matrices: dict | None = None) -> list:
    """The localization map intertwines crossing generators with their
    fixed-point matrices on all monomials up to the given degree.  Every
    entry of row x of `localize_sigma` lies over the one denominator D_x,
    which depends only on the Euler classes' counts (Lambda_x / E at
    (x, xs) and Lambda_x / (-E) at (x, x)); row x of both sides is
    multiplied by it once per generator, so each monomial costs polynomial
    arithmetic only.  The rows are compared one at a time (module doc);
    the matrices are `matrices` when given, else built here."""
    datum, table = setting.datum, setting.table
    if matrices is None:
        matrices = crossing_matrices(setting)
    monomials = monomials_up_to(datum.ambient_rank, degree)
    return [
        verdict(
            f"intertwine(i={i},s={s})",
            _intertwining_failures(setting, i, s, matrices[i, s], monomials),
        )
        for i in table.indices
        for s in range(datum.rank)
    ]


def _intertwining_failures(setting: Setting, i: int, s: int, matrix: dict, monomials):
    """The monomials, in order, on which sigma(i, s) and its fixed-point
    matrix disagree."""
    n, table, group = setting.datum.ambient_rank, setting.table, setting.group
    src = table.act(i, s)
    columns = frozenset(table.fixed_points_of(src))
    rows = CrossingRows(group, matrix, columns, table.fixed_points_of(i), f"sigma({i},{s})")
    sig = gen_sigma(setting, i, s)
    for e in monomials:
        mono = Poly.monomial(n, e)
        if not rows.agree(mono, sig.apply({src: mono}).get(i)):
            yield {"i": i, "s": s, "monomial": e}


def theta_equivariance_check(setting: Setting, degree: int = 3) -> list:
    """Group-equivariance of localization: the entry of w(c) at x equals
    that of c at xw, compared row by row (module doc)."""
    datum, table, group = setting.datum, setting.table, setting.group
    n = datum.ambient_rank
    monomials = monomials_up_to(n, degree)

    def failures(k):
        w = group.simple[k]
        for i in table.indices:
            pairs = None
            for e in monomials:
                c = Poly.monomial(n, e)
                ((j, image),) = module_act(table, w, {i: c}).items()
                if pairs is None:
                    # j = i*w^{-1} for every e: the rows g of j, each beside
                    # g*w, which must run over the fixed points of i
                    pairs = [(g, group.mul(g, w)) for g in table.fixed_points_of(j)]
                    same = sorted(x for _, x in pairs) == sorted(table.fixed_points_of(i))
                if not (same and images_agree(group, image, c, pairs)):
                    yield {"i": i, "monomial": e, "simple": k}

    return [verdict(f"equivariance(s={k})", failures(k)) for k in range(datum.rank)]


def euler_identities_check(setting: Setting) -> list:
    """Sign law, power forms, curve Euler classes and duality, exhaustively."""
    datum, table, data = setting.datum, setting.table, setting.data
    group, weights = setting.group, setting.weights

    def root(g, s):
        """The set holding the root g(alpha_s)."""
        return weights.bit[weights.index[group.act(g, datum.simple_roots[s])]]

    def dualities():
        for g in range(len(group)):
            sets = (tangent_n(setting, g), *fiber_weights(setting, g))
            size = sum(part.bit_count() for part in sets)
            dual = [weights.negate(part) for part in sets]
            if euler(setting, *dual) != euler(setting, *sets) * Fraction((-1) ** size):
                yield {"element": group.reduced_word(g)}

    def curves():
        for g in range(len(group)):
            i = table.coset_of[g]
            for s in range(datum.rank):
                gs = group.mul(g, group.simple[s])
                alpha_img = euler(setting, root(g, s))
                if table.stab(i, s):
                    if euler(setting, tangent_m(setting, gs, g)) != alpha_img:
                        yield {"element": group.reduced_word(g), "s": s, "which": "target"}
                    if euler(setting, tangent_m(setting, g, gs)) != -alpha_img:
                        yield {"element": group.reduced_word(g), "s": s, "which": "source"}
                else:
                    if tangent_n(setting, g) != tangent_n(setting, gs):
                        yield {"element": group.reduced_word(g), "s": s, "which": "equal-n"}
                    if tangent_m(setting, g, gs) or tangent_m(setting, gs, g):
                        yield {"element": group.reduced_word(g), "s": s, "which": "empty-m"}

    def sign_laws():
        lambdas = setting.lambdas
        for g in range(len(group)):
            i = table.coset_of[g]
            for s in range(datum.rank):
                if not table.stab(i, s):
                    continue
                gs = group.mul(g, group.simple[s])
                h = h_count(setting, i, s)
                if lambdas[g] != lambdas[gs] * (-1) ** (1 + h):
                    yield {"element": group.reduced_word(g), "s": s}

    def power_forms():
        lambdas = setting.lambdas
        for g in range(len(group)):
            i = table.coset_of[g]
            for s in range(datum.rank):
                h = h_count(setting, i, s)
                alpha = root(g, s)
                k = (1 - h) if table.stab(i, s) else -h
                # value == Lambda_g * g(alpha_s)**k, with k < 0 moved across
                value = eu_zbar_s(setting, g, s) * euler(setting, *[alpha] * -k)
                want = lambdas[g] * euler(setting, *[alpha] * k)
                if value != want:
                    yield {"element": group.reduced_word(g), "s": s}

    def q_translations():
        for g in range(len(group)):
            for s in range(datum.rank):
                via_fibers = q_translate(setting, g, s)
                i = table.coset_of[g]
                translated = q_poly(setting, i, s).weyl_image(group, g)
                if via_fibers.expand() != translated:
                    yield {"element": group.reduced_word(g), "s": s}

    results = [verdict("euler-duality", dualities()), verdict("curve-euler-classes", curves())]
    if data.borel_flag:
        results.append(verdict("lambda-sign-law", sign_laws()))
        results.append(verdict("power-forms", power_forms()))
    results.append(verdict("q-translation", q_translations()))
    return results


def leading_term_suite(setting: Setting) -> list:
    """All length-additive pairs (s, w), for positive-system twisting data:
    the composition of crossing-cell classes matches the longer cell at every
    leading pair (u, u*sw), 1/E(u,s) * 1/E(us,w) * Lambda_us == 1/E(u,sw),
    compared as `EulerClass` products with denominators cleared.  The first
    failing u is the counterexample; results come in (s, w) order, after the
    lemma `weight-equivariance`.

    The scope is read from the data, never from the lemma.  Where every V_k
    is W-stable, the lemma checks that each simple reflection h of Phi moves
    the tangent and fiber sets at g onto those at h*g, and that each stored
    Lambda_g is the class of g's sets.  The classes are built from those
    sets and h acts on polynomials as a ring automorphism, so the identity
    at h*u is h applied to the one at u, and u runs over the coset
    representatives: each coset is a W-orbit whose first element in index
    order is its representative.  Elsewhere u runs over every element.

    The multiplicativity rests on cut additivity of the twisting weight sets,
    which can fail for asymmetric custom data (e.g. a single highest-root
    copy); the suite is asserted only where the statement is available.
    """
    if not setting.data.borel_flag:
        skip = "skipped: asserted for positive-system twisting data only"
        return [CheckResult("leading-term", True, skip)]
    group, sub = setting.group, setting.sub
    if all(sub.stabilizes(V) for V in setting.data.V_sets):
        points = setting.table.reps
        scope = (
            f"{len(sub._refl)} simple reflections of W on {len(group)} elements; "
            f"leading at one element per coset, {len(points)} in all"
        )
        lemma = verdict("weight-equivariance", _equivariance_failures(setting), scope)
    else:
        points = range(len(group))
        scope = "out of scope: some V_k is not W-stable; leading at every element"
        lemma = CheckResult("weight-equivariance", True, scope)
    return [lemma] + [
        verdict(
            f"leading-term(s={s},w={group.reduced_word(w)})",
            _leading_failures(setting, points, s, w),
        )
        for s, t in enumerate(group.simple)
        for w in range(len(group))
        if group.length(group.mul(t, w)) == group.length(w) + 1
    ]


def _equivariance_failures(setting: Setting):
    """The elements g, in index order, whose tangent or fiber sets moved by
    a simple reflection h of Phi are not the sets at h*g, or whose stored
    Lambda is not the class of g's sets."""
    group, weights, lambdas = setting.group, setting.weights, setting.lambdas
    moves = [(k, h, weights.perm(h)) for k, h in enumerate(setting.sub._refl)]
    for g in range(len(group)):
        tangent, fibers = tangent_n(setting, g), fiber_weights(setting, g)
        for k, h, perm in moves:
            hg = group.mul(h, g)
            if tangent_n(setting, hg) != weights.move(tangent, perm):
                yield {"element": group.reduced_word(g), "reflection": k, "which": "tangent"}
            if fiber_weights(setting, hg) != tuple(weights.move(f, perm) for f in fibers):
                yield {"element": group.reduced_word(g), "reflection": k, "which": "fiber"}
        if lambdas[g] != euler(setting, tangent, *fibers):
            yield {"element": group.reduced_word(g), "which": "lambda"}


def _leading_failures(setting: Setting, points, s: int, w: int):
    """The u of `points`, in order, at which the leading identity of the
    additive pair (s, w) fails."""
    group, lambdas = setting.group, setting.lambdas
    t, sw = group.simple[s], group.mul(group.simple[s], w)
    for u in points:
        us = group.mul(u, t)
        lhs = eu_zbar_w(setting, u, sw) * lambdas[us]
        if lhs != eu_zbar_w(setting, u, t) * eu_zbar_w(setting, us, w):
            yield {"u": group.reduced_word(u)}


def additivity_sides(group, F: frozenset, w: int, s: int) -> tuple:
    """The two multisets compared by the cut additivity of (w, s), before
    translation by x, as sorted bytes of root indices: s(cut(w)) + cut(s)
    and cut(sw), where cut(y) = F minus y(F) for a set F of root indices.
    Needs l(sw) = l(w) + 1.  A root index fits a byte by the 256-root bound
    of `WeylGroup`."""
    s_elem = group.simple[s]
    sw = group.mul(s_elem, w)
    if group.length(sw) != group.length(w) + 1:
        raise ValueError("length must be additive")

    def cut(y: int) -> frozenset:
        p = group.perms[y]
        return F.difference(p[i] for i in F)

    ps = group.perms[s_elem]
    lhs = sorted([ps[i] for i in cut(w)] + [*cut(s_elem)])
    return bytes(lhs), bytes(sorted(cut(sw)))


def inversion_additivity_check(group, x: int, sides) -> bool:
    """For a stable weight set F and l(sw) = l(w)+1, the x-translate of the
    cut of sw splits as the s-translate of the cut of w plus the cut of s;
    `sides` is `additivity_sides(group, F, w, s)`.  Both sides are moved by
    x's 256-byte table, as `WeylGroup.mul` moves a permutation.  Images that
    are the same sequence hold the same multiset; only sides that differ as
    sequences are compared sorted."""
    lhs, rhs = sides
    table = group._tables[x]
    lhs, rhs = lhs.translate(table), rhs.translate(table)
    return lhs == rhs or sorted(lhs) == sorted(rhs)


def inversion_additivity_suite(group, F) -> list:
    """Exhaustive over all (x, w, s) with additive lengths; F holds roots."""
    F = frozenset(group.root_index[tuple(f)] for f in F)
    size = len(group)
    pairs = [
        (w, s)
        for s, s_elem in enumerate(group.simple)
        for w in range(size)
        if group.length(group.mul(s_elem, w)) == group.length(w) + 1
    ]
    failures = _inversion_failures(group, F, pairs)
    return [verdict("inversion-additivity", failures, f"{len(pairs) * size} triples")]


def _inversion_failures(group, F: frozenset, pairs):
    """The triples (x, w, s), for (w, s) in `pairs` and then x in index
    order, at which cut additivity fails."""
    xs = range(len(group))
    for w, s in pairs:
        sides = additivity_sides(group, F, w, s)
        for x in xs:
            if not inversion_additivity_check(group, x, sides):
                yield {"x": group.reduced_word(x), "w": group.reduced_word(w), "s": s}
