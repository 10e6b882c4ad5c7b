"""Builders shared by the test modules."""

from qhecke.polyops import Poly, RatFun
from qhecke.repdata import Setting
from qhecke.rootcore import build_root_datum
from qhecke.subgroup import CosetTable, fixed_subsystem


def make_setting(label, constraints=(), kind="nil") -> Setting:
    """The setting of a Cartan label cut down by torus constraints, with no
    twisting data ("nil") or one adjoint copy U = positives, V = roots
    ("skew")."""
    datum = build_root_datum(label)
    table = CosetTable(fixed_subsystem(datum, list(constraints)))
    if kind == "nil":
        return Setting(table)
    if kind == "skew":
        return Setting(table, [datum.positive_roots], [datum.roots])
    raise ValueError(kind)


def second_denominator(localize_sigma):
    """`localize_sigma` with the first entry of each matrix written over a
    second denominator, x0 times its own: the same value, so only code that
    reads the denominators of a row sees the change.  On a stabilized coset
    that row then holds two denominators."""

    def wrapped(setting, i, s):
        mat = localize_sigma(setting, i, s)
        key, a = next(iter(mat.items()))
        x0 = Poly.variable(a.num.n, 0)
        mat[key] = RatFun(a.num * x0, a.den * x0, reduce=False)
        return mat

    return wrapped


def corrupt_one_image(setting):
    """Replace the memoized image of x_0 under the first simple reflection
    by a wrong one that still differs from the true one by a multiple of
    alpha_0, so divided differences stay polynomial and the suites run."""
    group, datum = setting.group, setting.datum
    n = datum.ambient_rank
    s0 = group.simple[0]
    x0 = Poly.variable(n, 0)
    wrong = x0.substitute_linear(group.matrix(s0)) + Poly.linear(datum.simple_roots[0]) * 2
    group.monomial_images(s0)[x0.d.popitem()[0]] = wrong.d
