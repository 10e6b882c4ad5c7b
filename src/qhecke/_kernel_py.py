"""Pure-Python polynomial kernels.

A polynomial is a dict mapping exponent tuples (fixed length, nonnegative
ints) to nonzero exact rational coefficients.  Coefficients are plain ints
whenever integral and fractions.Fraction otherwise; both compare and hash
consistently, so mixed dicts are fine.
"""

from fractions import Fraction


def norm_coeff(c):
    """Collapse integral Fractions to int; leave everything else alone."""
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def kadd(a, b):
    out = dict(a)
    for e, c in b.items():
        s = out.get(e, 0) + c
        if s:
            out[e] = norm_coeff(s)
        elif e in out:
            del out[e]
    return out


def kneg(a):
    return {e: -c for e, c in a.items()}


def kscale(a, c):
    if not c:
        return {}
    c = norm_coeff(c)
    return {e: norm_coeff(ce * c) for e, ce in a.items()}


def kmul(a, b):
    if len(a) > len(b):
        a, b = b, a
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = out.get(e, 0) + ca * cb
            if s:
                out[e] = norm_coeff(s)
            elif e in out:
                del out[e]
    return out


def kpow(a, n, nvars):
    out = {(0,) * nvars: 1}
    base = a
    while n:
        if n & 1:
            out = kmul(out, base)
        n >>= 1
        if n:
            base = kmul(base, base)
    return out


def ksubst(a, cols, nvars):
    """Substitute variable k by the linear form cols[k] (a coefficient tuple).

    This is the Weyl-matrix action on polynomials: each degree-1 generator is
    replaced by an integer linear combination, extended multiplicatively.
    """
    zero = (0,) * nvars
    lin = []
    for col in cols:
        form = {}
        for i, c in enumerate(col):
            if c:
                e = list(zero)
                e[i] = 1
                form[tuple(e)] = norm_coeff(c)
        lin.append(form)
    powcache = {}
    out = {}
    for e, c in a.items():
        term = {zero: c}
        for k, ek in enumerate(e):
            if not ek:
                continue
            key = (k, ek)
            p = powcache.get(key)
            if p is None:
                p = kpow(lin[k], ek, nvars)
                powcache[key] = p
            term = kmul(term, p)
        out = kadd(out, term)
    return out


def _grlex(e):
    return (sum(e), e)


def kdivexact(a, b):
    """Quotient a/b when exact, else None.  b must be nonzero.

    Long division with the graded-lex leading term of b: if a is a genuine
    multiple of b the leading term of the remainder is always divisible, so
    a single failed step certifies non-divisibility.
    """
    if not a:
        return {}
    eb = max(b, key=_grlex)
    cb = b[eb]
    rest = [(e, c) for e, c in b.items() if e != eb]
    rem = dict(a)
    quot = {}
    while rem:
        ea = max(rem, key=_grlex)
        eq = tuple(x - y for x, y in zip(ea, eb))
        if any(x < 0 for x in eq):
            return None
        ca = rem[ea]
        if isinstance(ca, int) and isinstance(cb, int):
            cq = Fraction(ca, cb)
        else:
            cq = ca / cb
        cq = norm_coeff(cq)
        quot[eq] = cq
        del rem[ea]
        for e, c in rest:
            key = tuple(x + y for x, y in zip(e, eq))
            s = rem.get(key, 0) - cq * c
            if s:
                rem[key] = norm_coeff(s)
            elif key in rem:
                del rem[key]
    return quot
