"""Pure-Python polynomial kernels.

A polynomial is a dict mapping packed monomials to nonzero exact rational
coefficients.  Coefficients are plain ints whenever integral and
fractions.Fraction otherwise; both compare and hash consistently, so mixed
dicts are fine.

Key layout.  The monomial x_0^e_0 ... x_{n-1}^e_{n-1} is one nonnegative
int of n + 1 fields, WIDTH bits each, from most to least significant: the
total degree, then e_0, ..., e_{n-1} (`pack`, `unpack`).  The top bit of
every field is a guard that a valid key never sets, so fields stay below
DEGREE_LIMIT and no sum of two fields carries into the next.  Hence:

- a monomial product is one int `+`, and the constant monomial is 0;
- graded-lex order, (total degree, exponent tuple), is int order, so the
  leading term is `max`;
- monomial a divides monomial b exactly when q = b - a has `q >= 0 and
  not q & GUARD`: a field that borrows sets its guard bit, and a negative
  degree makes q < 0;
- every exponent is at most the total degree, so a product whose degree
  field stays clear of its guard keeps every field clear: `kmul` checks the
  two leading degrees once per call, and a product that would reach the
  guard raises `InternalInvariantError` rather than carry.

Keys have at most MAX_VARS + 1 fields; the root datum bounds its ambient
rank by MAX_VARS, so every polynomial of a setting fits.
"""

import struct
from fractions import Fraction

from .errors import InternalInvariantError

WIDTH = 16
MAX_VARS = 16
# exponents and total degrees are below this; its bit is a field's guard
DEGREE_LIMIT = 1 << (WIDTH - 1)
GUARD = sum(DEGREE_LIMIT << (WIDTH * i) for i in range(MAX_VARS + 1))
# _SHIFTS[n]: the shift of each exponent field of a key in n variables,
# e_0's first
_SHIFTS = tuple(tuple(range(WIDTH * (n - 1), -1, -WIDTH)) for n in range(MAX_VARS + 1))
# _FIELDS[n]: `unpack`'s reader of a key in n variables; "H" is WIDTH bits
_FIELDS = tuple(struct.Struct(">2x" + "H" * n) for n in range(MAX_VARS + 1))


def pack(exponents) -> int:
    """The key of the monomial with these exponents (see the module doc)."""
    key = sum(exponents)
    if len(exponents) > MAX_VARS or key >= DEGREE_LIMIT:
        raise InternalInvariantError(
            f"monomial {tuple(exponents)} exceeds the kernel's {MAX_VARS} variables "
            f"or degree {DEGREE_LIMIT - 1}"
        )
    for x in exponents:
        key = key << WIDTH | x
    return key


def unpack(key: int, n: int) -> tuple:
    """The exponent tuple of a key in n variables: its big-endian bytes read
    as n + 1 unsigned 16-bit fields, the degree's skipped."""
    return _FIELDS[n].unpack(key.to_bytes(2 * n + 2, "big"))


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


def kaddmul(out, b, c):
    """out += c * b, in place: a sum that vanishes drops its key."""
    for e, cb in b.items():
        s = out.get(e, 0) + c * cb
        if s:
            # most coefficients are ints: skip the call for them
            out[e] = s if type(s) is int else norm_coeff(s)
        elif e in out:
            del out[e]


def kneg(a):
    return {e: -c for e, c in a.items()}


def kscale(a, c):
    if not c:
        return {}
    c = norm_coeff(c)
    return {e: norm_coeff(ce * c) for e, ce in a.items()}


def kmul(a, b):
    if not a or not b:
        return {}
    if (max(a) + max(b)) & GUARD:
        raise InternalInvariantError(
            f"a polynomial product reaches degree {DEGREE_LIMIT}, past the kernel's fields"
        )
    if len(a) > len(b):
        a, b = b, a
    if len(a) == 1:
        # a single term shifts the keys and scales the coefficients: products
        # of nonzero terms never collide and never vanish
        ((ea, ca),) = a.items()
        if not ea and ca == 1:
            return dict(b)
        return {
            ea + eb: s if type(s := ca * cb) is int else norm_coeff(s) for eb, cb in b.items()
        }
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = ea + eb
            s = out.get(e, 0) + ca * cb
            if s:
                # most coefficients are ints: skip the call for them
                out[e] = s if type(s) is int else norm_coeff(s)
            elif e in out:
                del out[e]
    return out


def kpow(a, n):
    out = {0: 1}
    base = a
    while n:
        if n & 1:
            out = kmul(out, base)
        n >>= 1
        if n:
            base = kmul(base, base)
    return out


def _linear_form(col, nvars):
    """The polynomial sum_j col[j] * x_j."""
    top = 1 << WIDTH * nvars
    return {top | 1 << s: norm_coeff(c) for s, c in zip(_SHIFTS[nvars], col) if c}


def ksubst(a, cols, nvars):
    """Substitute variable k by the linear form cols[k] (a coefficient tuple).

    This is the Weyl-matrix action on polynomials: each degree-1 generator is
    replaced by an integer linear combination, extended multiplicatively.
    The monomial images come from `kimage` over a memo local to the call.
    """
    memo = {}
    out = {}
    for e, c in a.items():
        out = kadd(out, kscale(kimage(memo, e, cols, nvars), c))
    return out


def kimage(memo, e, cols, nvars):
    """The image of the monomial e under the substitution of `ksubst`, read
    from and filled into memo (monomial -> image).  For the last variable
    x_k of e, image(e) = image(e / x_k) * cols[k]: a miss walks down this
    chain of divisors to the first one the memo holds, or to the constant
    monomial, and fills in every monomial on the way back up."""
    shifts = _SHIFTS[nvars]
    top = 1 << WIDTH * nvars
    chain = []
    while e not in memo:
        if not e:
            memo[0] = {0: 1}
            break
        # the last variable's field is the lowest nonzero one
        k = nvars - 1 - ((e & -e).bit_length() - 1) // WIDTH
        chain.append((e, k))
        e -= top | 1 << shifts[k]
    img = memo[e]
    for e, k in reversed(chain):
        img = memo[e] = kmul(img, _linear_form(cols[k], nvars))
    return img


def kdivexact(a, b):
    """Quotient a/b when exact, else None.  b must be nonzero.

    Long division with the graded-lex leading term of b: if a is a genuine
    multiple of b the leading term of the remainder is always divisible, so
    a single failed step certifies non-divisibility.
    """
    if not a:
        return {}
    eb = max(b)
    cb = b[eb]
    rest = [(e, c) for e, c in b.items() if e != eb]
    rem = dict(a)
    quot = {}
    while rem:
        ea = max(rem)
        eq = ea - eb
        if eq < 0 or eq & GUARD:
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
            key = e + eq
            s = rem.get(key, 0) - cq * c
            if s:
                rem[key] = norm_coeff(s)
            elif key in rem:
                del rem[key]
    return quot
