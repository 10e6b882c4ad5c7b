"""Exact multivariate polynomials and rational functions over the rationals.

Polynomials are sparse dicts from packed monomials, one int each (the key
layout is in `_kernel_py`'s docstring), to exact rational coefficients; the
ambient variables are the coordinate functions of the character lattice, so
a root (an integer vector) becomes a linear form and a Weyl matrix acts by
substituting linear forms for the generators.  A Weyl group element acts by
its index (`weyl_image`): each monomial's image is built once per group
and element, as the image of a divisor of one degree less (kept in the same
memo) times the image of one variable, then summed from the memo.

A rational function is not brought to lowest terms: it is replaced by its
quotient when the denominator divides the numerator (a constant denominator
always does), and otherwise kept as given; equality is cross-multiplication.
Euler classes (products of weights) are kept factored instead: an
`EulerClass` is a rational scalar times a count vector over the primitive
linear forms of its setting's weight table, packed into one int, so a
product of Euler classes adds two ints, and a quotient of two is a `RatFun`
over the forms left after the common counts cancel.  The table expands each
count vector once (`WeightTable.product`); a class scales that expansion.

Grading convention: a linear form has artifact degree 2 (degrees are doubled);
`artifact_degree` reports the doubled value, `degree` the internal one.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd

from . import _kernel_py as _k
from .errors import (
    DivisionByZeroDenominator,
    InternalInvariantError,
    ParseError,
    ZeroWeight,
)

# Named in the `check` report's `timings.kernel`.
KERNEL_NAME = "pure"


def _coeff(value):
    """Coerce an int / Fraction / "p/q" string to an exact rational."""
    if isinstance(value, (int, Fraction)):
        return _k.norm_coeff(value)
    if isinstance(value, str):
        return _k.norm_coeff(Fraction(value))
    raise TypeError(f"not an exact rational: {value!r}")


def _columns(matrix, n: int) -> tuple:
    """The columns of a square matrix: the linear forms `ksubst` puts in
    for the variables."""
    return tuple(tuple(row[k] for row in matrix) for k in range(n))


def coeff_str(c) -> str:
    """Serialize an exact rational as "p" or "p/q"."""
    if type(c) is int:
        return str(c)
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def add_term(out: dict, key, value) -> None:
    """out[key] += value over a sparse dict: a missing key reads as zero, a
    sum that vanishes drops the key, an existing key keeps its place."""
    cur = out.get(key)
    if cur is not None:
        value = cur + value
    if value:
        out[key] = value
    elif cur is not None:
        del out[key]


class Poly:
    """Sparse exact polynomial in a fixed number of ambient variables.  The
    constructor copies its terms and `_wrap` takes only a dict built for the
    new Poly, so no two Polys, and no Poly and a memo, share a dict."""

    __slots__ = ("n", "d")

    def __init__(self, n: int, terms=None):
        self.n = n
        self.d = dict(terms) if terms else {}

    @classmethod
    def const(cls, n: int, c) -> "Poly":
        c = _coeff(c)
        return cls(n, {0: c} if c else None)

    @classmethod
    def monomial(cls, n: int, exponents) -> "Poly":
        """The monomial with these n exponents, coefficient 1."""
        return cls(n, {_k.pack(exponents): 1})

    @classmethod
    def variable(cls, n: int, k: int) -> "Poly":
        return cls.monomial(n, [int(i == k) for i in range(n)])

    @classmethod
    def linear(cls, vec) -> "Poly":
        """The linear form with coefficient vector `vec` (e.g. a root)."""
        n = len(vec)
        d = {}
        for i, c in enumerate(vec):
            c = _coeff(c)
            if c:
                d[_k.pack([int(j == i) for j in range(n)])] = c
        return cls(n, d)

    def is_zero(self) -> bool:
        return not self.d

    def is_constant(self) -> bool:
        return not self.d or (len(self.d) == 1 and 0 in self.d)

    def constant_value(self):
        return self.d.get(0, 0)

    def __bool__(self):
        return bool(self.d)

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.n == other.n and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return self.d == Poly.const(self.n, other).d
        return NotImplemented

    def __hash__(self):
        return hash((self.n, frozenset(self.d.items())))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        return Poly(self.n, _k.kadd(self.d, other.d))

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.n, _k.kneg(self.d))

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(self.n, other)
        return Poly(self.n, _k.kadd(self.d, _k.kneg(other.d)))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return Poly(self.n, _k.kscale(self.d, other))
        if isinstance(other, Poly):
            return Poly(self.n, _k.kmul(self.d, other.d))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, m: int):
        if m < 0:
            raise ValueError("negative polynomial power")
        return Poly(self.n, _k.kpow(self.d, m))

    def substitute_linear(self, matrix) -> "Poly":
        """Apply an integer matrix to the degree-1 generators.

        Variable k is replaced by the linear form given by column k, so this
        realizes the Weyl action: w(root linear form) = linear form of w(root).
        """
        return Poly(self.n, _k.ksubst(self.d, _columns(matrix, self.n), self.n))

    def weyl_image(self, group, g: int) -> "Poly":
        """g(self) for the element index g of a `WeylGroup`: the identity
        returns self, otherwise the sum of c * g(monomial) over the terms
        (`_image_terms`)."""
        if g == group.identity or not self.d:
            return self
        return _wrap(self.n, _image_terms(group, g, self.d, self.n))

    def divexact(self, other: "Poly"):
        """Exact quotient self/other, or None when not divisible."""
        if not other.d:
            raise DivisionByZeroDenominator("division by zero polynomial")
        q = _k.kdivexact(self.d, other.d)
        return None if q is None else Poly(self.n, q)

    def degree(self) -> int:
        """Total degree (internal, not doubled); zero polynomial gives -1."""
        if not self.d:
            return -1
        return max(self.d) >> _k.WIDTH * self.n

    def artifact_degree(self) -> int:
        return 2 * self.degree()

    def is_homogeneous(self) -> bool:
        if not self.d:
            return True
        shift = _k.WIDTH * self.n
        return min(self.d) >> shift == max(self.d) >> shift

    def to_pairs(self):
        """Canonical serialization: graded-lex sorted (exponents, "p/q")."""
        n = self.n
        return [[list(_k.unpack(e, n)), coeff_str(c)] for e, c in sorted(self.d.items())]

    @classmethod
    def from_pairs(cls, n, pairs) -> "Poly":
        """Parse outside input: a list of [exponents, coefficient] pairs, each
        exponent list n non-negative integers, no two of them equal, each
        coefficient an integer (not a boolean) or a "p/q" string, the total
        degree below the kernel's field limit.  Anything else raises
        ParseError."""
        if not isinstance(pairs, list):
            raise ParseError(f"polynomial must be a list of pairs, got {pairs!r}")
        d, seen = {}, set()
        for pair in pairs:
            if not isinstance(pair, list) or len(pair) != 2:
                raise ParseError(
                    f"polynomial term {pair!r} is not an [exponents, coefficient] pair"
                )
            e, c = pair
            if not (
                isinstance(e, list)
                and len(e) == n
                and all(type(x) is int and x >= 0 for x in e)
            ):
                raise ParseError(
                    f"exponents {e!r} must be a list of {n} non-negative integers"
                )
            if sum(e) >= _k.DEGREE_LIMIT:
                raise ParseError(
                    f"exponents {e!r} reach total degree {sum(e)}, "
                    f"past the limit {_k.DEGREE_LIMIT - 1}"
                )
            if isinstance(c, bool):
                raise ParseError(f"bad coefficient {c!r}")
            try:
                c = _coeff(c)
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise ParseError(f"bad coefficient {c!r}") from exc
            key = _k.pack(e)
            if key in seen:
                raise ParseError(f"exponents {e!r} are repeated")
            seen.add(key)
            if c:
                d[key] = c
        return cls(n, d)

    def __repr__(self):
        if not self.d:
            return "Poly(0)"
        parts = []
        for e, c in sorted(self.d.items()):
            mono = "*".join(
                f"x{i}" if p == 1 else f"x{i}^{p}"
                for i, p in enumerate(_k.unpack(e, self.n))
                if p
            )
            parts.append(f"{coeff_str(c)}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(parts) + ")"


def _wrap(n: int, d: dict) -> Poly:
    """A Poly over a dict that was just built for it: the constructor's copy
    is skipped, so the caller hands the dict over and keeps no reference."""
    p = Poly.__new__(Poly)
    p.n, p.d = n, d
    return p


def _image_terms(group, g: int, d: dict, n: int) -> dict:
    """g(d) for a kernel dict d and the element index g of a `WeylGroup`:
    the sum of c * g(monomial) over the terms, a fresh dict, except that the
    identity and the zero polynomial return d itself.  A monomial's image is
    built on first use only, as the image of the monomial with its last
    variable removed times g of that variable, and kept in
    `group.monomial_images(g)` with every divisor on the way
    (`_kernel_py.kimage`)."""
    if g == group.identity or not d:
        return d
    memo = group.monomial_images(g)
    out = None
    for e, c in d.items():
        img = memo.get(e)
        if img is None:
            img = _k.kimage(memo, e, group.columns(g), n)
        if out is None:
            # the first term starts a fresh dict: most arguments are
            # single monomials with coefficient 1
            out = dict(img) if c == 1 else _k.kscale(img, c)
        else:
            _k.kaddmul(out, img, c)
    return out


class CrossingRows:
    """A fixed-point matrix {(x, y): RatFun} whose every row lies over one
    denominator, split into rows on kernel dicts: row x keeps D_x and the
    numerator N_xy of each entry whose column y is in `columns` (the others
    add nothing to a product with a vector over `columns`).  Every entry's
    denominator is read, and a row over two denominators raises naming
    `name`.  The rows read the matrix's dicts and never write them.

    `agree(mono, value)` compares, row by row, sum_y N_xy * y(mono) with
    D_x * x(value), where `value` (None reads as zero) lives at the fixed
    points `targets`: a row that is no target has zero on the right."""

    __slots__ = ("group", "rows", "missing")

    def __init__(self, group, matrix: dict, columns, targets, name: str):
        dens, entries = {}, {}
        for (x, y), a in matrix.items():
            if dens.setdefault(x, a.den.d) != a.den.d:
                raise InternalInvariantError(f"row {x} of {name} has two denominators")
            row = entries.setdefault(x, [])
            if y in columns:
                num = a.num.d
                # a constant numerator scales the image instead of multiplying
                scalar = num.get(0) if len(num) == 1 else None
                memo = None if y == group.identity else group.monomial_images(y)
                row.append((y, memo, num, scalar))
        self.group = group
        at_targets = frozenset(targets)
        self.rows = [(x, dens[x], row, x in at_targets) for x, row in entries.items()]
        # a target that is no row has no D_x: a nonzero value cannot be
        # compared there, and `agree` raises KeyError as a lookup of the
        # first such target does
        self.missing = next((x for x in targets if x not in dens), None)

    def agree(self, mono: Poly, value) -> bool:
        """Whether every row agrees, the images read from the group's
        memos as `Poly.weyl_image` reads them; the first row that differs
        ends the scan."""
        group, n = self.group, mono.n
        (e,) = mono.d
        if value and self.missing is not None:
            raise KeyError(self.missing)
        vd = value.d if value else None
        kmul, kimage, kaddmul = _k.kmul, _k.kimage, _k.kaddmul
        for x, den, entries, target in self.rows:
            left = {}
            for y, memo, num, scalar in entries:
                if memo is None:
                    img = {e: 1}
                else:
                    img = memo.get(e)
                    if img is None:
                        img = kimage(memo, e, group.columns(y), n)
                if scalar is None:
                    img, scalar = kmul(num, img), 1
                kaddmul(left, img, scalar)
            right = kmul(den, _image_terms(group, x, vd, n)) if vd and target else {}
            if left != right:
                return False
        return True


def images_agree(group, f: Poly, h: Poly, pairs) -> bool:
    """Whether g(f) == x(h) for every pair (g, x) of element indices, the
    images compared on kernel dicts as `_image_terms` builds them; the
    first pair that differs ends the scan."""
    n, fd, hd = f.n, f.d, h.d
    return all(
        _image_terms(group, g, fd, n) == _image_terms(group, x, hd, n) for g, x in pairs
    )


class RatFun:
    """Fraction of polynomials, not brought to lowest terms: unless
    `reduce=False`, it becomes its quotient over 1 when the denominator
    divides the numerator, and is kept as given otherwise.  Equality is by
    cross-multiplication."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None, reduce: bool = True):
        if den is None:
            den = Poly.const(num.n, 1)
        if den.is_zero():
            raise DivisionByZeroDenominator("zero denominator")
        if num.is_zero():
            den = Poly.const(num.n, 1)
        elif reduce:
            if den.is_constant():
                if den.constant_value() != 1:
                    num = num * (Fraction(1) / Fraction(den.constant_value()))
                    den = Poly.const(num.n, 1)
            else:
                q = num.divexact(den)
                if q is not None:
                    num = q
                    den = Poly.const(num.n, 1)
        self.num = num
        self.den = den

    @classmethod
    def from_scalar(cls, n, c) -> "RatFun":
        return cls(Poly.const(n, c))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFun(other if isinstance(other, Poly) else Poly.const(self.num.n, other))
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        raise TypeError("RatFun is unhashable (no canonical form)")

    def __add__(self, other):
        other = self._coerce(other)
        if self.den == other.den:
            return RatFun(self.num + other.num, self.den)
        return RatFun(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFun(-self.num, self.den, reduce=False)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RatFun(self.num * other, self.den, reduce=False)
        other = self._coerce(other)
        return RatFun(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.num.is_zero():
            raise DivisionByZeroDenominator("division by zero rational function")
        return RatFun(self.num * other.den, self.den * other.num)

    def __pow__(self, m: int):
        if m == 0:
            return RatFun.from_scalar(self.num.n, 1)
        if m < 0:
            if self.num.is_zero():
                raise DivisionByZeroDenominator("negative power of zero")
            return RatFun(self.den ** (-m), self.num ** (-m))
        return RatFun(self.num ** m, self.den ** m, reduce=False)

    def _coerce(self, other) -> "RatFun":
        if isinstance(other, RatFun):
            return other
        if isinstance(other, Poly):
            return RatFun(other)
        if isinstance(other, (int, Fraction)):
            return RatFun(Poly.const(self.num.n, other))
        raise TypeError(f"cannot coerce {other!r}")

    def substitute_linear(self, matrix) -> "RatFun":
        return RatFun(self.num.substitute_linear(matrix), self.den.substitute_linear(matrix))

    def weyl_image(self, group, g: int) -> "RatFun":
        """g(self) by element index (see `Poly.weyl_image`).  g is a ring
        automorphism fixing constants, so a reduced fraction (den 1, or den
        not dividing num) stays reduced and needs no second division."""
        if g == group.identity:
            return self
        return RatFun(
            self.num.weyl_image(group, g), self.den.weyl_image(group, g), reduce=False
        )

    def polynomial(self) -> Poly | None:
        """The quotient num/den if it is a polynomial, else None; a constant
        denominator scales num instead of dividing."""
        c = self.den.constant_value() if self.den.is_constant() else 0
        if c == 1:
            return self.num
        if c:
            return self.num * Fraction(1, c)
        return self.num.divexact(self.den)

    def is_homogeneous(self) -> bool:
        return self.num.is_homogeneous() and self.den.is_homogeneous()

    def degree(self) -> int:
        """num degree minus den degree; meaningful for homogeneous values."""
        return self.num.degree() - self.den.degree()

    def artifact_degree(self) -> int:
        return 2 * self.degree()

    def __repr__(self):
        if self.den.is_constant() and self.den.constant_value() == 1:
            return f"RatFun({self.num!r})"
        return f"RatFun({self.num!r} / {self.den!r})"


def primitive_form(weight: tuple) -> tuple:
    """Split a nonzero integer weight as c * form, with c a nonzero integer
    and form primitive: coprime entries, the first nonzero one positive.
    A setting's weight table splits each of its weights once."""
    g = 0
    for x in weight:
        if type(x) is not int:
            raise InternalInvariantError(f"weight {weight!r} is not an integer vector")
        g = gcd(g, x)
    if not g:
        raise ZeroWeight("zero weight has zero Euler class")
    if next(x for x in weight if x) < 0:
        g = -g
    return g, tuple(x // g for x in weight)


def _ratio(a, b):
    """a / b for nonzero exact rationals, an int when integral."""
    if type(a) is int and type(b) is int and a % b == 0:
        return a // b
    return _k.norm_coeff(Fraction(a) / b)


class EulerClass:
    """A product of weights kept factored: scalar * prod(form ** mult) over
    the primitive forms of a weight table (`repdata.WeightTable`), the
    multiplicities packed into one int, a field of `table.width` bits per
    form.  The gcds and signs of the weights are folded into the nonzero
    rational scalar, so two classes are equal exactly when scalars and packed
    counts are; a product adds the packed counts, and a field that reaches
    its top bit raises rather than carry into the next.  Classes over
    different tables do not combine or compare: that raises."""

    __slots__ = ("table", "scalar", "counts")

    def __init__(self, table, scalar=1, counts=0):
        if not scalar:
            raise InternalInvariantError("an Euler class has a nonzero scalar")
        if counts & table.guard:
            raise InternalInvariantError("an Euler class overflows its count fields")
        self.table = table
        self.scalar = scalar
        self.counts = counts

    @property
    def forms(self) -> dict:
        """{primitive form: multiplicity}, in sorted form order."""
        table = self.table
        return {f: m for f, m in zip(table.forms, table.unpack(self.counts)) if m}

    def __mul__(self, other):
        if isinstance(other, EulerClass):
            if self.table is not other.table:
                raise InternalInvariantError("Euler classes over different weight tables")
            return EulerClass(self.table, self.scalar * other.scalar, self.counts + other.counts)
        if isinstance(other, (int, Fraction)):
            return EulerClass(self.table, _k.norm_coeff(self.scalar * other), self.counts)
        return NotImplemented

    def __neg__(self):
        return EulerClass(self.table, -self.scalar, self.counts)

    def __eq__(self, other):
        if not isinstance(other, EulerClass):
            return NotImplemented
        if self.table is not other.table:
            raise InternalInvariantError("Euler classes over different weight tables")
        return self.scalar == other.scalar and self.counts == other.counts

    def expand(self) -> Poly:
        """The product as a dense polynomial, a fresh Poly on every call: the
        scalar times the table's expansion of the forms (`WeightTable.product`,
        computed once per count vector)."""
        d = self.table.product(self.counts).d
        return _wrap(self.table.n, dict(d) if self.scalar == 1 else _k.kscale(d, self.scalar))

    def __truediv__(self, other: "EulerClass") -> RatFun:
        """self / other as a reduced RatFun: the counts cancel by a fieldwise
        min and only the forms left over are expanded, each side read from
        the table's products.  Distinct primitive forms are coprime
        irreducibles, so nothing further divides."""
        table = self.table
        if table is not other.table:
            raise InternalInvariantError("Euler classes over different weight tables")
        a, b = table.unpack(self.counts), table.unpack(other.counts)
        num = table.product(table.pack([max(x - y, 0) for x, y in zip(a, b)])).d
        den = table.product(table.pack([max(y - x, 0) for x, y in zip(a, b)])).d
        ratio = _ratio(self.scalar, other.scalar)
        return RatFun(
            _wrap(table.n, dict(num) if ratio == 1 else _k.kscale(num, ratio)),
            _wrap(table.n, dict(den)),
            reduce=False,
        )

    def __repr__(self):
        forms = " * ".join(
            f"{list(f)}" + (f"^{m}" if m > 1 else "") for f, m in self.forms.items()
        )
        return f"EulerClass({coeff_str(self.scalar)}" + (f" * {forms})" if forms else ")")


def monomials_up_to(n: int, degree: int) -> list:
    """Exponent tuples of every monomial in n variables of total degree at
    most `degree`, by degree, then in combinations_with_replacement order."""
    out = []
    for d in range(degree + 1):
        for combo in combinations_with_replacement(range(n), d):
            e = [0] * n
            for k in combo:
                e[k] += 1
            out.append(tuple(e))
    return out
