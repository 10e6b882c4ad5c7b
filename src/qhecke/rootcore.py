"""Root data, Weyl groups, lengths and reduced words.

Roots live in an ambient character lattice Z^N that may exceed the span of
the simple roots (GL-style data keeps its central torus); pairings are plain
dot products against explicitly stored rational coroots, so one reflection
formula v -> v - <v, coroot> * root covers every case.  The roots are
generated from the simple roots by that formula, each carrying its integer
simple-root coordinates, whose signs tell positive from negative; a single
elimination per datum refuses dependent simple roots and coroots outside
their span.

Cartan labels are realized in simple-root coordinates (the ambient basis IS
the simple roots, coroots are the Cartan-matrix columns), which keeps every
reflection an integer matrix uniformly, including F4.  GL-style data uses the
standard e_a - e_b realization in Z^d.

Elements of the Weyl group are the permutations they induce on the roots;
the group object enumerates them once (desk scale) by composing the simple
reflections' permutations, recorded while the roots were generated, and
orders elements canonically by (length, reduced word).  Acting on a root,
multiplying, lengths, descents and reduced words are index lookups.
Integer matrices are built lazily from the reduced word and cached; acting
on a vector that is not a root goes through the matrix.  Polynomials are
acted on by element index (`Poly.weyl_image`): the image of each monomial
under an element is built once, from the image of a divisor one degree
lower, and kept in that element's memo here, so it lives as long as the
group does.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from ._kernel_py import MAX_VARS
from .errors import InvalidRootDatum

Vec = tuple

# the most elements a Weyl group may have: enumeration stops past it
MAX_GROUP_ORDER = 2_000_000

# Cartan matrices C[i][j] = <alpha_i, alpha_j^vee>, Bourbaki numbering.
def _cartan_a(n):
    C = [[0] * n for _ in range(n)]
    for i in range(n):
        C[i][i] = 2
        if i + 1 < n:
            C[i][i + 1] = -1
            C[i + 1][i] = -1
    return C


def _cartan_b(n):
    # alpha_n short: <alpha_{n-1}, alpha_n^vee> = -2
    C = _cartan_a(n)
    if n >= 2:
        C[n - 2][n - 1] = -2
    return C


def _cartan_c(n):
    # alpha_n long: <alpha_n, alpha_{n-1}^vee> = -2
    C = _cartan_a(n)
    if n >= 2:
        C[n - 1][n - 2] = -2
    return C


def _cartan_d(n):
    C = _cartan_a(n)
    if n >= 2:
        C[n - 2][n - 1] = 0
        C[n - 1][n - 2] = 0
    if n >= 3:
        C[n - 3][n - 1] = -1
        C[n - 1][n - 3] = -1
    return C


def _cartan_g2():
    return [[2, -1], [-3, 2]]


def _cartan_f4():
    return [
        [2, -1, 0, 0],
        [-1, 2, -2, 0],
        [0, -1, 2, -1],
        [0, 0, -1, 2],
    ]


_CARTAN_BUILDERS = {
    "A": (_cartan_a, range(1, 5)),
    "B": (_cartan_b, range(2, 5)),
    "C": (_cartan_c, range(2, 5)),
    "D": (_cartan_d, range(2, 5)),
}


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _vec(values) -> Vec:
    out = []
    for v in values:
        if type(v) is not int:
            f = Fraction(v)
            v = int(f) if f.denominator == 1 else f
        out.append(v)
    return tuple(out)


def _int_vec(values) -> Vec:
    if any(type(v) is not int for v in values):
        raise ValueError(f"not an integer vector: {values}")
    return tuple(values)


def _reflect(v, p, root) -> Vec:
    """v - p * root, where p is the pairing of v with root's coroot."""
    return _vec(x - p * y for x, y in zip(v, root))


def _vectors(name, values, n, convert) -> tuple:
    """A list field of a datum as vectors of n entries each: integers, or
    for coroots also exact rationals ("p/q" strings); no floats or booleans."""
    kind = "integers" if convert is _int_vec else 'integers or "p/q" rationals'
    if not isinstance(values, (list, tuple)):
        raise InvalidRootDatum(f"{name} must be a list of vectors, got {values!r}")
    out = []
    for v in values:
        if not isinstance(v, (list, tuple)) or len(v) != n:
            raise InvalidRootDatum(
                f"{name} entry {v!r} must be a list of ambient_rank = {n} numbers"
            )
        try:
            if any(isinstance(x, (bool, float)) for x in v):
                raise TypeError("float or boolean entry")
            out.append(convert(v))
        except (TypeError, ValueError, ZeroDivisionError):
            raise InvalidRootDatum(f"{name} entry {v!r} is not a vector of {kind}") from None
    return tuple(out)


def _check_span(simple_roots, coroots, n):
    """Refuse dependent simple roots and coroots outside their span: one
    forward elimination of the n x 2*rank matrix [simple roots | coroots]."""
    m = len(simple_roots)
    rows = [[Fraction(v[i]) for v in simple_roots + coroots] for i in range(n)]
    for col in range(m):
        pivot = next((i for i in range(col, n) if rows[i][col]), None)
        if pivot is None:
            raise InvalidRootDatum("simple_roots are linearly dependent")
        rows[col], rows[pivot] = rows[pivot], rows[col]
        top = rows[col]
        for i in range(col + 1, n):
            f = rows[i][col] / top[col]
            if f:
                rows[i] = [x - f * y for x, y in zip(rows[i], top)]
    for j, c in enumerate(coroots):
        if any(row[m + j] for row in rows[m:]):
            raise InvalidRootDatum(f"coroot {c} outside the root span")


def _is_positive(root, coords) -> bool:
    """The sign of a root, read off its simple-root coordinates."""
    if all(c >= 0 for c in coords):
        return True
    if all(c <= 0 for c in coords):
        return False
    raise InvalidRootDatum(f"root {root} is neither positive nor negative")


def _reflection_matrix(n, root, coroot):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c = (1 if i == j else 0) - root[i] * coroot[j]
            if type(c) is not int:
                if c.denominator != 1:
                    raise InvalidRootDatum(
                        f"reflection in {root} is not integral on the lattice"
                    )
                c = int(c)
            row.append(c)
        rows.append(tuple(row))
    return tuple(rows)


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def _mat_vec(m, v):
    return tuple(_dot(row, v) for row in m)


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class RootDatum:
    """Ambient lattice, roots, coroots and the generated positive system."""

    def __init__(self, ambient_rank, simple_roots, coroots, roots=None):
        # checked before any vector is built: a polynomial's packed key has
        # one field per ambient variable (`_kernel_py`)
        if type(ambient_rank) is not int or not 1 <= ambient_rank <= MAX_VARS:
            raise InvalidRootDatum(
                f"ambient_rank must be an integer from 1 to {MAX_VARS}, got {ambient_rank!r}"
            )
        self.ambient_rank = n = ambient_rank
        self.simple_roots = _vectors("simple_roots", simple_roots, n, _int_vec)
        self.simple_coroots = _vectors("coroots", coroots, n, _vec)
        if len(self.simple_roots) != len(self.simple_coroots):
            raise InvalidRootDatum("simple roots and coroots must align")
        self.rank = len(self.simple_roots)
        for a, c in zip(self.simple_roots, self.simple_coroots):
            if _dot(a, c) != 2:
                raise InvalidRootDatum(f"<{a}, {c}> != 2")
        _check_span(self.simple_roots, self.simple_coroots, n)
        self._simple_refl = tuple(
            _reflection_matrix(n, a, c)
            for a, c in zip(self.simple_roots, self.simple_coroots)
        )
        self._generate_roots()
        if roots is not None:
            if set(_vectors("roots", roots, n, _int_vec)) != set(self.roots):
                raise InvalidRootDatum("explicit roots differ from the generated system")
        self._positive_set = frozenset(self.positive_roots)
        self._negative_set = frozenset(tuple(-x for x in r) for r in self.positive_roots)
        pos, neg = self._positive_set, self._negative_set
        if pos | neg != set(self.roots) or pos & neg:
            raise InvalidRootDatum("roots are not a disjoint union of +/- positives")
        self._weyl = None

    def _generate_roots(self):
        """Close the simple roots under the simple reflections.

        Each root carries its simple-root coordinates (alpha_k starts at e_k,
        and s_k(r) has those of r minus <r, alpha_k^vee> e_k) and its coroot
        (s_k maps a coroot c to c - <alpha_k, c> alpha_k^vee).  Sets the
        sorted roots, the positive ones (read off the coordinates' signs),
        the coroot table and each simple reflection's permutation of the
        root indices.  Independent simple roots, checked before, keep every
        root nonzero and its coordinates unique."""
        simples = tuple(zip(self.simple_roots, self.simple_coroots))
        coords = {
            a: tuple(int(j == k) for j in range(self.rank))
            for k, a in enumerate(self.simple_roots)
        }
        coroot_of = dict(zip(self.simple_roots, self.simple_coroots))
        images = [{} for _ in simples]
        frontier = list(self.simple_roots)
        while frontier:
            new = []
            for r in frontier:
                for k, (a, av) in enumerate(simples):
                    p = _dot(r, av)
                    img = images[k][r] = _reflect(r, p, a)
                    if img not in coords:
                        c = coords[r]
                        coords[img] = c[:k] + (c[k] - p,) + c[k + 1:]
                        cv = coroot_of[r]
                        coroot_of[img] = _reflect(cv, _dot(a, cv), av)
                        new.append(img)
            frontier = new
            if len(coords) > 10000:
                raise InvalidRootDatum("root generation did not terminate (desk scale)")
        self.roots = tuple(sorted(coords))
        index = {r: i for i, r in enumerate(self.roots)}
        self._simple_perms = tuple(tuple(index[m[r]] for r in self.roots) for m in images)
        self._coroot_of = coroot_of
        self.positive_roots = tuple(r for r in self.roots if _is_positive(r, coords[r]))

    def coroot(self, root) -> Vec:
        return self._coroot_of[tuple(root)]

    def simple_reflection_matrix(self, k: int):
        return self._simple_refl[k]

    def weyl(self) -> "WeylGroup":
        if self._weyl is None:
            self._weyl = WeylGroup(self)
        return self._weyl

    def __repr__(self):
        return (
            f"RootDatum(ambient_rank={self.ambient_rank}, rank={self.rank}, "
            f"#roots={len(self.roots)})"
        )


class WeylGroup:
    """Finite Weyl group acting on the roots by permutations, ordered canonically.

    Element g is stored as the bytes p with datum.roots[p[i]] = g(datum.roots[i])
    (a faithful action: W fixes the common kernel of the coroots pointwise).
    Products compose permutations, lengths are breadth-first depths, and
    integer matrices are built only on request, from the reduced word, as
    are their columns and the per-element memos of monomial images
    (`monomial_images`).
    """

    def __init__(self, datum: RootDatum):
        self.datum = datum
        roots = datum.roots
        nroots = len(roots)
        # a byte holds each root index; every root system with more than 256
        # roots has more elements than the enumeration bound below (the
        # largest within it, such as B7 x A1, have about 100 roots)
        if nroots > 256:
            raise InvalidRootDatum("more than 256 roots exceeds desk scale")
        self.roots = roots
        self.root_index = {r: i for i, r in enumerate(roots)}
        # negative[i] == 1 iff roots[i] is a negative root
        self.negative = bytes(r in datum._negative_set for r in roots)
        self._simple_root_index = tuple(self.root_index[a] for a in datum.simple_roots)
        pad = bytes(256 - nroots)
        gens = tuple(bytes(p) for p in datum._simple_perms)
        ident = bytes(range(nroots))
        # breadth-first search by right multiplication: depth is length
        depth = {ident: 0}
        right = {}
        found = [ident]
        frontier = [ident]
        while frontier:
            d = depth[frontier[0]] + 1
            new = []
            for g in frontier:
                table = g + pad
                row = tuple(s.translate(table) for s in gens)
                right[g] = row
                for h in row:
                    if h not in depth:
                        depth[h] = d
                        new.append(h)
            found.extend(new)
            frontier = new
            if len(depth) > MAX_GROUP_ORDER:
                raise InvalidRootDatum("Weyl group enumeration exceeded desk scale")
        # reduced word: the reduced word of g s_k followed by k, for the
        # smallest right descent k (g(alpha_k) negative)
        words = {ident: ()}
        neg, simple_idx = self.negative, self._simple_root_index
        for g in found[1:]:
            k = next(k for k, i in enumerate(simple_idx) if neg[g[i]])
            words[g] = words[right[g][k]] + (k,)

        ordered = sorted(found, key=lambda g: (depth[g], words[g]))
        self.perms = tuple(ordered)
        self._index = {g: i for i, g in enumerate(ordered)}
        self._tables = tuple(g + pad for g in ordered)
        self._length = tuple(depth[g] for g in ordered)
        self._word = tuple(words[g] for g in ordered)
        self._right = tuple(tuple(self._index[h] for h in right[g]) for g in ordered)
        self.identity = self._index[ident]
        self.simple = tuple(self._index[s] for s in gens)
        self._inv = [None] * len(ordered)
        self._matrices = [None] * len(ordered)
        self._images = [None] * len(ordered)
        self._columns = [None] * len(ordered)

    def _perm_of(self, images) -> bytes:
        index = self.root_index
        try:
            return bytes(index[tuple(v)] for v in images)
        except KeyError:
            raise InvalidRootDatum("map does not permute the roots") from None

    def __len__(self):
        return len(self.perms)

    def from_root_images(self, images) -> int:
        """Index of the element sending datum.roots[i] to images[i]."""
        return self._index[self._perm_of(images)]

    def reflection(self, root) -> int:
        """Index of the reflection v -> v - <v, root^vee> root."""
        root = tuple(root)
        c = self.datum.coroot(root)
        return self.from_root_images(_reflect(v, _dot(v, c), root) for v in self.roots)

    def matrix(self, g: int):
        """Integer matrix of g: product of simple reflections along its word."""
        m = self._matrices[g]
        if m is None:
            word = self._word[g]
            if not word:
                m = _identity(self.datum.ambient_rank)
            else:
                k = word[-1]
                prefix = self._right[g][k]
                m = _mat_mul(self.matrix(prefix), self.datum._simple_refl[k])
            self._matrices[g] = m
        return m

    def monomial_images(self, g: int) -> dict:
        """The memo of g's action on monomials: packed monomial (the key
        layout of `_kernel_py`) -> kernel dict of its image under
        `matrix(g)`.  `polyops` fills and reads it: a monomial's entry
        comes with one for each divisor on its chain down to the constant
        monomial (`_kernel_py.kimage`)."""
        memo = self._images[g]
        if memo is None:
            memo = self._images[g] = {}
        return memo

    def columns(self, g: int) -> tuple:
        """The columns of `matrix(g)`, the images of the variables that
        `polyops` multiplies into the monomial images; read once per
        element."""
        cols = self._columns[g]
        if cols is None:
            cols = self._columns[g] = tuple(zip(*self.matrix(g)))
        return cols

    def mul(self, a: int, b: int) -> int:
        return self._index[self.perms[b].translate(self._tables[a])]

    def mul_word(self, word) -> int:
        g = self.identity
        right = self._right
        for k in word:
            g = right[g][k]
        return g

    def inv(self, a: int) -> int:
        r = self._inv[a]
        if r is None:
            p = self.perms[a]
            q = bytearray(len(p))
            for i, j in enumerate(p):
                q[j] = i
            r = self._index[bytes(q)]
            self._inv[a] = r
        return r

    def act(self, g: int, vec) -> Vec:
        """g applied to vec: a lookup for roots, the matrix for other vectors."""
        vec = tuple(vec)
        i = self.root_index.get(vec)
        if i is None:
            return _mat_vec(self.matrix(g), vec)
        return self.roots[self.perms[g][i]]

    def length(self, g: int) -> int:
        return self._length[g]

    def reduced_word(self, g: int) -> tuple:
        return self._word[g]

    def descends_right(self, g: int, k: int) -> bool:
        """True iff l(g s_k) < l(g), i.e. g(alpha_k) is negative."""
        return self.negative[self.perms[g][self._simple_root_index[k]]] == 1

    def braid_order(self, k1: int, k2: int) -> int:
        """Order m of s_{k1} s_{k2}."""
        prod = self.mul(self.simple[k1], self.simple[k2])
        m = 1
        g = prod
        while g != self.identity:
            g = self.mul(g, prod)
            m += 1
        return m


def build_root_datum(spec) -> RootDatum:
    """Root datum from a Cartan label, a GL-style spec, or explicit lists.

    Accepted specs: "A2".."A4", "B2".."B4", "C2".."C4", "D2".."D4", "G2",
    "F4", "GL2".."GL9" (or {"gl": d}), or a dict with ambient_rank,
    simple_roots, coroots and optionally roots.  An explicit datum needs an
    integer ambient_rank from 1 to MAX_VARS (16), simple roots and coroots
    of that many entries each, and linearly independent simple roots.  A
    GL datum past GL9 is refused up front, since S_10 already has more than
    MAX_GROUP_ORDER (2,000,000) elements; any other group larger than that
    is refused when it is enumerated.
    """
    if isinstance(spec, str):
        label = spec.strip().upper()
        if label.startswith("GL") and label[2:].isdigit():
            return _gl_datum(int(label[2:]))
        if label == "G2":
            return _cartan_datum(_cartan_g2())
        if label == "F4":
            return _cartan_datum(_cartan_f4())
        family, n = label[0:1], label[1:]
        if family in _CARTAN_BUILDERS and n.isdigit():
            builder, allowed = _CARTAN_BUILDERS[family]
            n = int(n)
            if n in allowed:
                return _cartan_datum(builder(n))
        raise InvalidRootDatum(f"unsupported label {spec!r}")
    if isinstance(spec, dict):
        if set(spec) == {"gl"}:
            if type(spec["gl"]) is not int:
                raise InvalidRootDatum(f"gl must be an integer, got {spec['gl']!r}")
            return _gl_datum(spec["gl"])
        unknown = set(spec) - {"ambient_rank", "simple_roots", "coroots", "roots"}
        if unknown:
            raise InvalidRootDatum(f"unknown root-datum fields {sorted(unknown)}")
        missing = {"ambient_rank", "simple_roots", "coroots"} - set(spec)
        if missing:
            raise InvalidRootDatum(f"root datum needs fields {sorted(missing)}")
        return RootDatum(
            spec["ambient_rank"], spec["simple_roots"], spec["coroots"], roots=spec.get("roots")
        )
    raise InvalidRootDatum(f"unsupported root datum spec {spec!r}")


def _cartan_datum(C) -> RootDatum:
    n = len(C)
    simples = [tuple(1 if j == k else 0 for j in range(n)) for k in range(n)]
    coroots = [tuple(C[i][k] for i in range(n)) for k in range(n)]
    return RootDatum(n, simples, coroots)


def _gl_datum(d: int) -> RootDatum:
    # GL_d has ambient rank d and Weyl group S_d: GL9, with 9! = 362,880
    # elements, is the largest whose group the enumeration accepts, so a
    # larger d is refused here rather than after 2,000,000 elements
    if not 2 <= d <= MAX_VARS:
        raise InvalidRootDatum(f"GL datum needs 2 <= d <= {MAX_VARS}, got {d}")
    if factorial(d) > MAX_GROUP_ORDER:
        raise InvalidRootDatum(
            f"GL datum GL{d} has a Weyl group of {d}! = {factorial(d):,} elements, "
            f"past the enumeration bound {MAX_GROUP_ORDER:,}"
        )
    simples = []
    for a in range(d - 1):
        v = [0] * d
        v[a], v[a + 1] = 1, -1
        simples.append(tuple(v))
    return RootDatum(d, simples, simples)
