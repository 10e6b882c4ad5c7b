"""Root data, Weyl groups, lengths, reduced words and Bruhat order.

Roots live in an ambient character lattice Z^N that may exceed the span of
the simple roots (GL-style data keeps its central torus); pairings are plain
dot products against explicitly stored rational coroots, so one reflection
formula v -> v - <v, coroot> * root covers every case.

Cartan labels are realized in simple-root coordinates (the ambient basis IS
the simple roots, coroots are the Cartan-matrix columns), which keeps every
reflection an integer matrix uniformly, including F4.  GL-style data uses the
standard e_a - e_b realization in Z^d.

Elements of the Weyl group are the permutations they induce on the roots;
the group object enumerates them once (desk scale) by composing the simple
reflections' permutations, and orders elements canonically by (length,
reduced word).  Acting on a root, multiplying, lengths, descents and reduced
words are index lookups.  Integer matrices are built lazily from the reduced
word and cached; acting on a vector that is not a root goes through the
matrix.  Polynomials are acted on by element index (`Poly.weyl_image`): the
image of each monomial under an element is substituted once and kept in
that element's memo here, so it lives as long as the group does.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidRootDatum

Vec = tuple

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
        f = Fraction(v)
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def _int_vec(values) -> Vec:
    out = tuple(int(v) for v in values)
    if any(Fraction(v) != o for v, o in zip(values, out)):
        raise InvalidRootDatum(f"root is not an integer vector: {values}")
    return out


def _reflection_matrix(n, root, coroot):
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c = (1 if i == j else 0) - root[i] * coroot[j]
            f = Fraction(c)
            if f.denominator != 1:
                raise InvalidRootDatum(
                    f"reflection in {root} is not integral on the lattice"
                )
            row.append(int(f))
        rows.append(tuple(row))
    return tuple(rows)


def _mat_mul(a, b):
    bt = tuple(zip(*b))
    return tuple(tuple(_dot(row, col) for col in bt) for row in a)


def _mat_vec(m, v):
    return tuple(_dot(row, v) for row in m)


def _mat_transpose(m):
    return tuple(zip(*m))


def _identity(n):
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


class RootDatum:
    """Ambient lattice, roots, coroots and the generated positive system."""

    def __init__(self, ambient_rank, simple_roots, coroots, roots=None):
        self.ambient_rank = ambient_rank
        self.simple_roots = tuple(_int_vec(a) for a in simple_roots)
        self.simple_coroots = tuple(_vec(c) for c in coroots)
        if len(self.simple_roots) != len(self.simple_coroots):
            raise InvalidRootDatum("simple roots and coroots must align")
        self.rank = len(self.simple_roots)
        self._simple_refl = tuple(
            _reflection_matrix(ambient_rank, a, c)
            for a, c in zip(self.simple_roots, self.simple_coroots)
        )
        gen_roots, coroot_of = self._generate_roots()
        if roots is not None:
            given = {_int_vec(r) for r in roots}
            if given != set(gen_roots):
                raise InvalidRootDatum("explicit roots differ from the generated system")
        self.roots = tuple(sorted(gen_roots))
        self._coroot_of = coroot_of
        self.positive_roots = tuple(sorted(r for r in self.roots if self._is_positive(r)))
        self._positive_set = frozenset(self.positive_roots)
        self._negative_set = frozenset(tuple(-x for x in r) for r in self.positive_roots)
        self._validate()
        self._weyl = None

    def _generate_roots(self):
        frontier = list(self.simple_roots)
        coroot_of = dict(zip(self.simple_roots, self.simple_coroots))
        seen = set(self.simple_roots)
        while frontier:
            new = []
            for r in frontier:
                for k, m in enumerate(self._simple_refl):
                    img = _mat_vec(m, r)
                    if img not in seen:
                        # coroot transforms by the inverse transpose; simple
                        # reflections are involutions so that is plain M^T.
                        mt = _mat_transpose(m)
                        coroot_of[img] = _vec(_mat_vec(mt, coroot_of[r]))
                        seen.add(img)
                        new.append(img)
            frontier = new
            if len(seen) > 10000:
                raise InvalidRootDatum("root generation did not terminate (desk scale)")
        return sorted(seen), coroot_of

    def _simple_combination(self, root):
        """Solve root = sum c_k alpha_k over Q, or None if outside the span."""
        n, m = self.ambient_rank, self.rank
        rows = [
            [Fraction(self.simple_roots[k][i]) for k in range(m)] + [Fraction(root[i])]
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

    def _is_positive(self, root):
        coeffs = self._simple_combination(root)
        if coeffs is None:
            raise InvalidRootDatum(f"root {root} outside the simple-root span")
        if all(c >= 0 for c in coeffs):
            return True
        if all(c <= 0 for c in coeffs):
            return False
        raise InvalidRootDatum(f"root {root} is neither positive nor negative")

    def _validate(self):
        root_set = set(self.roots)
        if any(not any(r) for r in root_set):
            raise InvalidRootDatum("zero vector among roots")
        for a, c in zip(self.simple_roots, self.simple_coroots):
            if _dot(a, c) != 2:
                raise InvalidRootDatum(f"<{a}, {c}> != 2")
            if self._simple_combination(_vec(c)) is None:
                raise InvalidRootDatum(f"coroot {c} outside the root span")
        for m in self._simple_refl:
            for r in root_set:
                if _mat_vec(m, r) not in root_set:
                    raise InvalidRootDatum("simple reflection does not permute the roots")
        pos = set(self.positive_roots)
        neg = {tuple(-x for x in r) for r in pos}
        if pos | neg != root_set or pos & neg:
            raise InvalidRootDatum("roots are not a disjoint union of +/- positives")

    def coroot(self, root) -> Vec:
        return self._coroot_of[tuple(root)]

    def pairing(self, v, coroot):
        return _dot(v, coroot)

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
    are the per-element memos of monomial images (`monomial_images`).
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
        gens = tuple(self._perm_of(_mat_vec(m, r) for r in roots) for m in datum._simple_refl)
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
            if len(depth) > 2000000:
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
        self._downset_cache = {}

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
        return self.from_root_images(
            tuple(x - _dot(v, c) * y for x, y in zip(v, root)) for v in self.roots
        )

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
        """The memo of g's action on monomials: exponent tuple -> kernel dict
        of its image under `matrix(g)`.  `polyops` fills and reads it."""
        memo = self._images[g]
        if memo is None:
            memo = self._images[g] = {}
        return memo

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

    def downset(self, g: int) -> frozenset:
        """All elements below g in Bruhat order (subword property)."""
        ds = self._downset_cache.get(g)
        if ds is None:
            cur = {self.identity}
            right = self._right
            for k in self._word[g]:
                cur |= {right[u][k] for u in cur}
            ds = frozenset(cur)
            self._downset_cache[g] = ds
        return ds

    def bruhat_leq(self, u: int, g: int) -> bool:
        return u in self.downset(g)

    def all_reduced_words(self, g: int):
        """Every reduced word of g (desk scale; used by exhaustive checks)."""
        if self._length[g] == 0:
            return [()]
        out = []
        for k in range(self.datum.rank):
            if self.descends_right(g, k):
                prev = self._right[g][k]
                out.extend(w + (k,) for w in self.all_reduced_words(prev))
        return out

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
    "F4", "GL2".."GL6" (or {"gl": d}), or a dict with ambient_rank,
    simple_roots, coroots and optionally roots.
    """
    if isinstance(spec, str):
        label = spec.strip().upper()
        if label.startswith("GL"):
            return _gl_datum(int(label[2:]))
        if label == "G2":
            return _cartan_datum(_cartan_g2())
        if label == "F4":
            return _cartan_datum(_cartan_f4())
        family, n = label[0], label[1:]
        if family in _CARTAN_BUILDERS and n.isdigit():
            builder, allowed = _CARTAN_BUILDERS[family]
            n = int(n)
            if n in allowed:
                return _cartan_datum(builder(n))
        raise InvalidRootDatum(f"unsupported label {spec!r}")
    if isinstance(spec, dict):
        if set(spec) == {"gl"}:
            return _gl_datum(int(spec["gl"]))
        unknown = set(spec) - {"ambient_rank", "simple_roots", "coroots", "roots"}
        if unknown:
            raise InvalidRootDatum(f"unknown root-datum fields {sorted(unknown)}")
        return RootDatum(
            int(spec["ambient_rank"]),
            [_int_vec(a) for a in spec["simple_roots"]],
            [_vec(c) for c in spec["coroots"]],
            roots=spec.get("roots"),
        )
    raise InvalidRootDatum(f"unsupported root datum spec {spec!r}")


def _cartan_datum(C) -> RootDatum:
    n = len(C)
    simples = [tuple(1 if j == k else 0 for j in range(n)) for k in range(n)]
    coroots = [tuple(C[i][k] for i in range(n)) for k in range(n)]
    return RootDatum(n, simples, coroots)


def _gl_datum(d: int) -> RootDatum:
    if d < 2:
        raise InvalidRootDatum("GL datum needs d >= 2")
    simples = []
    for a in range(d - 1):
        v = [0] * d
        v[a], v[a + 1] = 1, -1
        simples.append(tuple(v))
    return RootDatum(d, simples, simples)
