"""The three benchmark workloads, as plans of program calls made from a seed.

A plan lists the presets a workload sets up and the operations one round
runs on them.  Every operation is either a `qhecke` command (argv for
`qhecke.cli.main`, without `--config` and `--out`, which the worker adds) or
a call of `presets.klr_oracle_check` on a quiver.

The seed only chooses inputs whose cost does not depend on the choice: the
polynomials handed to `act`, the coset an `act` runs on, and the order of
the `describe` calls.  The `products` suite keeps the config's seed, 0,
because the generator triples it draws cost more or less to multiply.  So
every seed runs the same amount of work, and the same seed runs the same
inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from math import factorial


@dataclass(frozen=True)
class Preset:
    key: str  # file-safe name, e.g. "nil-A3"
    family: str  # "nil", "skew" or "klr"
    group: str  # Cartan label, or "GL<d>" for the KLR presets
    argv: tuple  # arguments of `qhecke preset`
    quiver: dict | None = None  # vertices, arrows, dimension (KLR only)

    @property
    def rank(self) -> int:
        """Number of simple reflections of the big Weyl group."""
        return int(self.group[2:]) - 1 if self.group.startswith("GL") else int(self.group[1:])

    @property
    def ambient_rank(self) -> int:
        return int(self.group[2:]) if self.group.startswith("GL") else int(self.group[1:])

    @property
    def coset_count(self) -> int:
        """#I: 1 for nil Hecke and skew presets; the multinomial for KLR."""
        if self.quiver is None:
            return 1
        dims = self.quiver["dimension"].values()
        out = factorial(sum(dims))
        for v in dims:
            out //= factorial(v)
        return out


@dataclass(frozen=True)
class Op:
    kind: str  # "check", "oracle" or "query"
    preset: str  # Preset.key
    argv: tuple = ()  # `qhecke` argv without --config/--out; empty for "oracle"


def cartan(family: str, label: str) -> Preset:
    name = {"nil": "nilhecke", "skew": "skew"}[family]
    return Preset(f"{family}-{label}", family, label, ("--name", f"{name}:{label}"))


def klr(key: str, vertices, arrows, dimension) -> Preset:
    quiver = {
        "vertices": list(vertices),
        "arrows": [list(a) for a in arrows],
        "dimension": {str(v): n for v, n in zip(vertices, dimension)},
    }
    d = sum(dimension)
    argv = ("--name", "klr", "--quiver", json.dumps(quiver, sort_keys=True))
    return Preset(key, "klr", f"GL{d}", argv, quiver)


ARROW_22 = klr("klr-arrow-2-2", (1, 2), ((1, 2),), (2, 2))
JORDAN_3 = klr("klr-jordan-3", (1,), ((1, 1),), (3,))
A3_LINE_121 = klr("klr-a3line-1-2-1", (1, 2, 3), ((1, 2), (2, 3)), (1, 2, 1))
LOOP_ARROW_22 = klr("klr-looparrow-2-2", (1, 2), ((1, 1), (1, 2)), (2, 2))
ARROW_32 = klr("klr-arrow-3-2", (1, 2), ((1, 2),), (3, 2))
LOOP_ARROW_32 = klr("klr-looparrow-3-2", (1, 2), ((1, 1), (1, 2)), (3, 2))

PRESENTATION_SUITES = "suitability,coset,fibers,relations,grading,integrality,products"
COMBINATORICS_SUITES = "suitability,coset,length,fibers,factorization,inversions"


def random_poly(rng: random.Random, nvars: int, terms: int = 3, degree: int = 3):
    """`--poly` pairs: `terms` distinct monomials of total degree `degree`
    with nonzero integer coefficients, so the cost of `act` is the same for
    every seed."""
    monos = set()
    while len(monos) < terms:
        e = [0] * nvars
        for _ in range(degree):
            e[rng.randrange(nvars)] += 1
        monos.add(tuple(e))
    return [[list(e), str(rng.choice((-3, -2, -1, 1, 2, 3)))] for e in sorted(monos)]


def _act(preset: Preset, rng: random.Random, k: int) -> Op:
    i = rng.randrange(preset.coset_count)
    poly = json.dumps(random_poly(rng, preset.ambient_rank))
    argv = ("act", "--expr", f"s({i},{k})", "--component", str(i), "--poly", poly)
    return Op("query", preset.key, argv)


def check_matrix(rng: random.Random):
    presets = [cartan(f, L) for f in ("nil", "skew") for L in ("A2", "B2", "G2", "A3")]
    presets += [ARROW_22, JORDAN_3]
    ops = [Op("check", p.key, ("check",)) for p in presets]
    for key in ("nil-A3", "skew-A3", ARROW_22.key):
        ops.append(Op("query", key, ("euler",)))
        ops.append(Op("query", key, ("localize",)))
    for key in ("nil-B2", "nil-G2"):
        ops.append(Op("query", key, ("braid", "--i", "0", "--s", "0", "--t", "1")))
    nil_a3 = next(p for p in presets if p.key == "nil-A3")
    ops += [_act(nil_a3, rng, k) for k in range(nil_a3.rank)]
    return presets, ops


def klr_presentation(rng: random.Random):
    presets = [ARROW_22, A3_LINE_121, LOOP_ARROW_22, ARROW_32, LOOP_ARROW_32]
    ops = [Op("check", p.key, ("check", "--checks", PRESENTATION_SUITES)) for p in presets]
    ops += [Op("oracle", p.key) for p in presets]
    for p in presets:
        # every coset and every adjacent pair: a fixed batch whatever the seed
        for i in range(p.coset_count):
            for k in range(p.rank - 1):
                argv = ("braid", "--i", str(i), "--s", str(k), "--t", str(k + 1))
                ops.append(Op("query", p.key, argv))
        ops += [_act(p, rng, k) for k in range(p.rank)]
    return presets, ops


def rank4_combinatorics(rng: random.Random):
    presets = [cartan("nil", L) for L in ("A4", "B4", "C4", "D4", "F4")]
    ops = [Op("check", "nil-A4", ("check", "--checks", COMBINATORICS_SUITES))]
    described = ["nil-A4", "nil-B4", "nil-D4", "nil-F4"]
    rng.shuffle(described)
    ops += [Op("query", key, ("describe",)) for key in described]
    return presets, ops


WORKLOADS = {
    "check-matrix": check_matrix,
    "klr-presentation": klr_presentation,
    "rank4-combinatorics": rank4_combinatorics,
}


def plan(workload: str, seed: int):
    """(presets, ops) of one round of `workload` for `seed`."""
    return WORKLOADS[workload](random.Random(seed))
