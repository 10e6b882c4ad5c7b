"""Checks of the program's outputs made apart from the program.

Each check takes outputs as the program wrote them and returns a list of
problems; an empty list means the output passed.  The facts they compare
with are known values (group orders, numbers of positive roots, degrees of
the basic invariants) or are recomputed here with sympy from the roots of
type A and GL, which this module builds itself.  No stored copy of an
earlier output is used.
"""

from __future__ import annotations

import json
import os
import re
from math import factorial, prod

import sympy

# label -> (|W|, |positive roots|, degrees of the basic invariants)
KNOWN = {
    "A2": (6, 3, (2, 3)),
    "B2": (8, 4, (2, 4)),
    "G2": (12, 6, (2, 6)),
    "A3": (24, 6, (2, 3, 4)),
    "A4": (120, 10, (2, 3, 4, 5)),
    "B4": (384, 16, (2, 4, 6, 8)),
    "C4": (384, 16, (2, 4, 6, 8)),
    "D4": (192, 12, (2, 4, 4, 6)),
    "F4": (1152, 24, (2, 6, 8, 12)),
}

# order of s_0 s_1, for the braid reports
BRAID_ORDER = {"A2": 3, "A3": 3, "B2": 4, "G2": 6}


def known(group: str):
    if group.startswith("GL"):
        d = int(group[2:])
        return factorial(d), d * (d - 1) // 2, tuple(range(1, d + 1))
    return KNOWN[group]


def positive_roots(group: str):
    """Positive roots as coordinate vectors: type A in simple-root
    coordinates (alpha_i + ... + alpha_j), GL_d as e_i - e_j."""
    if group.startswith("GL"):
        d = int(group[2:])
        out = []
        for i in range(d):
            for j in range(i + 1, d):
                v = [0] * d
                v[i], v[j] = 1, -1
                out.append(tuple(v))
        return out
    if group[0] != "A":
        raise ValueError(f"no independent root list for {group}")
    n = int(group[1:])
    return [tuple(1 if i <= k <= j else 0 for k in range(n)) for i in range(n) for j in range(i, n)]


def _gens(n):
    return sympy.symbols(f"x0:{n}")


def to_sympy(pairs, n):
    """A `[[exponents], "p/q"]` list, as the program prints polynomials."""
    if not pairs:
        return sympy.Poly(0, *_gens(n))
    return sympy.Poly.from_dict({tuple(e): sympy.Rational(c) for e, c in pairs}, *_gens(n))


def _direction(vec):
    """A nonzero vector scaled so that its first nonzero entry is 1."""
    lead = next(c for c in vec if c)
    return tuple(sympy.Rational(c) / lead for c in vec)


def root_factor_count(pairs, n, roots):
    """Number of root linear factors of a polynomial, with multiplicity, or
    None when it is zero or has a factor that is not a multiple of a root."""
    poly = to_sympy(pairs, n)
    if poly.is_zero:
        return None
    lines = {_direction(r) for r in roots}
    count = 0
    for factor, mult in sympy.factor_list(poly)[1]:
        if not factor.is_homogeneous or factor.total_degree() != 1:
            return None
        if _direction([factor.coeff_monomial(g) for g in _gens(n)]) not in lines:
            return None
        count += mult
    return count


# -- checks -------------------------------------------------------------------


def check_statuses(report) -> list:
    """Every check in a `check` or `localize` report, or of the oracle, passed."""
    checks = report.get("checks")
    if checks is None:
        checks = report.get("result", {}).get("checks")
    if not checks:
        return ["report lists no checks"]
    return [f"check {c['name']} is {c['status']}" for c in checks if c["status"] != "pass"]


def check_group_facts(facts, preset) -> list:
    """|W|, #positive roots, #cosets and the length generating function."""
    order, npos, degrees = known(preset.group)
    out = []
    if facts["order"] != order:
        out.append(f"{preset.key}: |W| = {facts['order']}, expected {order}")
    if facts["positive_roots"] != npos:
        out.append(f"{preset.key}: {facts['positive_roots']} positive roots, expected {npos}")
    if facts["coset_count"] != preset.coset_count:
        out.append(f"{preset.key}: {facts['coset_count']} cosets, expected {preset.coset_count}")
    q = sympy.Symbol("q")
    poincare = sympy.expand(prod(sum(q**k for k in range(d)) for d in degrees))
    got = sum(c * q**k for k, c in enumerate(facts["length_counts"]))
    if sympy.expand(got - poincare) != 0:
        out.append(f"{preset.key}: sum of q^l(w) is {got}, expected {poincare}")
    return out


def check_inversion_triples(report, preset) -> list:
    """The inversions suite covers rank * |W|^2 / 2 triples per weight set."""
    order = known(preset.group)[0]
    want = preset.rank * order * order // 2
    rows = [c for c in report["checks"] if c["name"].startswith("inversions:")]
    if len(rows) != 2:
        return [f"{preset.key}: {len(rows)} inversion results, expected 2"]
    out = []
    for c in rows:
        m = re.fullmatch(r"(\d+) triples", c["details"])
        if not m or int(m.group(1)) != want:
            out.append(f"{preset.key}: inversions details {c['details']!r}, expected {want} triples")
    return out


def check_euler(report, preset) -> list:
    """Every Lambda_w is a product of root linear forms; for nil Hecke
    presets there are exactly |positive roots| of them."""
    n = preset.ambient_rank
    roots = positive_roots(preset.group)
    npos = known(preset.group)[1]
    out = []
    rows = report["result"]["lambda"]
    if len(rows) != known(preset.group)[0]:
        out.append(f"{preset.key}: {len(rows)} Lambda values, expected |W|")
    for row in rows:
        count = root_factor_count(row["value"], n, roots)
        if count is None:
            out.append(f"{preset.key}: Lambda at {row['word']} is not a product of roots")
        elif preset.family == "nil" and count != npos:
            out.append(f"{preset.key}: Lambda at {row['word']} has {count} root factors, expected {npos}")
    return out


def check_localize(report, preset) -> list:
    """Every denominator of every localized generator is a product of roots."""
    n = preset.ambient_rank
    roots = positive_roots(preset.group)
    out = check_statuses(report)
    seen = {}
    entries = 0
    for name, rows in report["result"]["generators"].items():
        for row in rows:
            entries += 1
            key = json.dumps(row["denominator"])
            if key not in seen:
                seen[key] = root_factor_count(row["denominator"], n, roots)
            if seen[key] is None:
                out.append(f"{preset.key}: denominator in {name} is not a product of roots")
    if not entries:
        out.append(f"{preset.key}: localize report has no matrix entries")
    return out


def check_braid(report, preset) -> list:
    """nil Hecke braid defects vanish; KLR defect coefficients are polynomials."""
    result = report["result"]
    n = preset.ambient_rank
    out = []
    want = 3 if preset.family == "klr" else BRAID_ORDER[preset.group]
    if result["order"] != want:
        out.append(f"{preset.key}: braid order {result['order']}, expected {want}")
    for row in result["coefficients"]:
        num, den = row["coefficient"]["numerator"], row["coefficient"]["denominator"]
        if preset.family == "nil":
            if num:
                out.append(f"{preset.key}: nonzero braid defect at {row['word']}")
        elif num and not sympy.div(to_sympy(num, n), to_sympy(den, n))[1].is_zero:
            out.append(f"{preset.key}: braid coefficient at {row['word']} is not a polynomial")
    if preset.family == "nil" and result["all_zero"] is not True:
        out.append(f"{preset.key}: braid report says all_zero = {result['all_zero']}")
    return out


def divided_difference(pairs, n, k):
    """(s_k f - f) / alpha_k for type A_n in simple-root coordinates, where
    s_k(alpha_j) = alpha_j - a_kj alpha_k and alpha_k is the variable x_k."""
    x = _gens(n)
    f = to_sympy(pairs, n).as_expr()

    def a(i, j):
        return 2 if i == j else (-1 if abs(i - j) == 1 else 0)

    sf = f.subs({x[j]: x[j] - a(k, j) * x[k] for j in range(n)}, simultaneous=True)
    q, r = sympy.div(sympy.Poly(sympy.expand(sf - f), *x), sympy.Poly(x[k], *x))
    if not r.is_zero:
        raise ValueError("divided difference left a remainder")
    return q


def check_act(report, preset, argv) -> list:
    """A nil Hecke crossing acts on a polynomial as the divided difference."""
    args = dict(zip(argv[1::2], argv[2::2]))
    m = re.fullmatch(r"s\((\d+),(\d+)\)", args["--expr"])
    if preset.family != "nil" or not m:
        return []
    n = preset.ambient_rank
    comp, k = args["--component"], int(m.group(2))
    want = divided_difference(json.loads(args["--poly"]), n, k)
    image = report["result"]["image"]
    got = to_sympy(image.get(comp, []), n)
    if set(image) - {comp} or not (got - want).is_zero:
        return [f"{preset.key}: act image {image} is not the divided difference {want.as_expr()}"]
    return []


def check_describe(report, preset) -> list:
    """`describe` gives the known |W|, number of roots and number of cosets."""
    result = report["result"]
    order, npos, _ = known(preset.group)
    got = (result["big_group_order"], len(result["roots"]), result["coset_count"])
    if got != (order, 2 * npos, preset.coset_count):
        return [f"{preset.key}: describe gives |W|, #roots, #cosets = {got}, "
                f"expected {(order, 2 * npos, preset.coset_count)}"]
    return []


# -- a whole run ----------------------------------------------------------------


def check_run(worker: dict, presets, run_dir: str) -> list:
    """All checks on one run's outputs, operations that failed excluded."""
    by_key = {p.key: p for p in presets}
    problems = []
    for key, facts in worker["facts"].items():
        problems += check_group_facts(facts, by_key[key])
    for op in worker["ops"]:
        preset = by_key[op["preset"]]
        if op["kind"] == "oracle":
            if "checks" in op:
                problems += check_statuses(op)
            continue
        if op.get("exit") != 0:
            continue  # counted as failed, not as incorrect
        with open(os.path.join(run_dir, op["report"]), encoding="utf-8") as fh:
            report = json.load(fh)
        command = op["argv"][0]
        if command == "check":
            problems += check_statuses(report)
            if any(c["name"].startswith("inversions:") for c in report["checks"]):
                problems += check_inversion_triples(report, preset)
        elif command == "euler":
            problems += check_euler(report, preset)
        elif command == "localize":
            problems += check_localize(report, preset)
        elif command == "braid":
            problems += check_braid(report, preset)
        elif command == "act":
            problems += check_act(report, preset, op["argv"])
        elif command == "describe":
            problems += check_describe(report, preset)
    return problems
