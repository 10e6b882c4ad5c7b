"""Command-line interface: describe, check, braid, act, localize, euler,
preset.  Configs and reports are JSON with exact rationals as "p/q" strings;
all orderings are deterministic so reports reproduce bit-for-bit.

Operator expressions use a small grammar:

    expr   := term (('+'|'-') term)*
    term   := factor ('*' factor)*
    factor := '1(' i ')' | 'z(' i ',' t ')' | 's(' i ',' k ')'
            | rational | '(' expr ')'

Indices are 0-based into the coset table and the simple-root list.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import time
import traceback
from fractions import Fraction

from . import algebra, localize, presets, repdata
from .config import Config, build_setting, check_degree_bound, emit_config, load_json, parse_config
from .errors import InternalInvariantError, NonIntegralResult, ParseError, QheckeError, UnknownIndex
from .polyops import KERNEL_NAME, Poly, RatFun, monomials_up_to
from .report import CheckResult, verdict
from .rootcore import build_root_datum
from .subgroup import factorization_check, length_comparison_check, member_of_W, parabolic_checks, s_adapted


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, expected: str):
        self.skip_ws()
        if not self.text.startswith(expected, self.pos):
            raise ParseError(f"expected {expected!r}", self.pos)
        self.pos += len(expected)

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            raise ParseError("expected an integer", start)
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # a digit int() refuses, or too many digits
            raise ParseError(f"bad integer {self.text[start : self.pos]!r}", start) from None


def parse_opexpr(text: str, setting) -> algebra.TwistedOperator:
    """Parse and evaluate an operator expression against a built setting."""
    toks = _Tokens(text)
    try:
        op = _parse_expr(toks, setting)
    except RecursionError:
        raise ParseError("expression nested too deeply", toks.pos) from None
    toks.skip_ws()
    if toks.pos != len(text):
        raise ParseError("trailing input", toks.pos)
    return op


def _check_index(i: int, table):
    if not 0 <= i < len(table.indices):
        raise UnknownIndex(f"coset index {i} out of range")


def _parse_expr(toks, setting):
    sign = 1
    if toks.peek() == "-":
        toks.take("-")
        sign = -1
    op = _parse_term(toks, setting)
    if sign < 0:
        op = op.scale(-1)
    while toks.peek() in ("+", "-"):
        if toks.peek() == "+":
            toks.take("+")
            op = op + _parse_term(toks, setting)
        else:
            toks.take("-")
            op = op - _parse_term(toks, setting)
    return op


def _parse_term(toks, setting):
    op = _parse_factor(toks, setting)
    while toks.peek() == "*":
        toks.take("*")
        op = op * _parse_factor(toks, setting)
    return op


def _parse_factor(toks, setting):
    datum, table = setting.datum, setting.table
    ch = toks.peek()
    if ch == "(":
        toks.take("(")
        op = _parse_expr(toks, setting)
        toks.take(")")
        return op
    if ch == "1" and toks.text.startswith("1(", toks.pos):
        toks.take("1(")
        i = toks.integer()
        toks.take(")")
        _check_index(i, table)
        return algebra.gen_unit(table, i)
    if ch == "z":
        toks.take("z(")
        i = toks.integer()
        toks.take(",")
        t = toks.integer()
        toks.take(")")
        _check_index(i, table)
        if not 0 <= t < datum.ambient_rank:
            raise UnknownIndex(f"variable index {t} out of range")
        return algebra.gen_var(table, i, t)
    if ch == "s":
        toks.take("s(")
        i = toks.integer()
        toks.take(",")
        k = toks.integer()
        toks.take(")")
        _check_index(i, table)
        if not 0 <= k < datum.rank:
            raise UnknownIndex(f"simple reflection index {k} out of range")
        return algebra.gen_sigma(setting, i, k)
    # rational scalar: integer with optional /denominator
    num = toks.integer()
    if toks.peek() == "/":
        toks.take("/")
        den = toks.integer()
        if den == 0:
            raise ParseError("zero denominator", toks.pos)
        scalar = Fraction(num, den)
    else:
        scalar = Fraction(num)
    # scalar multiple of the identity operator
    out = algebra.TwistedOperator(table)
    for i in table.indices:
        out = out + algebra.gen_unit(table, i).scale(scalar)
    return out


def _ratfun_json(c: RatFun):
    return {
        "numerator": c.num.to_pairs(),
        "denominator": c.den.to_pairs(),
    }


def _module_element_json(m: dict):
    return {str(i): f.to_pairs() for i, f in sorted(m.items())}


def _fp_matrix_json(mat, group):
    rows = []
    for (x, y) in sorted(mat):
        rows.append(
            {
                "x_word": list(group.reduced_word(x)),
                "y_word": list(group.reduced_word(y)),
                **_ratfun_json(mat[(x, y)]),
            }
        )
    return rows


def run_checks(cfg: Config, selected=None) -> tuple:
    """Run the selected named check suites on a config; returns the
    CheckResults, the wall seconds of building the setting, the wall
    seconds of each suite by name, and the sizes of the setting: |W_big|,
    |W|, #I and the number of checks."""
    t0 = time.perf_counter()
    setting = build_setting(cfg)
    setup_seconds = time.perf_counter() - t0
    datum, sub, table = setting.datum, setting.sub, setting.table
    suites = {}
    suites["suitability"] = lambda: repdata.validate(setting, strict=cfg.strict_suitability)
    suites["coset"] = lambda: _coset_checks(table)
    suites["length"] = lambda: length_comparison_check(sub)
    suites["factorization"] = lambda: _factorization_checks(sub)
    suites["fibers"] = lambda: repdata.fiber_split_check(setting)
    suites["relations"] = lambda: algebra.check_relations(setting)
    suites["grading"] = lambda: algebra.generator_grading_check(setting)
    suites["euler"] = lambda: localize.euler_identities_check(setting)
    suites["localization"] = lambda: _localization_checks(setting)
    suites["leading"] = lambda: localize.leading_term_suite(setting)
    suites["inversions"] = lambda: (
        localize.inversion_additivity_suite(table.group, datum.positive_roots)
        + localize.inversion_additivity_suite(
            table.group, tuple(tuple(-x for x in a) for a in datum.positive_roots)
        )
    )
    suites["integrality"] = lambda: _integrality_checks(setting, cfg.degree_bound)
    suites["products"] = lambda: _product_checks(setting, cfg.seed, cfg.degree_bound)

    if selected is None:
        selected = cfg.checks if cfg.checks is not None else sorted(suites)
    if not selected or "" in selected or len(set(selected)) < len(selected):
        raise ParseError(
            f"check suites must be a non-empty list of distinct names, got {selected!r}"
        )
    for name in selected:
        if name not in suites:
            raise UnknownIndex(f"unknown check suite {name!r}")
    results = []
    seconds = {}
    for name in selected:
        t0 = time.perf_counter()
        suite_results = suites[name]()
        seconds[name] = time.perf_counter() - t0
        results += [dataclasses.replace(r, name=f"{name}:{r.name}") for r in suite_results]
    sizes = {
        "big_group_order": len(table.group),
        "group_order": sub.group_order,
        "cosets": len(table.indices),
        "checks": len(results),
    }
    return results, setup_seconds, seconds, sizes


def _localization_checks(setting) -> list:
    """Pathway agreement, intertwining and equivariance, the first two
    sharing one crossing matrix per (i, s)."""
    matrices = localize.crossing_matrices(setting)
    return (
        localize.pathway_agreement_check(setting, matrices)
        + localize.intertwining_check(setting, matrices=matrices)
        + localize.theta_equivariance_check(setting)
    )


def _all_generators(setting):
    datum, table = setting.datum, setting.table
    gens = []
    for i in table.indices:
        gens.append((f"unit({i})", algebra.gen_unit(table, i)))
        for t in range(datum.ambient_rank):
            gens.append((f"var({i},{t})", algebra.gen_var(table, i, t)))
        for s in range(datum.rank):
            gens.append((f"crossing({i},{s})", algebra.gen_sigma(setting, i, s)))
    return gens


def _integrality_checks(setting, degree_bound: int) -> list:
    """Generators stay polynomial on every monomial up to the degree bound.

    A generator whose coefficients all have constant denominators is
    integral on every polynomial, and is not applied: each term c*g(f) is a
    polynomial times a nonzero rational times the image of f under an
    integer substitution.  These are the units, the variables, the crossings
    across a wall and the divided differences q*(s - 1)/alpha_s with alpha_s
    dividing q; the decision reads the denominators, not the kind.  Every other
    generator is swept: applied to every monomial up to the degree bound, on
    the cosets its terms read, since it sends every other component to zero.
    That sweep is the documented property test, not a proof.
    """
    n = setting.datum.ambient_rank
    monos = monomials_up_to(n, degree_bound)
    failures = _nonintegral_images(_all_generators(setting), setting.table, n, monos)
    return [verdict("generators-integral", failures, f"degree bound {degree_bound}")]


def _nonintegral_images(gens, table, n: int, monos):
    """(generator, component, monomial) wherever a generator of `gens` with
    a non-constant denominator leaves the polynomials, generator by
    generator."""
    for name, gen in gens:
        if all(c.den.is_constant() for c in gen.terms.values()):
            continue
        sources = {table.act_elem(i, g) for (i, g) in gen.terms}
        for i in table.indices:
            if i not in sources:
                continue
            for e in monos:
                try:
                    gen.apply({i: Poly.monomial(n, e)})
                except NonIntegralResult:
                    yield {"generator": name, "component": i, "monomial": e}


def _product_checks(setting, seed: int, degree_bound: int) -> list:
    """Sampled associativity and module-action compatibility."""
    import random

    rng = random.Random(seed)
    gens = _all_generators(setting)
    n = setting.datum.ambient_rank
    monos = monomials_up_to(n, min(degree_bound, 2))

    def failures():
        for _ in range(12):
            (na, A), (nb, B), (nc, C) = (rng.choice(gens) for _ in range(3))
            if (A * B) * C != A * (B * C):
                yield {"triple": (na, nb, nc)}
            i = rng.randrange(len(setting.table.indices))
            m = {i: Poly.monomial(n, rng.choice(monos))}
            if (A * B).apply(m) != A.apply(B.apply(m)):
                yield {"pair": (na, nb), "monomial": True}

    return [verdict("associativity-sampled", failures(), "12 seeded triples")]


def _coset_checks(table) -> list:
    sub, group = table.sub, table.group
    pos_big = sub.datum._positive_set
    target = set(sub.positives)
    reps = set(table.reps)

    def noncanonical():
        for g in range(len(group)):
            ginv = group.inv(g)
            P = {a for a in sub.roots if group.act(ginv, a) in pos_big}
            if (P == target) != (g in reps):
                yield {"element": group.reduced_word(g)}

    def bad_actions():
        for i in table.indices:
            for k in range(sub.datum.rank):
                j = table.act(i, k)
                if j != i:
                    if table.reps[j] != group.mul(table.reps[i], group.simple[k]):
                        yield {"i": i, "k": k}
                else:
                    conj = group.mul(
                        group.mul(table.reps[i], group.simple[k]), group.inv(table.reps[i])
                    )
                    if not member_of_W(sub, conj) or conj not in sub.members:
                        yield {"i": i, "k": k}

    def ill_defined():
        for i in table.indices:
            for k1 in range(sub.datum.rank):
                for k2 in range(sub.datum.rank):
                    lhs = table.act(table.act(i, k1), k2)
                    prod = group.mul(group.simple[k1], group.simple[k2])
                    if lhs != table.act_elem(i, prod):
                        yield {"i": i, "pair": (k1, k2)}

    return [
        verdict("canonical-reps-unique", noncanonical(), f"#W_big={len(group)}"),
        verdict("action-and-stabilizers", bad_actions()),
        CheckResult(
            "counting",
            len(table.indices) * sub.group_order == len(group),
            f"#I * #W = {len(table.indices)} * {sub.group_order}",
        ),
        verdict("action-well-defined", ill_defined()),
    ]


def _factorization_checks(sub) -> list:
    """The subsets J of the big simples that are S-adapted; then, for each
    J, the two checks of J alone followed by the two-sided check of (J, K)
    for every adapted K."""
    from itertools import combinations

    rank = sub.datum.rank
    adapted = []
    for size in range(rank + 1):
        for J in combinations(range(rank), size):
            if s_adapted(sub, J):
                adapted.append(J)
    results = [
        CheckResult(
            "adapted-subsets",
            bool(adapted),
            f"{len(adapted)} adapted subsets incl. empty and full",
        )
    ]
    cache = {}
    for J in adapted:
        results += parabolic_checks(sub, J, cache)
        for K in adapted:
            results += factorization_check(sub, J, K, cache)
    return results


def cmd_describe(cfg: Config) -> dict:
    setting = build_setting(cfg)
    datum, sub, table, data = setting.datum, setting.sub, setting.table, setting.data
    group = sub.group
    out = {
        "ambient_rank": datum.ambient_rank,
        "rank": datum.rank,
        "big_group_order": len(group),
        "roots": [list(r) for r in datum.roots],
        "subsystem_roots": [list(r) for r in sorted(sub.roots)],
        "subsystem_order": sub.group_order,
        "coset_count": len(table.indices),
        "legend": {
            str(i): list(group.reduced_word(table.rep(i))) for i in table.indices
        },
    }
    if data.borel_flag:
        out["h_table"] = {
            str(i): [repdata.h_count(setting, i, s) for s in range(datum.rank)]
            for i in table.indices
        }
    out["q_table"] = {
        str(i): [repdata.q_poly(setting, i, s).to_pairs() for s in range(datum.rank)]
        for i in table.indices
    }
    return out


def cmd_braid(cfg: Config, i: int, s: int, t: int) -> dict:
    setting = build_setting(cfg)
    _check_index(i, setting.table)
    for k in (s, t):
        if not 0 <= k < setting.datum.rank:
            raise UnknownIndex(f"simple reflection index {k} out of range")
    group = setting.group
    m = group.braid_order(s, t)
    if m not in (3, 4, 6):
        raise ParseError(f"braid needs simple reflections s, t of order 3, 4 or 6; got order {m}")
    defect = algebra.braid_defect(setting, i, s, t)
    rows = []
    for g in sorted(defect.coefficients, key=lambda g: (group.length(g), g)):
        c = defect.coefficients[g]
        rows.append(
            {
                "word": list(defect.words[g]),
                "coefficient": _ratfun_json(c),
                "polynomial": defect.polynomial_flags[g],
            }
        )
    return {
        "order": defect.order,
        "coefficients": rows,
        "all_polynomial": defect.all_polynomial(),
        "all_zero": defect.all_zero(),
    }


def cmd_act(cfg: Config, expr: str, component: int | None, poly_pairs) -> dict:
    if component is None and poly_pairs is not None:
        raise ParseError("--poly needs --component")
    setting = build_setting(cfg)
    datum, sub, table = setting.datum, setting.sub, setting.table
    op = parse_opexpr(expr, setting)
    n = datum.ambient_rank
    if component is None:
        results = {}
        for i in table.indices:
            results[str(i)] = _module_element_json(op.apply({i: Poly.const(n, 1)}))
        return {"operator_terms": _operator_json(op, sub.group), "unit_images": results}
    _check_index(component, table)
    f = Poly.const(n, 1) if poly_pairs is None else Poly.from_pairs(n, poly_pairs)
    m = {component: f} if f else {}
    return {
        "operator_terms": _operator_json(op, sub.group),
        "image": _module_element_json(op.apply(m)),
    }


def _operator_json(op, group):
    rows = []
    for (i, g) in sorted(op.terms):
        rows.append(
            {
                "component": i,
                "word": list(group.reduced_word(g)),
                "coefficient": _ratfun_json(op.terms[(i, g)]),
            }
        )
    return rows


def cmd_localize(cfg: Config, timings: dict) -> dict:
    """The multiplicity-formula matrix 1/E of every crossing generator, and
    the pathway and intertwining checks on one shared set of Lambda-cleared
    crossing matrices.  Fills `timings` with the seconds of building the
    setting (`setup_s`) and of each part: the reported 1/E matrices
    (`generators_s`), the crossing matrices (`matrices_s`), the pathway
    checks (`pathway_s`) and intertwining (`intertwining_s`)."""
    clock = time.perf_counter
    marks = [clock()]
    setting = build_setting(cfg)
    marks.append(clock())
    group = setting.group
    one = Poly.const(setting.datum.ambient_rank, 1)
    out = {"generators": {}}
    for i in setting.table.indices:
        for s in range(setting.datum.rank):
            # the multiplicity formula's entries 1/E, before clearing by Lambda
            cells = localize.crossing_cells(setting, i, s)
            mat = {(x, y): RatFun(one, e.expand()) for x, y, e in cells}
            out["generators"][f"sigma({i},{s})"] = _fp_matrix_json(mat, group)
    marks.append(clock())
    matrices = localize.crossing_matrices(setting)
    marks.append(clock())
    checks = localize.pathway_agreement_check(setting, matrices)
    marks.append(clock())
    checks += localize.intertwining_check(setting, matrices=matrices)
    marks.append(clock())
    out["checks"] = [r.as_dict() for r in checks]
    parts = ("setup_s", "generators_s", "matrices_s", "pathway_s", "intertwining_s")
    for key, start, end in zip(parts, marks, marks[1:]):
        timings[key] = round(end - start, 3)
    return out


def cmd_euler(cfg: Config) -> dict:
    setting = build_setting(cfg)
    datum, table, group = setting.datum, setting.table, setting.group
    out = {"lambda": [], "crossing_cells": []}
    for g, lam in enumerate(setting.lambdas):
        out["lambda"].append(
            {"word": list(group.reduced_word(g)), "value": lam.expand().to_pairs()}
        )
    for g in range(len(group)):
        i = table.coset_of[g]
        for s in range(datum.rank):
            value = localize.eu_zbar_s(setting, g, s)
            out["crossing_cells"].append(
                {
                    "word": list(group.reduced_word(g)),
                    "s": s,
                    "value": value.expand().to_pairs(),
                    "diagonal": table.stab(i, s),
                }
            )
    return out


def cmd_preset(name: str, quiver_json: str | None) -> Config:
    for prefix, preset in (("nilhecke:", presets.preset_nilhecke), ("skew:", presets.preset_skew)):
        if name.startswith(prefix):
            label = name[len(prefix) :]
            build_root_datum(label)  # refuses an unknown label; builds no group
            return preset(label)
    if name == "klr":
        if not quiver_json:
            raise ParseError("klr preset needs --quiver")
        raw = load_json(quiver_json, "--quiver")
        if not isinstance(raw, dict):
            raise ParseError("quiver must be a JSON object")
        unknown = set(raw) - {"vertices", "arrows", "dimension"}
        if unknown:
            raise ParseError(f"unknown quiver fields {sorted(unknown)}")
        missing = {"vertices", "arrows", "dimension"} - set(raw)
        if missing:
            raise ParseError(f"quiver needs fields {sorted(missing)}")
        quiver = presets.QuiverSpec(raw["vertices"], raw["arrows"], raw["dimension"])
        return presets.preset_klr(quiver)
    raise ParseError(f"unknown preset {name!r}")


def _load_config(path: str) -> Config:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="qhecke",
        description="exact construction and verification of twisted convolution algebras",
    )
    sub_parsers = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="config JSON path")
        p.add_argument("--out", help="report JSON path (default stdout)")

    p = sub_parsers.add_parser("describe", help="group, subsystem, cosets, h/q tables")
    add_common(p)
    p = sub_parsers.add_parser("check", help="run verification suites")
    add_common(p)
    p.add_argument("--checks", help="comma-separated suite names")
    p.add_argument("--strict", action="store_true", help="strict suitability")
    p.add_argument("--degree-bound", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p = sub_parsers.add_parser("braid", help="braid defect extraction at (i, s, t)")
    add_common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p = sub_parsers.add_parser("act", help="evaluate an operator expression")
    add_common(p)
    p.add_argument("--expr", required=True)
    p.add_argument("--component", type=int, default=None)
    p.add_argument("--poly", help="JSON list of [exponents, coefficient] pairs")
    p = sub_parsers.add_parser("localize", help="fixed-point matrices and cross-checks")
    add_common(p)
    p = sub_parsers.add_parser("euler", help="Euler class tables")
    add_common(p)
    p = sub_parsers.add_parser("preset", help="emit a preset config")
    p.add_argument("--name", required=True, help="nilhecke:LABEL | skew:LABEL | klr")
    p.add_argument("--quiver", help="quiver JSON for klr")
    p.add_argument("--out", help="output path (default stdout)")

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.time()
    try:
        if args.command == "preset":
            cfg = cmd_preset(args.name, args.quiver)
            text = emit_config(cfg)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            else:
                print(text)
            return 0

        cfg = _load_config(args.config)
        if args.command == "check":
            if args.strict:
                cfg.strict_suitability = True
            if args.degree_bound is not None:
                cfg.degree_bound = check_degree_bound(args.degree_bound, "--degree-bound")
            if args.seed is not None:
                cfg.seed = args.seed
            selected = None if args.checks is None else args.checks.split(",")
            results, setup_seconds, suite_seconds, sizes = run_checks(cfg, selected)
            report = {
                "config_echo": json.loads(emit_config(cfg)),
                "checks": [r.as_dict() for r in results],
                "timings": {
                    "total_s": round(time.time() - t0, 3),
                    "setup_s": round(setup_seconds, 3),
                    "suites": {k: round(v, 3) for k, v in suite_seconds.items()},
                    "kernel": KERNEL_NAME,
                    "sizes": sizes,
                },
            }
            _emit(report, args.out)
            return _exit_status(report["checks"])

        timings = {}  # filled by the localize command
        handlers = {
            "describe": lambda: cmd_describe(cfg),
            "braid": lambda: cmd_braid(cfg, args.i, args.s, args.t),
            "act": lambda: cmd_act(
                cfg,
                args.expr,
                args.component,
                None if args.poly is None else load_json(args.poly, "--poly"),
            ),
            "localize": lambda: cmd_localize(cfg, timings),
            "euler": lambda: cmd_euler(cfg),
        }
        payload = handlers[args.command]()
        report = {
            "config_echo": json.loads(emit_config(cfg)),
            "result": payload,
            "timings": {"total_s": round(time.time() - t0, 3), **timings},
        }
        _emit(report, args.out)
        return _exit_status(payload["checks"]) if args.command == "localize" else 0
    except InternalInvariantError as exc:
        print(f"internal invariant broken: {exc}", file=sys.stderr)
        return 3
    except (QheckeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 3


def _exit_status(checks) -> int:
    """1, naming the first failed check on stderr, when a check of the
    report's `checks` failed; 0 when all passed."""
    failed = next((c["name"] for c in checks if c["status"] != "pass"), None)
    if failed is None:
        return 0
    print(f"FAILED: {failed}", file=sys.stderr)
    return 1


def _emit(report: dict, out_path: str | None):
    """Write a report as one line of compact JSON with sorted keys, which
    json's C encoder writes (`python -m json.tool` indents it)."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


if __name__ == "__main__":
    sys.exit(main())
