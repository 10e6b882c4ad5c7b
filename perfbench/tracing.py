"""Spans and counters around the public functions of qhecke, from outside.

`Tracer.install()` replaces each traced function by a wrapper, in its own
module and in every qhecke module that imported it by name, and replaces
traced methods on their classes.  Nothing in the program changes.

Three kinds of wrapper:

* span: records (id, parent, name, start, end, self time) in memory;
* hot span: for functions called hundreds of thousands of times (kernel
  ops, Euler classes, operator products, ...); each call is timed the same
  way, but calls are summed per (parent span, name) instead of kept one by
  one, so a traced run holds thousands of records, not millions;
* counter: counts calls only (Weyl group `mul` and `act`, a few lookups),
  whose bodies are too short to time.

Self time is a call's duration minus the time spent in traced calls it made.
The benchmark is single-threaded, so a stack of open calls gives it exactly.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter_ns

SUITES = {
    "suitability": ["qhecke.repdata:validate"],
    "coset": ["qhecke.cli:_coset_checks"],
    "length": ["qhecke.subgroup:length_comparison_check"],
    "factorization": ["qhecke.cli:_factorization_checks"],
    "fibers": ["qhecke.repdata:fiber_split_check"],
    "relations": ["qhecke.algebra:check_relations"],
    "grading": ["qhecke.algebra:generator_grading_check"],
    "euler": ["qhecke.localize:euler_identities_check"],
    "localization": [
        "qhecke.localize:pathway_agreement_check",
        "qhecke.localize:intertwining_check",
        "qhecke.localize:theta_equivariance_check",
    ],
    "leading": ["qhecke.localize:leading_term_suite"],
    "inversions": ["qhecke.localize:inversion_additivity_suite"],
    "integrality": ["qhecke.cli:_integrality_checks"],
    "products": ["qhecke.cli:_product_checks"],
}

# (target, span name): functions traced one span per call
SPANS = [
    ("qhecke.config:build_setting", "config.build_setting"),
    ("qhecke.rootcore:WeylGroup.__init__", "rootcore.weyl_group"),
    ("qhecke.subgroup:CosetTable.__init__", "subgroup.coset_table"),
    ("qhecke.subgroup:factorization_check", "subgroup.factorization_check"),
    ("qhecke.localize:lambda_table", "localize.lambda_table"),
    ("qhecke.algebra:braid_defect", "algebra.braid_defect"),
    ("qhecke.presets:klr_oracle_check", "presets.klr_oracle_check"),
    ("qhecke.cli:_emit", "cli.json_emit"),
] + [(t, t) for targets in SUITES.values() for t in targets]

# (target, span name): functions traced per call but summed per parent span
HOT = [
    ("qhecke.subgroup:CosetTable.fixed_points_of", "subgroup.fixed_points_of"),
    ("qhecke.repdata:fiber_weights", "repdata.fiber_weights"),
    ("qhecke.repdata:q_poly", "repdata.q_poly"),
    ("qhecke.localize:euler", "localize.euler"),
    ("qhecke.localize:tangent_n", "localize.tangent_n"),
    ("qhecke.localize:theta", "localize.theta"),
    ("qhecke.localize:fp_apply", "localize.fp_apply"),
    ("qhecke.localize:inversion_additivity_check", "localize.inversion_check"),
    ("qhecke.algebra:TwistedOperator.__mul__", "algebra.operator_mul"),
    ("qhecke.algebra:TwistedOperator.apply", "algebra.apply"),
    ("qhecke.polyops:Poly.to_pairs", "polyops.to_pairs"),
    ("qhecke.polyops:RatFun.__eq__", "polyops.ratfun_eq"),
]

COUNTERS = [
    ("qhecke.rootcore:WeylGroup.mul", "rootcore.mul"),
    ("qhecke.rootcore:WeylGroup.act", "rootcore.act"),
    ("qhecke.repdata:h_count", "repdata.h_count"),
    ("qhecke.algebra:gen_sigma", "algebra.gen_sigma"),
    ("qhecke.presets:QuiverOracle.crossing_word", "presets.crossing_word"),
]


def per_layer_names() -> list:
    """Every per-layer metric, in report order, with its unit."""
    out = [(f"suite.{s}_s", "s") for s in SUITES]
    out += [
        ("polyops.kmul_calls", "count"),
        ("polyops.kmul_s", "s"),
        ("polyops.kmul_term_products", "count"),
        ("polyops.kdivexact_calls", "count"),
        ("polyops.kdivexact_s", "s"),
        ("polyops.kdivexact_hit_ratio", "ratio"),
        ("polyops.ksubst_calls", "count"),
        ("polyops.ksubst_s", "s"),
        ("polyops.kadd_s", "s"),
        ("polyops.ratfun_eq_calls", "count"),
        ("polyops.ratfun_eq_s", "s"),
        ("polyops.max_terms", "count"),
        ("polyops.to_pairs_s", "s"),
        ("cli.json_emit_s", "s"),
        ("localize.euler_calls", "count"),
        ("localize.euler_s", "s"),
        ("localize.tangent_n_calls", "count"),
        ("localize.tangent_n_s", "s"),
        ("localize.lambda_table_s", "s"),
        ("localize.theta_calls", "count"),
        ("localize.theta_s", "s"),
        ("localize.fp_apply_s", "s"),
        ("localize.inversion_check_calls", "count"),
        ("localize.inversion_check_s", "s"),
        ("algebra.operator_mul_calls", "count"),
        ("algebra.operator_mul_s", "s"),
        ("algebra.apply_calls", "count"),
        ("algebra.apply_s", "s"),
        ("algebra.gen_sigma_calls", "count"),
        ("algebra.braid_defect_s", "s"),
        ("repdata.fiber_weights_calls", "count"),
        ("repdata.fiber_weights_s", "s"),
        ("repdata.q_poly_calls", "count"),
        ("repdata.q_poly_s", "s"),
        ("repdata.h_count_calls", "count"),
        ("presets.klr_oracle_check_s", "s"),
        ("presets.crossing_word_calls", "count"),
        ("rootcore.weyl_group_s", "s"),
        ("rootcore.weyl_group_calls", "count"),
        ("rootcore.mul_calls", "count"),
        ("rootcore.act_calls", "count"),
        ("subgroup.coset_table_s", "s"),
        ("subgroup.factorization_check_calls", "count"),
        ("subgroup.factorization_check_s", "s"),
        ("subgroup.fixed_points_of_calls", "count"),
        ("subgroup.fixed_points_of_s", "s"),
        ("config.build_setting_calls", "count"),
        ("config.build_setting_s", "s"),
    ]
    return out


def _resolve(target: str):
    """(owner, attribute name, original) for "module:func" or "module:Class.meth"."""
    modname, path = target.split(":")
    owner = importlib.import_module(modname)
    *classes, attr = path.split(".")
    for c in classes:
        owner = getattr(owner, c)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Collects spans, summed hot calls and counters for one traced run."""

    def __init__(self):
        self.t0 = perf_counter_ns()
        self.spans = []  # [id, parent, name, start_ns, end_ns, self_ns]
        self.hot = defaultdict(lambda: [0, 0, 0])  # (parent, name) -> calls, total, self
        self.counts = defaultdict(int)
        self.term_products = 0
        self.divexact_hits = 0
        self.max_terms = 0
        # open calls: [child_ns, id of the nearest recorded span]
        self.stack = [[0, 0]]
        self._undo = []

    # -- wrappers -------------------------------------------------------

    def span(self, name: str, fn):
        stack, spans, t0 = self.stack, self.spans, self.t0

        def wrapper(*args, **kwargs):
            sid = len(spans) + 1
            record = [sid, stack[-1][1], name, 0, 0, 0]
            spans.append(record)
            frame = [0, sid]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - start
                stack[-1][0] += dur
                record[3], record[4], record[5] = start - t0, end - t0, dur - frame[0]

        return wrapper

    def hot_span(self, name: str, fn, post=None):
        stack, hot = self.stack, self.hot
        by_parent = {}  # parent span id -> this function's [calls, total, self]

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [0, parent[1]]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - start
                stack.pop()
                parent[0] += dur
                agg = by_parent.get(parent[1])
                if agg is None:
                    agg = by_parent[parent[1]] = hot[(parent[1], name)]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[0]
            if post is not None:
                post(args, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- kernel bookkeeping ----------------------------------------------

    def _after_kmul(self, args, result):
        self.term_products += len(args[0]) * len(args[1])
        self._after_poly(args, result)

    def _after_kdivexact(self, args, result):
        if result is not None:
            self.divexact_hits += 1
            self._after_poly(args, result)

    def _after_poly(self, args, result):
        if len(result) > self.max_terms:
            self.max_terms = len(result)

    # -- installation -----------------------------------------------------

    def _replace(self, owner, attr, original, wrapper):
        """Swap `original` for `wrapper` on its owner and on every qhecke
        module that holds it under some name."""
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
        for modname, module in list(sys.modules.items()):
            if modname.startswith("qhecke") and module is not owner:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._undo.append((module, name, original))
                        setattr(module, name, wrapper)

    def install(self):
        for target, name in SPANS:
            owner, attr, fn = _resolve(target)
            self._replace(owner, attr, fn, self.span(name, fn))
        for target, name in HOT:
            owner, attr, fn = _resolve(target)
            self._replace(owner, attr, fn, self.hot_span(name, fn))
        for target, name in COUNTERS:
            owner, attr, fn = _resolve(target)
            self._replace(owner, attr, fn, self.counter(name, fn))
        # kernel ops are looked up on polyops._k at every call
        kernel = importlib.import_module("qhecke.polyops")._k
        posts = {
            "kmul": self._after_kmul,
            "kdivexact": self._after_kdivexact,
            "ksubst": self._after_poly,
            "kadd": self._after_poly,
        }
        for op, post in posts.items():
            fn = getattr(kernel, op)
            self._undo.append((kernel, op, fn))
            setattr(kernel, op, self.hot_span(f"polyops.{op}", fn, post))

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def exclude(self, ns: int):
        """Leave `ns` of time spent in the open call out of its self time."""
        self.stack[-1][0] += ns

    def region(self, name: str, fn, *args):
        """Call fn(*args) inside one recorded span named `name`."""
        return self.span(name, fn)(*args)

    # -- results ----------------------------------------------------------

    def totals(self):
        """name -> [calls, self_ns] over spans, hot calls and counters."""
        out = defaultdict(lambda: [0, 0])
        for _, _, name, _, _, self_ns in self.spans:
            out[name][0] += 1
            out[name][1] += self_ns
        for (_, name), (calls, _, self_ns) in self.hot.items():
            out[name][0] += calls
            out[name][1] += self_ns
        for name, calls in self.counts.items():
            out[name][0] += calls
        return out

    def _under_check(self):
        """Ids of spans that run inside a `qhecke check` command span."""
        inside = set()
        for sid, parent, name, *_ in self.spans:  # parents precede children
            if name == "cli.check" or parent in inside:
                inside.add(sid)
        return inside

    def metrics(self) -> dict:
        totals = self.totals()
        inside = self._under_check()
        suite_of = {t: s for s, targets in SUITES.items() for t in targets}
        suite_ns = defaultdict(int)
        for sid, _, name, _, _, self_ns in self.spans:
            if name in suite_of and sid in inside:
                suite_ns[suite_of[name]] += self_ns
        values = {f"suite.{s}_s": suite_ns[s] / 1e9 for s in SUITES}
        for name, unit in per_layer_names():
            if name in values:
                continue
            if name == "polyops.kmul_term_products":
                values[name] = self.term_products
            elif name == "polyops.kdivexact_hit_ratio":
                attempts = totals["polyops.kdivexact"][0]
                values[name] = self.divexact_hits / attempts if attempts else 0.0
            elif name == "polyops.max_terms":
                values[name] = self.max_terms
            elif name.endswith("_calls"):
                values[name] = totals[name[: -len("_calls")]][0]
            else:
                values[name] = totals[name[: -len("_s")]][1] / 1e9
        units = dict(per_layer_names())
        return {name: {"value": values[name], "unit": units[name]} for name, _ in per_layer_names()}

    def write(self, path: str):
        """Spans, then summed hot calls, then counters: one JSON object a line."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, start, end, self_ns in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start_ns": start, "end_ns": end, "self_ns": self_ns}) + "\n")
            for (parent, name), (calls, total, self_ns) in sorted(self.hot.items()):
                fh.write(json.dumps({"parent": parent, "name": name, "calls": calls,
                                     "total_ns": total, "self_ns": self_ns}) + "\n")
            for name, calls in sorted(self.counts.items()):
                fh.write(json.dumps({"name": name, "calls": calls}) + "\n")
