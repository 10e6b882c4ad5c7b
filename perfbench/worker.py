"""One measured run of one workload, in a fresh interpreter.

Started by run.py with PYTHONHASHSEED fixed and the checkout's `src` first
on the path.  It sets up the workload several times (import, presets,
settings) and keeps the median, then runs whole rounds of the workload's
operations until `--seconds` have passed.  Every `qhecke` command goes
through `qhecke.cli.main(argv)` and writes its report into the run
directory, where run.py checks it afterwards.  Nothing here checks outputs,
so no checking cost lands in the timed regions or in the peak RSS.

Writes `worker.json` into the run directory; prints nothing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter

import workloads
from speed import DENSE_INTERVAL_S, MEAN_INTERVAL_S, Region, SpeedProbe

SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0


def import_qhecke():
    """A fresh import of the whole package, as a new process would do it."""
    for name in [m for m in sys.modules if m == "qhecke" or m.startswith("qhecke.")]:
        del sys.modules[name]
    importlib.import_module("qhecke.cli")


def build_presets(presets, run_dir):
    """Emit each preset's config with `qhecke preset`, parse it and build its
    setting.  Returns (failures, settings)."""
    from qhecke import cli, config

    settings = {}
    failures = []
    for p in presets:
        path = os.path.join(run_dir, f"{p.key}.config.json")
        rc = cli.main(["preset", *p.argv, "--out", path])
        if rc != 0:
            failures.append({"op": f"preset {p.key}", "exit": rc})
            continue
        with open(path, encoding="utf-8") as fh:
            cfg = config.parse_config(fh.read())
        settings[p.key] = config.build_setting(cfg)
    return failures, settings


def group_facts(presets, settings) -> dict:
    """Sizes the program computed, for run.py to compare with known values."""
    out = {}
    for p in presets:
        if p.key not in settings:
            continue
        datum, sub, table, data = settings[p.key]
        group = sub.group
        lengths = Counter(group.length(g) for g in range(len(group)))
        out[p.key] = {
            "order": len(group),
            "positive_roots": len(datum.positive_roots),
            "coset_count": len(table.indices),
            "length_counts": [lengths[k] for k in range(max(lengths) + 1)],
        }
    return out


def run_op(op, by_key, run_dir, index):
    """Run one operation; returns (ok, record)."""
    from qhecke import cli, presets

    if op.kind == "oracle":
        q = by_key[op.preset].quiver
        spec = presets.QuiverSpec(
            vertices=tuple(q["vertices"]),
            arrows=tuple(tuple(a) for a in q["arrows"]),
            dimension={v: q["dimension"][str(v)] for v in q["vertices"]},
        )
        results = presets.klr_oracle_check(spec)
        checks = [r.as_dict() for r in results]
        ok = all(r.passed for r in results)
        return ok, {"preset": op.preset, "kind": "oracle", "checks": checks}
    config_path = os.path.join(run_dir, f"{op.preset}.config.json")
    out_path = os.path.join(run_dir, f"op{index:03d}-{op.argv[0]}-{op.preset}.json")
    rc = cli.main([*op.argv, "--config", config_path, "--out", out_path])
    record = {"preset": op.preset, "kind": op.kind, "argv": list(op.argv),
              "exit": rc, "report": os.path.basename(out_path)}
    return rc == 0, record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--run-dir", required=True)
    args = ap.parse_args(argv)

    presets, ops = workloads.plan(args.workload, args.seed)
    by_key = {p.key: p for p in presets}
    attempted = 0
    failures = []
    tracer = None
    probe = SpeedProbe()
    probe.start()

    setups = []
    if not args.trace:
        # the first import also loads the standard library modules qhecke uses
        import_qhecke()
        probe.interval = DENSE_INTERVAL_S
    while True:
        region = Region(probe)
        if args.trace:
            # a single traced set-up; the wrappers go on the fresh modules
            import_qhecke()
            from tracing import Tracer

            tracer = Tracer()
            tracer.install()
            probe.on_sample = tracer.exclude
            fails, settings = region.time(tracer.region, "bench.setup", build_presets,
                                          presets, args.run_dir)
        else:
            region.time(import_qhecke)
            fails, settings = region.time(build_presets, presets, args.run_dir)
        setups.append(region)
        gc.collect()  # the modules of the previous import are garbage in cycles
        attempted += 2 * len(presets)
        failures += fails
        if args.trace or (
            len(setups) >= SETUP_MIN_REPEATS
            and sum(r.wall_ns for r in setups) >= SETUP_MIN_SECONDS * 1e9
        ):
            break
    probe.interval = MEAN_INTERVAL_S
    import qhecke
    from qhecke import polyops

    facts = group_facts(presets, settings)
    del settings

    rounds = []
    started = time.perf_counter()
    while True:
        check, query = Region(probe), Region(probe)
        records = []
        for index, op in enumerate(ops):
            attempted += 1
            gc.collect()  # each command starts on a clean heap, as in a fresh process
            region = query if op.kind == "query" else check
            wall = region.wall_ns
            try:
                if tracer is not None:
                    name = "cli.oracle" if op.kind == "oracle" else f"cli.{op.argv[0]}"
                    ok, record = region.time(tracer.region, name, run_op, op, by_key,
                                             args.run_dir, index)
                else:
                    ok, record = region.time(run_op, op, by_key, args.run_dir, index)
            except Exception:
                ok, record = False, {"preset": op.preset, "kind": op.kind,
                                     "error": traceback.format_exc()}
            record["wall_s"] = (region.wall_ns - wall) / 1e9
            records.append(record)
            if not ok:
                failures.append(record)
        rounds.append((check, query))
        if tracer is not None:
            tracer.uninstall()  # later rounds run untraced
            probe.on_sample = None
        if time.perf_counter() - started >= args.seconds:
            break
    probe.stop()

    every = probe.samples
    setup_samples = [ns for r in setups for ns in r.samples]
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "setup_times": [r.reference_s(setup_samples) for r in setups],
        "check_times": [c.reference_s(every) for c, _ in rounds],
        "query_times": [q.reference_s(every) for _, q in rounds],
        "setup_wall": [r.wall_ns / 1e9 for r in setups],
        "check_wall": [c.wall_ns / 1e9 for c, _ in rounds],
        "query_wall": [q.wall_ns / 1e9 for _, q in rounds],
        "probe": {"samples": len(every), "mean_ns": statistics.mean(every),
                  "min_ns": min(every), "max_ns": max(every)},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "kernel": polyops.KERNEL_NAME,
        "qhecke_file": qhecke.__file__,
        "facts": facts,
        "ops": records,
    }
    out["setup_s"] = statistics.median(out["setup_times"])
    out["check_s"] = statistics.median(out["check_times"])
    out["query_s"] = statistics.median(out["query_times"])
    if tracer is not None:
        out["per_layer"] = tracer.metrics()
        tracer.write(os.path.join(args.run_dir, "trace.jsonl"))
    with open(os.path.join(args.run_dir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
