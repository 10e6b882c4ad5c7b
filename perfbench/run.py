"""Benchmark of `qhecke check` and its report commands.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload check-matrix --seed 1 --seconds 10 --trace 0

Runs one workload in a fresh single-threaded interpreter (perfbench/worker.py,
PYTHONHASHSEED=0, the checkout's `src` first on the path), then checks the
program's outputs with perfbench/verify.py, outside the measured process.
Prints a line with the kernel, Python version and source identity, then as
the last line one JSON object: correct, attempted, failed and the metrics
(end-to-end with --trace 0, per-layer with --trace 1).  Exits 2 when the
checkout has no qhecke sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKER_DEADLINE_S = 150  # leaves time to verify within 180 s


def source_identity() -> dict:
    """git sha when the checkout is a repository, and a hash of the sources."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "qhecke")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
        sha = proc.stdout.strip() or None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def end_to_end(worker: dict) -> dict:
    return {
        "check_s": {"value": worker["check_s"], "unit": "s"},
        "query_s": {"value": worker["query_s"], "unit": "s"},
        "setup_s": {"value": worker["setup_s"], "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not os.path.isfile(os.path.join(SRC, "qhecke", "cli.py")):
        print(f"error: no qhecke sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = os.path.join(HERE, "out", f"{args.workload}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = dict(os.environ, PYTHONHASHSEED="0", PYTHONPATH=SRC, OMP_NUM_THREADS="1")
    env.pop("QHECKE_PURE", None)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--run-dir", run_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, timeout=WORKER_DEADLINE_S)
    except subprocess.TimeoutExpired:
        print(f"error: worker ran over {WORKER_DEADLINE_S} s", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: worker exited with {proc.returncode}", file=sys.stderr)
        return 1
    with open(os.path.join(run_dir, "worker.json"), encoding="utf-8") as fh:
        worker = json.load(fh)
    if not os.path.abspath(worker["qhecke_file"]).startswith(SRC + os.sep):
        print(f"error: imported qhecke from {worker['qhecke_file']}", file=sys.stderr)
        return 1

    import verify

    presets, _ = workloads.plan(args.workload, args.seed)
    try:
        problems = verify.check_run(worker, presets, run_dir)
    except (KeyError, TypeError, ValueError) as exc:
        # a report not laid out as the checks expect is not a correct output
        problems = [f"unreadable report: {exc!r}"]
    for p in problems[:20]:
        print(f"incorrect: {p}", file=sys.stderr)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "kernel": worker["kernel"],
        "python": sys.version.split()[0],
        **source_identity(),
        "rounds": worker["rounds"],
        "setup_times": worker["setup_times"],
        "check_times": worker["check_times"],
        "query_times": worker["query_times"],
        "setup_wall": worker["setup_wall"],
        "check_wall": worker["check_wall"],
        "query_wall": worker["query_wall"],
        "probe": worker["probe"],
        "elapsed_s": round(time.monotonic() - started, 3),
        "problems": len(problems),
    }
    print(json.dumps({"info": info}))
    metrics = worker["per_layer"] if args.trace else end_to_end(worker)
    result = {
        "correct": not problems,
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
