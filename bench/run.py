"""Host-time benchmark of smosim on three workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Runs repetitions of one workload, one at a time, each in a fresh process
(``bench/rep.py``) with single-threaded BLAS, until ``--seconds`` have passed
(at least three). Every repetition's outputs are checked and digested; a
repetition fails if it raises, breaks a check, or its digest differs from the
first one's.

With ``--trace 0`` the end-to-end metrics are the medians over repetitions.
With ``--trace 1`` traced and untraced repetitions alternate; the per-layer
metrics come from the median traced repetition, and ``trace.overhead_ratio``
is the traced median ``run_vs_ref`` over the untraced one. Metric names and units come
from ``BENCHMARK.json``. Details go to ``bench/out/``; the last stdout line is
the JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
MIN_REPS = 3
REP_TIMEOUT_S = 60
# stop starting repetitions here, so a run ends well inside its time limit
HARD_STOP_S = 140


def spawn_rep(workload: str, seed: int, trace: bool) -> dict[str, Any]:
    """One repetition in a fresh child process; always returns a result dict."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    cmd = [sys.executable, str(BENCH / "rep.py"), "--workload", workload, "--seed", str(seed)]
    if trace:
        cmd.append("--trace")
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(cmd + ["--t0", repr(t0)], capture_output=True, text=True,
                              env=env, cwd=ROOT, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"errors": [f"no result within {REP_TIMEOUT_S} s"]}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"errors": [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]}
    return json.loads(lines[-1])


def spawn_rep_warmup() -> str | None:
    """Import smosim once in a throwaway process, so timed processes start warm."""
    proc = subprocess.run([sys.executable, str(BENCH / "rep.py"), "--warmup"],
                          capture_output=True, text=True, cwd=ROOT, timeout=REP_TIMEOUT_S)
    return None if proc.returncode == 0 else proc.stderr.strip()[-400:]


def git_sha() -> str | None:
    """Commit of the checkout, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def median_of(reps: list[dict[str, Any]], key: str) -> float:
    return statistics.median(r[key] for r in reps)


def run_vs_ref(reps: list[dict[str, Any]]) -> float:
    return statistics.median(r["run_s"] / r["ref_s"] for r in reps)


def end_to_end(reps: list[dict[str, Any]]) -> dict[str, float]:
    return {
        "setup_s": median_of(reps, "setup_s"),
        "run_vs_ref": run_vs_ref(reps),
        "peak_rss_mb": median_of(reps, "peak_rss_mb"),
        # recorded, not gated: they move with the host's speed swings
        "run_s": median_of(reps, "run_s"),
        "sim_events_per_s": statistics.median(r["events"] / r["run_s"] for r in reps),
    }


def median_rep(reps: list[dict[str, Any]]) -> dict[str, Any]:
    """The repetition with the median ``run_vs_ref`` (the lower one of two)."""
    ordered = sorted(reps, key=lambda r: r["run_s"] / r["ref_s"])
    return ordered[(len(ordered) - 1) // 2]


def per_layer(traced: list[dict[str, Any]], untraced: list[dict[str, Any]]) -> dict[str, float]:
    """Layer metrics of the median traced repetition, so that they come from
    one run and its layer shares add up to at most 1."""
    layers = dict(median_rep(traced)["layers"])
    layers["trace.overhead_ratio"] = run_vs_ref(traced) / run_vs_ref(untraced)
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "smosim" / "__init__.py").is_file():
        print(f"error: no smosim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    began = time.monotonic()
    deadline = began + args.seconds
    warm = spawn_rep_warmup()
    if warm is not None:
        print(f"error: warm-up process failed: {warm}", file=sys.stderr)
        return 2

    reps: list[dict[str, Any]] = []
    while (len(reps) < MIN_REPS * (1 + args.trace) or time.monotonic() < deadline) \
            and time.monotonic() - began < HARD_STOP_S:
        traced = bool(args.trace) and len(reps) % 2 == 1
        rep = spawn_rep(args.workload, args.seed, traced)
        rep["traced"] = traced
        if "digest" in rep and reps and "digest" in reps[0] \
                and rep["digest"] != reps[0]["digest"]:
            rep["errors"].append(f"digest {rep['digest']} differs from the first repetition's")
        reps.append(rep)

    failed = [r for r in reps if r["errors"]]
    timed = [r for r in reps if not r["errors"]] or [r for r in reps if "run_s" in r]
    untraced = [r for r in timed if not r["traced"]]
    traced_reps = [r for r in timed if r["traced"]]
    if not untraced or (args.trace and not traced_reps):
        for r in failed:
            print(f"failed repetition: {r['errors']}", file=sys.stderr)
        print("error: no repetition ran to the end", file=sys.stderr)
        return 1
    values = per_layer(traced_reps, untraced) if args.trace else end_to_end(untraced)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 2

    digests = sorted({r["digest"] for r in reps if "digest" in r})
    env = {"nproc": os.cpu_count(), "python": reps[0].get("python"),
           "numpy": reps[0].get("numpy"), "git_sha": git_sha()}
    summary = {
        "workload": args.workload, "seed": args.seed, "default_seed": workloads.DEFAULT_SEED,
        "derived_seeds": workloads.derived_seeds(args.seed), "seconds": args.seconds,
        "trace": args.trace, "env": env, "attempted": len(reps), "failed": len(failed),
        "failed_share": len(failed) / len(reps), "samples": len(untraced),
        "digests": digests, "metrics": values,
        "reps": [{k: v for k, v in r.items() if k not in ("layers", "counters", "spans")}
                 for r in reps],
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"results-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(summary, indent=1) + "\n")
    if args.trace:
        shown = median_rep(traced_reps)
        trace_file = OUT / f"trace-{args.workload}.json"
        trace_file.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "traced_samples": len(traced_reps), "untraced_samples": len(untraced),
            "trace.overhead_ratio": values["trace.overhead_ratio"],
            "layers": {k: {"value": v, "unit": tracing.unit_of(k)} for k, v in values.items()},
            "counters": shown["counters"], "spans": shown["spans"],
        }) + "\n")

    print(f"workload {args.workload} seed {args.seed} (default {workloads.DEFAULT_SEED}) "
          f"trace {args.trace}")
    print(f"env nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"git={env['git_sha']}")
    print(f"repetitions attempted={len(reps)} failed={len(failed)} "
          f"failed_share={len(failed) / len(reps)} samples={len(untraced)}")
    print(f"digest {' '.join(digests) or 'none'}")
    for r in failed:
        print(f"failed repetition: {'; '.join(r['errors'])}")
    if args.trace:
        print(f"trace file {trace_file.relative_to(ROOT)} (traced samples {len(traced_reps)})")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    if not args.trace:
        print(f"run_s {values['run_s']} s, sim_events_per_s {values['sim_events_per_s']} 1/s "
              f"(host-speed dependent, not gated)")
    print(json.dumps({"correct": not failed and len(digests) == 1, "attempted": len(reps),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
