"""One benchmark repetition, run in a fresh process by ``bench/run.py``.

    python3 bench/rep.py --workload NAME --seed N --t0 T [--trace]
    python3 bench/rep.py --warmup

``--t0`` is the parent's CLOCK_MONOTONIC reading just before it started this
process, so ``setup_s`` covers interpreter start, the smosim import and
``config_from_dict``. ``run_s`` covers ``run_scenario`` and serialising the
outputs the way ``smosim run`` builds ``events.jsonl`` and ``report.json``.
``ref_s`` is the mean time of a fixed reference computation run just before
and just after, so ``run_s / ref_s`` measures the run in host-speed units.
The last stdout line is one JSON object with the timings, the output digest,
the output-check errors and, with ``--trace``, the per-layer metrics, counters
and spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import platform
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from typing import Any

import workloads

SRC = Path(__file__).resolve().parents[1] / "src"


def import_smosim() -> Any:
    """Import smosim from this checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import smosim

    if Path(smosim.__file__).resolve().parent != SRC / "smosim":
        raise ImportError(f"smosim imported from {smosim.__file__}, not {SRC}")
    return smosim


def deployed_artifacts(result: Any) -> list[tuple[str, Any]]:
    """Every artifact the run left deployed: active registry entries and
    the artifacts held by deploy targets."""
    out = []
    registry = result.registry
    for model_id, entry in sorted(registry.entries.items()):
        for target in sorted(registry.active_deployments(model_id)):
            out.append((f"registry {model_id}@{target}", entry.artifact))
    for cid, target in sorted(result.driver.targets.items()):
        if target.artifact is not None:
            out.append((f"target {cid}", target.artifact))
    return out


def check_outputs(result: Any, expected_origin: str) -> list[str]:
    """The output checks; an empty list means the repetition is correct."""
    errors = []
    report = result.report
    if report.status != "completed" or report.failure is not None:
        errors.append(f"status {report.status!r}, failure {report.failure!r}")
    entries = result.sim.log.entries
    keys = [(e.tick, e.seq) for e in entries]
    if keys != sorted(keys):
        errors.append("events are not sorted by (tick, seq)")
    completes = [i for i, e in enumerate(entries) if e.type == "run_complete"]
    if completes != [len(entries) - 1]:
        errors.append(f"run_complete at {completes} of {len(entries)} events")
    deployed = deployed_artifacts(result)
    if not deployed:
        errors.append("no model deployed")
    for where, artifact in deployed:
        if not all(math.isfinite(v) for v in artifact.parameters.to_list()):
            errors.append(f"{where}: non-finite parameters")
        if artifact.origin != expected_origin:
            errors.append(f"{where}: origin {artifact.origin!r}, expected {expected_origin!r}")
    return errors


def reference_s() -> float:
    """Seconds this process takes for a fixed mix of record-like dicts,
    sorting and array arithmetic, akin to smosim's own work.

    The host CPU's speed swings by up to 1.8x over seconds to minutes, and a
    run's time over this reference, taken just before and after the run,
    stays steady through those swings.
    """
    import numpy as np

    start = time.perf_counter()
    # a small working set, so the reference does not raise the peak RSS
    rows = [{"id": i, "value": i * 0.5, "key": i % 7} for i in range(2_000)]
    totals: dict[int, float] = {}
    for sign in (1, -1) * 50:
        for row in rows:
            totals[row["key"]] = totals.get(row["key"], 0.0) + row["value"]
        rows.sort(key=lambda row: (row["key"], sign * row["value"]))
    x = np.arange(20_000, dtype=float)
    for _ in range(2_000):
        x = x * 0.999 + 0.001
    return time.perf_counter() - start


def output_digest(report_json: str, events_jsonl: str) -> str:
    return hashlib.sha256((report_json + events_jsonl).encode()).hexdigest()


def run_once(workload: str, seed: int, t0: float, trace: bool = False,
             scale: float = 1.0) -> dict[str, Any]:
    """Set up, run, serialise and check one repetition."""
    smosim = import_smosim()
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    try:
        config = smosim.config.config_from_dict(workloads.build(workload, seed, scale))
        setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0

        ref_before = reference_s()
        run_start = time.perf_counter()
        result = smosim.scenarios.run_scenario(config)
        events_jsonl = result.sim.log.to_jsonl()
        report_json = json.dumps(result.report.to_dict(), indent=2) + "\n"
        run_end = time.perf_counter()
        ref_after = reference_s()
    finally:
        if tracer is not None:
            tracer.uninstall()

    entries = result.sim.log.entries
    out: dict[str, Any] = {
        "setup_s": setup_s,
        "run_s": run_end - run_start,
        "ref_s": (ref_before + ref_after) / 2,
        "events": len(entries),
        "digest": output_digest(report_json, events_jsonl),
        "errors": check_outputs(result, workloads.EXPECTED_ORIGIN[workload]),
    }
    if tracer is not None:
        out.update(tracer.results((run_start, run_end), Counter(e.type for e in entries)))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--t0", type=float)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--warmup", action="store_true",
                        help="only import smosim, so later processes start from a warm cache")
    args = parser.parse_args(argv)
    if args.warmup:
        import_smosim()
        print(json.dumps({"warmup": True}))
        return 0
    if args.workload is None or args.t0 is None:
        parser.error("--workload and --t0 are required")
    try:
        out = run_once(args.workload, args.seed, args.t0, args.trace)
    except Exception as exc:  # a raising run is a failed repetition, not a crash
        traceback.print_exc()
        out = {"errors": [f"raised {type(exc).__name__}: {exc}"]}
    import numpy

    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["python"] = platform.python_version()
    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
