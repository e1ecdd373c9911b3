#!/usr/bin/env python3
"""Benchmark of the ECGRID simulator, run from the root of a checkout.

    python3 perfbench/run.py --workload dense-500 --seed 1 --seconds 45 --trace 0

``--trace 0`` times the workload with tracing off and prints every
end-to-end metric; ``--trace 1`` is the separate traced run that prints
the per-layer metrics.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  A run whose
output checks fail exits with status 1.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Tuple

HERE = Path(__file__).resolve().parent

WORKLOADS = ("dense-500", "paper-trio", "serve-mix")

#: (name, unit, better) of every end-to-end metric with a bound in
#: ``BENCHMARK.json``, in report order.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("setup_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("delivery_rate", "ratio", "higher"),
    ("hit_latency_p90_s", "s", "lower"),
)

#: End-to-end metrics printed but not bounded: across ten seeds on a
#: shared 2-core host they spread too widely for any bound the
#: benchmark may set (the figures are in README.md).
UNBOUNDED: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "lower"),
    ("events", "count", "lower"),
    ("jobs_per_s", "1/s", "higher"),
    ("cold_latency_p50_s", "s", "lower"),
    ("cold_latency_p90_s", "s", "lower"),
    ("hit_latency_p50_s", "s", "lower"),
    ("sweep_latency_p50_s", "s", "lower"),
)


def isolate_environment(root: Path) -> List[str]:
    """Drop every ``ECGRID_*`` variable (they change what a run
    computes) and point ``PYTHONPATH`` at this checkout only."""
    stripped = sorted(k for k in os.environ if k.startswith("ECGRID_"))
    for key in stripped:
        del os.environ[key]
    os.environ["PYTHONPATH"] = str(root / "src")
    return stripped


def machine() -> Dict[str, Any]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def report(metrics: Dict[str, float], spec: Tuple[Tuple[str, str, str], ...],
           note: str = "") -> None:
    for name, unit, better in spec:
        print(f"  {name:<34} {metrics[name]:>16.6g} {unit:<6} "
              f"({better} is better{note})")


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true",
                        help="5 s simulated horizons and a handful of "
                        "served jobs (a smoke test, not a measurement)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no src/repro under {root}; run from the root "
              f"of a checkout", file=sys.stderr)
        return 2
    stripped = isolate_environment(root)
    sys.path.insert(0, str(root / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != (root / "src" / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)

    import layers
    import workloads

    env = dict(os.environ)
    started = time.time()
    if args.trace:
        import traced

        if args.workload == "serve-mix":
            metrics, work, tally, probe = traced.trace_serve(
                args.seed, args.seconds, args.short, out_dir)
        else:
            metrics, work, tally, probe = traced.trace_kernel(
                args.workload, args.seed, args.short, out_dir)
        spec = layers.PER_LAYER
        spans_path = out_dir / f"{args.workload}-seed{args.seed}-spans.npz"
        probe.recorder.save(str(spans_path))
    elif args.workload == "serve-mix":
        metrics, work, tally = workloads.run_serve(
            args.seed, args.seconds, args.short, env, out_dir)
        spec = END_TO_END
    else:
        metrics, work, tally = workloads.run_kernel(
            args.workload, args.seed, args.seconds, args.short, env, out_dir)
        spec = END_TO_END

    failed_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    print(f"perfbench {args.workload} seed {args.seed} "
          f"({'traced' if args.trace else 'timed'}, "
          f"{'short' if args.short else 'full'})")
    for line in work.lines:
        print(line)
    print(f"  digest {work.digest} over {len(work.records)} simulation(s)")
    sweeps = work.latencies("sweep")
    print(f"  samples: cold {len(work.latencies('cold'))}, "
          f"hit {len(work.latencies('hit'))}, sweep {len(sweeps)}")
    if spec is END_TO_END:
        slow = [p.slowdown for p in work.passes]
        print(f"  host slowdown over the passes {min(slow):.3f}-"
              f"{max(slow):.3f} (probe.py): host times below are at the "
              f"reference speed; the run record keeps the raw ones")
        print("end-to-end")
        report(metrics, END_TO_END)
        report(metrics, UNBOUNDED, "; not bounded")
    else:
        print("per-layer")
        report(metrics, spec)
    print(f"  {'failed_frac':<34} {failed_frac:>16.6g} {'ratio':<6} "
          f"(lower is better; {tally.failed} of {tally.attempted})")
    for err in tally.errors:
        print(f"  FAILED: {err}")

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "short": args.short,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "machine": machine(),
        "environment": {"stripped": stripped,
                        "PYTHONPATH": os.environ["PYTHONPATH"]},
        "digest": work.digest,
        "simulations": len(work.records),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "metrics": metrics,
        "passes": [vars(p) for p in work.passes],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=2) + "\n")

    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u, _ in spec},
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
