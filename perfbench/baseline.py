#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the figures.

    python3 perfbench/baseline.py --workloads dense-500,serve-mix \\
        --seeds 1-10 --seconds 45 --label first

Each run is ``perfbench/run.py`` in its own process, exactly as a
single measurement is made.  The set of runs, their medians, quartiles
and spread (interquartile range over median), the machine and the git
revision are appended to ``perfbench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import machine  # noqa: E402


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def git_rev() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except OSError:
        return "unknown"
    return out.stdout.strip() or "unknown"


def summarize(values: List[float]) -> Dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else (med, med, med))
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    args = parser.parse_args()

    runs: List[Dict[str, Any]] = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                capture_output=True, text=True,
            )
            path = HERE / "out" / f"{workload}-seed{seed}-trace{args.trace}.json"
            rec = json.loads(path.read_text()) if proc.returncode in (0, 1) else {}
            runs.append({
                "workload": workload, "seed": seed, "returncode": proc.returncode,
                "elapsed_s": time.perf_counter() - t0,
                "digest": rec.get("digest", ""),
                "attempted": rec.get("attempted", 0),
                "failed": rec.get("failed", 0),
                "metrics": rec.get("metrics", {}),
            })
            r = runs[-1]
            digest = r["digest"]
            print(f"{workload} seed {seed}: rc {r['returncode']} "
                  f"{r['elapsed_s']:.1f} s digest {digest} "
                  f"failed {r['failed']}/{r['attempted']}", flush=True)

    summary: Dict[str, Dict[str, Any]] = {}
    for workload in args.workloads.split(","):
        mine = [r for r in runs if r["workload"] == workload and r["metrics"]]
        names = mine[0]["metrics"] if mine else {}
        summary[workload] = {
            n: summarize([r["metrics"][n] for r in mine]) for n in names
        }
        for n, s in summary[workload].items():
            print(f"  {workload:<10} {n:<34} median {s['median']:12.6g} "
                  f"spread {s['spread']:.3f}")

    out = Path(args.out)
    data = json.loads(out.read_text()) if out.exists() else {"sets": []}
    data["sets"].append({
        "label": args.label,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git_rev": git_rev(),
        "machine": machine(),
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": runs,
        "summary": summary,
    })
    out.write_text(json.dumps(data, indent=1) + "\n")
    return 0 if all(r["returncode"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
