"""The traced run (``--trace 1``): per-layer metrics.

Each traced run first repeats the workload's work untraced, then with
every :class:`~layers.LayerProbe` wrapper installed.  The two must
produce the same simulated-statistics digest (tracing must not perturb
the schedule); their wall-clock ratio is ``trace.overhead_frac``.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from layers import LayerProbe
from workloads import (
    Op,
    Tally,
    Work,
    digest_entry,
    drive,
    kernel_configs,
    kernel_pass,
    serve_passes,
)

#: Passes of the traced ``serve-mix`` run (each is run twice).
TRACED_PASSES = 2

#: Per-layer serve metrics of a workload that serves no jobs.
NO_SERVE = {
    "serve.queue_wait_frac": 0.0,
    "serve.exec_frac": 0.0,
    "serve.client_overhead_frac": 0.0,
    "serve.requests_per_job": 0.0,
    "serve.refused": 0.0,
}


def tracer_overhead(configs: List[Any], ref: List[Dict[str, Any]],
                    tally: Tally) -> float:
    """``run_experiment(tracer=Tracer())`` against the untraced loop
    times in ``ref``; the digests must agree."""
    from repro.api import result_to_dict, run_experiment
    from repro.obs import Tracer

    loop_s = 0.0
    for cfg, rec in zip(configs, ref):
        traced = result_to_dict(run_experiment(cfg, tracer=Tracer()))
        tally.op(digest_entry(traced) == digest_entry(rec),
                 f"{cfg.protocol} seed {cfg.seed}: Tracer changed the run")
        loop_s += traced["wall_time_s"]
    ref_s = sum(r["wall_time_s"] for r in ref)
    return loop_s / ref_s - 1.0 if ref_s else 0.0


def _kernel_work(configs: List[Any], tally: Tally, tmp: Path) -> Work:
    from repro.api import ResultCache

    work = Work()
    cache = ResultCache(Path(tempfile.mkdtemp(prefix="cache-", dir=tmp)))
    kernel_pass(configs, cache, tally, work)
    return work


def trace_kernel(workload: str, seed: int, short: bool, out_dir: Path
                 ) -> Tuple[Dict[str, float], Work, Tally, LayerProbe]:
    configs = kernel_configs(workload, seed, short)
    tally = Tally()
    tmp = Path(tempfile.mkdtemp(prefix="trace-", dir=out_dir))
    probe = LayerProbe()
    try:
        ref = _kernel_work(configs, tally, tmp)
        obs = tracer_overhead(configs, ref.records, tally)
        probe.install()
        try:
            work = _kernel_work(configs, tally, tmp)
        finally:
            probe.restore()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tally.op(work.digest == ref.digest,
             f"traced digest {work.digest} != untraced {ref.digest}")
    metrics = probe.metrics(NO_SERVE, {
        "obs.trace_overhead_frac": obs,
        "trace.overhead_frac": work.wall_s / ref.wall_s - 1.0,
    })
    work.lines = ref.lines
    return metrics, work, tally, probe


class InProcessServer:
    """The job server on a thread of this process, so the wrappers
    installed here see its job table, cache and exports."""

    def __init__(self, cache_dir: Path) -> None:
        self.cache_dir = cache_dir
        self.port = 0
        self._ready = threading.Event()
        self._loop = asyncio.new_event_loop()
        self._stop: Optional[asyncio.Event] = None
        self._error: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._main, name="server",
                                        daemon=True)

    def __enter__(self) -> "InProcessServer":
        self._thread.start()
        if not self._ready.wait(60) or self._error is not None:
            raise RuntimeError(f"in-process server did not start: {self._error}")
        return self

    def __exit__(self, *exc: Any) -> None:
        self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(60)
        self._loop.close()

    def _main(self) -> None:
        try:
            self._loop.run_until_complete(self._serve())
        except BaseException as exc:  # reported by __enter__
            self._error = exc
            self._ready.set()

    async def _serve(self) -> None:
        from repro.serve import JobServer, ServerConfig

        self._stop = asyncio.Event()
        server = JobServer(ServerConfig(
            host="127.0.0.1", port=0, sweep_workers=2, concurrency=1,
            max_active_per_tenant=8, cache_dir=str(self.cache_dir),
        ))
        await server.start()
        self.port = server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await server.stop()


def serve_breakdown(work: Work) -> Dict[str, float]:
    """Where executed served jobs spent their latency (shares of the
    summed client latency, from the final job views)."""
    queue = execute = client = 0.0
    for s in work.samples:
        v = s.view
        if s.kind == "hit" or not v or v.get("started_s") is None:
            continue
        queue += v["started_s"] - v["created_s"]
        execute += v["finished_s"] - v["started_s"]
        client += s.latency_s - (v["finished_s"] - v["created_s"])
    total = queue + execute + client
    n = len(work.samples)
    return {
        "serve.queue_wait_frac": queue / total if total else 0.0,
        "serve.exec_frac": execute / total if total else 0.0,
        "serve.client_overhead_frac": client / total if total else 0.0,
        "serve.requests_per_job": sum(s.requests for s in work.samples) / n if n else 0.0,
        "serve.refused": float(sum(s.refused for s in work.samples)),
    }


def _reap_children(timeout_s: float = 30.0) -> None:
    """Wait for pool workers the in-process server left behind."""
    deadline = time.monotonic() + timeout_s
    while multiprocessing.active_children():
        if time.monotonic() > deadline:
            for p in multiprocessing.active_children():
                p.kill()
                p.join()
            return
        time.sleep(0.02)


def trace_serve(seed: int, seconds: float, short: bool, out_dir: Path
                ) -> Tuple[Dict[str, float], Work, Tally, LayerProbe]:
    from repro.api import ExperimentConfig

    plans = serve_passes(seed, short, TRACED_PASSES)
    tally = Tally()
    probe = LayerProbe()
    tmp = Path(tempfile.mkdtemp(prefix="trace-", dir=out_dir))
    bench_job = probe.recorder.name_id("bench.job")

    def on_op(op: Op) -> Callable[[], None]:
        probe.recorder.set_run(op.label)
        idx = probe.recorder.open(bench_job)
        return lambda: probe.recorder.close(idx)

    ref, work = Work(), Work()
    try:
        with InProcessServer(tmp / "untraced") as srv:
            for plan in plans:
                drive(plan, srv.port, tally, ref)
        probe.install()
        try:
            with InProcessServer(tmp / "traced") as srv:
                for plan in plans:
                    drive(plan, srv.port, tally, work, on_op=on_op)
        finally:
            probe.restore()
        _reap_children()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    tally.op(work.digest == ref.digest,
             f"traced digest {work.digest} != untraced {ref.digest}")
    # Every job seed is fresh, so a seed names one cold record.
    colds = [op for ops in plans[0] for op in ops if op.kind == "cold"][:10]
    by_seed = {r["config"]["seed"]: r for r in ref.records}
    configs = [ExperimentConfig(**op.payload) for op in colds
               if op.payload["seed"] in by_seed]
    obs = tracer_overhead(configs, [by_seed[c.seed] for c in configs], tally)
    metrics = probe.metrics(serve_breakdown(work), {
        "obs.trace_overhead_frac": obs,
        "trace.overhead_frac": work.wall_s / ref.wall_s - 1.0,
    })
    return metrics, work, tally, probe
