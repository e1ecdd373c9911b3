"""The benchmark's workloads: inputs made from a seed, the timed work,
and the checks on what the program returned.

Kernel workloads (``dense-500``, ``paper-trio``) simulate in this
process through ``SweepRunner.run_points`` with no result cache; each
finished point is then stored in a private :class:`ResultCache` and
read back through ``repro.api.run`` to time the cache-hit path.
``serve-mix`` drives ``ecgrid serve`` (its own process, its own fresh
cache directory) over HTTP from a closed loop of client threads.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import math
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from probe import SpeedProbe

#: The §4 topology of the paper: 100 hosts on a 1000 m square, 10 CBR
#: flows at 1 pps of 512 B (the ``ExperimentConfig`` defaults).
PAPER = dict(n_hosts=100, width_m=1000.0, height_m=1000.0, n_flows=10,
             flow_rate_pps=1.0, packet_bytes=512)

#: The ``scale-500`` scenario of ``ecgrid bench``: the paper's density
#: (1e-4 hosts/m²) on a 2236 m square.
DENSE = dict(protocol="ecgrid", n_hosts=500, width_m=2236.0,
             height_m=2236.0, n_flows=10, flow_rate_pps=1.0,
             packet_bytes=512)

#: A served ``run`` job small enough that serving, not simulating,
#: dominates its latency (~50 ms of simulation).
TINY = dict(protocol="ecgrid", n_hosts=20, width_m=450.0, height_m=450.0,
            n_flows=2, sim_time_s=20.0)

#: Kernel workloads: the scenario, and the protocols of one pass.
KERNEL: Dict[str, Tuple[Dict[str, Any], Tuple[str, ...]]] = {
    "dense-500": (DENSE, ("ecgrid",)),
    "paper-trio": (PAPER, ("ecgrid", "grid", "gaf")),
}

SIM_TIME_S = 60.0
SHORT_SIM_TIME_S = 5.0

#: Cache-hit reads timed per finished kernel point: about 0.3 s of
#: reads.  How fast a read is swings with the host from one tenth of a
#: second to the next, so a run times some two seconds of them.
HIT_READS = 1000

#: Set-up samples of one run, of which ``setup_s`` is the median:
#: fresh interpreters (kernel workloads) and server starts (serve-mix).
SETUP_SAMPLES = 9
SERVER_STARTS = 5

#: Passes of one timed run, each on its own seeds.  The count is fixed
#: per workload, so what a run computes (and its digest) depends on its
#: seed alone, never on how fast the host is; it is sized so that a run
#: takes 45-65 s on a 2-core Xeon.  A ``--short`` run makes one pass.
PASSES = {"dense-500": 7, "paper-trio": 3, "serve-mix": 8}

#: A run whose timed passes take longer than this many times
#: ``--seconds`` fails: every pass not yet started is counted as failed
#: and skipped, so that the run still ends in bounded time.
GUARD_FACTOR = 3.0

#: ``serve-mix``: client connections, one sweep job per this many
#: operations of a client, and operations per client in one pass.
SERVE_CLIENTS = 2
SWEEP_EVERY = 60
OPS_PER_PASS = 60
SHORT_OPS_PER_PASS = 8

#: HTTP timeout of one request; a job that takes longer fails.
HTTP_TIMEOUT_S = 120.0


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100); 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def trimmed_mean(values: Sequence[float]) -> float:
    """Mean without the lowest and the highest value: as robust to one
    outlying pass as the median, and steadier than it from run to run."""
    if len(values) <= 3:
        return median(values)
    return statistics.fmean(sorted(values)[1:-1])


class Tally:
    """Operations attempted and failed, with the first few reasons."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self._lock = threading.Lock()

    def op(self, ok: bool, reason: str = "") -> bool:
        with self._lock:
            self.attempted += 1
            if not ok:
                self.failed += 1
                if len(self.errors) < 20:
                    self.errors.append(reason)
        return ok


def check_record(rec: Any, kind: str = "result") -> str:
    """Why a schema-versioned record is wrong, or ``""`` if it is right."""
    from repro.api import RESULT_SCHEMA

    if not isinstance(rec, dict):
        return f"record is a {type(rec).__name__}, not an object"
    if rec.get("schema") != RESULT_SCHEMA:
        return f"schema {rec.get('schema')!r} != {RESULT_SCHEMA}"
    if rec.get("kind") != kind:
        return f"kind {rec.get('kind')!r} != {kind!r}"
    if kind == "sweep":
        for o in rec.get("outcomes", ()):
            why = check_record(o.get("result"))
            if why:
                return f"sweep outcome: {why}"
        return "" if rec.get("outcomes") else "sweep has no outcomes"
    try:
        sent, delivered, dropped = rec["sent"], rec["delivered"], rec["dropped"]
        events = rec["events_executed"]
    except KeyError as exc:
        return f"record lacks {exc}"
    if delivered + dropped > sent:
        return f"delivered {delivered} + dropped {dropped} > sent {sent}"
    if events <= 0:
        return "no events executed"
    return ""


def delivery_rate(records: Sequence[Dict[str, Any]]) -> float:
    sent = sum(r["sent"] for r in records)
    return sum(r["delivered"] for r in records) / sent if sent else 0.0


def digest_entry(rec: Dict[str, Any]) -> Dict[str, Any]:
    """The simulated statistics a digest covers, from one record, in
    JSON form (so a record read over HTTP equals one made in-process)."""
    return json.loads(json.dumps({
        "events": rec["events_executed"],
        "sent": rec["sent"],
        "delivered": rec["delivered"],
        "dropped": rec["dropped"],
        "frames_sent": rec["medium"]["frames_sent"],
        "aen": rec["aen"],
        "first_death_s": rec["first_death_s"],
    }))


def digest(entries: Sequence[Dict[str, Any]]) -> str:
    blob = json.dumps(list(entries), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def rusage_cpu_s() -> float:
    """CPU seconds of this process and its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak RSS of this process and of any reaped child."""
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def proc_tree_cpu_s(pid: int) -> float:
    """CPU seconds of a live process, of its live descendants, and of
    every child any of them has reaped (/proc)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:  # ended since it was listed
        return 0.0
    ticks = sum(int(fields[i]) for i in (11, 12, 13, 14))
    return (ticks / os.sysconf("SC_CLK_TCK")
            + sum(proc_tree_cpu_s(c) for c in child_pids(pid)))


def child_pids(pid: int) -> List[int]:
    pids: List[int] = []
    try:
        for task in os.listdir(f"/proc/{pid}/task"):
            with open(f"/proc/{pid}/task/{task}/children") as fh:
                pids.extend(int(p) for p in fh.read().split())
    except OSError:
        pass
    return pids


def guarded_passes(items: Sequence[Any], seconds: float, tally: Tally,
                   step: Callable[[Any], None]) -> None:
    """``step`` over every item, one pass each, unless the passes so far
    took longer than ``GUARD_FACTOR * seconds``: each item left is then
    counted as a failed operation instead."""
    deadline = time.perf_counter() + GUARD_FACTOR * seconds
    for i, item in enumerate(items):
        if time.perf_counter() > deadline:
            tally.op(False, f"pass {i + 1} of {len(items)} not run: the "
                     f"passes took over {GUARD_FACTOR:g} x --seconds")
        else:
            step(item)


@dataclass
class Sample:
    """One timed operation (a kernel point, a hit read, a served job)."""

    kind: str
    latency_s: float
    view: Optional[Dict[str, Any]] = None
    requests: int = 0
    refused: int = 0
    #: The host's slowdown over the sample's pass (see probe.py).
    slowdown: float = 1.0


@dataclass
class Pass:
    """One pass of a workload's fixed work; ``wall_s`` and ``cpu_s`` are
    raw host times, ``slowdown`` the host's over the pass."""

    wall_s: float
    cpu_s: float
    events: int
    jobs: int
    delivery_rate: float
    slowdown: float = 1.0


@dataclass
class Work:
    """What the timed passes of a workload did."""

    passes: List[Pass] = field(default_factory=list)
    samples: List[Sample] = field(default_factory=list)
    #: Records of every simulation, in a deterministic order.
    records: List[Dict[str, Any]] = field(default_factory=list)
    #: Per-simulation lines for the report.
    lines: List[str] = field(default_factory=list)

    def latencies(self, kind: str) -> List[float]:
        """Latencies of one kind at the reference host speed."""
        return [s.latency_s / s.slowdown for s in self.samples
                if s.kind == kind]

    @property
    def wall_s(self) -> float:
        return sum(p.wall_s for p in self.passes)

    @property
    def digest(self) -> str:
        return digest([digest_entry(r) for r in self.records])

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        """Pass figures are trimmed means over the passes; latencies
        are percentiles over every sample of the run.  Host times are
        at the reference speed: divided by the slowdown of their pass."""
        wall = trimmed_mean([p.wall_s / p.slowdown for p in self.passes])
        jobs = trimmed_mean([p.jobs for p in self.passes])
        cold = self.latencies("cold")
        hit = self.latencies("hit")
        return {
            "setup_s": setup_s,
            "wall_s": wall,
            "cpu_s": trimmed_mean([p.cpu_s / p.slowdown for p in self.passes]),
            "peak_rss_mb": peak_rss_mb(),
            "events": float(trimmed_mean([p.events for p in self.passes])),
            "delivery_rate": trimmed_mean([p.delivery_rate for p in self.passes]),
            "jobs_per_s": jobs / wall if wall else 0.0,
            "cold_latency_p50_s": median(cold),
            "cold_latency_p90_s": percentile(cold, 90),
            "hit_latency_p50_s": median(hit),
            "hit_latency_p90_s": percentile(hit, 90),
            "sweep_latency_p50_s": median(self.latencies("sweep")),
            # Not reported as metrics: the host's speed and the raw
            # CPU time it gave, for the run record.
            "host_slowdown": median([p.slowdown for p in self.passes]),
            "raw_cpu_s": trimmed_mean([p.cpu_s for p in self.passes]),
        }


def close_pass(work: Work, first_sample: int, probe: Optional[SpeedProbe],
               mark: int, **fields: Any) -> None:
    """Append a :class:`Pass` with the slowdown the probe measured since
    ``mark``, and give that slowdown to the pass's samples."""
    slowdown = probe.slowdown(mark) if probe is not None else 1.0
    for sample in work.samples[first_sample:]:
        sample.slowdown = slowdown
    work.passes.append(Pass(slowdown=slowdown, **fields))


def probe_cpu_s(probe: Optional[SpeedProbe]) -> float:
    return probe.cpu_s() if probe is not None else 0.0


# ----------------------------------------------------------------------
# Kernel workloads
# ----------------------------------------------------------------------
def sim_seeds(workload: str, seed: int, count: int) -> List[int]:
    """``count`` distinct simulation seeds; the first is ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    seeds = [seed]
    while len(seeds) < count:
        s = rng.randrange(1, 2**31)
        if s not in seeds:
            seeds.append(s)
    return seeds


def kernel_configs(workload: str, sim_seed: int, short: bool) -> List[Any]:
    from repro.api import ExperimentConfig

    base, protocols = KERNEL[workload]
    horizon = SHORT_SIM_TIME_S if short else SIM_TIME_S
    return [
        ExperimentConfig(**{**base, "protocol": p, "seed": sim_seed,
                            "sim_time_s": horizon})
        for p in protocols
    ]


_SETUP_SCRIPT = """
import json, os, sys, time
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.path.insert(0, sys.argv[2])
from probe import SpeedProbe
with SpeedProbe() as probe:
    t0 = time.perf_counter()
    import repro.api as api
    for cfg in json.loads(sys.argv[1]):
        api.build_network(api.ExperimentConfig.from_dict(cfg))
    elapsed = time.perf_counter() - t0
print(elapsed, probe.slowdown(0))
"""


def kernel_setup_s(configs: Sequence[Any], env: Dict[str, str],
                   samples: int = SETUP_SAMPLES) -> List[Tuple[float, float]]:
    """Import of ``repro.api`` plus construction of every scenario of
    one pass, each sample in a fresh interpreter with its own probe:
    ``(seconds, slowdown)`` per sample.  The interpreter is held to one
    core, so that the probe samples the core the set-up runs on (two
    cores of a shared host are slow at different times)."""
    arg = json.dumps([c.to_dict() for c in configs])
    here = str(Path(__file__).resolve().parent)
    times = []
    for _ in range(samples):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_SCRIPT, arg, here],
            env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        elapsed, slowdown = out.stdout.strip().splitlines()[-1].split()
        times.append((float(elapsed), float(slowdown)))
    return times


def setup_figure(samples: Sequence[Tuple[float, float]]) -> float:
    """``setup_s``: the median set-up time at the reference speed."""
    return median([t / slowdown for t, slowdown in samples])


def kernel_pass(configs: Sequence[Any], cache: Any, tally: Tally,
                work: Work, probe: Optional[SpeedProbe] = None) -> None:
    """One sweep of ``configs`` with no result cache, then the cache
    round trip of each finished point; appends one :class:`Pass`.  The
    probe's own CPU time is not counted."""
    from repro.api import SweepPoint, SweepRunner, SweepSpec, result_to_dict
    from repro.api import run as api_run

    spec = SweepSpec(name="perfbench", base=configs[0])
    points = [SweepPoint(index=i, axes={"protocol": c.protocol, "seed": c.seed},
                         config=c) for i, c in enumerate(configs)]
    runner = SweepRunner(workers=0, cache=None)
    mark = probe.mark() if probe is not None else 0
    first_sample = len(work.samples)
    cpu0, t0 = rusage_cpu_s() - probe_cpu_s(probe), time.perf_counter()
    first = len(work.records)
    try:
        run = runner.run_points(spec, points)
    except Exception as exc:  # a failed run is counted, not fatal
        for _ in points:
            tally.op(False, f"run_points raised {exc!r}")
        return
    finally:
        runner.shutdown()
    work.samples.append(Sample("sweep", time.perf_counter() - t0))
    for outcome in run.outcomes:
        cfg = outcome.point.config
        rec = result_to_dict(outcome.result)
        why = check_record(rec)
        tally.op(not why, f"{cfg.protocol} seed {cfg.seed}: {why}")
        work.samples.append(Sample("cold", outcome.elapsed_s))
        work.records.append(rec)
        work.lines.append(
            f"  {cfg.protocol:<6} seed {cfg.seed:<10} events "
            f"{rec['events_executed']:>9,}  sent {rec['sent']:>5}  "
            f"delivered {rec['delivered']:>5}  dropped {rec['dropped']:>4}  "
            f"rerr {rec['counters'].get('rerr_sent', 0):>6}  "
            f"{outcome.elapsed_s:7.2f} s  digest {digest([digest_entry(rec)])}"
        )
        cache.put(cfg, outcome.result)
        # The first and the last read are checked: the stored record is
        # the same on every read, and checking all would time the check.
        hits_ok = True
        for i in range(HIT_READS):
            t = time.perf_counter()
            hit = api_run(cfg, cache=cache)
            work.samples.append(Sample("hit", time.perf_counter() - t))
            if i in (0, HIT_READS - 1):
                hits_ok = hits_ok and result_to_dict(hit) == rec
        tally.op(hits_ok, f"{cfg.protocol} seed {cfg.seed}: cache hit differs")
    close_pass(
        work, first_sample, probe, mark,
        wall_s=time.perf_counter() - t0,
        cpu_s=rusage_cpu_s() - probe_cpu_s(probe) - cpu0,
        events=sum(r["events_executed"] for r in work.records[first:]),
        jobs=len(points),
        delivery_rate=delivery_rate(work.records[first:]),
    )


def run_kernel(workload: str, seed: int, seconds: float, short: bool,
               env: Dict[str, str], out_dir: Path
               ) -> Tuple[Dict[str, float], Work, Tally]:
    """``PASSES[workload]`` passes, each on one simulation seed drawn
    from ``seed`` (the first is ``seed`` itself).

    How much work a seed gives the kernel varies widely (and now and
    then a seed congests the network), so a run reports trimmed means
    over several seeds.
    """
    from repro.api import ResultCache

    setup = kernel_setup_s(kernel_configs(workload, seed, short), env)
    tally, work = Tally(), Work()
    tmp = Path(tempfile.mkdtemp(prefix="cache-", dir=out_dir))
    try:
        cache = ResultCache(tmp)
        seeds = sim_seeds(workload, seed, 1 if short else PASSES[workload])
        with SpeedProbe() as probe:
            guarded_passes(seeds, seconds, tally, lambda s: kernel_pass(
                kernel_configs(workload, s, short), cache, tally, work,
                probe))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return work.end_to_end(setup_figure(setup)), work, tally


# ----------------------------------------------------------------------
# serve-mix
# ----------------------------------------------------------------------
@dataclass
class Op:
    pass_index: int
    client: int
    index: int
    kind: str  # "cold" | "hit" | "sweep"
    payload: Dict[str, Any]
    #: For hits: the ``key`` of the cold op whose config repeats.
    target: Optional[Tuple[int, int, int]] = None

    @property
    def key(self) -> Tuple[int, int, int]:
        return (self.pass_index, self.client, self.index)

    @property
    def label(self) -> str:
        return f"p{self.pass_index}-c{self.client}-{self.index:03d}-{self.kind}"


def serve_passes(seed: int, short: bool, count: int) -> List[List[List[Op]]]:
    """``count`` passes of operations per client, fixed by ``seed``.

    Cold jobs use seeds never used before in the run; a hit repeats a
    config the same client finished earlier in the pass (the loop is
    closed, so it is in the cache); every ``SWEEP_EVERY``-th operation
    is a 4-point scale-0.2 ECGRID/GRID sweep on fresh seeds.
    """
    rng = random.Random(f"serve-mix:{seed}")
    used = set()

    def fresh() -> int:
        while True:
            s = rng.randrange(1, 2**31)
            if s not in used:
                used.add(s)
                return s

    tiny = dict(TINY, sim_time_s=5.0) if short else TINY
    ops_per_client = SHORT_OPS_PER_PASS if short else OPS_PER_PASS
    sweep_every = min(SWEEP_EVERY, ops_per_client)
    sweep_base = {"protocol": "ecgrid", "sim_time_s": 100.0} if short else {
        "protocol": "ecgrid"}
    passes = []
    for k in range(count):
        plans: List[List[Op]] = []
        for client in range(SERVE_CLIENTS):
            ops: List[Op] = []
            colds: List[int] = []
            for i in range(ops_per_client):
                if (i + 1) % sweep_every == 0:
                    a, b = fresh(), fresh()
                    payload = {
                        "name": "perfbench",
                        "base": dict(sweep_base, seed=a),
                        "axes": {"protocol": ["ecgrid", "grid"],
                                 "seed": [a, b]},
                        "scale": 0.2,
                    }
                    ops.append(Op(k, client, i, "sweep", payload))
                elif not colds or rng.random() < 0.5:
                    colds.append(i)
                    ops.append(Op(k, client, i, "cold",
                                  dict(tiny, seed=fresh())))
                else:
                    j = colds[rng.randrange(len(colds))]
                    ops.append(Op(k, client, i, "hit", ops[j].payload,
                                  target=ops[j].key))
            plans.append(ops)
        passes.append(plans)
    return passes


class HttpClient:
    """One request per connection, as the server closes each one."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.requests = 0
        self.refused = 0

    def call(self, method: str, path: str,
             body: Optional[Dict[str, Any]] = None) -> Tuple[int, Any]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=HTTP_TIMEOUT_S)
        try:
            data = None if body is None else json.dumps(body).encode("utf-8")
            headers = {"content-type": "application/json"} if data else {}
            conn.request(method, path, body=data, headers=headers)
            resp = conn.getresponse()
            raw = resp.read()
        finally:
            conn.close()
        self.requests += 1
        if resp.status >= 400:
            self.refused += 1
        return resp.status, json.loads(raw.decode("utf-8")) if raw else None

    def wait_end(self, job_id: str) -> Optional[Dict[str, Any]]:
        """Follow the job's SSE stream to its ``end`` frame (the final
        job view)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=HTTP_TIMEOUT_S)
        try:
            conn.request("GET", f"/v1/jobs/{job_id}/events")
            resp = conn.getresponse()
            self.requests += 1
            if resp.status >= 400:
                self.refused += 1
                return None
            event, data = None, []
            for raw in resp:
                line = raw.decode("utf-8").rstrip("\n")
                if line.startswith("event: "):
                    event, data = line[7:], []
                elif line.startswith("data: "):
                    data.append(line[6:])
                elif not line and event == "end":
                    return json.loads("\n".join(data))
            return None
        finally:
            conn.close()


def run_op(client: HttpClient, op: Op, done: Dict[Any, Any],
           tally: Tally, work: Work, lock: threading.Lock) -> None:
    """Submit ``op``, wait for it, fetch its result and check it."""
    req0, ref0 = client.requests, client.refused
    t0 = time.perf_counter()
    why = ""
    rec: Any = None
    view: Optional[Dict[str, Any]] = None
    try:
        kind = "sweep" if op.kind == "sweep" else "run"
        status, view = client.call("POST", "/v1/jobs", {
            "kind": kind, "payload": op.payload, "tenant": f"c{op.client}",
        })
        if status != 201:
            why = f"submit answered {status}: {view}"
        elif op.kind == "hit" and not (view["state"] == "done"
                                       and view["cache_hit"]):
            why = f"resubmit was not a cache hit: {view['state']}"
        else:
            if view["state"] != "done":
                view = client.wait_end(view["job_id"])
            if view is None or view.get("state") != "done":
                why = f"job ended {view and view.get('state')}: " \
                      f"{view and view.get('error')}"
            else:
                status, rec = client.call(
                    "GET", f"/v1/jobs/{view['job_id']}/result"
                )
                if status != 200:
                    why = f"result answered {status}"
    except (OSError, http.client.HTTPException, ValueError, KeyError) as exc:
        why = f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - t0
    if not why:
        why = check_record(rec, "sweep" if op.kind == "sweep" else "result")
    if not why and op.kind == "hit" and rec != done.get(op.target):
        why = "cache hit differs from the cold record"
    with lock:
        work.samples.append(Sample(op.kind, latency, view,
                                   client.requests - req0,
                                   client.refused - ref0))
        if not why and op.kind == "cold":
            done[op.key] = rec
        if not why and op.kind == "sweep":
            for o in rec["outcomes"]:
                cfg = o["result"]["config"]
                done[op.key + (cfg["seed"], cfg["protocol"])] = o["result"]
    tally.op(not why, f"{op.label}: {why}")


def drive(plans: List[List[Op]], port: int, tally: Tally, work: Work,
          cpu_s: Callable[[], float] = rusage_cpu_s,
          on_op: Optional[Callable[[Op], Any]] = None,
          probe: Optional[SpeedProbe] = None) -> None:
    """One pass: each client's operations on its own thread (a closed
    loop); appends one :class:`Pass` and the pass's simulation records.
    ``cpu_s`` reads the CPU seconds of the server being measured."""
    done: Dict[Any, Any] = {}
    lock = threading.Lock()

    def client_loop(ops: List[Op]) -> None:
        client = HttpClient(port)
        for op in ops:
            ctx = on_op(op) if on_op is not None else None
            try:
                run_op(client, op, done, tally, work, lock)
            finally:
                if ctx is not None:
                    ctx()

    threads = [threading.Thread(target=client_loop, args=(ops,),
                                name=f"client-{i}")
               for i, ops in enumerate(plans)]
    mark = probe.mark() if probe is not None else 0
    first_sample = len(work.samples)
    cpu0, t0 = cpu_s(), time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=HTTP_TIMEOUT_S * 10)
    wall = time.perf_counter() - t0
    cpu = cpu_s() - cpu0
    if any(t.is_alive() for t in threads):
        tally.op(False, "a client thread did not finish")
    # Simulated records in plan order, so the digest is deterministic.
    records = [done[k] for k in sorted(done)]
    work.records.extend(records)
    close_pass(
        work, first_sample, probe, mark,
        wall_s=wall,
        cpu_s=cpu,
        events=sum(r["events_executed"] for r in records),
        jobs=sum(len(ops) for ops in plans),
        delivery_rate=delivery_rate(records),
    )


class ServerProcess:
    """``ecgrid serve`` in its own process on a free port."""

    def __init__(self, cache_dir: Path, env: Dict[str, str]) -> None:
        self.cache_dir = cache_dir
        # The ready line must not wait in a pipe buffer.
        self.env = dict(env, PYTHONUNBUFFERED="1")
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self) -> float:
        """Start and wait until ``/healthz`` answers; returns seconds."""
        t0 = time.perf_counter()
        self._log = open(self.cache_dir.parent / "server.log", "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--host",
             "127.0.0.1", "--port", "0", "--jobs", "1", "--sweep-workers",
             "2", "--quota", "8", "--cache-dir", str(self.cache_dir)],
            env=self.env, stdout=subprocess.PIPE, stderr=self._log,
        )
        line = self.proc.stdout.readline().decode("utf-8", "replace")
        if "http://" not in line:
            self.stop()
            raise RuntimeError(f"ecgrid serve did not start: {line!r}")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        client = HttpClient(self.port)
        while True:
            try:
                status, _ = client.call("GET", "/healthz")
                if status == 200:
                    break
            except OSError:
                pass
            if time.perf_counter() - t0 > 60:
                self.stop()
                raise RuntimeError("ecgrid serve never became healthy")
            time.sleep(0.002)
        return time.perf_counter() - t0

    def cpu_s(self) -> float:
        """The server's process tree only, pool workers included; the
        client threads of this process are not the program."""
        assert self.proc is not None
        return proc_tree_cpu_s(self.proc.pid)

    def stop(self) -> None:
        """Interrupt the server, wait for it and for its pool workers."""
        proc, self.proc = self.proc, None
        if proc is None:
            return
        workers = child_pids(proc.pid)
        proc.send_signal(signal.SIGINT)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        self._log.close()
        deadline = time.monotonic() + 30
        for pid in workers:
            while os.path.exists(f"/proc/{pid}") and time.monotonic() < deadline:
                time.sleep(0.01)
            if os.path.exists(f"/proc/{pid}"):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass


def run_serve(seed: int, seconds: float, short: bool, env: Dict[str, str],
              out_dir: Path) -> Tuple[Dict[str, float], Work, Tally]:
    """``SERVER_STARTS`` server starts (set-up), then
    ``PASSES["serve-mix"]`` passes on the last server."""
    tally, work = Tally(), Work()
    passes = serve_passes(seed, short, 1 if short else PASSES["serve-mix"])
    tmp = Path(tempfile.mkdtemp(prefix="serve-", dir=out_dir))
    setup: List[Tuple[float, float]] = []
    try:
        with SpeedProbe() as probe:
            for i in range(SERVER_STARTS):
                srv = ServerProcess(tmp / f"cache-{i}", env)
                mark = probe.mark()
                seconds_to_ready = srv.start()
                setup.append((seconds_to_ready, probe.slowdown(mark)))
                if i < SERVER_STARTS - 1:
                    srv.stop()
            try:
                guarded_passes(passes, seconds, tally, lambda plans: drive(
                    plans, srv.port, tally, work, srv.cpu_s, probe=probe))
            finally:
                srv.stop()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return work.end_to_end(setup_figure(setup)), work, tally
