"""Tests of the benchmark itself.  From the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import PENDING, ROOT as NO_PARENT, SpanRecorder, self_times  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- the contract file ------------------------------------------------------
def test_benchmark_json_names_every_metric_the_code_reports():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in CONTRACT["per_layer"]] \
        == list(layers.PER_LAYER)
    assert {w["name"] for w in CONTRACT["workloads"]} <= set(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in CONTRACT["end_to_end"])
    assert all(m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])


# -- short-mode passes ------------------------------------------------------
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_timed_pass_reports_every_end_to_end_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--short")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    units = {name: unit for name, unit, _ in run.END_TO_END}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())
    assert "failed_frac" in proc.stdout


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_traced_pass_reports_every_per_layer_metric(workload):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", "1", "--short")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert out["correct"]
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == units
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["trace.unattributed_frac"] <= 0.10
    assert metrics["des.events"] > 0 and metrics["phy.frames"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "dense-500", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# -- output checks ----------------------------------------------------------
def _record(**overrides):
    from repro.api import ExperimentConfig, result_to_dict, run_experiment

    cfg = ExperimentConfig(**dict(workloads.TINY, sim_time_s=5.0, seed=4))
    rec = result_to_dict(run_experiment(cfg))
    rec.update(overrides)
    return rec


def test_check_record_accepts_a_real_record_and_catches_corruption():
    rec = _record()
    assert workloads.check_record(rec) == ""
    assert "sent" in workloads.check_record(dict(rec, delivered=rec["sent"] + 1))
    assert "schema" in workloads.check_record(dict(rec, schema=2))
    assert "kind" in workloads.check_record(rec, "sweep")
    assert "events" in workloads.check_record(dict(rec, events_executed=0))
    bad_sweep = {"schema": rec["schema"], "kind": "sweep",
                 "outcomes": [{"result": dict(rec, kind="figure")}]}
    assert "outcome" in workloads.check_record(bad_sweep, "sweep")


def test_kernel_pass_counts_a_corrupted_cache_hit_as_failed(tmp_path):
    from repro.api import ExperimentConfig, ResultCache

    class CorruptingCache(ResultCache):
        def put(self, config, result):
            result.delivered += 1  # the stored record no longer matches
            return super().put(config, result)

    tally, work = workloads.Tally(), workloads.Work()
    cfg = ExperimentConfig(**dict(workloads.TINY, sim_time_s=5.0, seed=4))
    workloads.kernel_pass([cfg], CorruptingCache(tmp_path), tally, work)
    assert tally.attempted == 2 and tally.failed == 1
    assert "cache hit differs" in tally.errors[0]


def test_digest_covers_the_simulated_statistics():
    rec = _record()
    base = workloads.digest([workloads.digest_entry(rec)])
    assert base == workloads.digest([workloads.digest_entry(json.loads(json.dumps(rec)))])
    for key, value in [("events_executed", 1), ("dropped", 99),
                       ("first_death_s", 3.0)]:
        assert workloads.digest([workloads.digest_entry(dict(rec, **{key: value}))]) != base


def test_serve_passes_are_fixed_by_the_seed_and_hits_repeat_finished_configs():
    def first(seed, n=3):
        return workloads.serve_passes(seed, False, n)

    a = first(5)
    assert a == first(5)
    assert a != first(6)
    seeds = [op.payload["seed"] for plan in a for ops in plan for op in ops
             if op.kind == "cold"]
    assert len(seeds) == len(set(seeds))
    for plan in a:
        for ops in plan:
            assert len(ops) == workloads.OPS_PER_PASS
            for op in ops:
                if op.kind == "hit":
                    target = ops[op.target[2]]
                    assert target.kind == "cold" and target.index < op.index
                    assert target.payload == op.payload
            assert [op.kind for op in ops].count("sweep") == \
                workloads.OPS_PER_PASS // workloads.SWEEP_EVERY


def test_a_run_has_fixed_passes_and_the_guard_fails_those_left():
    seeds = workloads.sim_seeds("dense-500", 7, workloads.PASSES["dense-500"])
    assert seeds[0] == 7 and len(set(seeds)) == workloads.PASSES["dense-500"]
    assert seeds == workloads.sim_seeds("dense-500", 7, len(seeds))

    ran, tally = [], workloads.Tally()
    workloads.guarded_passes([1, 2, 3], 60.0, tally, ran.append)
    assert ran == [1, 2, 3] and tally.failed == 0
    ran, tally = [], workloads.Tally()
    workloads.guarded_passes([1, 2, 3], -1.0, tally, ran.append)
    assert ran == [] and tally.attempted == tally.failed == 3
    assert "not run" in tally.errors[0]


def test_trimmed_mean_drops_one_outlying_pass():
    assert workloads.trimmed_mean([6.0, 7.0, 80.0]) == 7.0
    assert workloads.trimmed_mean([6.0, 7.0, 8.0, 80.0, 5.0]) == 7.0


# -- host speed probe -------------------------------------------------------
def test_probe_samples_in_its_own_thread_and_reports_the_mean_slowdown():
    with probe.SpeedProbe(period_s=0.001) as p:
        deadline = time.monotonic() + 5.0
        while p.mark() < 5 and time.monotonic() < deadline:
            time.sleep(0.01)
    assert p.mark() >= 5 and p.cpu_s() > 0
    assert all(s > 0 for s in p.samples)

    p.samples = [1e-4, 2e-4, 3e-4, 6e-4]
    ref = probe.REFERENCE_UNIT_S
    assert p.slowdown(0) == pytest.approx(3e-4 / ref)
    assert p.slowdown(1, 3) == pytest.approx(2.5e-4 / ref)
    assert p.slowdown(4) > 0  # an empty window times one unit on the spot


def test_host_times_are_reported_at_the_reference_speed():
    class FixedProbe:
        def __init__(self, slowdown):
            self.value = slowdown

        def slowdown(self, start, end=None):
            return self.value

    work = workloads.Work()
    for slowdown, wall in [(2.0, 8.0), (0.5, 2.0), (1.0, 4.0)]:
        work.samples.append(workloads.Sample("hit", wall / 100))
        workloads.close_pass(work, len(work.samples) - 1, FixedProbe(slowdown),
                             0, wall_s=wall, cpu_s=wall, events=1, jobs=1,
                             delivery_rate=1.0)
    got = work.end_to_end(workloads.setup_figure([(0.6, 2.0), (0.3, 1.0),
                                                  (9.0, 1.0)]))
    assert got["wall_s"] == got["cpu_s"] == pytest.approx(4.0)
    assert work.latencies("hit") == pytest.approx([0.04, 0.04, 0.04])
    assert got["setup_s"] == pytest.approx(0.3)
    assert [p.wall_s for p in work.passes] == [8.0, 2.0, 4.0]  # raw kept


# -- spans ------------------------------------------------------------------
def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    #            0: parent [0, 10]
    #  1: [1, 3]   2: [2, 5] (overlaps 1)   3: [9, 12] (runs past 10)
    #  4: [1.5, 2] under 1;  5: [20, 21] unrelated root
    starts = [0.0, 1.0, 2.0, 9.0, 1.5, 20.0]
    ends = [10.0, 3.0, 5.0, 12.0, 2.0, 21.0]
    parents = [-1, 0, 0, 0, 1, -1]
    got = self_times(starts, ends, parents)
    assert got.tolist() == pytest.approx([10 - 4 - 1, 1.5, 3.0, 3.0, 0.5, 1.0])


def test_recorder_adopts_spans_opened_inside_a_dispatch():
    rec = SpanRecorder()
    loop = rec.open(rec.name_id("des.loop"))
    child = rec.open(rec.name_id("phy.transmit"))
    grandchild = rec.open(rec.name_id("mobility.position"))
    rec.close(grandchild)
    rec.close(child)
    t = rec.table()
    assert t["parent"][child] == PENDING
    rec.dispatch(rec.name_id("mac.dispatch"), t["start"][child], t["end"][child])
    rec.close(loop)
    t = rec.table()
    dispatch = len(t["name"]) - 1
    assert t["parent"].tolist() == [NO_PARENT, dispatch, child, loop]
