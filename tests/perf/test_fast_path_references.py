"""Tier-2: the kernel's fast paths are semantics-free under faults.

Three structures only make the kernel faster — the timer wheel, the
neighbor-snapshot cache and the cell-indexed carrier-sense probe — and
each keeps its reference implementation inside the kernel: heap
scheduling, the cold-key bucket scan, and the active-list scan.  The
golden harness pins the fast paths on quiet scenarios; this module
forces each reference path from the test side and re-proves
bit-for-bit dispatch/state equivalence on a *faulted* run — crashes,
partitions, page loss and battery drain drive exactly the churny code
paths (timer churn, neighbor-set invalidation, mid-transmission death)
where a cache could go stale without anyone noticing.

Run with ``pytest -m tier2``.
"""

import pytest

from repro.des.core import Simulator
from repro.experiments.config import ExperimentConfig
from repro.faults.plan import standard_fault_plan
from repro.perf.trace import golden_run
from repro.phy.medium import Medium


def faulted_config() -> ExperimentConfig:
    plan = standard_fault_plan(
        0.5, sim_time_s=60.0, width_m=500.0, height_m=500.0,
        n_hosts=24, initial_energy_j=40.0,
    )
    return ExperimentConfig(
        protocol="ecgrid", n_hosts=24, width_m=500.0, height_m=500.0,
        sim_time_s=60.0, n_flows=4, max_speed_mps=2.0,
        initial_energy_j=40.0, seed=2, faults=plan,
    )


def faulted_digests():
    trace, state, _ = golden_run(faulted_config())
    return trace, state


def snapshot_off(monkeypatch):
    """Every neighbor query and transmission takes the bucket scan."""
    monkeypatch.setattr(Medium, "_near_snapshot", lambda self, cell, r: None)


def probe_on(monkeypatch):
    """Carrier sense always probes the cell index, whatever the load."""
    monkeypatch.setattr(Medium, "TX_SCAN_CUTOFF", -1)


def probe_off(monkeypatch):
    """Carrier sense always scans the whole active list."""
    monkeypatch.setattr(Medium, "TX_SCAN_CUTOFF", float("inf"))


def wheel_off(monkeypatch):
    """Timer-class events go straight to the binary heap."""
    at, after = Simulator.at, Simulator.after

    def heap_at(self, time, fn, *args, priority=0, wheel=False):
        return at(self, time, fn, *args, priority=priority)

    def heap_after(self, delay, fn, *args, priority=0, wheel=False):
        return after(self, delay, fn, *args, priority=priority)

    monkeypatch.setattr(Simulator, "at", heap_at)
    monkeypatch.setattr(Simulator, "after", heap_after)


REFERENCES = {
    "snapshot_off": (snapshot_off,),
    "probe_on": (probe_on,),
    "probe_off": (probe_off,),
    "wheel_off": (wheel_off,),
    "all_references": (snapshot_off, probe_off, wheel_off),
}


@pytest.fixture(scope="module")
def baseline():
    return faulted_digests()


@pytest.mark.tier2
@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_reference_path_is_bit_for_bit_under_faults(name, baseline, monkeypatch):
    for force in REFERENCES[name]:
        force(monkeypatch)
    assert faulted_digests() == baseline


@pytest.mark.tier2
def test_wheel_off_really_bypasses_the_wheel(monkeypatch):
    """Guard for the wrapper above: with it installed, no entry is ever
    parked in a wheel slot."""
    wheel_off(monkeypatch)
    sim = Simulator(seed=1)
    sim.after(5.0, lambda: None, wheel=True)
    sim.at(7.0, lambda: None, wheel=True)
    assert sim._wheel_size == 0 and len(sim._queue) == 2
