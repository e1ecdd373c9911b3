"""Spans for the traced benchmark run, recorded from the benchmark's side.

A span is ``(name, start, end, parent, run)``.  Spans are opened and
closed by wrappers that :class:`Patcher` installs at run time on the
program's public functions (``Medium.transmit``, ``ResultCache.get``,
...), and by :class:`DispatchObserver`, a ``Simulator.instrument``
observer that turns every event-loop dispatch into a span named after
the layer owning its callback.  Nothing in ``src/`` is changed.

Each thread records into its own plain arrays (no lock on the hot
path); :meth:`SpanRecorder.table` merges them at the end.  Self time
(:func:`self_times`) is a span's duration minus the part of it that its
children cover.
"""

from __future__ import annotations

import functools
import sys
import threading
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = -1
#: Parent of a span opened inside a dispatch: the dispatch span is
#: written only after its callback returns, and then adopts it.
PENDING = -2

#: Module prefix of a callback -> the layer it belongs to.
LAYER_BY_MODULE: Tuple[Tuple[str, str], ...] = (
    ("repro.des", "des"),
    ("repro.mac", "mac"),
    ("repro.phy", "phy"),
    ("repro.energy", "energy"),
    ("repro.mobility", "mobility"),
    ("repro.core", "protocol"),
    ("repro.protocols", "protocol"),
    ("repro.traffic", "traffic"),
    ("repro.metrics", "metrics"),
    ("repro.faults", "faults"),
    ("repro.net", "net"),
)

#: ``repro.net.Node`` hosts the glue callbacks of two kernel layers.
LAYER_BY_QUALNAME: Dict[str, str] = {
    "Node._on_crossing": "mobility",
    "Node._on_paged": "phy",
}


def layer_of(name: str) -> str:
    """A span name is ``<layer>.<what>``."""
    return name.split(".", 1)[0]


def _unwrap(fn: Any) -> Any:
    """See through ``Timer``/``PeriodicTimer._fire`` to the callback."""
    if getattr(fn, "__qualname__", "").endswith("._fire"):
        inner = getattr(getattr(fn, "__self__", None), "fn", None)
        if inner is not None:
            return inner
    return fn


def classify(fn: Any) -> Tuple[str, str]:
    """``(span name, qualname)`` of a dispatched (unwrapped) callback."""
    qualname = getattr(fn, "__qualname__", type(fn).__qualname__)
    func = getattr(fn, "__func__", fn)
    module = getattr(func, "__module__", None) or type(fn).__module__ or ""
    if qualname.startswith("Medium._finish"):
        return "phy.completion", qualname
    layer = LAYER_BY_QUALNAME.get(qualname)
    if layer is None:
        layer = "other"
        for prefix, name in LAYER_BY_MODULE:
            if module == prefix or module.startswith(prefix + "."):
                layer = name
                break
    return f"{layer}.dispatch", qualname


class _ThreadSpans:
    __slots__ = ("names", "starts", "ends", "parents", "runs", "stack",
                 "pending_from", "loops", "run")

    def __init__(self) -> None:
        self.names = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.runs = array("l")
        self.stack: List[int] = []
        self.pending_from = 0
        #: Indices of open ``des.loop`` spans (children go PENDING).
        self.loops: List[int] = []
        self.run = 0


class SpanRecorder:
    """In-memory span store, one array set per recording thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: List[_ThreadSpans] = []
        self._lock = threading.Lock()
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.runs: List[str] = ["-"]
        self._loop_id = self.name_id("des.loop")

    def name_id(self, name: str) -> int:
        with self._lock:
            nid = self._ids.get(name)
            if nid is None:
                nid = self._ids[name] = len(self.names)
                self.names.append(name)
            return nid

    def _spans(self) -> _ThreadSpans:
        ts = getattr(self._local, "spans", None)
        if ts is None:
            ts = self._local.spans = _ThreadSpans()
            with self._lock:
                self._threads.append(ts)
        return ts

    def set_run(self, label: str) -> None:
        """Tag the calling thread's following spans with run ``label``."""
        with self._lock:
            self.runs.append(label)
            rid = len(self.runs) - 1
        self._spans().run = rid

    # -- recording -------------------------------------------------------
    def open(self, nid: int) -> int:
        ts = self._spans()
        idx = len(ts.names)
        stack = ts.stack
        if not stack:
            parent = ROOT
        elif ts.loops and stack[-1] == ts.loops[-1]:
            parent = PENDING
        else:
            parent = stack[-1]
        ts.names.append(nid)
        ts.starts.append(perf_counter())
        ts.ends.append(0.0)
        ts.parents.append(parent)
        ts.runs.append(ts.run)
        stack.append(idx)
        if nid == self._loop_id:
            ts.loops.append(idx)
            ts.pending_from = idx + 1
        return idx

    def close(self, idx: int) -> None:
        ts = self._spans()
        ts.ends[idx] = perf_counter()
        ts.stack.pop()
        if ts.loops and ts.loops[-1] == idx:
            ts.loops.pop()

    def dispatch(self, nid: int, start: float, end: float) -> None:
        """Write a finished dispatch span and adopt its pending children."""
        ts = self._spans()
        idx = len(ts.names)
        ts.names.append(nid)
        ts.starts.append(start)
        ts.ends.append(end)
        ts.parents.append(ts.loops[-1] if ts.loops else ROOT)
        ts.runs.append(ts.run)
        parents = ts.parents
        for i in range(ts.pending_from, idx):
            if parents[i] == PENDING:
                parents[i] = idx
        ts.pending_from = idx + 1

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` recorded as a span called ``name``."""
        nid = self.name_id(name)
        opener, closer = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = opener(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                closer(idx)

        return functools.update_wrapper(traced, fn)

    # -- readout ---------------------------------------------------------
    def table(self) -> Dict[str, np.ndarray]:
        """All spans as columns; parents are global row indices."""
        cols: Dict[str, List[np.ndarray]] = {
            k: [] for k in ("name", "start", "end", "parent", "run")
        }
        offset = 0
        with self._lock:
            threads = list(self._threads)
        for ts in threads:
            n = len(ts.names)
            parents = np.frombuffer(ts.parents, dtype=np.int64).copy()
            parents[parents >= 0] += offset
            cols["name"].append(np.frombuffer(ts.names, dtype=np.int64))
            cols["start"].append(np.frombuffer(ts.starts, dtype=np.float64))
            cols["end"].append(np.frombuffer(ts.ends, dtype=np.float64))
            cols["parent"].append(parents)
            cols["run"].append(np.frombuffer(ts.runs, dtype=np.int64))
            offset += n
        return {
            k: (np.concatenate(v) if v else np.zeros(0))
            for k, v in cols.items()
        }

    def save(self, path: str) -> None:
        """Write every span (and the name/run vocabularies) to ``path``."""
        t = self.table()
        np.savez_compressed(
            path,
            names=np.array(self.names),
            runs=np.array(self.runs),
            **t,
        )


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> np.ndarray:
    """Each span's duration minus the union of its children's
    intervals, clipped to the span (overlapping children count once)."""
    starts = np.asarray(starts, dtype=np.float64)
    ends = np.asarray(ends, dtype=np.float64)
    parents = np.asarray(parents, dtype=np.int64)
    out = ends - starts
    child = np.nonzero(parents >= 0)[0]
    if child.size == 0:
        return out
    order = child[np.lexsort((starts[child], parents[child]))]
    par = parents[order].tolist()
    cs = starts[order].tolist()
    ce = ends[order].tolist()
    i, n = 0, len(par)
    while i < n:
        p = par[i]
        lo, hi = starts[p], ends[p]
        covered = 0.0
        run_s = run_e = None
        while i < n and par[i] == p:
            s = max(cs[i], lo)
            e = min(ce[i], hi)
            i += 1
            if e <= s:
                continue
            if run_e is None or s > run_e:
                if run_e is not None:
                    covered += run_e - run_s
                run_s, run_e = s, e
            elif e > run_e:
                run_e = e
        if run_e is not None:
            covered += run_e - run_s
        out[p] -= covered
    return out


class DispatchObserver:
    """``Simulator.instrument`` observer: one span per dispatch.

    Counts dispatches per callback qualname and keeps its own cost
    (``overhead_s``), which lands between callbacks and would otherwise
    be charged to the dispatch loop.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.by_qualname: Dict[str, int] = {}
        self.overhead_s = 0.0
        self._kinds: Dict[Any, Tuple[int, str]] = {}

    def on_dispatch(self, event: Any, elapsed: float, queue_len: int) -> None:
        t = perf_counter()
        fn = _unwrap(event.fn)
        func = getattr(fn, "__func__", fn)
        key = getattr(func, "__code__", None) or type(fn)
        kind = self._kinds.get(key)
        if kind is None:
            name, qualname = classify(fn)
            kind = self._kinds[key] = (self.recorder.name_id(name), qualname)
        self.recorder.dispatch(kind[0], t - elapsed, t)
        counts = self.by_qualname
        counts[kind[1]] = counts.get(kind[1], 0) + 1
        self.overhead_s += perf_counter() - t


class Patcher:
    """Installs span wrappers on classes and module functions; undoes
    them all on :meth:`restore`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str,
               after: Optional[Callable[..., None]] = None) -> None:
        """Wrap ``cls.attr`` and every subclass override of it."""
        todo, seen = [cls], set()
        while todo:
            klass = todo.pop()
            if klass in seen:
                continue
            seen.add(klass)
            todo.extend(klass.__subclasses__())
            if attr in klass.__dict__:
                fn = klass.__dict__[attr]
                self._set(klass, attr, self._wrapped(name, fn, after))

    def function(self, fn: Callable[..., Any], name: str,
                 after: Optional[Callable[..., None]] = None) -> None:
        """Wrap ``fn`` under every ``repro`` module name bound to it."""
        wrapped = self._wrapped(name, fn, after)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, wrapped)

    def _wrapped(self, name: str, fn: Callable[..., Any],
                 after: Optional[Callable[..., None]]) -> Callable[..., Any]:
        traced = self.recorder.wrap(name, fn)
        if after is None:
            return traced

        def observed(*args: Any, **kwargs: Any) -> Any:
            out = traced(*args, **kwargs)
            after(out, *args, **kwargs)
            return out

        return functools.update_wrapper(observed, fn)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
