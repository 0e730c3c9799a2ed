"""Spans around the calls into each layer, recorded from outside the program.

:class:`Tracer` wraps public functions of the program where their callers
look them up (a module attribute, or a method on its class) and records one
span per call: id, name, start, end, parent span and the benchmark
operation in flight.  Spans stay in memory; :meth:`Tracer.dump` writes them
once at exit.  A layer's self time is its span's duration minus the part of
that interval its child spans cover.

Only the controller process is traced: time inside the socket-mode worker
processes shows up as ``groupserver.wait``.
"""

from __future__ import annotations

import gc
import gzip
import inspect
import itertools
import json
import math
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core import cluster as cluster_mod
from repro.core import plan as plan_mod
from repro.core import query as query_mod
from repro.core import wire
from repro.core.agent import PathDumpAgent
from repro.core.executor import ScatterGatherExecutor
from repro.core.groupserver import GroupAgentPool
from repro.core.tib import Tib
from repro.storage.archive import ColdArchive

ENCODERS = ("encode_query_request", "encode_group_batch",
            "encode_record_batch", "encode_observation_batch")
DECODERS = ("decode_group_batch", "decode_result", "decode_alarm_batch")
_RUN_SIGNATURE = inspect.signature(ScatterGatherExecutor.run)
ARCHIVE_STATS = ("segments_skipped", "segment_decodes", "entries_decoded",
                 "decode_cache_hits")

#: Per-layer metrics and their units (see :func:`layer_metrics`).
LAYER_METRICS = {
    "cluster.execute.self_ms": "ms", "executor.run.self_ms": "ms",
    "executor.legs": "count", "query.execute.ms": "ms",
    "query.execute.calls": "count", "query.merge.ms": "ms",
    "query.merge.calls": "count", "plan.execute_plan.ms": "ms",
    "plan.records_scanned": "count", "wire.accounting.ms": "ms",
    "wire.accounting.calls": "count", "wire.accounting.bytes": "B",
    "wire.encode.ms": "ms", "wire.decode.ms": "ms", "wire.encode.bytes": "B",
    "groupserver.wait.ms": "ms", "groupserver.requests": "count",
    "groupserver.post.ms": "ms", "groupserver.posts": "count",
    "groupserver.frames_per_envelope": "count", "tib.add.ms": "ms",
    "tib.add.calls": "count", "tib.evictions": "count",
    "tib.promotions": "count", "tib.full_scans": "count",
    "archive.scan.ms": "ms", "archive.flush.ms": "ms",
    "archive.compact.ms": "ms", "archive.segments_skipped_frac": "frac",
    "archive.entries_decoded_per_row": "count",
    "archive.decode_cache_hit_frac": "frac", "monitor.check.ms": "ms",
    "alarms.per_sweep": "count", "gc.pause_ms": "ms",
    "gc.gen2_collections": "count", "tracing.overhead_frac": "frac",
}


def _covered(intervals: List[Tuple[float, float]], lo: float,
             hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    end = lo
    for start, stop in sorted(intervals):
        start = max(start, end)
        stop = min(stop, hi)
        if stop > start:
            total += stop - start
            end = stop
    return total


class Tracer:
    """Records spans while :attr:`op` names an operation in flight."""

    def __init__(self) -> None:
        #: (id, name, start, end, parent id, op id, amount)
        self.spans: List[Tuple[int, str, float, float, Optional[int],
                               int, int]] = []
        self.op: Optional[int] = None
        self.gc_pause_s = 0.0
        self.gc_gen2 = 0
        self._gc_start: Optional[float] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable,
             amount: Optional[Callable] = None,
             parent: Optional[int] = None,
             children: Optional[Callable] = None) -> Callable:
        """``fn`` recording a ``name`` span per call; ``amount(result)``
        adds a size (bytes, rows) to the span.  ``parent`` overrides the
        calling thread's innermost span (callbacks run on pool threads).
        ``children(sid, args, kwargs)`` returns the call's arguments with
        its callbacks wrapped as children of the call's own span ``sid``."""
        tracer = self

        def traced(*args, **kwargs):
            op = tracer.op
            if op is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            up = parent if parent is not None else (stack[-1] if stack
                                                     else None)
            sid = next(tracer._ids)
            if children is not None:
                args, kwargs = children(sid, args, kwargs)
            stack.append(sid)
            size = 0
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if amount is not None:
                    size = amount(result)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, up, op, size))

        return traced

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _run_callbacks(self, sid: int, args, kwargs):
        """``ScatterGatherExecutor.run``'s work, merge and sizing callbacks
        (the executor's own default when the caller passes none) as child
        spans of the run, so the executor's self time excludes them even
        when they run on the pool's threads."""
        bound = _RUN_SIGNATURE.bind(*args, **kwargs)
        bound.apply_defaults()
        for key in ("work", "merge", "response_bytes"):
            bound.arguments[key] = self.wrap(f"executor.{key}",
                                             bound.arguments[key], parent=sid)
        return bound.args, bound.kwargs

    def _on_gc(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        elif self._gc_start is not None:
            if self.op is not None:
                self.gc_pause_s += time.perf_counter() - self._gc_start
                if info.get("generation") == 2:
                    self.gc_gen2 += 1
            self._gc_start = None

    def install(self) -> None:
        """Wrap every traced function where its callers look it up."""
        accounting = self.wrap("wire.accounting",
                               query_mod.measured_result_wire_bytes,
                               amount=int)
        self._patch(query_mod, "measured_result_wire_bytes", accounting)
        self._patch(cluster_mod, "measured_result_wire_bytes", accounting)
        for name in ENCODERS:
            self._patch(wire, name, self.wrap("wire.encode",
                                              getattr(wire, name),
                                              amount=len))
        for name in DECODERS:
            self._patch(wire, name, self.wrap("wire.decode",
                                              getattr(wire, name)))
        self._patch(plan_mod, "execute_plan",
                    self.wrap("plan.execute_plan", plan_mod.execute_plan,
                              amount=lambda run: run.records_scanned))
        methods = (
            (cluster_mod.QueryCluster, "execute", "cluster.execute", None),
            (query_mod.QueryEngine, "execute", "query.execute", None),
            (query_mod.QueryEngine, "merge", "query.merge", None),
            (GroupAgentPool, "query", "groupserver.wait", None),
            (GroupAgentPool, "group_query", "groupserver.wait", None),
            (GroupAgentPool, "group_monitor_tick", "groupserver.wait", None),
            (GroupAgentPool, "add_records", "groupserver.post", None),
            (GroupAgentPool, "add_observations", "groupserver.post", None),
            (Tib, "add_record", "tib.add", None),
            (ColdArchive, "scan", "archive.scan", len),
            (ColdArchive, "flush", "archive.flush", None),
            (ColdArchive, "compact", "archive.compact", None),
            (PathDumpAgent, "run_monitor", "monitor.check", None),
        )
        for owner, attr, name, amount in methods:
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr],
                                               amount=amount))
        self._patch(ScatterGatherExecutor, "run",
                    self.wrap("executor.run",
                              ScatterGatherExecutor.__dict__["run"],
                              children=self._run_callbacks))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every wrapped function."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    # ------------------------------------------------------------- results
    def _children(self) -> Dict[int, List[Tuple[float, float]]]:
        """Span id -> the intervals of its child spans."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _sid, _name, start, end, parent, _op, _amount in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        return children

    def layer_totals(self, op_kinds: Dict[int, str]
                     ) -> Dict[Tuple[str, str], List[float]]:
        """``(span name, op kind) -> [total s, self s, calls, amount]``,
        with every span also folded under op kind ``"all"``."""
        children = self._children()
        totals: Dict[Tuple[str, str], List[float]] = defaultdict(
            lambda: [0.0, 0.0, 0, 0])
        for sid, name, start, end, _parent, op, amount in self.spans:
            duration = end - start
            own = duration - _covered(children.get(sid, []), start, end)
            for kind in (op_kinds.get(op, "other"), "all"):
                row = totals[(name, kind)]
                row[0] += duration
                row[1] += own
                row[2] += 1
                row[3] += amount
        return totals

    def blocked_s(self, name: str) -> float:
        """Wall time during which some ``name`` call was waiting: each
        span minus its children (which run on the span's own thread),
        then the union over spans, per op - calls that overlap on several
        threads count each instant once."""
        children = self._children()
        pieces: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, span_name, start, end, _parent, op, _amount in self.spans:
            if span_name != name:
                continue
            cursor = start
            for child_start, child_end in sorted(children.get(sid, [])):
                if child_start > cursor:
                    pieces[op].append((cursor, child_start))
                cursor = max(cursor, child_end)
            if end > cursor:
                pieces[op].append((cursor, end))
        return sum(_covered(intervals, -math.inf, math.inf)
                   for intervals in pieces.values())

    def dump(self, path, ops: Sequence[Tuple[int, str, str, float, float]]
             ) -> None:
        """Write the ops and spans once, gzip-compressed JSON."""
        with gzip.open(path, "wt") as out:
            json.dump({"ops": ops, "spans": self.spans}, out)


def counters(cluster) -> Dict[str, float]:
    """Storage counters summed over every local agent (the controller's
    TIBs; in socket mode these are the dual-write mirrors)."""
    totals = dict.fromkeys(("evictions", "promotions", "full_scans")
                           + ARCHIVE_STATS, 0)
    for agent in cluster.agents.values():
        tib = agent.tib
        totals["evictions"] += tib.evictions
        totals["promotions"] += tib.promotions
        totals["full_scans"] += tib.scan_routes["full"]
        if tib.archive is not None:
            for key in ARCHIVE_STATS:
                totals[key] += tib.archive.stats[key]
    return totals


def layer_metrics(tracer: Tracer, op_kinds: Dict[int, str],
                  deltas: Dict[str, float], extra: Dict[str, float]
                  ) -> Dict[str, float]:
    """Every :data:`LAYER_METRICS` entry as a per-op mean.

    Query-path layers are divided by the number of queries, ingest layers
    by ingest batches, the monitor by sweeps, and layers every op kind
    reaches (codec, group waits, archive flush/compaction, GC) by all ops.
    ``deltas`` are :func:`counters` differences summed over the traced
    ops; ``extra`` supplies what the runner measures itself.
    """
    totals = tracer.layer_totals(op_kinds)
    counts = defaultdict(int)
    for kind in op_kinds.values():
        counts[kind] += 1
        counts["all"] += 1

    def per(kind: str, value: float) -> float:
        return value / counts[kind] if counts[kind] else 0.0

    def row(name: str, kind: str) -> List[float]:
        return totals.get((name, kind), [0.0, 0.0, 0, 0])

    def ms(name: str, kind: str, own: bool = False) -> float:
        return per(kind, row(name, kind)[1 if own else 0] * 1e3)

    decoded = deltas.get("entries_decoded", 0)
    hits = deltas.get("decode_cache_hits", 0)
    skipped = deltas.get("segments_skipped", 0)
    rows = row("archive.scan", "all")[3]
    metrics = {
        "cluster.execute.self_ms": ms("cluster.execute", "query", own=True),
        "executor.run.self_ms": ms("executor.run", "query", own=True),
        "executor.legs": per("query", row("executor.work", "query")[2]),
        "query.execute.ms": ms("query.execute", "query"),
        "query.execute.calls": per("query", row("query.execute", "query")[2]),
        "query.merge.ms": ms("query.merge", "query"),
        "query.merge.calls": per("query", row("query.merge", "query")[2]),
        "plan.execute_plan.ms": ms("plan.execute_plan", "query"),
        "plan.records_scanned": per("query",
                                    row("plan.execute_plan", "query")[3]),
        "wire.accounting.ms": ms("wire.accounting", "query"),
        "wire.accounting.calls": per("query",
                                     row("wire.accounting", "query")[2]),
        "wire.accounting.bytes": per("query",
                                     row("wire.accounting", "query")[3]),
        "wire.encode.ms": ms("wire.encode", "all"),
        "wire.decode.ms": ms("wire.decode", "all"),
        "wire.encode.bytes": per("all", row("wire.encode", "all")[3]),
        "groupserver.wait.ms": per("all",
                                   tracer.blocked_s("groupserver.wait") * 1e3),
        "groupserver.requests": per("all", row("groupserver.wait", "all")[2]),
        "groupserver.post.ms": ms("groupserver.post", "ingest"),
        "groupserver.posts": per("ingest",
                                 row("groupserver.post", "ingest")[2]),
        "tib.add.ms": ms("tib.add", "ingest"),
        "tib.add.calls": per("ingest", row("tib.add", "ingest")[2]),
        "tib.evictions": per("ingest", deltas.get("evictions", 0)),
        "tib.promotions": per("ingest", deltas.get("promotions", 0)),
        "tib.full_scans": per("query", deltas.get("full_scans", 0)),
        "archive.scan.ms": ms("archive.scan", "query"),
        "archive.flush.ms": ms("archive.flush", "all"),
        "archive.compact.ms": ms("archive.compact", "all"),
        "archive.segments_skipped_frac": (
            skipped / (skipped + deltas.get("segment_decodes", 0))
            if skipped else 0.0),
        "archive.entries_decoded_per_row": decoded / rows if rows else 0.0,
        "archive.decode_cache_hit_frac": (hits / (hits + decoded)
                                          if hits else 0.0),
        "monitor.check.ms": ms("monitor.check", "sweep"),
        "gc.pause_ms": per("all", tracer.gc_pause_s * 1e3),
        "gc.gen2_collections": per("all", tracer.gc_gen2),
    }
    metrics.update(extra)
    return metrics
