"""Process-parallel agent servers: each host's TIB in its own worker process.

PathDump's central claim is that trajectory queries run *on the end hosts
themselves*.  The thread-pool executor already overlaps transport waits, but
pure-Python per-host query work is GIL-bound: a CPU-heavy 8-host scatter on
threads runs no faster than serially.  This module moves the per-host state
out of the controller process entirely:

* :func:`agent_server_main` - the worker process.  It owns one host's
  :class:`~repro.core.tib.Tib`, a :class:`~repro.core.query.QueryEngine`
  *and* the host's :class:`~repro.core.monitor.ActiveMonitor`, and speaks
  the :mod:`~repro.core.wire` binary protocol over a pipe: the simulator
  streams encoded record batches and transfer-observation batches in, the
  executor sends encoded query(+subtree-spec) requests and receives encoded
  results, and the controller's monitor sweep sends tick commands answered
  with alarm batches.  No pickle crosses the pipe on the query path.
* The **event plane**: the worker's monitor is the authoritative one in
  process mode.  Alarms it raises (periodic checks, alarm-raising query
  handlers like ``path_conformance``) are queued host-side and travel to
  the controller either as the reply to a monitor tick or piggybacked on
  the next query reply - the strict request/reply pipe's rendering of the
  asynchronous agent -> controller alert channel.
* :class:`AgentServerPool` - the controller-side handle: spawns one worker
  per host, streams ingest (records and observations), runs queries and
  monitor ticks, and exposes ``kill``/``alive`` for failure testing.  A
  killed worker surfaces as :class:`AgentServerError` on the next
  exchange, which the scatter-gather executor turns into the same
  ``partial=True`` / ``hosts_failed`` / ``W_HOST_FAILED`` outcome as a
  dead in-thread agent.  With a
  :class:`~repro.core.supervisor.Supervisor` attached the pool becomes
  self-healing: every failure path (send error, EOF, reply timeout,
  undecodable reply) hands the host to the supervisor, which respawns the
  worker and re-seeds it from the local mirrors before the error
  surfaces - so the next exchange (or an executor retry) lands on a
  healthy, state-identical worker.  A
  :class:`~repro.core.supervisor.ChaosPolicy` hooks the same paths for
  deterministic gray-failure injection.
* :class:`ProcessTransport` - a :class:`~repro.core.executor.ModelTransport`
  bound to a pool.  Request/response *sizes* are the real encoded frame
  lengths (the cluster builds plans from ``len(encoded)``), the channel
  model still prices the legs, and the measured wall clock shows the real
  process-level overlap.

Because workers block in ``recv`` (releasing nothing - they are separate
processes), a CPU-bound scatter's per-host work runs genuinely in parallel
across cores while the executor threads merely wait on pipes.
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core import wire
from repro.core.alarms import Alarm
from repro.core.executor import ModelTransport
from repro.core.monitor import (ActiveMonitor, MonitorSnapshot,
                                TransferObservation)
from repro.core.query import BUILTIN_QUERIES, QueryEngine, QueryResult
from repro.core.rpc import RpcChannel
from repro.core.tib import Tib
from repro.storage.records import PathFlowRecord

#: Queries an agent-server worker can answer: every built-in, including the
#: monitor-backed (``poor_tcp_flows``) and alarm-raising
#: (``path_conformance``) ones - the worker owns the host's monitor and its
#: alarms travel back over the wire.  Only *custom* handlers registered on
#: individual in-process agents fall back local (the worker cannot know
#: them).
SERVED_QUERIES = BUILTIN_QUERIES


class AgentServerError(RuntimeError):
    """An agent-server worker failed or became unreachable."""


class _WorkerAgent:
    """The slice of the agent API the query handlers and event plane need.

    Lives inside the worker process; serves everything in
    :data:`SERVED_QUERIES` from the worker-owned :class:`Tib` and
    :class:`ActiveMonitor`.  Alarms raised host-side (periodic checks,
    ``Alarm(...)`` calls from query handlers) are queued on
    ``pending_alarms`` until a reply frame carries them to the controller.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self.tib = Tib(host)
        self.pending_alarms: List[Alarm] = []
        self.monitor = ActiveMonitor(host,
                                     alarm_sink=self.pending_alarms.append)
        self.alarms_raised: List[Alarm] = []

    # Host API subset (mirrors PathDumpAgent over the TIB + monitor).
    def records(self, flow_id=None, link=None, time_range=None,
                include_live: bool = False) -> List[PathFlowRecord]:
        return self.tib.records(flow_id=flow_id, link=link,
                                time_range=time_range)

    def get_flows(self, link=None, time_range=None,
                  include_live: bool = False):
        return self.tib.get_flows(link, time_range)

    def get_paths(self, flow_id, link=None, time_range=None,
                  include_live: bool = False):
        return self.tib.get_paths(flow_id, link, time_range)

    def get_count(self, flow, time_range=None, include_live: bool = False):
        return self.tib.get_count(flow, time_range)

    def get_duration(self, flow, time_range=None,
                     include_live: bool = False):
        return self.tib.get_duration(flow, time_range)

    def get_poor_tcp_flows(self, threshold=None):
        return self.monitor.get_poor_tcp_flows(threshold)

    def alarm(self, flow_id, reason, paths, detail: str = "",
              when: float = 0.0) -> Alarm:
        """``Alarm(flowID, Reason, Paths)`` - queued for the next reply."""
        alarm = Alarm(flow_id=flow_id, reason=reason,
                      paths=[tuple(p) for p in paths], host=self.host,
                      time=when, detail=detail)
        self.alarms_raised.append(alarm)
        self.pending_alarms.append(alarm)
        return alarm

    def drain_alarms(self) -> Tuple[Alarm, ...]:
        """Take every pending alarm (they leave on the reply being built)."""
        drained = tuple(self.pending_alarms)
        self.pending_alarms.clear()
        return drained


class _HostServer:
    """One host's worker-side frame switch: state + ``frame -> reply``.

    The protocol logic shared by the single-host pipe worker
    (:func:`agent_server_main`) and the group workers
    (:func:`~repro.core.groupserver.group_server_main`, which owns one of
    these per host and routes ``MSG_GROUP_BATCH`` entries to them).
    Record/observation batches and monitor-state seeds are fire-and-forget
    (the channel's FIFO ordering guarantees they are applied before any
    later query or tick); an ingest failure is latched on
    ``pending_error`` and reported as the reply to the next request
    instead of being lost.  Alarms raised host-side are queued and leave
    on the next reply that can carry them: a monitor tick's alarm batch,
    or piggybacked on a query result.
    """

    def __init__(self, host: str) -> None:
        self.host = host
        self.agent = _WorkerAgent(host)
        self.engine = QueryEngine()
        self.pending_error: Optional[str] = None

    def note_error(self, detail: str) -> None:
        """Latch an out-of-band failure (reported on the next request)."""
        self.pending_error = detail

    def serve(self, frame: bytes) -> Optional[bytes]:
        """Serve one frame; returns the reply bytes, or ``None`` for
        fire-and-forget frames (lifecycle frames - shutdown - are the
        caller's business and produce ``None`` here too)."""
        agent = self.agent
        try:
            kind, _reader = wire.open_frame(frame)
        except wire.WireError as error:
            self.pending_error = f"undecodable frame: {error}"
            return None
        if kind == wire.MSG_RECORD_BATCH:
            try:
                agent.tib.add_records(wire.decode_record_batch(frame),
                                      adopt=True)
            except Exception as error:
                self.pending_error = (f"record batch failed: "
                                      f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_OBSERVATION_BATCH:
            try:
                for obs in wire.decode_observation_batch(frame):
                    agent.monitor.apply_observation(obs)
            except Exception as error:
                self.pending_error = (f"observation batch failed: "
                                      f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_MONITOR_STATE:
            try:
                agent.monitor.restore(wire.decode_monitor_state(frame))
            except Exception as error:
                self.pending_error = (f"monitor state failed: "
                                      f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_RETENTION:
            # Fire-and-forget, like ingest: the channel's FIFO ordering
            # guarantees the cap is in force before any later record
            # batch, so the worker ages records host-side exactly as
            # the controller's local TIB does.
            try:
                max_records, max_bytes = wire.decode_retention(frame)
                agent.tib.configure_retention(max_records=max_records,
                                              max_bytes=max_bytes)
            except Exception as error:
                self.pending_error = (f"retention config failed: "
                                      f"{type(error).__name__}: {error}")
        elif kind in (wire.MSG_QUERY_REQUEST, wire.MSG_PLAN_REQUEST):
            if self.pending_error is not None:
                reply = wire.encode_error(self.pending_error)
                self.pending_error = None
                return reply
            try:
                # decode_query_request accepts both frame kinds, and
                # encode_result routes plan results to the generic
                # MSG_PLAN_RESULT frame - so plans ride every worker
                # transport (pipe, socket, group batches) through the
                # exact same request/reply path as legacy queries.
                query, _spec = wire.decode_query_request(frame)
                # measure_wire=False: the frame we are about to send IS
                # the measurement (encoding twice would double the
                # serialization cost on the hot path); the client sets
                # wire_bytes = len(frame) on decode.
                result = self.engine.execute(agent, query,
                                             measure_wire=False)
                # Drain *after* executing: alarms the handler raised
                # ride this reply to the controller's bus.
                result.alarms = agent.drain_alarms()
                return wire.encode_result(result)
            except Exception as error:
                return wire.encode_error(f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_MONITOR_TICK:
            if self.pending_error is not None:
                reply = wire.encode_error(self.pending_error)
                self.pending_error = None
                return reply
            try:
                now, threshold = wire.decode_monitor_tick(frame)
                agent.monitor.run_check(now, threshold)
                # The check's alarms landed on the pending queue via
                # the monitor's sink; the reply drains everything
                # pending (including alarms from earlier activity).
                return wire.encode_alarm_batch(agent.drain_alarms())
            except Exception as error:
                return wire.encode_error(f"{type(error).__name__}: {error}")
        elif kind == wire.MSG_MONITOR_PULL:
            if self.pending_error is not None:
                # The snapshot is the mirror's ground truth; serving it
                # while an observation/seed batch silently failed would
                # report state the worker never reached.
                reply = wire.encode_error(self.pending_error)
                self.pending_error = None
                return reply
            return wire.encode_monitor_state(agent.monitor.snapshot())
        elif kind == wire.MSG_PING:
            # A pong doubles as the worker-side flush barrier: any
            # write-behind records staged by earlier ingest frames are
            # forced into the archive log before the tier counters are
            # read, so the reply never describes a torn cold tier.
            agent.tib.flush_archive()
            tiers = agent.tib.tier_stats()
            return wire.encode_pong(
                agent.tib.total_record_count(),
                len(agent.monitor.flows),
                hot_records=tiers["hot_records"],
                hot_bytes=tiers["hot_bytes"],
                cold_records=tiers["cold_records"],
                cold_bytes=tiers["cold_bytes"])
        elif kind == wire.MSG_RESET:
            agent.tib.clear()
            agent.monitor.reset()
            agent.pending_alarms.clear()
            agent.alarms_raised.clear()
            self.pending_error = None  # a reset wipes latched ingest errors
        elif kind == wire.MSG_SLEEP:
            time.sleep(wire.decode_sleep(frame))
        elif kind == wire.MSG_SHUTDOWN:
            pass  # lifecycle frame; handled by the worker's main loop
        else:
            self.pending_error = f"unknown message type {kind}"
        return None


def agent_server_main(conn, host: str) -> None:
    """Worker process main loop: serve wire frames until shutdown/EOF.

    The frame switch itself lives in :class:`_HostServer` (shared with the
    group workers); this loop only owns the pipe lifecycle.
    """
    server = _HostServer(host)
    try:
        while True:
            try:
                frame = conn.recv_bytes()
            except (EOFError, OSError):
                break
            try:
                kind = wire.frame_type(frame)
            except wire.WireError as error:
                server.note_error(f"undecodable frame: {error}")
                continue
            if kind == wire.MSG_SHUTDOWN:
                break
            reply = server.serve(frame)
            if reply is not None:
                conn.send_bytes(reply)
    finally:
        conn.close()


@dataclass
class PoolStats:
    """Frame/byte counters and self-healing telemetry of one pool.

    The supervision counters let callers tell "healthy" from "degraded"
    at a glance: ``restarts``/``reseed_ms`` say how often (and how
    expensively) workers were recovered, ``circuit_open`` how many hosts
    exhausted their restart budget and fell back to dead-agent
    semantics, ``mirror_detaches`` how many ingest mirrors gave up on an
    unrecoverable worker, and ``decode_errors`` how many reply frames
    were corrupt (each one also counts as a worker failure).
    """

    frames_sent: int = 0
    bytes_sent: int = 0
    frames_received: int = 0
    bytes_received: int = 0
    #: Supervised restarts that completed (respawn + re-seed + barrier).
    restarts: int = 0
    #: Total milliseconds spent respawning and re-seeding workers.
    reseed_ms: float = 0.0
    #: Hosts whose restart budget was exhausted (circuit opened).
    circuit_open: int = 0
    #: Record/observation mirrors that detached after delivery failed
    #: with no (further) recovery possible.
    mirror_detaches: int = 0
    #: Reply frames that failed to decode (protocol desync; the worker
    #: is killed and, when supervised, restarted).
    decode_errors: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.frames_sent = 0
        self.bytes_sent = 0
        self.frames_received = 0
        self.bytes_received = 0
        self.restarts = 0
        self.reseed_ms = 0.0
        self.circuit_open = 0
        self.mirror_detaches = 0
        self.decode_errors = 0


#: Distinguishes "use the pool's reply timeout" from an explicit ``None``.
_UNSET = object()


class AgentServerPool:
    """One agent-server worker process per host, plus the client protocol.

    Args:
        hosts: hosts to spawn workers for.
        context: a :mod:`multiprocessing` context or start-method name
            (defaults to the platform default - ``fork`` on Linux, which
            keeps worker start cheap).
        reply_timeout_s: optional deadline for a worker's reply; ``None``
            blocks until the worker answers or dies (a killed worker's pipe
            raises immediately, so failure tests never hang).
        supervisor: optional :class:`~repro.core.supervisor.Supervisor`;
            when attached, worker failures trigger restart-with-recovery
            instead of being permanent (see the module docstring).
        chaos: optional :class:`~repro.core.supervisor.ChaosPolicy` for
            deterministic gray-failure injection on the send/receive
            paths (fault frames it injects are not counted in ``stats``).
    """

    def __init__(self, hosts: Sequence[str], context=None,
                 reply_timeout_s: Optional[float] = None,
                 supervisor=None, chaos=None) -> None:
        if isinstance(context, str) or context is None:
            context = multiprocessing.get_context(context)
        self._context = context
        self.reply_timeout_s = reply_timeout_s
        self.supervisor = supervisor
        self.chaos = chaos
        self.stats = PoolStats()  # guarded-by: _stats_lock
        self._stats_lock = threading.Lock()
        self._closed = False
        # The per-host exchange lock (``_lock_for``) guards the pipe pair:
        # the protocol is strict request/reply, so two threads exchanging
        # on one worker unlocked would interleave frames and desynchronise
        # the connection forever.
        self._conns = {}  # guarded-by: _lock_for
        self._procs = {}  # guarded-by: _lock_for
        self._locks: Dict[str, threading.Lock] = {}
        for host in hosts:
            self._locks[host] = threading.Lock()
            self._spawn(host)

    def _spawn(self, host: str) -> None:  # holds: _lock_for
        """(Re)create ``host``'s worker process and pipe (called from
        ``__init__`` before any concurrency, or under the host lock)."""
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=agent_server_main, args=(child_conn, host),
            name=f"pathdump-agent-{host}", daemon=True)
        process.start()
        child_conn.close()
        self._conns[host] = parent_conn
        self._procs[host] = process

    # ------------------------------------------------------------------- API
    @property
    def hosts(self) -> List[str]:
        """Hosts this pool runs workers for."""
        # Keys are fixed at construction (only values are respawned), so
        # an unlocked snapshot of the key set is stable.
        return list(self._procs)  # lint: disable=R3 -- key set is construction-time constant

    #: Records per ingest frame: large batches are split so no single frame
    #: monopolises the pipe (the worker interleaves consuming them with
    #: serving queries queued behind).
    INGEST_CHUNK_RECORDS = 4096

    def add_records(self, host: str,
                    records: Sequence[PathFlowRecord]) -> int:
        """Stream a record batch to ``host``'s worker; returns frame bytes.

        Fire-and-forget: the pipe's ordering guarantees the batches land
        before any later query on the same connection.  Use :meth:`ping`
        afterwards to barrier on the ingest having been applied.
        """
        if not records:
            return 0
        total = 0
        chunk = self.INGEST_CHUNK_RECORDS
        with self._lock_for(host):
            for start in range(0, len(records), chunk):
                frame = wire.encode_record_batch(records[start:start + chunk])
                self._send(host, frame)
                total += len(frame)
        return total

    def add_observations(self, host: str,
                         observations: Sequence[TransferObservation]) -> int:
        """Stream a transfer-observation batch to ``host``'s worker.

        Fire-and-forget, like :meth:`add_records`: pipe ordering guarantees
        the observations land before any later tick or query.  Returns the
        frame bytes sent.
        """
        if not observations:
            return 0
        total = 0
        chunk = self.INGEST_CHUNK_RECORDS
        with self._lock_for(host):
            for start in range(0, len(observations), chunk):
                frame = wire.encode_observation_batch(
                    observations[start:start + chunk])
                self._send(host, frame)
                total += len(frame)
        return total

    def set_retention(self, host: str, max_records: Optional[int],
                      max_bytes: Optional[int]) -> int:
        """Configure ``host``'s worker hot-tier bounds (two-tier TIB).

        Fire-and-forget: pipe FIFO ordering puts the cap in force before
        any later ingest on the same connection.  Returns the frame bytes
        sent.
        """
        frame = wire.encode_retention(max_records, max_bytes)
        with self._lock_for(host):
            self._send(host, frame)
        return len(frame)

    def tier_stats(self, host: str) -> Dict[str, int]:
        """Pull ``host``'s worker two-tier stats off a liveness probe."""
        with self._lock_for(host):
            self._send(host, wire.encode_ping())
            reply = self._recv(host)
            (total, monitor_flows, hot_records, hot_bytes, cold_records,
             cold_bytes) = self._checked_decode(host, reply,
                                                wire.decode_pong_tiers)
        return {"total_records": total, "monitor_flows": monitor_flows,
                "hot_records": hot_records, "hot_bytes": hot_bytes,
                "cold_records": cold_records, "cold_bytes": cold_bytes}

    def seed_monitor(self, host: str, snapshot: MonitorSnapshot) -> int:
        """Replace ``host``'s worker monitor state with ``snapshot``.

        Fire-and-forget (the startup sync barrier is the later ping).
        Returns the frame bytes sent.
        """
        frame = wire.encode_monitor_state(snapshot)
        with self._lock_for(host):
            self._send(host, frame)
        return len(frame)

    def query(self, host: str, query,
              spec: Optional[wire.SubtreeSpec] = None) -> QueryResult:
        """Run ``query`` on ``host``'s worker; returns its partial result.

        The request is the batched query+spec frame; the reply's measured
        frame length becomes the result's ``wire_bytes``.  Alarms the
        worker had pending ride the reply on ``result.alarms`` - the
        caller is responsible for dispatching them to the alarm bus.
        """
        frame = wire.encode_query_request(query, spec)
        with self._lock_for(host):
            self._send(host, frame)
            reply = self._recv(host)
            kind = self._checked_decode(host, reply, wire.frame_type)
            if kind == wire.MSG_ERROR:
                detail = self._checked_decode(host, reply, wire.decode_error)
                raise AgentServerError(f"agent server on {host}: {detail}")
            return self._checked_decode(host, reply, wire.decode_result,
                                        query)

    def monitor_tick(self, host: str, now: float,
                     threshold: Optional[int] = None
                     ) -> Tuple[List[Alarm], int]:
        """Run one periodic monitor check on ``host``'s worker.

        Returns ``(alarms, reply_bytes)``: the alarms the check raised
        (plus any the worker had pending) and the measured length of the
        alarm-batch reply frame that carried them.
        """
        frame = wire.encode_monitor_tick(now, threshold)
        with self._lock_for(host):
            self._send(host, frame)
            reply = self._recv(host)
            kind = self._checked_decode(host, reply, wire.frame_type)
            if kind == wire.MSG_ERROR:
                detail = self._checked_decode(host, reply, wire.decode_error)
                raise AgentServerError(f"agent server on {host}: {detail}")
            return (self._checked_decode(host, reply,
                                         wire.decode_alarm_batch),
                    len(reply))

    def monitor_state(self, host: str) -> MonitorSnapshot:
        """Pull ``host``'s worker monitor-state snapshot."""
        with self._lock_for(host):
            self._send(host, wire.encode_monitor_pull())
            reply = self._recv(host)
            kind = self._checked_decode(host, reply, wire.frame_type)
            if kind == wire.MSG_ERROR:
                detail = self._checked_decode(host, reply, wire.decode_error)
                raise AgentServerError(f"agent server on {host}: {detail}")
            return self._checked_decode(host, reply,
                                        wire.decode_monitor_state)

    def ping(self, host: str) -> int:
        """Probe ``host``'s worker; returns its TIB record count."""
        return self.ping_state(host)[0]

    def ping_state(self, host: str) -> Tuple[int, int]:
        """Probe ``host``'s worker: ``(TIB records, monitor flows)``."""
        with self._lock_for(host):
            self._send(host, wire.encode_ping())
            reply = self._recv(host)
            return self._checked_decode(host, reply, wire.decode_pong_state)

    def reset(self, host: str) -> None:
        """Clear ``host``'s worker state (TIB, monitor, pending alarms)."""
        with self._lock_for(host):
            self._send(host, wire.encode_reset())

    def stall(self, host: str, seconds: float) -> None:
        """Make ``host``'s worker sleep before its next frame (debug/test)."""
        with self._lock_for(host):
            self._send(host, wire.encode_sleep(seconds))

    def kill(self, host: str) -> None:
        """Hard-kill ``host``'s worker (failure injection)."""
        self._lock_for(host)  # raises for unknown hosts
        self._procs[host].kill()  # lint: disable=R3 -- failure injection must not queue behind an in-flight exchange

    def alive(self, host: str) -> bool:
        """Whether ``host``'s worker process is running."""
        self._lock_for(host)  # raises for unknown hosts
        return self._procs[host].is_alive()  # lint: disable=R3 -- liveness probe is racy by contract

    def healthy(self, host: str) -> bool:
        """Whether ``host``'s worker is serving: process alive and (when
        supervised) its restart circuit still closed."""
        if self.supervisor is not None and self.supervisor.circuit_open(host):
            return False
        process = self._procs.get(host)  # lint: disable=R3 -- health probe is racy by contract
        return process is not None and process.is_alive()

    def note_restart(self, reseed_ms: float) -> None:
        """Supervisor hook: one worker restart completed."""
        with self._stats_lock:
            self.stats.restarts += 1
            self.stats.reseed_ms += reseed_ms

    def note_circuit_open(self) -> None:
        """Supervisor hook: one host's restart budget was exhausted."""
        with self._stats_lock:
            self.stats.circuit_open += 1

    def note_mirror_detach(self, host: str) -> None:
        """Cluster hook: an ingest mirror for ``host`` detached."""
        with self._stats_lock:
            self.stats.mirror_detaches += 1

    def _lock_for(self, host: str) -> threading.Lock:
        lock = self._locks.get(host)
        if lock is None:
            raise AgentServerError(f"no agent server for {host}")
        return lock

    def reset_stats(self) -> None:
        """Zero the pool's frame/byte counters."""
        with self._stats_lock:
            self.stats.reset()

    def shutdown(self, join_timeout_s: float = 2.0) -> None:
        """Stop every worker (politely, then by force) and close the pipes.

        Idempotent: calling it again is a no-op (closed pipes swallow the
        polite shutdown, dead processes join immediately).  Marks the
        pool closed *first* so a concurrent failure cannot trigger a
        supervised restart of a worker that is being torn down.
        """
        self._closed = True
        # _closed (set above) keeps supervision from respawning workers
        # underneath the teardown, so the unlocked iteration is safe.
        for host, conn in self._conns.items():  # lint: disable=R3 -- teardown runs after _closed is latched
            try:
                conn.send_bytes(wire.encode_shutdown())
            except (OSError, ValueError):
                pass
        for host, process in self._procs.items():  # lint: disable=R3 -- teardown runs after _closed is latched
            process.join(join_timeout_s)
            if process.is_alive():
                process.kill()
                process.join(join_timeout_s)
        for conn in self._conns.values():  # lint: disable=R3 -- teardown runs after _closed is latched
            try:
                conn.close()
            except OSError:
                pass

    def __enter__(self) -> "AgentServerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # ------------------------------------------------------------- internals
    def _send(self, host: str, frame: bytes, supervise: bool = True,
              reseed: bool = False) -> None:  # holds: _lock_for
        conn = self._conns.get(host)
        if conn is None:
            raise AgentServerError(f"no agent server for {host}")
        if self.chaos is not None:
            for extra in self.chaos.before_send(self, host, frame,
                                                reseed=reseed):
                try:
                    conn.send_bytes(extra)
                except (OSError, ValueError, BrokenPipeError):
                    pass  # injected fault frames are best-effort
        try:
            conn.send_bytes(frame)
        except (OSError, ValueError, BrokenPipeError) as error:
            raise self._worker_failed(
                host,
                f"agent server on {host} unreachable: "
                f"{type(error).__name__}: {error}",
                supervise=supervise) from error
        with self._stats_lock:
            self.stats.frames_sent += 1
            self.stats.bytes_sent += len(frame)

    def _recv(self, host: str, supervise: bool = True,
              timeout_s=_UNSET) -> bytes:  # holds: _lock_for
        conn = self._conns[host]
        timeout = self.reply_timeout_s if timeout_s is _UNSET else timeout_s
        try:
            if timeout is not None and not conn.poll(timeout):
                # The reply will still arrive *eventually* and would sit in
                # the pipe, answering the wrong request forever after (the
                # protocol is strict request/reply).  A timed-out worker is
                # declared dead: kill it and close the pipe so every later
                # exchange fails loudly instead of desynchronising.
                self._procs[host].kill()
                try:
                    conn.close()
                except OSError:
                    pass
                raise self._worker_failed(
                    host,
                    f"agent server on {host} did not reply within "
                    f"{timeout}s; worker killed", supervise=supervise)
            reply = conn.recv_bytes()
        except AgentServerError:
            raise
        except (EOFError, OSError) as error:
            raise self._worker_failed(
                host,
                f"agent server on {host} died mid-exchange: "
                f"{type(error).__name__}: {error}",
                supervise=supervise) from error
        with self._stats_lock:
            self.stats.frames_received += 1
            self.stats.bytes_received += len(reply)
        if self.chaos is not None:
            reply = self.chaos.on_reply(host, reply)
        return reply

    def _worker_failed(self, host: str, detail: str,
                       supervise: bool = True) -> AgentServerError:
        """Handle a failed exchange: hand the host to the supervisor (if
        any) and return the error for the caller to raise.

        The in-flight exchange is lost either way - its request died with
        the worker and a fresh worker must never answer it - but with a
        supervisor the restart-with-recovery completes *before* the error
        surfaces, so the next exchange (or an executor retry) lands on a
        healthy worker.  Without one, the error text and side effects are
        exactly the pre-supervision dead-agent behaviour.
        """
        if supervise and self.supervisor is not None and not self._closed:
            self.supervisor.handle_failure(self, host, detail)
        return AgentServerError(detail)

    def _checked_decode(self, host: str, reply: bytes,  # holds: _lock_for
                        decoder, *args):
        """Decode a reply frame, treating corruption as worker failure.

        An undecodable reply means the strict request/reply protocol is
        desynchronised - nothing later on this pipe can be trusted - so
        the worker is killed like a timed-out one (and, when supervised,
        restarted and re-seeded).  Called with the host's exchange lock
        held.
        """
        try:
            return decoder(reply, *args)
        except wire.WireError as error:
            with self._stats_lock:
                self.stats.decode_errors += 1
            process = self._procs.get(host)
            if process is not None and process.is_alive():
                process.kill()
            conn = self._conns.get(host)
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
            raise self._worker_failed(
                host,
                f"agent server on {host} sent an undecodable reply; "
                f"worker killed: {error}") from error

    def _respawn(self, host: str) -> None:
        """Supervisor hook: replace ``host``'s worker with a fresh process
        and pipe (the old ones, dead or wedged, are discarded)."""
        self._discard(host)
        self._spawn(host)

    def _discard(self, host: str) -> None:  # holds: _lock_for
        """Kill ``host``'s worker and close its pipe (no replacement).

        Also the supervisor's cleanup for a *failed* restart attempt: a
        respawned worker whose re-seed failed must not stay up serving
        empty state - a half-seeded worker answering queries would break
        payload identity silently, where a dead one degrades loudly."""
        conn = self._conns.get(host)
        if conn is not None:
            try:
                conn.close()
            except OSError:
                pass
        process = self._procs.get(host)
        if process is not None:
            if process.is_alive():
                process.kill()
            process.join(5.0)

    def _reseed(self, host: str, seed, timeout_s: float = 30.0) -> None:
        """Supervisor hook: replay ``seed`` into ``host``'s fresh worker
        and barrier on it before the worker serves anything.

        The replay order matches the startup sync exactly: retention cap
        first (pipe FIFO puts it in force before the snapshot streams
        in, so the worker ages records into its own cold archive), then
        the TIB snapshot as record batches, then the monitor state with
        its alerted latches, then a ping whose reply must confirm the
        worker holds the state - a short count is a **ping-barrier
        miss** and fails the restart attempt.  Failures here do not
        recurse into supervision (``supervise=False``); the supervisor
        counts them against the restart budget.
        """
        if self.chaos is not None:
            self.chaos.begin_reseed(host)
        records = seed.records or ()
        if seed.retention is not None:
            self._send(host, wire.encode_retention(*seed.retention),
                       supervise=False, reseed=True)
        chunk = self.INGEST_CHUNK_RECORDS
        for start in range(0, len(records), chunk):
            self._send(host,
                       wire.encode_record_batch(records[start:start + chunk]),
                       supervise=False, reseed=True)
        expected_flows = 0
        if seed.monitor is not None:
            self._send(host, wire.encode_monitor_state(seed.monitor),
                       supervise=False, reseed=True)
            expected_flows = len(seed.monitor.flows)
        self._send(host, wire.encode_ping(), supervise=False, reseed=True)
        reply = self._recv(host, supervise=False, timeout_s=timeout_s)
        applied, monitor_flows = wire.decode_pong_state(reply)
        if applied < len(records) or monitor_flows < expected_flows:
            raise AgentServerError(
                f"agent server on {host} re-seed barrier miss: holds "
                f"{applied}/{len(records)} records and "
                f"{monitor_flows}/{expected_flows} monitor flows")


class ProcessTransport(ModelTransport):
    """The model transport bound to an agent-server pool.

    The executor's request/response legs are priced by the same
    :class:`~repro.core.rpc.RpcChannel` model as :class:`ModelTransport`
    (so modelled response times stay comparable across modes), but the
    *sizes* flowing through it are the real encoded frame lengths the
    cluster measured, and the per-host work itself is the real pipe
    exchange with the worker - its cost shows up in the measured
    ``exec_s``/``wall_s``, not the model.
    """

    def __init__(self, pool: AgentServerPool,
                 channel: Optional[RpcChannel] = None) -> None:
        super().__init__(channel)
        self.pool = pool

    def reset_stats(self) -> None:
        """Zero the channel counters and the pool's frame counters."""
        self.channel.reset()
        self.pool.reset_stats()
