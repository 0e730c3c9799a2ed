"""Seeded operation streams for the three benchmark workloads.

Every workload is a pre-load plus an endless stream of *steps*; a step is a
short list of operations issued through the operator API only
(``ingest_flow_outcomes``, ``run_monitors``, ``execute``).  The stream is a
pure function of the seed - it never looks at the program's answers - so a
seed reproduces the same inputs on every commit.

Transfer sizes come from the paper's own traffic model, the DCTCP/pFabric
web-search distribution (:func:`repro.workloads.websearch.web_search_cdf`).
The shares of each kind of outcome in a batch are not taken from the paper,
which gives no ingest mix: they are chosen, and each class below says what
for.  What a benchmark needs is that every layer a workload exists for runs
at a steady rate, with a mix that stays the same from commit to commit.

Key pools are bounded so TIB size and monitor ledgers stay steady over a
run: most ingested outcomes are upserts of (flow, path) keys that already
exist.  The only new keys are a fixed share per step (the poor TCP
transfers, plus on ``two_tier`` the fresh flows that drive evictions); a
poor transfer always uses a fresh flow id, because the host monitor alerts
a flow at most once.

:class:`Model` is the benchmark's own record and monitor model: it folds
the same outcomes with the TIB's upsert rule and the monitor's alarm rule,
so answers can be checked without running through the timed path.
"""

from __future__ import annotations

import math
import random
from typing import Dict, Iterator, List, Optional, Tuple

from repro.core import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL,
                        MODE_SERIAL, MODE_SOCKET, Q_FLOW_SIZE_DISTRIBUTION,
                        Q_TOP_K_FLOWS, Q_TRAFFIC_MATRIX, Query, QueryCluster)
from repro.core.alarms import POOR_PERF, Alarm
from repro.core.monitor import DEFAULT_POOR_THRESHOLD
from repro.network.packet import PROTO_TCP, FlowId
from repro.storage import PathFlowRecord
from repro.topology.fattree import FatTreeTopology
from repro.topology.graph import ROLE_CORE, ROLE_EDGE, Topology
from repro.transport.flows import FlowOutcome, PathDelivery
from repro.workloads.arrivals import FlowSpec
from repro.workloads.websearch import web_search_cdf

#: Worker groups in socket mode (one per core of the 2-core reference box).
GROUP_COUNT = 2
#: ``top_k_flows`` k of the Fig 12 query.
TOP_K = 100
#: ``flow_size_distribution`` bin size of the Fig 11 query.
FSD_BINSIZE = 4000
#: Span of a ``two_tier`` window query, in simulated seconds.
WINDOW_S = 30.0
#: Ingest-and-sweep rounds per step (see :meth:`Workload.steps`).  Batches
#: and sweeps are short beside a query, so four a step give their per-run
#: quantiles four times the samples for a small share of the timed budget.
ROUNDS = 4
#: Simulated seconds between rounds.
STEP_S = 1.0
#: Per-host hot-tier cap on ``two_tier`` (records).
HOT_CAP = 1000

#: Bytes per packet when an outcome's packet count is derived.
MSS = 1460
#: Transfer sizes: the web-search flow-size distribution of the paper's
#: evaluation.
SIZES = web_search_cdf()


def outcome(flow_id: FlowId, path: Tuple[str, ...], nbytes: int,
            start: float, finish: float, retx: int = 0, streak: int = 0,
            timeouts: int = 0) -> FlowOutcome:
    """One delivered transfer along one path."""
    pkts = nbytes // MSS + 1
    return FlowOutcome(
        spec=FlowSpec(flow_id, nbytes, start),
        deliveries=[PathDelivery(path, pkts, pkts, nbytes, 0)],
        retransmissions=retx, max_consecutive_retransmissions=streak,
        timeouts=timeouts, start_time=start, finish_time=finish)


class Model:
    """The benchmark's record and monitor model.

    Records follow the TIB's upsert rule (one record per (flow, path): bytes
    and packets add, ``stime`` takes the minimum, ``etime`` the maximum).
    They are kept as plain tuples, ``(flow id, path) -> (stime, etime,
    bytes, pkts)``: tuples of atomic values that the collector stops
    tracking, so the model adds next to nothing to the program's gen-2
    collections.  Alarms follow the monitor's rule: a flow whose
    retransmission streak reaches the poor threshold, or that timed out,
    alarms once, in host order and then observation order.  Flows the
    stream marks as healthy never reach the threshold, so only the fresh
    poor flows can alarm.
    """

    def __init__(self, hosts: List[str]) -> None:
        self.hosts = hosts
        self.records: Dict[Tuple[FlowId, Tuple[str, ...]],
                           Tuple[float, float, int, int]] = {}
        self._poor: Dict[str, List[Tuple[FlowId, int, int, int]]] = {}

    def ingest(self, outcomes: List[FlowOutcome]) -> None:
        records = self.records
        for item in outcomes:
            flow_id = item.flow_id
            for delivery in item.deliveries:
                key = (flow_id, delivery.path)
                old = records.get(key)
                if old is None:
                    records[key] = (item.start_time, item.finish_time,
                                    delivery.bytes_delivered,
                                    delivery.packets_delivered)
                else:
                    records[key] = (min(old[0], item.start_time),
                                    max(old[1], item.finish_time),
                                    old[2] + delivery.bytes_delivered,
                                    old[3] + delivery.packets_delivered)
            if item.max_consecutive_retransmissions >= \
                    DEFAULT_POOR_THRESHOLD or item.timeouts:
                self._poor.setdefault(flow_id.src_ip, []).append(
                    (flow_id, item.retransmissions,
                     item.max_consecutive_retransmissions, item.timeouts))

    def sweep(self, now: float) -> List[Alarm]:
        """The alarms the next sweep at ``now`` must deliver."""
        alarms = []
        for host in self.hosts:
            for flow_id, retx, streak, timeouts in self._poor.pop(host, ()):
                alarms.append(Alarm(
                    flow_id=flow_id, reason=POOR_PERF, paths=[], host=host,
                    time=now, detail=(f"retx={retx}, streak={streak}, "
                                      f"timeouts={timeouts}")))
        return alarms

    def path_records(self, time_range=None) -> List[PathFlowRecord]:
        """Every record overlapping ``time_range`` (all when ``None``), as
        fresh :class:`PathFlowRecord` objects for one check."""
        if time_range is None:
            start, end = -math.inf, math.inf
        else:
            start, end = time_range
        return [PathFlowRecord(flow_id, path, stime, etime, nbytes, pkts)
                for (flow_id, path), (stime, etime, nbytes, pkts)
                in self.records.items()
                if etime >= start and stime <= end]


class Op:
    """One operation of a step.

    ``kind`` is ``"ingest"`` (``arg`` = outcomes), ``"sweep"`` (``arg`` =
    simulated time) or ``"query"`` (``arg`` = ``(Query, mechanism)``);
    ``cls`` names the op class metrics are reported under.
    """

    __slots__ = ("kind", "cls", "arg")

    def __init__(self, kind: str, cls: str, arg) -> None:
        self.kind = kind
        self.cls = cls
        self.arg = arg


class Workload:
    """Base: a topology, a pre-load, and a seeded step stream."""

    name = ""
    mode = MODE_SERIAL
    retention: Optional[int] = None
    #: Query classes, issued one per step in this cyclic order.
    query_cycle: Tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.hosts = list(self.topology().hosts)
        self.model = Model(self.hosts)
        self.now = 0.0
        self._fresh: Dict[str, int] = {}
        preload = self.preload()
        self.model.ingest(preload)
        self.begin(preload)

    # -- program side ------------------------------------------------------
    def build(self, preload: List[FlowOutcome]) -> QueryCluster:
        """Topology, agents, the ``preload`` (and worker spawn + sync in
        socket mode) - the work ``setup_s`` times."""
        cluster = QueryCluster(self.topology(), group_count=GROUP_COUNT)
        try:
            if self.retention is not None:
                cluster.configure_retention(max_records=self.retention)
            cluster.ingest_flow_outcomes(preload)
            if self.mode != MODE_SERIAL:
                cluster.configure_executor(mode=self.mode)
        except BaseException:
            cluster.close()
            raise
        return cluster

    # -- input side --------------------------------------------------------
    def topology(self) -> Topology:
        raise NotImplementedError

    def path(self, src: str, dst: str,
             rng: random.Random) -> Tuple[str, ...]:
        raise NotImplementedError

    def preload(self) -> List[FlowOutcome]:
        """The pre-load.  Each call draws it afresh from its own RNG, seeded
        from the workload seed, so every set-up gets the same outcomes and
        nobody has to keep them alive through the timed run."""
        return self._preload(random.Random(f"preload-{self.seed}"))

    def _preload(self, rng: random.Random) -> List[FlowOutcome]:
        raise NotImplementedError

    def begin(self, preload: List[FlowOutcome]) -> None:
        """Set up the step stream's key pools from the pre-load; they keep
        keys and times only, as tuples."""
        raise NotImplementedError

    def step_outcomes(self) -> List[FlowOutcome]:
        raise NotImplementedError

    def query(self, cls: str) -> Tuple[Query, str]:
        raise NotImplementedError

    def pair(self) -> Tuple[str, str]:
        src, dst = self.rng.sample(self.hosts, 2)
        return src, dst

    def fresh_flow(self, src: str, dst: str) -> FlowId:
        """A flow id never used before (a new TIB key and ledger entry)."""
        port = self._fresh.get(src, 40_000)
        self._fresh[src] = port + 1
        return FlowId(src, dst, port, 80, PROTO_TCP)

    def poor_outcome(self) -> FlowOutcome:
        src, dst = self.pair()
        streak = self.rng.randint(DEFAULT_POOR_THRESHOLD + 1, 8)
        return outcome(self.fresh_flow(src, dst),
                       self.path(src, dst, self.rng),
                       SIZES.sample(self.rng), self.now - 0.5, self.now,
                       retx=streak + self.rng.randint(0, 4), streak=streak,
                       timeouts=self.rng.randint(0, 1))

    def steps(self) -> Iterator[List[Op]]:
        """The endless op stream, one round at a time.

        A step is ``ROUNDS`` rounds of one ingest batch and one sweep,
        followed by one query; the last round of a step carries the query.
        Rounds are generated lazily and the model folds each batch as it is
        generated, so a sweep's check sees exactly the poor flows of its
        own round, and a query's check sees the state after the step.
        """
        index = 0
        while True:
            for round_ in range(ROUNDS):
                self.now += STEP_S
                batch = self.step_outcomes()
                self.model.ingest(batch)
                ops = [Op("ingest", "ingest", batch),
                       Op("sweep", "sweep", self.now)]
                if round_ == ROUNDS - 1:
                    cls = self.query_cycle[index % len(self.query_cycle)]
                    ops.append(Op("query", cls, self.query(cls)))
                    index += 1
                yield ops


class Fanout(Workload):
    """k=16 fat-tree, 1,024 hosts, 20 records per source host (the pre-load
    of ``benchmarks/bench_scaleout.py``).

    Each round ingests ``BATCH`` outcomes: ``POOR`` poor transfers on fresh
    flows (new-key share = poor share = 2/64) and the rest upserts of pool
    flows drawn uniformly, with healthy TCP statistics.  The shares are
    chosen: two poor transfers a round give every sweep the same small,
    non-zero alarm load, and upserts keep the 20,480 keys steady, so query
    work does not drift over a run (the 8 new keys a step add under 3% to
    them over a 20 s run).
    """

    K = 16
    FLOWS_PER_HOST = 20
    BATCH = 64
    POOR = 2
    query_cycle = ("topk_direct", "topk_multilevel", "fsd_direct")

    def topology(self) -> Topology:
        return FatTreeTopology(self.K)

    def path(self, src: str, dst: str,
             rng: random.Random) -> Tuple[str, ...]:
        _, spod, sedge, _ = src.split("-")
        _, dpod, dedge, _ = dst.split("-")
        tor_s = FatTreeTopology.tor_name(int(spod), int(sedge))
        tor_d = FatTreeTopology.tor_name(int(dpod), int(dedge))
        if tor_s == tor_d:
            return (src, tor_s, dst)
        group = rng.randrange(self.K // 2)
        if spod == dpod:
            return (src, tor_s, FatTreeTopology.agg_name(int(spod), group),
                    tor_d, dst)
        core = FatTreeTopology.core_name(group, rng.randrange(self.K // 2))
        return (src, tor_s, FatTreeTopology.agg_name(int(spod), group), core,
                FatTreeTopology.agg_name(int(dpod), group), tor_d, dst)

    def _preload(self, rng: random.Random) -> List[FlowOutcome]:
        outcomes = []
        for src in self.hosts:
            for n in range(self.FLOWS_PER_HOST):
                dst = rng.choice(self.hosts)
                while dst == src:
                    dst = rng.choice(self.hosts)
                start = rng.uniform(0.0, 10.0)
                outcomes.append(outcome(
                    FlowId(src, dst, 20_000 + n, 80, PROTO_TCP),
                    self.path(src, dst, rng), SIZES.sample(rng), start,
                    start + rng.uniform(0.01, 1.0)))
        return outcomes

    def begin(self, preload: List[FlowOutcome]) -> None:
        self.pool = [(item.flow_id, item.deliveries[0].path)
                     for item in preload]
        self.now = 10.0

    def step_outcomes(self) -> List[FlowOutcome]:
        rng = self.rng
        batch = [self.poor_outcome() for _ in range(self.POOR)]
        for _ in range(self.BATCH - self.POOR):
            flow_id, path = rng.choice(self.pool)
            batch.append(outcome(flow_id, path, SIZES.sample(rng),
                                 self.now - rng.uniform(0.01, 0.9), self.now,
                                 retx=rng.randint(0, 2),
                                 streak=rng.randint(0, 2)))
        return batch

    def query(self, cls: str) -> Tuple[Query, str]:
        if cls == "fsd_direct":
            return (Query(Q_FLOW_SIZE_DISTRIBUTION,
                          {"links": [None], "binsize": FSD_BINSIZE}),
                    MECHANISM_DIRECT)
        mechanism = (MECHANISM_MULTILEVEL if cls == "topk_multilevel"
                     else MECHANISM_DIRECT)
        return Query(Q_TOP_K_FLOWS, {"k": TOP_K}), mechanism


class FanoutSocket(Fanout):
    """The same stream and pre-load, per-host work in two worker groups."""

    name = "fanout_socket"
    mode = MODE_SOCKET


class FanoutSerial(Fanout):
    name = "fanout_serial"


class TwoTier(Workload):
    """4-host leaf-spine, hot tier capped at ``HOT_CAP`` records per host,
    6,500 pre-loaded records per host: the cold tier holds about 5,500, more
    than the archive's 4,096-entry decode cache.

    Each round ingests ``BATCH`` outcomes:

    * ``NEW`` fresh flows at the current time, one of them a poor transfer:
      new keys that evict the oldest hot records into the cold tier;
    * ``LATE`` late reports for cold keys, cycling through a pool of
      ``LATE_POOL`` keys just below the hot windows.  A report carries its
      key's own time span, so it folds into the archived record off-tier,
      and the superseded log entry stays behind as garbage;
    * the rest upserts of recently added hot keys.

    ``LATE`` is sized so that compaction runs at a steady rate, not taken
    from a trace.  An archive compacts once garbage reaches
    ``ColdArchive.COMPACT_DEAD_RATIO`` (0.3) of its entries: about 2,400
    garbage entries beside 5,500 live ones.  At 30 late reports per host a
    round, 120 a step, that takes about 20 steps, so every host compacts at
    least twice in a 20 s run, starting from the same empty garbage count
    in every run.
    The pool lies in one narrow time band, so the segments the late reports
    are rewritten into overlap few ``window`` queries: most windows stay
    pruned.
    """

    name = "two_tier"
    retention = HOT_CAP
    LEAVES = 2
    HOSTS_PER_LEAF = 2
    SPINES = 2
    RECORDS_PER_HOST = 6_500
    BATCH = 123
    NEW = 2
    LATE = 120
    LATE_POOL = 1200
    #: Records per host left between the hot window and the late-report
    #: pool, so no pool key is hot on any host.
    MARGIN = 250
    query_cycle = ("window", "full")

    def topology(self) -> Topology:
        topo = Topology("leaf-spine")
        for spine in range(self.SPINES):
            topo.add_switch(f"spine-{spine}", ROLE_CORE, index=spine)
        for leaf in range(self.LEAVES):
            topo.add_switch(f"leaf-{leaf}", ROLE_EDGE, pod=leaf, index=leaf)
            for spine in range(self.SPINES):
                topo.add_link(f"leaf-{leaf}", f"spine-{spine}")
            for i in range(self.HOSTS_PER_LEAF):
                topo.add_host(f"h-{leaf}-{i}", pod=leaf, index=i)
                topo.add_link(f"h-{leaf}-{i}", f"leaf-{leaf}")
        return topo

    def path(self, src: str, dst: str,
             rng: random.Random) -> Tuple[str, ...]:
        leaf_s = "leaf-" + src.split("-")[1]
        leaf_d = "leaf-" + dst.split("-")[1]
        if leaf_s == leaf_d:
            return (src, leaf_s, dst)
        return (src, leaf_s, f"spine-{rng.randrange(self.SPINES)}",
                leaf_d, dst)

    def _preload(self, rng: random.Random) -> List[FlowOutcome]:
        span = float(self.RECORDS_PER_HOST)
        outcomes = []
        for dst in self.hosts:
            for n in range(self.RECORDS_PER_HOST):
                src = rng.choice(self.hosts)
                while src == dst:
                    src = rng.choice(self.hosts)
                start = rng.uniform(0.0, span)
                outcomes.append(outcome(
                    FlowId(src, dst, 10_000 + n, 80, PROTO_TCP),
                    self.path(src, dst, rng), SIZES.sample(rng), start,
                    start + rng.uniform(0.01, 2.0)))
        outcomes.sort(key=lambda item: item.finish_time)
        return outcomes

    def begin(self, preload: List[FlowOutcome]) -> None:
        # Records land on their destination host, so each host's hot window
        # is its latest HOT_CAP pre-load records; the pool is the latest
        # keys below every host's window.
        cold = preload[:len(preload) - len(self.hosts)
                       * (HOT_CAP + self.MARGIN)]
        self._late = [(item.flow_id, item.deliveries[0].path,
                       item.start_time, item.finish_time)
                      for item in cold[-self.LATE_POOL:]]
        self.rng.shuffle(self._late)
        self._next_late = 0
        self._recent: List[Tuple[FlowId, Tuple[str, ...]]] = []
        self.now = float(self.RECORDS_PER_HOST) + 2.0

    def step_outcomes(self) -> List[FlowOutcome]:
        rng = self.rng
        batch = [self.poor_outcome()]
        for _ in range(self.NEW - 1):
            src, dst = self.pair()
            fresh = outcome(self.fresh_flow(src, dst),
                            self.path(src, dst, rng), SIZES.sample(rng),
                            self.now - rng.uniform(0.01, 0.9), self.now)
            batch.append(fresh)
            self._recent.append((fresh.flow_id, fresh.deliveries[0].path))
        del self._recent[:-256]
        for _ in range(self.LATE):
            flow_id, path, start, finish = self._late[
                self._next_late % len(self._late)]
            self._next_late += 1
            batch.append(outcome(flow_id, path, SIZES.sample(rng), start,
                                 finish))
        for _ in range(self.BATCH - self.NEW - self.LATE):
            flow_id, path = rng.choice(self._recent)
            batch.append(outcome(flow_id, path, SIZES.sample(rng),
                                 self.now - 0.5, self.now))
        return batch

    def query(self, cls: str) -> Tuple[Query, str]:
        if cls == "window":
            start = self.rng.uniform(0.0, self.now - WINDOW_S)
            return (Query(Q_FLOW_SIZE_DISTRIBUTION,
                          {"links": [None], "binsize": FSD_BINSIZE,
                           "time_range": (start, start + WINDOW_S)}),
                    MECHANISM_DIRECT)
        return Query(Q_TRAFFIC_MATRIX, {}), MECHANISM_DIRECT


WORKLOADS = {cls.name: cls for cls in (FanoutSerial, FanoutSocket, TwoTier)}
