"""Streaming folds of the built-in mergers: in place, yet merge-identical.

The gather folds each arriving partial into an accumulator it owns
(``QueryEngine.merge(..., measure_wire=False)``), so a fold costs time
proportional to the partial rather than to everything merged so far.
These tests pin down what that must not change:

* for each of the six built-in mergers (concat / histogram / top-k, both
  the hand-written query mergers and the plan operators), the fold the
  executor drives over random partials, split into random subtrees,
  encodes byte-identically to a one-shot merge and to the reference
  selection (``top_k_select`` / ``rank_select``, ties included);
* no input partial is ever mutated - only the accumulator the fold made;
* in thread mode with hedged stragglers, retried drops and lost replies,
  payloads and traffic equal the serial run's (an accumulator is never
  folded twice or shared between hedge twins);
* built-in traffic is never silently priced with an estimate;
* the keyed top-k plan ranks the maintained per-flow totals directly.
"""

import random
import sys
from itertools import chain

import pytest

from repro.core import (MECHANISM_DIRECT, MECHANISM_MULTILEVEL,
                        MODE_CONCURRENT, QueryCluster, wire)
from repro.core import plan as planlib
from repro.core.executor import (MODE_SERIAL, W_HEDGED, W_RETRIED,
                                 LoopbackTransport, PlanNode,
                                 ScatterGatherExecutor)
from repro.core.plan import Aggregate, Filter, Plan, Project, TopK
from repro.core.query import (Q_FLOW_SIZE_DISTRIBUTION, Q_GET_FLOWS, Q_PLAN,
                              Q_TOP_K_FLOWS, Query, QueryEngine, QueryResult,
                              measured_result_wire_bytes, top_k_select)
from test_plan import hot_tib
from test_process_mode import populate, small_topology

#: Small pools so partials collide: equal byte counts, shared keys and
#: whole duplicate tuples across hosts.
_KEYS = [f"10.0.0.{i}:10.1.0.{i % 3}:{4000 + i}:80:6" for i in range(14)]
_LABELS = ["*-*", "tor-0-agg-1", "agg-1-core-2"]


def _ranked(rng, k, key=planlib.RANK_VALUE, order=planlib.ORDER_DESC):
    pairs = [(rng.randrange(5) * 1000, rng.choice(_KEYS))
             for _ in range(rng.randrange(0, 3 * k))]
    if key == planlib.RANK_GROUP:
        pairs = [(group, value) for value, group in pairs]
    return planlib.rank_select(pairs, k, order)


def _histogram(rng):
    return {(rng.choice(_LABELS), rng.randrange(6)): rng.randrange(1, 9)
            for _ in range(rng.randrange(0, 8))}


def _rows(rng):
    return sorted((rng.choice(_KEYS), rng.randrange(5) * 1000)
                  for _ in range(rng.randrange(0, 5)))


def _sum_dicts(payloads):
    merged = {}
    for payload in payloads:
        for key, value in payload.items():
            merged[key] = merged.get(key, 0) + value
    return merged


def _concat(payloads):
    return list(chain.from_iterable(payloads))


def _topk_case(k):
    return (Query(Q_TOP_K_FLOWS, {"k": k}), lambda rng: _ranked(rng, k),
            lambda payloads: top_k_select(chain(*payloads), k))


def _plan_topk_case(k, key, order):
    plan = Plan(ops=(Filter(),
                     Aggregate(func="sum", fields=("bytes",), by=("flow",)),
                     TopK(k=k, key=key, order=order)))
    return (Query(Q_PLAN, {"plan": plan}),
            lambda rng: _ranked(rng, k, key, order),
            lambda payloads: planlib.rank_select(chain(*payloads), k, order))


#: (id, query, partial generator, reference merge over all partials) per
#: built-in merger; the plan cases reach the plan operators via Q_PLAN.
CASES = [
    ("concat", Query(Q_GET_FLOWS), _rows, _concat),
    ("histograms", Query(Q_FLOW_SIZE_DISTRIBUTION), _histogram, _sum_dicts),
    ("top-k", *_topk_case(4)),
    ("plan-concat-rows",
     Query(Q_PLAN, {"plan": Plan(ops=(Filter(),
                                      Project(fields=("flow", "bytes"))))}),
     _rows, _concat),
    ("plan-concat-scalars",
     Query(Q_PLAN, {"plan": Plan(ops=(Filter(), Aggregate(func="count")))}),
     lambda rng: (rng.randrange(9),), _concat),
    ("plan-histograms",
     Query(Q_PLAN, {"plan": Plan(ops=(
         Filter(), Aggregate(func="sum", fields=("bytes",), by=("flow",))))}),
     lambda rng: {rng.choice(_KEYS): rng.randrange(1, 9)
                  for _ in range(rng.randrange(0, 6))},
     _sum_dicts),
    ("plan-top-k-desc",
     *_plan_topk_case(5, planlib.RANK_VALUE, planlib.ORDER_DESC)),
    ("plan-top-k-asc",
     *_plan_topk_case(3, planlib.RANK_VALUE, planlib.ORDER_ASC)),
    ("plan-top-k-group-asc",
     *_plan_topk_case(4, planlib.RANK_GROUP, planlib.ORDER_ASC)),
]


def _random_tree(rng, hosts):
    """Split ``hosts`` at random points into a random aggregation tree;
    returns the plan and the hosts in the executor's canonical fold order
    (children in tree order, then the node's own local result)."""
    def build(group):
        node, rest = group[0], group[1:]
        children, order = [], []
        while rest:
            cut = rng.randrange(1, len(rest) + 1)
            child, child_order = build(rest[:cut])
            children.append(child)
            order.extend(child_order)
            rest = rest[cut:]
        return PlanNode(host=node, request_parts=(8,),
                        children=children), order + [node]

    top, order = [], []
    rest = list(hosts)
    while rest:
        cut = rng.randrange(1, len(rest) + 1)
        child, child_order = build(rest[:cut])
        top.append(child)
        order.extend(child_order)
        rest = rest[cut:]
    return PlanNode(host=None, children=top), order


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("case", CASES, ids=[case[0] for case in CASES])
@pytest.mark.parametrize("mode", [MODE_SERIAL, MODE_CONCURRENT])
def test_executor_fold_matches_one_shot_merge(case, seed, mode):
    _, query, make_partial, reference = case
    rng = random.Random(seed)
    engine = QueryEngine()
    hosts = [f"h{i}" for i in range(rng.randrange(1, 14))]
    partials = {host: QueryResult(query=query, payload=make_partial(rng),
                                  wire_bytes=0, records_scanned=1,
                                  host=host,
                                  scan_stats={"hot_full_scans": 1})
                for host in hosts}
    before = {host: wire.encode_value(result.payload)
              for host, result in partials.items()}
    tree, order = _random_tree(rng, hosts)

    gather = ScatterGatherExecutor(LoopbackTransport(), mode=mode).run(
        tree, lambda host: partials[host],
        lambda acc, value: engine.merge(query, (acc, value),
                                        measure_wire=False),
        wire.result_wire_bytes)

    folded = gather.value
    if gather.root_merges == 0:  # as the cluster finalises a lone partial
        folded = engine.merge(query, (folded,))
    in_order = [partials[host] for host in order]
    one_shot = engine.merge(query, in_order)
    expected = wire.encode_value(reference([r.payload for r in in_order]))
    assert wire.encode_value(one_shot.payload) == expected
    assert wire.encode_value(folded.payload) == expected
    if len(hosts) > 1:
        assert folded.records_scanned == len(hosts)
        assert folded.scan_stats == {"hot_full_scans": len(hosts)}
    for host, result in partials.items():
        assert wire.encode_value(result.payload) == before[host], host
        assert not result.accumulator


class TestMergeOwnership:
    QUERY = Query(Q_FLOW_SIZE_DISTRIBUTION)

    @staticmethod
    def _partial(payload):
        return QueryResult(query=TestMergeOwnership.QUERY, payload=payload,
                           wire_bytes=0, records_scanned=2,
                           scan_stats={"s": 1})

    def test_first_fold_copies_later_folds_reuse_the_accumulator(self):
        engine = QueryEngine()
        a = self._partial({"x": 1})
        b = self._partial({"x": 2, "y": 1})
        c = self._partial({"z": 5})
        acc = engine.merge(self.QUERY, (a, b), measure_wire=False)
        assert acc is not a and acc.payload is not a.payload
        assert acc.accumulator and acc.wire_bytes == 0
        assert a.payload == {"x": 1} and b.payload == {"x": 2, "y": 1}
        payload = acc.payload
        again = engine.merge(self.QUERY, (acc, c), measure_wire=False)
        assert again is acc and again.payload is payload
        assert payload == {"x": 3, "y": 1, "z": 5}
        assert c.payload == {"z": 5}
        assert (acc.records_scanned, acc.scan_stats) == (6, {"s": 3})

    def test_sized_merges_are_sealed(self):
        engine = QueryEngine()
        a, b = self._partial({"x": 1}), self._partial({"y": 2})
        merged = engine.merge(self.QUERY, (a, b))
        assert not merged.accumulator
        assert merged.wire_bytes == len(wire.encode_result(merged))
        later = engine.merge(self.QUERY, (merged, a))
        assert later is not merged and merged.payload == {"x": 1, "y": 2}

    def test_accumulator_folds_reset_its_size(self):
        """An accumulator sized on its way up is refolded by the parent;
        its stale size must not survive the fold."""
        engine = QueryEngine()
        a, b = self._partial({"x": 1}), self._partial({"y": 2})
        acc = engine.merge(self.QUERY, (a, b), measure_wire=False)
        acc.wire_bytes = wire.result_wire_bytes(acc)
        engine.merge(self.QUERY, (acc, self._partial({"z": 3})),
                     measure_wire=False)
        assert acc.wire_bytes == 0
        final = engine.merge(self.QUERY, (acc,))
        assert final.wire_bytes == len(wire.encode_result(final))

    def test_custom_merger_accumulators_are_never_mutated(self):
        engine = QueryEngine()
        engine.register("custom", lambda agent, params: ([], 0, 0),
                        merger=lambda query, payloads: (
                            sum(payloads, []), 0))
        query = Query("custom")
        first = QueryResult(query=query, payload=[1], wire_bytes=0)
        acc = engine.merge(query, (first, first), measure_wire=False)
        payload = list(acc.payload)
        again = engine.merge(query, (acc, first), measure_wire=False)
        assert again is not acc and acc.payload == payload


class TestBuiltinTrafficIsMeasured:
    def test_builtin_codec_failure_propagates(self):
        result = QueryResult(query=Query(Q_TOP_K_FLOWS, {"k": 1}),
                             payload=[(1, object())], wire_bytes=0,
                             estimated_wire_bytes=24)
        with pytest.raises(wire.WireError):
            measured_result_wire_bytes(result)

    def test_custom_payload_falls_back_to_its_estimate(self):
        result = QueryResult(query=Query("operator-defined"),
                             payload=[object()], wire_bytes=0,
                             estimated_wire_bytes=77)
        assert measured_result_wire_bytes(result) == 77


class TestKeyedTopK:
    @pytest.mark.parametrize("key", [planlib.RANK_VALUE, planlib.RANK_GROUP])
    @pytest.mark.parametrize("order", [planlib.ORDER_DESC,
                                       planlib.ORDER_ASC])
    def test_ranks_maintained_totals_without_the_dict_copy(self, key, order,
                                                           monkeypatch):
        tib = hot_tib(count=60, rng=random.Random(7))
        plan = Plan(ops=(Filter(),
                         Aggregate(func="sum", fields=("bytes",),
                                   by=("flow",)),
                         TopK(k=6, key=key, order=order)))
        reference = planlib.reference_evaluate(tib.records(), plan)

        def copied(*_):
            raise AssertionError("keyed top-k built the per-flow dict")

        monkeypatch.setattr(tib, "flow_byte_totals", copied)
        payload = planlib.execute_plan(tib, plan).payload
        assert wire.encode_value(payload) == wire.encode_value(reference)


#: Hosts whose first request straggles (and gets hedged), whose first
#: request is lost (and retried), and whose first reply is lost.
_SLOW, _DROPPED, _LOST_REPLY = (range(0, 64, 7), range(3, 64, 11),
                                range(5, 64, 13))
#: Every attempt at this host is slow, so the gather outlasts the other
#: stragglers: their losing twins finish while the folds still run.
_LAST = 1


def _flaky_transport(hosts):
    slow = {hosts[i] for i in _SLOW}

    def delay(host, attempt):
        if host == hosts[_LAST]:
            return 0.1
        return 0.04 if attempt == 1 and host in slow else 0.0

    return LoopbackTransport(
        delay=delay, drop_requests={hosts[i]: 1 for i in _DROPPED},
        drop_responses={hosts[i]: 1 for i in _LOST_REPLY})


class TestHedgeAndRetrySafety:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    @pytest.mark.parametrize("query", [
        Query(Q_FLOW_SIZE_DISTRIBUTION, {"links": [None], "binsize": 4000}),
        Query(Q_TOP_K_FLOWS, {"k": 40})], ids=["fsd", "top-k"])
    def test_thread_mode_matches_serial(self, query, mechanism):
        cluster = QueryCluster(small_topology(64))
        populate(cluster)
        interval = sys.getswitchinterval()
        try:
            cluster.configure_executor(transport=LoopbackTransport())
            serial = cluster.execute(query, mechanism=mechanism)
            cluster.configure_executor(
                mode=MODE_CONCURRENT, max_workers=16, hedge_after_s=0.01,
                retries=1, transport=_flaky_transport(cluster.hosts))
            sys.setswitchinterval(1e-5)  # interleave the folding threads
            threaded = cluster.execute(query, mechanism=mechanism)
        finally:
            sys.setswitchinterval(interval)
            cluster.close()
        assert not serial.partial and not threaded.partial
        codes = {warning.code for warning in threaded.warnings}
        assert {W_HEDGED, W_RETRIED} <= codes
        assert wire.encode_value(threaded.payload) == \
            wire.encode_value(serial.payload)
        assert threaded.traffic_bytes == serial.traffic_bytes
