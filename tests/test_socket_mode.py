"""Tests for socket mode: worker groups behind multiplexed connections.

Covers: deterministic host sharding, byte-identical query payloads and
alarm streams across serial / thread / process / socket execution, frame
coalescing (fewer envelopes than logical frames, measured), a group
connection dying mid-scatter surfacing exactly like a dead agent (for the
whole shard - the connection is the failure domain), supervised
restart-with-recovery over a *reconnect*, connection-level chaos faults
(torn close mid-frame, stalled socket), and the standalone pool lifecycle
over all three group transports including a garbage handshake.
"""

import socket
import time

import pytest

from repro.core import (AgentServerError, GroupAgentPool, MECHANISM_DIRECT,
                        MECHANISM_MULTILEVEL, MODE_CONCURRENT, MODE_PROCESS,
                        MODE_SERIAL, MODE_SOCKET, Q_PATH_CONFORMANCE,
                        Q_POOR_TCP_FLOWS, Q_TOP_K_FLOWS, Query, QueryCluster,
                        Supervisor, TRANSPORT_PIPE, TRANSPORT_TCP,
                        TRANSPORT_UNIX, shard_hosts, wire)
from repro.core.alarms import PC_FAIL
from repro.core.executor import (W_HOST_FAILED, W_WORKER_RESTARTED)
from repro.core.groupserver import _SocketEndpoint, shard_for
from repro.core.supervisor import ChaosPolicy, RestartPolicy
from test_event_plane import feed_workload
from test_process_mode import QUERIES, populate, small_topology

NUM_HOSTS = 6
GROUPS = 3  # -> shards of 2 hosts each over the 6-host topology

#: Envelopes the startup sync posts to one (unbounded) G-host group: one
#: record batch and one monitor seed per host, then the coalesced barrier
#: ping.  The first post-startup envelope lands at GROUP_STARTUP(G) + 1.
def group_startup_frames(hosts_per_group):
    return 2 * hosts_per_group + 1


FAST = RestartPolicy(max_restarts=3, backoff_base_s=0.01, backoff_max_s=0.05)


def socket_cluster(transport=TRANSPORT_UNIX, supervisor=None, chaos=None,
                   records_per_host=25, feed=populate, **kwargs):
    """A populated cluster flipped into socket mode (populate-first, so
    the startup sync - not the ingest mirror - ships the records)."""
    cluster = QueryCluster(small_topology(NUM_HOSTS), group_count=GROUPS,
                           socket_transport=transport, supervisor=supervisor,
                           chaos=chaos, **kwargs)
    if feed is populate:
        feed(cluster, records_per_host=records_per_host)
    else:
        feed(cluster)
    cluster.configure_executor(mode=MODE_SOCKET)
    return cluster


def reference_payload(query, mechanism=MECHANISM_DIRECT, feed=populate):
    cluster = QueryCluster(small_topology(NUM_HOSTS))
    feed(cluster)
    try:
        return wire.encode_value(
            cluster.execute(query, mechanism=mechanism).payload)
    finally:
        cluster.close()


class TestSharding:
    def test_contiguous_balanced_deterministic(self):
        hosts = [f"h-{i}" for i in range(10)]
        shards = shard_hosts(hosts, 4)
        assert [len(s) for s in shards] == [3, 3, 2, 2]
        # contiguity: concatenating the shards restores the host order
        assert [h for shard in shards for h in shard] == hosts
        assert shard_hosts(hosts, 4) == shards  # deterministic

    def test_shard_for_matches_shard_hosts(self):
        hosts = [f"h-{i}" for i in range(7)]
        for gid in range(3):
            assert shard_for(hosts, gid, 3) == shard_hosts(hosts, 3)[gid]

    def test_group_count_clamped_to_hosts(self):
        assert len(shard_hosts(["a", "b"], 8)) == 2

    def test_bad_group_count_rejected(self):
        with pytest.raises(ValueError):
            shard_hosts(["a"], 0)


class TestPayloadIdentity:
    @pytest.mark.parametrize("mechanism", [MECHANISM_DIRECT,
                                           MECHANISM_MULTILEVEL])
    @pytest.mark.parametrize("name,params", QUERIES)
    def test_four_modes_byte_identical(self, mechanism, name, params):
        """Serial, thread, process and socket runs of the same query
        return byte-identical payloads."""
        query = Query(name, dict(params))
        payloads = {}
        for mode in (MODE_SERIAL, MODE_CONCURRENT, MODE_PROCESS):
            cluster = QueryCluster(small_topology(NUM_HOSTS), mode=MODE_SERIAL)
            populate(cluster)
            cluster.configure_executor(mode=mode)
            try:
                result = cluster.execute(query, mechanism=mechanism)
                assert not result.partial
                payloads[mode] = wire.encode_value(result.payload)
            finally:
                cluster.close()
        with socket_cluster() as cluster:
            result = cluster.execute(query, mechanism=mechanism)
            assert not result.partial
            payloads[MODE_SOCKET] = wire.encode_value(result.payload)
        assert payloads[MODE_SERIAL] == payloads[MODE_CONCURRENT]
        assert payloads[MODE_SERIAL] == payloads[MODE_PROCESS]
        assert payloads[MODE_SERIAL] == payloads[MODE_SOCKET]

    @pytest.mark.parametrize("transport", [TRANSPORT_PIPE, TRANSPORT_TCP])
    def test_other_transports_byte_identical(self, transport):
        """The coalesced envelopes speak the same protocol over a pipe and
        over TCP as over the default Unix socket."""
        query = Query(Q_TOP_K_FLOWS, {"k": 40})
        want = reference_payload(query)
        with socket_cluster(transport=transport) as cluster:
            result = cluster.execute(query)
            assert not result.partial
            assert wire.encode_value(result.payload) == want

    def test_monitor_backed_query_identical(self):
        query = Query(Q_POOR_TCP_FLOWS, {})
        want = reference_payload(query, feed=feed_workload)
        with socket_cluster(feed=feed_workload) as cluster:
            result = cluster.execute(query)
            assert not result.partial
            assert wire.encode_value(result.payload) == want
            assert want != wire.encode_value([])


class TestFrameCoalescing:
    def test_fewer_envelopes_than_frames(self):
        """The point of the transport: logical per-host frames outnumber
        the physical envelopes that carried them."""
        with socket_cluster() as cluster:
            pool = cluster.agent_servers
            pool.reset_stats()
            cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
            cluster.run_monitors(1.0)
            stats = pool.stats
            assert stats.frames_sent > stats.envelopes_sent > 0
            assert stats.frames_received > stats.envelopes_received > 0
            # 2 hosts per group -> exactly 2 logical frames per envelope
            # on these all-host scatters
            assert stats.frames_sent == 2 * stats.envelopes_sent

    def test_sweep_coalesces_one_envelope_per_group(self):
        with socket_cluster(feed=feed_workload) as cluster:
            pool = cluster.agent_servers
            pool.reset_stats()
            sweep = cluster.run_monitors(1.0)
            assert sweep  # feed_workload makes poor flows alert
            assert pool.stats.envelopes_sent == GROUPS
            assert pool.stats.frames_sent == NUM_HOSTS
            assert sweep.traffic_bytes > 0

    def test_traffic_is_measured(self):
        with socket_cluster() as cluster:
            result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
            assert result.traffic_bytes > 0
            assert result.wall_clock_s > 0


class TestAlarmStreamIdentity:
    def test_sweep_alarms_identical_serial_vs_socket(self):
        streams = {}
        serial = QueryCluster(small_topology(NUM_HOSTS))
        feed_workload(serial)
        try:
            streams[MODE_SERIAL] = wire.encode_alarm_batch(
                list(serial.run_monitors(1.0)))
        finally:
            serial.close()
        with socket_cluster(feed=feed_workload) as cluster:
            streams[MODE_SOCKET] = wire.encode_alarm_batch(
                list(cluster.run_monitors(1.0)))
        assert streams[MODE_SERIAL] == streams[MODE_SOCKET]
        assert streams[MODE_SERIAL] != wire.encode_alarm_batch([])

    def test_at_most_once_across_coalesced_ticks(self):
        with socket_cluster(feed=feed_workload) as cluster:
            assert cluster.run_monitors(1.0)
            assert cluster.run_monitors(2.0) == []  # all latched

    def test_query_piggybacked_alarms_identical(self):
        """PC_FAIL alarms raised host-side ride the coalesced reply
        envelopes and land on the bus in canonical host order."""
        query = Query(Q_PATH_CONFORMANCE, {"max_hops": 0})
        streams = {}
        serial = QueryCluster(small_topology(NUM_HOSTS))
        feed_workload(serial)
        try:
            serial.execute(query, mechanism=MECHANISM_DIRECT)
            streams[MODE_SERIAL] = wire.encode_alarm_batch(
                list(serial.alarm_bus.by_reason(PC_FAIL)))
        finally:
            serial.close()
        with socket_cluster(feed=feed_workload) as cluster:
            cluster.execute(query, mechanism=MECHANISM_DIRECT)
            streams[MODE_SOCKET] = wire.encode_alarm_batch(
                list(cluster.alarm_bus.by_reason(PC_FAIL)))
        assert streams[MODE_SERIAL] == streams[MODE_SOCKET]
        assert streams[MODE_SERIAL] != wire.encode_alarm_batch([])


class TestFailureDomain:
    def test_dead_connection_fails_the_whole_shard(self):
        """A group worker killed mid-life: the next scatter reports every
        host of that shard failed - dead-agent semantics, at group
        granularity."""
        with socket_cluster() as cluster:
            pool = cluster.agent_servers
            victim_shard = set(pool.group_hosts("group-1"))
            pool.kill("group-1")
            time.sleep(0.05)
            result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
            assert result.partial
            assert set(result.hosts_failed) == victim_shard
            assert any(w.code == W_HOST_FAILED for w in result.warnings)
            for host in victim_shard:
                assert not pool.healthy(host)
            # unsupervised: stays dead
            again = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 10}))
            assert set(again.hosts_failed) == victim_shard

    def test_sweep_expands_dead_group_to_hosts(self):
        with socket_cluster() as cluster:
            pool = cluster.agent_servers
            victim_shard = set(pool.group_hosts("group-2"))
            pool.kill("group-2")
            time.sleep(0.05)
            sweep = cluster.run_monitors(1.0)
            assert sweep.partial
            assert set(sweep.hosts_failed) == victim_shard

    def test_surviving_groups_answer_correctly(self):
        """The partial aggregate equals a serial run over the surviving
        hosts only."""
        with socket_cluster() as cluster:
            pool = cluster.agent_servers
            dead = set(pool.group_hosts("group-0"))
            pool.kill("group-0")
            time.sleep(0.05)
            result = cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 100}))
            survivors = [h for h in cluster.hosts if h not in dead]
            serial = QueryCluster(small_topology(NUM_HOSTS))
            populate(serial)
            try:
                want = serial.execute(Query(Q_TOP_K_FLOWS, {"k": 100}),
                                      hosts=survivors)
            finally:
                serial.close()
            assert wire.encode_value(result.payload) == \
                wire.encode_value(want.payload)


class TestSupervisedRecovery:
    @pytest.mark.parametrize("transport", [TRANSPORT_PIPE, TRANSPORT_UNIX,
                                           TRANSPORT_TCP])
    def test_restart_over_reconnect_byte_identical(self, transport):
        """Kill a group worker; the supervisor respawns it, the fresh
        process reconnects (socket transports) and is re-seeded from the
        local mirrors, and the next query answers byte-identically."""
        query = Query(Q_TOP_K_FLOWS, {"k": 50})
        want = reference_payload(query)
        with socket_cluster(transport=transport,
                            supervisor=Supervisor(FAST)) as cluster:
            pool = cluster.agent_servers
            pool.kill("group-1")
            time.sleep(0.05)
            first = cluster.execute(query)   # detects the death, restarts
            assert first.partial
            second = cluster.execute(query)  # fully recovered
            assert not second.partial
            assert wire.encode_value(second.payload) == want
            assert pool.stats.restarts == 1
            assert pool.stats.reconnects == 1
            codes = [w.code for w in first.warnings + second.warnings]
            assert W_WORKER_RESTARTED in codes

    def test_reseed_counts_whole_shard(self):
        """The restart event's re-seed accounting covers every member
        host's records, not just one worker's."""
        records_per_host = 10
        supervisor = Supervisor(FAST)
        with socket_cluster(supervisor=supervisor,
                            records_per_host=records_per_host) as cluster:
            pool = cluster.agent_servers
            shard = pool.group_hosts("group-0")
            pool.kill("group-0")
            time.sleep(0.05)
            cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 5}))
            restarted = [e for e in supervisor.events
                         if e.kind == "restarted"]
            assert restarted
            assert restarted[-1].records == records_per_host * len(shard)

    def test_monitor_state_recovers_too(self):
        """At-most-once alerting survives a group restart: the re-seeded
        monitor carries the latches."""
        with socket_cluster(feed=feed_workload,
                            supervisor=Supervisor(FAST)) as cluster:
            pool = cluster.agent_servers
            assert cluster.run_monitors(1.0)   # alerts, latches both sides
            pool.kill("group-1")
            time.sleep(0.05)
            cluster.execute(Query(Q_TOP_K_FLOWS, {"k": 1}))  # heal
            assert cluster.run_monitors(2.0) == []  # latches survived


class TestConnectionChaos:
    @pytest.mark.parametrize("transport", [TRANSPORT_UNIX, TRANSPORT_PIPE])
    def test_torn_close_mid_frame(self, transport):
        """A worker closing its connection mid-stream-frame (length prefix
        promising more bytes than arrive) surfaces as a decode error,
        kills the worker, and the supervisor recovers byte-identically."""
        query = Query(Q_TOP_K_FLOWS, {"k": 30})
        want = reference_payload(query)
        fault_at = group_startup_frames(NUM_HOSTS // GROUPS) + 1
        chaos = ChaosPolicy(close_torn_at_frame={"group-1": fault_at})
        with socket_cluster(transport=transport, chaos=chaos,
                            supervisor=Supervisor(FAST)) as cluster:
            pool = cluster.agent_servers
            first = cluster.execute(query)   # fault fires on this scatter
            second = cluster.execute(query)
            assert chaos.injected
            assert pool.stats.decode_errors >= 1
            assert pool.stats.restarts >= 1
            assert not second.partial
            assert wire.encode_value(second.payload) == want

    def test_reset_after_partial_frame_is_a_torn_frame(self):
        """A worker that closes with the controller's bytes unread resets
        the connection; the partial frame it wrote before must still
        surface as a decode error, not as a clean close."""
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_STREAM)
        endpoint = _SocketEndpoint(ours)
        try:
            ours.sendall(b"never read")
            torn = wire.stream_frame(wire.encode_ping())
            theirs.sendall(torn[:wire.STREAM_PREFIX_BYTES + 2])
            theirs.close()
            with pytest.raises(wire.WireDecodeError):
                endpoint.recv()
        finally:
            endpoint.close()

    def test_stalled_socket(self):
        """The gray failure: the connection is open but nothing moves.
        Only the reply deadline detects it; the worker is replaced."""
        query = Query(Q_TOP_K_FLOWS, {"k": 30})
        want = reference_payload(query)
        fault_at = group_startup_frames(NUM_HOSTS // GROUPS) + 1
        chaos = ChaosPolicy(hang_at_frame={"group-0": fault_at},
                            hang_s=30.0)
        with socket_cluster(chaos=chaos, supervisor=Supervisor(FAST),
                            reply_timeout_s=0.3) as cluster:
            pool = cluster.agent_servers
            start = time.perf_counter()
            first = cluster.execute(query)
            assert first.partial          # the stalled group timed out
            assert time.perf_counter() - start < 10.0  # deadline, not hang
            second = cluster.execute(query)
            assert chaos.injected
            assert pool.stats.restarts >= 1
            assert not second.partial
            assert wire.encode_value(second.payload) == want


class TestStandalonePool:
    @pytest.mark.parametrize("transport", [TRANSPORT_PIPE, TRANSPORT_UNIX,
                                           TRANSPORT_TCP])
    def test_lifecycle(self, transport):
        hosts = [f"h-{i}" for i in range(5)]
        pool = GroupAgentPool(hosts, group_count=2, transport=transport)
        try:
            assert pool.group_keys() == ["group-0", "group-1"]
            assert pool.hosts == hosts
            assert pool.ping("h-0") == 0
            for host in hosts:
                assert pool.alive(host) and pool.healthy(host)
            states = pool.group_ping_state("group-0")
            assert set(states) == set(pool.group_hosts("group-0"))
        finally:
            pool.shutdown()
            pool.shutdown()  # idempotent

    def test_unknown_host_rejected(self):
        pool = GroupAgentPool(["a", "b"], group_count=1,
                              transport=TRANSPORT_PIPE)
        try:
            with pytest.raises(AgentServerError, match="no agent server"):
                pool.ping("nope")
        finally:
            pool.shutdown()

    def test_garbage_handshake_rejected(self):
        """A stranger connecting to the listener with a garbage hello is
        dropped; the real workers keep serving."""
        pool = GroupAgentPool(["a", "b"], group_count=1,
                              transport=TRANSPORT_TCP)
        try:
            stranger = socket.create_connection(pool._address, timeout=5.0)
            try:
                stranger.sendall(b"GET / HTTP/1.0\r\n\r\n")
                stranger.settimeout(2.0)
                # the controller closes the stranger without handing it
                # a worker's connection
                assert stranger.recv(64) == b""
            finally:
                stranger.close()
            assert pool.ping("a") == 0  # pool unharmed
        finally:
            pool.shutdown()

    def test_wrong_shard_hello_rejected(self):
        """A hello claiming hosts that disagree with the controller's
        computed shard is refused (split-brain guard)."""
        pool = GroupAgentPool(["a", "b"], group_count=1,
                              transport=TRANSPORT_TCP)
        try:
            liar = socket.create_connection(pool._address, timeout=5.0)
            try:
                hello = wire.encode_group_hello(0, ("x", "y"))
                liar.sendall(wire.stream_frame(hello))
                liar.settimeout(2.0)
                assert liar.recv(64) == b""
            finally:
                liar.close()
            assert pool.ping("b") == 0
        finally:
            pool.shutdown()
