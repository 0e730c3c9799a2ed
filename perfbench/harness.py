"""The benchmark's runner: set-up, the closed loop, checks and metrics.

Runs one seeded workload (see ``workloads.py``) against the program in
``src/`` through the operator API only, from one client thread in a closed
loop: each operation is issued after the previous one returned.  Every
answer is checked outside the timed interval.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` measures half the time untraced and half
traced, and reports the per-layer metrics plus the tracing overhead.

Human-readable lines (prefixed ``#``) come first; the last line of stdout is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Full
results, tagged with the machine fingerprint, go to ``perfbench/out/``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from repro.core import MODE_SOCKET, Q_FLOW_SIZE_DISTRIBUTION, Q_TOP_K_FLOWS
from repro.core import plan as planlib
from repro.core import wire

from spans import LAYER_METRICS, Tracer, counters, layer_metrics
from workloads import TOP_K, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: ``traffic_kb_per_query`` averages the first this-many measured queries
#: (a 20 s run measures more on every workload), so it is an exact function
#: of the seed; this many keep the spread of ``window`` result sizes across
#: seeds small.
TRAFFIC_QUERIES = 30
#: An op class's ``_p90`` is printed only with at least this many samples
#: (ten beyond it): batches and sweeps have that many in a 20 s run, query
#: classes do not.
P90_MIN_SAMPLES = 100
#: Stop measuring after this much wall time, whatever ``--seconds`` says.
WALL_LIMIT_S = 140.0

END_TO_END = {
    "setup_s": "s", "peak_rss_mb": "MB", "ingest_ms_p75": "ms",
    "sweep_ms_p90": "ms", "query_ms_p75_geomean": "ms",
    "query_ms_mean": "ms", "traffic_kb_per_query": "KB",
}
#: Units of the ungated rows that are not latencies in ms.
PER_CLASS_UNITS = {"ingest_krec_per_s": "krec/s"}


def fingerprint() -> dict:
    """nproc, CPU model, Python version, commit (when the tree is a git
    checkout) and a digest of ``src/`` (always, so a result names the code
    it measured even outside git)."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                commit = loose.read_text().strip()
            elif packed.is_file():
                for line in packed.read_text().splitlines():
                    if line.endswith(" " + name):
                        commit = line.split()[0]
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "commit": commit,
            "src_sha256": digest.hexdigest()[:16]}


def speed_probe_ms() -> float:
    """Median time of a fixed pure-Python loop.  On a shared machine the
    interpreter's speed drifts with the neighbours' load; a probe at the
    start and the end of a run tells a slow machine from a slow program."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live worker it started."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            pass
    return total_kb / 1024.0


@contextlib.contextmanager
def collector_paused():
    """Pause automatic collection around the benchmark's own work between
    timed operations (generating a step, checking an answer).  Its
    short-lived objects are freed by reference counting when it ends, so
    they neither trigger collections nor get promoted into the old
    generation the program's collections walk; inside the timed
    operations the collector runs as it normally would."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def p50(values):
    return statistics.median(values)


def p75(values):
    return statistics.quantiles(values, n=4)[-1]


def p90(values):
    return statistics.quantiles(values, n=10)[-1]


class Runner:
    """Issues a workload's operations, times them, and checks answers."""

    def __init__(self, workload, cluster) -> None:
        self.workload = workload
        self.cluster = cluster
        self.steps = workload.steps()
        self.tracer = None
        self.ops_issued = 0
        #: Traced ops only: id -> kind, (id, kind, class, start, end), and
        #: storage-counter deltas summed over them.
        self.op_kinds = {}
        self.op_log = []
        self.deltas = {}
        self.reset()
        self.attempted = {}
        self.failed = {}
        self.errors = []

    def reset(self) -> None:
        self.samples = {}
        self.traffic = []
        self.alarms = 0
        self.timed_s = 0.0
        self.steps_run = 0

    # --------------------------------------------------------------- loop
    def run(self, seconds: float, deadline: float,
            record: bool = True) -> None:
        """Whole query cycles until ``seconds`` of timed work (or the wall
        deadline) passed."""
        cycle = len(self.workload.query_cycle)
        while True:
            with collector_paused():
                ops = next(self.steps)
            for op in ops:
                self.issue(op, record)
            if ops[-1].kind != "query":
                continue  # a step ends with its query
            self.steps_run += 1
            if self.steps_run % cycle == 0 and (
                    self.timed_s >= seconds
                    or time.perf_counter() >= deadline):
                return

    def issue(self, op, record: bool) -> None:
        cluster = self.cluster
        tracer = self.tracer
        self.attempted[op.cls] = self.attempted.get(op.cls, 0) + 1
        self.ops_issued += 1
        op_id = self.ops_issued
        before = None
        if tracer is not None:
            before = counters(cluster)
            tracer.op = op_id
        error = result = None
        start = time.perf_counter()
        try:
            if op.kind == "ingest":
                result = cluster.ingest_flow_outcomes(op.arg)
            elif op.kind == "sweep":
                result = cluster.run_monitors(op.arg)
            else:
                query, mechanism = op.arg
                result = cluster.execute(query, mechanism=mechanism)
        except Exception:  # a failed operation is counted, not fatal
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
            self.op_kinds[op_id] = op.kind
            self.op_log.append((op_id, op.kind, op.cls, start,
                                start + elapsed))
            for key, value in counters(cluster).items():
                self.deltas[key] = self.deltas.get(key, 0) + \
                    value - before[key]
        if error is None:
            with collector_paused():
                error = self.check(op, result)
        elif op.kind == "sweep":
            self.workload.model.sweep(op.arg)  # keep the model in step
        if error is not None:
            self.failed[op.cls] = self.failed.get(op.cls, 0) + 1
            if len(self.errors) < 5:
                self.errors.append(f"{op.cls}: {error}")
        if not record:
            return
        self.timed_s += elapsed
        self.samples.setdefault(op.cls, []).append(elapsed)
        if op.kind == "sweep" and error is None:
            self.alarms += len(result)
        elif op.kind == "query" and error is None:
            self.traffic.append(result.traffic_bytes)

    # -------------------------------------------------------------- checks
    def check(self, op, result):
        """``None`` when the answer is right, else what was wrong."""
        model = self.workload.model
        if op.kind == "ingest":
            return None if result == len(op.arg) else \
                f"ingested {result} of {len(op.arg)} records"
        if op.kind == "sweep":
            want = wire.encode_alarm_batch(model.sweep(op.arg))
            if result.partial:
                return f"partial sweep, failed {result.hosts_failed}"
            return None if wire.encode_alarm_batch(list(result)) == want \
                else "alarm stream differs from the model"
        query, _mechanism = op.arg
        if result.partial:
            return f"partial result, failed {result.hosts_failed}"
        got = wire.encode_value(result.payload)
        if query.name == Q_TOP_K_FLOWS:
            want = wire.encode_value(planlib.reference_evaluate(
                model.path_records(), planlib.compile_top_k_flows(TOP_K)))
            if got != want:
                return "top-k differs from reference_evaluate on the model"
        else:
            if _canonical(result.payload) != _canonical(
                    _model_histogram(query, model)):
                return f"{query.name} differs from the model"
        if self.workload.mode == MODE_SOCKET and got != _mirror_payload(
                self.cluster, query):
            return "payload differs from the serial in-process answer"
        return None

    # ------------------------------------------------------------- metrics
    def end_to_end(self, setup_times) -> dict:
        """The gated metrics.  Op latencies are upper quantiles, not
        medians: on the shared machine a run mixes spells of two or three
        interpreter speeds in proportions that change from run to run, and
        a median jumps between speeds as the proportions cross one half,
        while an upper quantile stays with the slower speed, which nearly
        every run meets for a quarter of its time or more (see
        README.md)."""
        classes = self.workload.query_cycle
        queries = [value for cls in classes for value in self.samples[cls]]
        tails = [p75(self.samples[cls]) for cls in classes]
        sweeps = self.samples["sweep"]
        batches = self.samples["ingest"]
        traffic = self.traffic[:TRAFFIC_QUERIES]
        return {
            "setup_s": (p50(setup_times), len(setup_times)),
            "peak_rss_mb": (peak_rss_mb(), 1),
            # A p75, not a p90: on two_tier about one batch in ten flushes
            # evicted records to the cold tier and takes twice as long, so
            # a p90 jumps between plain and flushing batches.
            "ingest_ms_p75": (p75(batches) * 1e3, len(batches)),
            "sweep_ms_p90": (p90(sweeps) * 1e3, len(sweeps)),
            "query_ms_p75_geomean": (
                statistics.geometric_mean(tails) * 1e3, len(queries)),
            "query_ms_mean": (statistics.fmean(queries) * 1e3, len(queries)),
            "traffic_kb_per_query": (statistics.fmean(traffic) / 1024,
                                     len(traffic)),
        }

    def per_class(self) -> dict:
        """Latency per op class and the mean ingest rate, printed for the
        reader but not gated: a query class runs on one workload family
        only, and medians move with the machine's speed (see
        :meth:`end_to_end`)."""
        batches = self.samples["ingest"]
        rows = {"ingest_krec_per_s": (
            self.workload.BATCH * len(batches) / sum(batches) / 1e3,
            len(batches))}
        for cls in ("ingest", "sweep") + self.workload.query_cycle:
            values = self.samples[cls]
            rows[f"{cls}_ms_p50"] = (p50(values) * 1e3, len(values))
            rows[f"{cls}_ms_p75"] = (p75(values) * 1e3, len(values))
            if len(values) >= P90_MIN_SAMPLES:
                rows[f"{cls}_ms_p90"] = (p90(values) * 1e3, len(values))
        return rows


def _canonical(histogram) -> bytes:
    return wire.encode_value(sorted(histogram.items()))


def _model_histogram(query, model) -> dict:
    """``flow_size_distribution`` (all links) or ``traffic_matrix`` over
    the model's records."""
    histogram = {}
    if query.name == Q_FLOW_SIZE_DISTRIBUTION:
        binsize = query.params["binsize"]
        for record in model.path_records(query.params.get("time_range")):
            key = ("*-*", record.bytes // binsize)
            histogram[key] = histogram.get(key, 0) + 1
        return histogram
    for record in model.path_records():
        if len(record.path) >= 3:
            key = (record.path[1], record.path[-2])
            histogram[key] = histogram.get(key, 0) + record.bytes
    return histogram


def _mirror_payload(cluster, query) -> bytes:
    """The serial in-process answer over the controller's dual-write
    mirrors: every local agent's partial, folded in host order."""
    engine = cluster.engine
    partials = [engine.execute(cluster.agent(host), query,
                               measure_wire=False)
                for host in cluster.hosts]
    return wire.encode_value(
        engine.merge(query, partials, measure_wire=False).payload)


def _print_rows(title: str, rows: dict, units: dict) -> None:
    print(f"# {title}")
    for name, (value, samples) in rows.items():
        print(f"#   {name:34s} {value:14.4f} {units.get(name, 'ms'):7s} "
              f"n={samples}")


def main(args) -> int:
    """Run ``args.workload``; prints the report, returns the exit code."""
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    deadline = started + WALL_LIMIT_S
    probes = [speed_probe_ms()]
    workload = WORKLOADS[args.workload](args.seed)
    setup_times = []
    cluster = None
    for _ in range(SETUP_REPEATS):
        if cluster is not None:
            cluster.close()
            cluster = None
        preload = workload.preload()
        begin = time.perf_counter()
        cluster = workload.build(preload)
        setup_times.append(time.perf_counter() - begin)
        del preload
    # Start the measured part from a clean heap: the discarded set-ups'
    # clusters are the only garbage, and they are not the measured one's.
    gc.collect()
    try:
        runner = Runner(workload, cluster)
        runner.run(0.0, deadline, record=False)  # one untimed warm-up cycle
        if args.trace:
            metrics, units, rows = _traced(runner, args.seconds, deadline)
        else:
            runner.reset()
            runner.run(args.seconds, deadline)
            rows = runner.end_to_end(setup_times)
            metrics = {name: rows[name][0] for name in END_TO_END}
            units = END_TO_END
    finally:
        cluster.close()
    probes.append(speed_probe_ms())
    machine = fingerprint()
    machine["speed_probe_ms"] = probes
    attempted = sum(runner.attempted.values())
    failed = sum(runner.failed.values())
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace} "
          f"mode {workload.mode} hosts {len(workload.hosts)} "
          f"steps {runner.steps_run} wall "
          f"{time.perf_counter() - started:.1f}s")
    print(f"# machine {json.dumps(machine)}")
    _print_rows("metrics", rows, units)
    per_class = runner.per_class()
    _print_rows("per class (not gated)", per_class, PER_CLASS_UNITS)
    for cls in sorted(runner.attempted):
        print(f"#   ops {cls:16s} failed {runner.failed.get(cls, 0)} "
              f"of {runner.attempted[cls]}")
    for error in runner.errors:
        print("# error " + error.replace("\n", "\n#   "))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine,
        "metrics": {name: {"value": value, "unit": units[name],
                           "samples": samples}
                    for name, (value, samples) in rows.items()},
        "per_class": {name: {"value": value,
                             "unit": PER_CLASS_UNITS.get(name, "ms"),
                             "samples": samples}
                      for name, (value, samples) in per_class.items()},
        "op_seconds": runner.samples,
        "attempted": runner.attempted, "failed": runner.failed,
        "errors": runner.errors}, indent=1))
    if runner.tracer is not None:
        runner.tracer.dump(OUT / f"{stem}-spans.json.gz", runner.op_log)
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


def _traced(runner, seconds: float, deadline: float):
    """Half the time untraced, half traced; per-layer metrics from the
    traced half and the overhead between the two."""
    runner.reset()
    runner.run(seconds / 2, deadline)
    plain_step_s = runner.timed_s / runner.steps_run
    runner.reset()
    pool = runner.cluster.agent_servers
    stats_before = ((pool.stats.frames_sent, pool.stats.envelopes_sent)
                    if pool is not None else (0, 0))
    tracer = runner.tracer = Tracer()
    tracer.install()
    try:
        runner.run(seconds / 2, deadline)
    finally:
        tracer.uninstall()
    frames = envelopes = 0
    if pool is not None:
        frames = pool.stats.frames_sent - stats_before[0]
        envelopes = pool.stats.envelopes_sent - stats_before[1]
    sweeps = len(runner.samples.get("sweep", []))
    extra = {
        "groupserver.frames_per_envelope": (frames / envelopes
                                            if envelopes else 0.0),
        "alarms.per_sweep": runner.alarms / sweeps if sweeps else 0.0,
        "tracing.overhead_frac": (runner.timed_s / runner.steps_run)
        / plain_step_s - 1.0,
    }
    metrics = layer_metrics(tracer, runner.op_kinds, runner.deltas, extra)
    ops = len(runner.op_kinds)
    rows = {name: (metrics[name], ops) for name in LAYER_METRICS}
    return {name: metrics[name] for name in LAYER_METRICS}, LAYER_METRICS, \
        rows
