"""End-to-end benchmark of the TTL HTTP service.

    python3 perfbench/run.py --workload journeys --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each run builds the workload's network with ``repro-ttl build``,
serves it with ``repro-ttl serve``, drives it from this process, and
checks a seeded sample of the answers against an independent oracle.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` serves
through ``shim.py`` instead and prints the per-layer metrics, with
the tracing overhead measured against an untraced server in the same
run.  The last line of output is one JSON object; the exit code is 1
when an answer is wrong or the open loop fell behind its schedule.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import shutil
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from deploy import DeployError, Deployment  # noqa: E402
from layers import breakdown, layer_metrics, load_spans  # noqa: E402
from layers import metric_names as breakdown_names  # noqa: E402
from loadgen import (  # noqa: E402
    ClosedResult,
    EventStream,
    Record,
    Request,
    closed_loop,
    get_json,
    http_sender,
    open_loop,
)
from stats import (  # noqa: E402
    InsufficientSamples,
    due_latency,
    generator_lateness,
    median,
    percentile,
    tail_percentile,
)
from workloads import (  # noqa: E402
    WORKLOADS,
    DijkstraOracle,
    MonolithOracle,
    Traffic,
    Workload,
    batch_traffic,
    commuter_trips,
    feasible,
    federated_traffic,
    hotspot_keys,
    journeys_traffic,
    live_events,
    zipf_traffic,
)

#: A second seed kept out of tuning: a later claim is confirmed on it.
HELD_OUT_SEED = 7919
#: Set-ups per untraced run; setup_s is their median.  Each set-up
#: also serves an equal share of the measured traffic.
SETUPS = 2
#: Query connections (and threads) of the load generator.
CONNECTIONS = min(2, os.cpu_count() or 1)
#: An open loop is invalid when the generator's own lateness (past
#: max(due, connection free)) exceeds this share of the workload's
#: latency limit at p99: the generator, not the server, would then
#: decide which requests meet the limit.
LATE_SHARE_OF_SLO = 0.2
#: Seconds of traffic sent before measuring (caches, page cache).
WARMUP_S = 0.5
#: Share of --seconds spent in the open loop; the rest is closed loop.
OPEN_SHARE = 0.6
#: Answers per run checked against the oracle.
ORACLE_SAMPLE = 120
#: Requests each closed loop cycles through.
CLOSED_POOL = 4000
HOST = "127.0.0.1"

#: (name, unit, better) of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("slo_share", "ratio", "higher"),
    ("serve_pss_mb", "MB", "lower"),
    ("index_mb", "MB", "lower"),
)

#: End-to-end figures printed by untraced runs but not gated; traced
#: runs report them among the per-layer metrics.  The host this was
#: tuned on changes speed by up to half for minutes at a time, so
#: latency and throughput move further between runs of the same code
#: than the largest bound a gate may have; see README.md.
UNGATED = (
    ("p50_us", "us"),
    ("throughput_rps", "req/s"),
    ("p99_us", "us"),
    ("error_share", "ratio"),
    ("event_visible_p50_ms", "ms"),
    ("event_visible_p90_ms", "ms"),
)

#: (name, unit, better) of every per-layer metric.
PER_LAYER = (
    ("p50_us", "us", "lower"),
    ("throughput_rps", "req/s", "higher"),
    ("p99_us", "us", "lower"),
    ("error_share", "ratio", "lower"),
    ("event_visible_p50_ms", "ms", "lower"),
    ("event_visible_p90_ms", "ms", "lower"),
    ("loadgen.late_ms.p99", "ms", "lower"),
    ("loadgen.feasible_share", "ratio", "higher"),
    ("trace.overhead_p50_us", "us", "lower"),
    ("service.elapsed_us.p50", "us", "lower"),
    ("service.transport_us.p50", "us", "lower"),
    ("service.worker_share.max", "ratio", "lower"),
    ("resilience.run_self_us.p50", "us", "lower"),
    ("resilience.shed", "count", "lower"),
    ("resilience.deadline", "count", "lower"),
    ("resilience.degraded", "count", "lower"),
    ("serving.cache.hit_rate", "ratio", "higher"),
    ("serving.cache.get_us.p50", "us", "lower"),
    ("serving.cache.evictions", "count", "lower"),
    ("serving.cache.invalidations_per_event", "count", "lower"),
    ("core.queries.plan_us.eap.p50", "us", "lower"),
    ("core.queries.plan_us.ldp.p50", "us", "lower"),
    ("core.queries.plan_us.sdp.p50", "us", "lower"),
    ("core.queries.plan_us.profile.p50", "us", "lower"),
    ("core.queries.labels_scanned_per_query", "count", "lower"),
    ("core.sketch.self_us.p50", "us", "lower"),
    ("core.unfold.self_us.p50", "us", "lower"),
    ("core.unfold.fallbacks", "count", "lower"),
    ("core.batch.plan_us.one_to_many.p50", "us", "lower"),
    ("core.batch.plan_us.matrix.p50", "us", "lower"),
    ("core.batch.plan_us.isochrone.p50", "us", "lower"),
    ("core.kernels.vectorized_share", "ratio", "higher"),
    ("live.apply_event_ms.p50", "ms", "lower"),
    ("live.fast_path_rate", "ratio", "higher"),
    ("live.fallbacks.taint", "count", "lower"),
    ("live.fallbacks.improvement", "count", "lower"),
    ("live.fallbacks.flood", "count", "lower"),
    ("serving.journal.append_ms.p50", "ms", "lower"),
    ("serving.journal.replay_lag_ms.p90", "ms", "lower"),
    ("serving.worker.ready_s", "s", "lower"),
    ("datasets.generate_s", "s", "lower"),
    ("core.build.build_s", "s", "lower"),
    ("core.build.labels", "count", "lower"),
    ("core.serialize.save_s", "s", "lower"),
    ("core.serialize.load_s", "s", "lower"),
    ("federation.plan_us.intra.p50", "us", "lower"),
    ("federation.plan_us.cross.p50", "us", "lower"),
    ("federation.subrequests_per_query", "count", "lower"),
    ("federation.build_s", "s", "lower"),
) + tuple((name, "us", "lower") for name in breakdown_names())


class Segment:
    """The traffic one deployment receives: a warm-up, the open loop,
    the closed loop's request pool and, on the live workload, the
    events streamed meanwhile."""

    def __init__(self, warmup: List[Request], open_: Traffic,
                 closed: List[Request], events: List[dict]) -> None:
        self.warmup = warmup
        self.open = open_
        self.closed = closed
        self.events = events


class Inputs:
    """Everything a run derives from its seed, made before any server
    starts so that none of it is timed."""

    def __init__(self, workload: Workload, seed: int, seconds: float,
                 segments: int) -> None:
        from repro.datasets import load_dataset

        w = workload
        self.graph = load_dataset(w.dataset, scale=w.scale)
        rng = random.Random(f"{w.name}/{seed}")
        region_of = None
        if w.federated:
            from repro.federation import region_map_from_names

            region_of = region_map_from_names(self.graph).region_of
        if w.live:
            self.keys = hotspot_keys(self.graph, rng, w.keys)
            hot_trips = commuter_trips(self.graph, self.keys, w.cache_size)
        open_count = max(1, int(w.rate * seconds * OPEN_SHARE / segments))
        warm = max(1, int(w.rate * WARMUP_S))
        total = warm + open_count + CLOSED_POOL
        self.segments = []
        for _ in range(segments):
            if w.name == "journeys":
                traffic = journeys_traffic(self.graph, rng, total)
            elif w.name == "batch":
                traffic = batch_traffic(self.graph, rng, total)
            elif w.federated:
                traffic = federated_traffic(self.graph, region_of, rng,
                                            total)
            else:
                traffic = zipf_traffic(self.keys, rng, total)
            events = []
            if w.live:
                events = live_events(
                    self.graph, rng, int(w.event_rate * seconds / segments)
                    + 1, hot_trips)
            self.segments.append(Segment(
                traffic.requests[:warm],
                Traffic(traffic.requests[warm:warm + open_count],
                        traffic.metas[warm:warm + open_count]),
                traffic.requests[warm + open_count:],
                events))
        self.oracle_rng = random.Random(f"{w.name}/{seed}/oracle")
        if w.federated:
            self.oracle = MonolithOracle(self.graph)
        elif not w.live:
            self.oracle = DijkstraOracle(self.graph)


class Phase:
    """What the client saw while measuring one deployment."""

    def __init__(self, segment: Segment) -> None:
        self.segment = segment
        self.records: List[Record] = []
        self.envelopes: List[Optional[dict]] = []
        self.closed = ClosedResult([], 0, 0.0, 0.0)
        self.mismatches: List[str] = []
        self.oracle_checked = 0
        self.window = (0, 0)
        self.stream: Optional[EventStream] = None
        self.before: dict = {}
        self.after: dict = {}
        self.pss_mb = 0.0


def measure(dep: Deployment, w: Workload, inputs: Inputs, segment: Segment,
            seconds: float, counters: bool = False) -> Phase:
    """Warm up, then run the open loop and the closed loop for
    ``seconds`` in all, with live events streaming throughout on the
    live workload; then check the answers."""
    phase = Phase(segment)
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        _drive(dep, w, segment, seconds, counters, phase)
    finally:
        gc.enable()
        gc.unfreeze()
    check_answers(dep, w, inputs, phase, ORACLE_SAMPLE // len(
        inputs.segments))
    return phase


def _drive(dep: Deployment, w: Workload, segment: Segment, seconds: float,
           counters: bool, phase: Phase) -> None:
    sender = lambda: http_sender(HOST, dep.port)  # noqa: E731
    open_loop(sender, segment.warmup, w.rate, CONNECTIONS,
              first_id=10_000_000)
    if counters:
        phase.before = _metrics(dep)
    start_ns = time.monotonic_ns()
    if w.live:
        phase.stream = EventStream(HOST, dep.port, dep.control_port,
                                   segment.events, w.event_rate,
                                   w.event_window)
        phase.stream.start()
    try:
        phase.records = open_loop(sender, segment.open.requests, w.rate,
                                  CONNECTIONS)
        phase.closed = closed_loop(
            sender, segment.closed, seconds * (1 - OPEN_SHARE), CONNECTIONS,
            first_id=20_000_000)
    finally:
        if phase.stream is not None:
            phase.stream.stop()
    if phase.stream is not None and not phase.stream.wait_converged():
        raise DeployError("workers did not reach the journal tail")
    phase.window = (start_ns, time.monotonic_ns())
    for record in phase.records:
        env = None
        if record.status == 200:
            try:
                env = json.loads(record.body)
            except ValueError:
                env = None
        phase.envelopes.append(env)
    phase.pss_mb = dep.pss_mb()
    if counters:
        time.sleep(0.4)  # one heartbeat: every worker row is current
        phase.after = _metrics(dep)


def _metrics(dep: Deployment) -> dict:
    status, body = get_json(HOST, dep.port, "/v1/metrics")
    if status != 200:
        raise DeployError(f"/v1/metrics answered {status}")
    return body["data"]


def check_answers(dep: Deployment, w: Workload, inputs: Inputs,
                  phase: Phase, sample: int) -> None:
    """Compare a seeded sample of answers with the workload's oracle."""
    rng = inputs.oracle_rng
    if w.live:
        # After the stream stopped and every worker reached the
        # journal tail: workers (cache on) must answer exactly like
        # the supervisor's reference engine (cache off).  The hottest
        # keys are the ones both workers hold in their caches, where a
        # stale answer could survive; a few cold keys check the
        # uncached path.
        keys = inputs.keys
        hot = min(len(keys.requests), w.cache_size + w.cache_size // 2)
        cold = rng.sample(range(hot, len(keys.requests)), sample // 5)
        for i in [*range(hot), *cold]:
            path = keys.requests[i][1]
            status_ref, ref = get_json(HOST, dep.control_port, path)
            for _ in range(2):
                status, got = get_json(HOST, dep.port, path)
                phase.oracle_checked += 1
                if status != 200 or status_ref != 200:
                    phase.mismatches.append(f"{path}: {status}/{status_ref}")
                elif got["data"] != ref["data"]:
                    phase.mismatches.append(
                        f"{path}: worker answer differs from reference")
        return
    metas = phase.segment.open.metas
    answered = [i for i, env in enumerate(phase.envelopes) if env is not None]
    for i in rng.sample(answered, min(sample, len(answered))):
        phase.oracle_checked += 1
        problem = inputs.oracle.check(metas[i], phase.envelopes[i]["data"])
        if problem is not None:
            phase.mismatches.append(problem)


def summarize(w: Workload, phases: Sequence[Phase]) -> dict:
    """Client-side figures pooled over the phases of one run."""
    ok, late_ms, backlog_ms = [], [], []
    sent = feasible_count = 0
    for phase in phases:
        metas = phase.segment.open.metas
        sent += len(metas)
        for i, (r, env) in enumerate(zip(phase.records, phase.envelopes)):
            late_ms.append(generator_lateness(r.due, r.picked, r.sent) * 1e3)
            if env is not None:
                ok.append(r)
                feasible_count += feasible(metas[i], env["data"])
        tail = phase.records[-max(1, len(phase.records) // 10):]
        backlog_ms += [(r.picked - r.due) * 1e3 for r in tail]
    lat_us = [due_latency(r.due, r.done) * 1e6 for r in ok]
    within = sum(1 for x in lat_us if x <= w.slo_ms * 1e3)
    mismatches = [m for phase in phases for m in phase.mismatches]
    closed_ok = sum(len(p.closed.done) for p in phases)
    closed_failed = sum(p.closed.failed for p in phases)
    failed = (sent - len(ok)) + closed_failed + len(mismatches)
    attempted = sent + closed_ok + closed_failed
    vis_ms = []
    for phase in phases:
        if phase.stream is not None:
            failed += phase.stream.failed
            attempted += phase.stream.attempted
            vis_ms += [v * 1e3 for v in phase.stream.visible_s]
    s = {
        "sent": sent,
        "ok": len(ok),
        "samples": len(lat_us),
        "p50_us": median(lat_us),
        "p99_us": None,
        # Failed or wrong answers miss the limit by definition.
        "slo_share": max(0, within - len(mismatches)) / max(1, sent),
        "throughput_rps": closed_ok / max(1e-9, sum(
            p.closed.end - p.closed.start for p in phases)),
        "late_p99_ms": percentile(late_ms, 99) if late_ms else 0.0,
        "late_max_ms": max(late_ms, default=0.0),
        "backlog_p50_ms": median(backlog_ms),
        "feasible_share": feasible_count / max(1, len(ok)),
        "oracle_checked": sum(p.oracle_checked for p in phases),
        "mismatches": mismatches[:10],
        "attempted": attempted,
        "failed": failed,
        "error_share": failed / max(1, attempted),
        "pss_mb": [p.pss_mb for p in phases],
        "throughput_by_deployment": [
            len(p.closed.done) / max(1e-9, p.closed.end - p.closed.start)
            for p in phases],
    }
    try:
        s["p99_us"] = tail_percentile(lat_us, 99)
    except InsufficientSamples:
        pass
    if any(p.stream is not None for p in phases):
        s["events_posted"] = sum(p.stream.posted for p in phases
                                 if p.stream is not None)
        s["event_visible_p50_ms"] = median(vis_ms)
        s["event_visible_p90_ms"] = (percentile(vis_ms, 90) if vis_ms
                                     else 0.0)
        s["event_visible_samples"] = len(vis_ms)
    return s


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


def run_untraced(w: Workload, seed: int, work: str,
                 seconds: float) -> Tuple[dict, dict]:
    """Set up :data:`SETUPS` times; each deployment serves an equal
    share of the measured traffic, so one slow deployment moves the
    pooled figures by its share only."""
    inputs = Inputs(w, seed, seconds, SETUPS)
    setups, phases, clean = [], [], True
    index_mb = 0.0
    for segment in inputs.segments:
        dep = Deployment(ROOT, work, w)
        try:
            setups.append(dep.setup())
            phases.append(measure(dep, w, inputs, segment,
                                  seconds / SETUPS))
            index_mb = dep.index_mb()
        finally:
            clean = dep.stop() and clean
    s = summarize(w, phases)
    metrics = {
        "setup_s": median(setups),
        "slo_share": s["slo_share"],
        "serve_pss_mb": median(s["pss_mb"]),
        "index_mb": index_mb,
    }
    info = dict(s, setups_s=setups, drained_cleanly=clean)
    return metrics, info


def run_traced(w: Workload, seed: int, work: str,
               seconds: float) -> Tuple[dict, dict]:
    """One untraced deployment for reference, then one traced; both
    receive the same traffic.  ``p50_us``, ``throughput_rps`` and
    ``p99_us`` come from the untraced one."""
    inputs = Inputs(w, seed, seconds, 1)
    segment = inputs.segments[0]
    dep = Deployment(ROOT, work, w)
    try:
        dep.setup()
        plain = summarize(w, [measure(dep, w, inputs, segment, seconds)])
    finally:
        dep.stop()

    trace_dir = os.path.join(work, "trace")
    shutil.rmtree(trace_dir, ignore_errors=True)
    os.makedirs(trace_dir)
    dep = Deployment(ROOT, work, w, trace_dir=trace_dir)
    try:
        dep.setup()
        phase = measure(dep, w, inputs, segment, seconds, counters=True)
    finally:
        clean = dep.stop()
    spans, services = load_spans(trace_dir)
    s = summarize(w, [phase])
    events = phase.stream.posted if phase.stream is not None else 0
    m = layer_metrics(spans, services, phase.window, phase.records,
                      phase.envelopes, phase.before, phase.after, events)
    ok = [r for r, env in zip(phase.records, phase.envelopes)
          if env is not None]
    m.update(breakdown(spans, ok,
                       [due_latency(r.due, r.done) * 1e6 for r in ok],
                       [r.index for r in ok]))
    statuses = [r.status for r in phase.records]
    m.update({
        "error_share": s["error_share"],
        "event_visible_p50_ms": s.get("event_visible_p50_ms", 0.0),
        "event_visible_p90_ms": s.get("event_visible_p90_ms", 0.0),
        "loadgen.late_ms.p99": s["late_p99_ms"],
        "loadgen.feasible_share": s["feasible_share"],
        "p50_us": plain["p50_us"],
        "throughput_rps": plain["throughput_rps"],
        "p99_us": plain["p99_us"],
        "trace.overhead_p50_us": s["p50_us"] - plain["p50_us"],
        "resilience.shed": statuses.count(429),
        "resilience.deadline": statuses.count(504),
        "resilience.degraded": sum(
            1 for env in phase.envelopes
            if env is not None and env["meta"].get("degraded")),
    })
    info = dict(s, untraced=plain, drained_cleanly=clean, spans=len(spans),
                bypass=bypass_problems(w, spans, services, phase.window),
                mismatches=plain["mismatches"] + s["mismatches"],
                attempted=plain["attempted"] + s["attempted"],
                failed=plain["failed"] + s["failed"])
    return m, info


def bypass_problems(w: Workload, spans: List[dict], services: List[dict],
                    window: Tuple[int, int]) -> List[str]:
    """Checks that a workload exercises the layers it claims and
    bypasses the rest (traced runs only)."""
    lo, hi = window
    counts: Dict[str, int] = {}
    for span in spans:
        if lo <= span["start"] and span["end"] <= hi:
            counts[span["name"]] = counts.get(span["name"], 0) + 1
    live_stats = any(svc.get("live_stats") for svc in services)
    problems = []

    def need(condition: bool, what: str) -> None:
        if not condition:
            problems.append(f"{w.name}: {what}")

    if w.live:
        need(counts.get("cache.get", 0) > 0, "no cache lookups")
        need(counts.get("live.apply_event", 0) > 0, "no live events applied")
    else:
        need("cache.get" not in counts, "cache lookups on a cache-off server")
        need(not live_stats and "live.apply_event" not in counts
             and "journal.apply" not in counts, "live layer was used")
    if w.federated:
        need(counts.get("federation.plan", 0) > 0, "nothing was stitched")
    else:
        need(not any(name.startswith("federation.") for name in counts),
             "federation spans outside the federated workload")
    if w.name == "batch":
        need(counts.get("batch.plan", 0) > 0, "batch_plan was not called")
    if w.name == "journeys":
        entries = counts.get("queries.plan", 0)
        need(counts.get("kernels.entry", 0) <= 0.01 * max(1, entries),
             "vectorized kernels ran on point queries")
    return problems


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------


def environment(seed: int) -> dict:
    from repro.core import kernels

    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    digest.update(name.encode() + fh.read())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy_vectorized": kernels.vectorized_available(),
        "loadavg_at_start": os.getloadavg(),
    }


def validity(w: Workload, info: dict) -> List[str]:
    """Reasons the run cannot be trusted (empty when it can)."""
    problems = []
    mismatches = info["mismatches"]
    if mismatches:
        problems.append(f"{len(mismatches)}+ answers differ from the "
                        f"oracle, e.g. {mismatches[0]}")
    late_bound_ms = LATE_SHARE_OF_SLO * w.slo_ms
    if info["late_p99_ms"] > late_bound_ms:
        problems.append(
            f"generator ran {info['late_p99_ms']:.2f} ms late at p99 "
            f"(bound {late_bound_ms:g} ms): the open loop is invalid")
    if info["p99_us"] is None:
        problems.append(f"{info['samples']} samples cannot support p99")
    return problems + info.get("bypass", [])


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    w = WORKLOADS[name]
    work = os.path.join(ROOT, ".perfbench_work", name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = environment(seed)
    runner = run_traced if trace else run_untraced
    values, info = runner(w, seed, work, seconds)
    problems = validity(w, info)
    specs = PER_LAYER if trace else END_TO_END
    print(json.dumps({"workload": name, "env": env, "info": info}))
    for metric, unit, _ in specs:
        print(f"  {name:13s} {metric:40s} {values[metric]:14.4f} {unit}")
    if not trace:
        # Named end-to-end figures kept out of the gated set: too
        # noisy to bound (latency, throughput), zero when healthy, or
        # live-only.
        for metric, unit in UNGATED:
            if info.get(metric) is not None:
                print(f"  {name:13s} {metric:40s} {info[metric]:14.4f} "
                      f"{unit}  (not gated)")
        print(f"  {name:13s} {'p99 samples':40s} {info['samples']:14d}")
    for problem in problems:
        print(f"INVALID: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit, _ in specs},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no program to measure: {ROOT}/src/repro is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    # Hand the interpreter lock over within 1 ms (default 5 ms), so a
    # load thread whose request falls due is not kept waiting by
    # another thread of the generator.
    sys.setswitchinterval(0.001)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            status = max(status, run_one(name, args.seed, args.seconds,
                                         bool(args.trace)))
        except DeployError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            status = 2
    return status


if __name__ == "__main__":
    sys.exit(main())
