"""Per-layer metrics of a traced run.

Inputs are the span files the traced processes wrote (see
``shim.py``), the client's open-loop records, and ``/v1/metrics``
counters read before and after the measured phase.  Times in span
files are ``CLOCK_MONOTONIC`` nanoseconds, the same clock the client
uses, so spans and client timings can be compared directly.
"""

from __future__ import annotations

import glob
import json
import os
from typing import Dict, Iterable, List, Optional, Sequence

from stats import median, percentile, self_times

#: Span name -> layer, for the per-request breakdown.
LAYER_OF = {
    "service.request": "service",
    "service.request.send": "service",
    "federation.router": "service",
    "federation.router.send": "service",
    "resilience.run": "resilience",
    "cache.get": "cache",
    "cache.put": "cache",
    "cache.revalidate": "cache",
    "queries.plan": "queries",
    "sketch.best": "sketch",
    "unfold.journey": "unfold",
    "batch.plan": "batch",
    "kernels.entry": "kernels",
    "live.apply_event": "live",
    "federation.plan": "federation",
    "federation.proxy": "federation",
}
BREAKDOWN_LAYERS = ("service", "resilience", "cache", "queries", "sketch",
                    "unfold", "batch", "kernels", "live", "federation")
#: Share of open-loop requests either side of the median whose span
#: trees are averaged into the breakdown.
BAND = 0.05


def load_spans(trace_dir: str):
    """All spans and per-process service dumps under ``trace_dir``."""
    spans: List[dict] = []
    services: List[dict] = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.json"))):
        with open(path) as fh:
            dump = json.load(fh)
        pid = dump["pid"]
        for span_id, parent, name, start, end, rid, attrs in dump["spans"]:
            spans.append({
                "pid": pid, "id": span_id, "parent": parent, "name": name,
                "start": start, "end": end, "rid": rid,
                "attrs": attrs or {},
            })
        for service in dump["services"]:
            services.append(dict(service, pid=pid))
    return spans, services


def _us(span: dict) -> float:
    return (span["end"] - span["start"]) / 1e3


def _top_level(spans: Sequence[dict], name: str) -> List[dict]:
    """Spans named ``name`` with no ancestor of the same name."""
    by_key = {(s["pid"], s["id"]): s for s in spans}
    chosen = []
    for span in spans:
        if span["name"] != name:
            continue
        parent = span["parent"]
        nested = False
        while parent is not None:
            up = by_key.get((span["pid"], parent))
            if up is None:
                break
            if up["name"] == name:
                nested = True
                break
            parent = up["parent"]
        if not nested:
            chosen.append(span)
    return chosen


def _delta(after: dict, before: dict, key: str) -> float:
    return float(after.get(key, 0)) - float(before.get(key, 0))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(
    spans: List[dict],
    services: List[dict],
    window: tuple,
    records: Sequence,
    envelopes: Sequence[Optional[dict]],
    before: dict,
    after: dict,
    events_posted: int,
) -> Dict[str, float]:
    """Every per-layer metric that comes from spans and counters.

    ``window`` is the measured phase ``(start_ns, end_ns)``; request
    spans outside it (warm-up, oracle checks) are ignored.
    ``envelopes`` holds the parsed body of each open-loop record (None
    for a failed request).
    """
    lo, hi = window
    timed = [s for s in spans if lo <= s["start"] and s["end"] <= hi]
    selfs = self_times(spans)

    def names(name: str, pool=timed) -> List[dict]:
        return [s for s in pool if s["name"] == name]

    def durations_us(name: str, **match) -> List[float]:
        return [_us(s) for s in names(name)
                if all(s["attrs"].get(k) == v for k, v in match.items())]

    def self_us(name: str) -> List[float]:
        return [selfs[(s["pid"], s["id"])] / 1e3 for s in names(name)]

    m: Dict[str, float] = {}
    totals_b = before.get("cluster", {}).get("totals", {})
    totals_a = after.get("cluster", {}).get("totals", {})

    # service
    elapsed, transport = [], []
    for record, env in zip(records, envelopes):
        if env is None:
            continue
        e = env["meta"]["elapsed_us"]
        elapsed.append(e)
        transport.append((record.done - record.sent) * 1e6 - e)
    m["service.elapsed_us.p50"] = median(elapsed)
    m["service.transport_us.p50"] = median(transport)
    rows_b = {r["worker"]: r for r in
              before.get("cluster", {}).get("workers", [])}
    shares = [_delta(r["counters"],
                     rows_b.get(r["worker"], {}).get("counters", {}),
                     "requests")
              for r in after.get("cluster", {}).get("workers", [])]
    m["service.worker_share.max"] = _ratio(max(shares, default=0),
                                           sum(shares))

    # resilience
    m["resilience.run_self_us.p50"] = median(self_us("resilience.run"))

    # serving.cache
    hits = _delta(totals_a, totals_b, "cache_hits")
    misses = _delta(totals_a, totals_b, "cache_misses")
    m["serving.cache.hit_rate"] = _ratio(hits, hits + misses)
    m["serving.cache.get_us.p50"] = median(durations_us("cache.get"))
    m["serving.cache.evictions"] = _delta(totals_a, totals_b,
                                          "cache_evictions")
    m["serving.cache.invalidations_per_event"] = _ratio(
        _delta(totals_a, totals_b, "cache_invalidations"), events_posted)

    # core.queries / core.sketch / core.unfold
    for kind in ("eap", "ldp", "sdp", "profile"):
        m[f"core.queries.plan_us.{kind}.p50"] = median(
            durations_us("queries.plan", kind=kind))
    m["core.queries.labels_scanned_per_query"] = _ratio(
        _delta(totals_a, totals_b, "labels_scanned"),
        _delta(totals_a, totals_b, "queries"))
    m["core.sketch.self_us.p50"] = median(self_us("sketch.best"))
    m["core.unfold.self_us.p50"] = median(self_us("unfold.journey"))
    m["core.unfold.fallbacks"] = _delta(totals_a, totals_b,
                                        "unfold_fallbacks")

    # core.batch / core.kernels
    for kind in ("one_to_many", "matrix", "isochrone"):
        m[f"core.batch.plan_us.{kind}.p50"] = median(
            durations_us("batch.plan", kind=kind))
    entries = len(names("queries.plan")) + len(names("batch.plan")) + len(
        [s for s in names("federation.plan") if s["attrs"].get("cls")
         == "intra"])
    m["core.kernels.vectorized_share"] = _ratio(
        len(names("kernels.entry")), entries)

    # live (every process that applies events: writer and workers)
    m["live.apply_event_ms.p50"] = median(
        [d / 1e3 for d in durations_us("live.apply_event")])
    queries = fast = taint = improvement = flood = 0
    for service in services:
        stats = service.get("live_stats")
        if service["role"] != "worker" or not stats:
            continue
        queries += stats["queries"]
        fast += stats["fast_path"]
        taint += stats["fallback_taint"]
        improvement += stats["fallback_improvement"]
        flood += stats["fallback_flood"]
    m["live.fast_path_rate"] = _ratio(fast, queries)
    m["live.fallbacks.taint"] = taint
    m["live.fallbacks.improvement"] = improvement
    m["live.fallbacks.flood"] = flood

    # serving.journal
    m["serving.journal.append_ms.p50"] = median(
        [d / 1e3 for d in durations_us("journal.append")])
    acked = {s["attrs"].get("seq"): s["end"]
             for s in names("journal.append")}
    lags = [(s["end"] - acked[s["attrs"]["seq"]]) / 1e6
            for s in names("journal.apply")
            if s["attrs"].get("seq") in acked]
    m["serving.journal.replay_lag_ms.p90"] = (
        percentile(lags, 90) if lags else 0.0)

    # serving.worker: fork (child main entry) until first heartbeat.
    ready = []
    for main in [s for s in spans if s["name"] == "worker.main"]:
        publishes = [s["end"] for s in spans if s["pid"] == main["pid"]
                     and s["name"] == "worker.publish"]
        if publishes:
            ready.append((min(publishes) - main["start"]) / 1e9)
    m["serving.worker.ready_s"] = max(ready, default=0.0)

    # set-up layers: seconds summed over the build and serve processes.
    def setup_seconds(name: str) -> float:
        return sum(_us(s) for s in _top_level(spans, name)) / 1e6

    m["datasets.generate_s"] = setup_seconds("datasets.load")
    m["core.build.build_s"] = setup_seconds("build.index")
    m["core.build.labels"] = sum(
        s["attrs"].get("labels", 0) for s in _top_level(spans, "build.index"))
    m["core.serialize.save_s"] = setup_seconds("serialize.save")
    m["core.serialize.load_s"] = setup_seconds("serialize.load")

    # federation
    for cls in ("intra", "cross"):
        m[f"federation.plan_us.{cls}.p50"] = median(
            durations_us("federation.plan", cls=cls))
    router_b = before.get("federation", {}).get("router", {})
    router_a = after.get("federation", {}).get("router", {})
    m["federation.subrequests_per_query"] = _ratio(
        _delta(router_a, router_b, "subrequests"),
        _delta(router_a, router_b, "intra_proxied")
        + _delta(router_a, router_b, "cross_stitched"))
    m["federation.build_s"] = setup_seconds("federation.build")
    return m


def breakdown(spans: List[dict], records: Sequence,
              latencies_us: Sequence[float],
              request_ids: Sequence[int]) -> Dict[str, float]:
    """Where the time of a median request went.

    Takes the open-loop requests whose due-time latency lies within
    :data:`BAND` of the median, and averages over them: the wait for
    a free connection, each layer's self time in that request's spans,
    and what is left.  The remainder (``unattributed``) is connect,
    accept, HTTP parsing before the handler runs, and the client's own
    reading; the parts add up to the band's mean latency exactly.
    """
    order = sorted(range(len(latencies_us)), key=lambda i: latencies_us[i])
    n = len(order)
    if n == 0:
        return {}
    half = max(1, int(n * BAND))
    mid = n // 2
    band = order[max(0, mid - half): mid + half + 1]
    selfs = self_times(spans)
    by_rid: Dict[str, List[dict]] = {}
    for span in spans:
        if span["rid"] is not None:
            by_rid.setdefault(span["rid"], []).append(span)
    sums = {layer: 0.0 for layer in BREAKDOWN_LAYERS}
    client = queue = 0.0
    for i in band:
        record = records[i]
        client += latencies_us[i]
        queue += (record.sent - record.due) * 1e6
        for span in by_rid.get(str(request_ids[i]), ()):
            layer = LAYER_OF.get(span["name"])
            if layer is not None:
                sums[layer] += selfs[(span["pid"], span["id"])] / 1e3
    k = len(band)
    out = {"breakdown.client_p50_us": client / k,
           "breakdown.queue_us": queue / k}
    for layer in BREAKDOWN_LAYERS:
        out[f"breakdown.{layer}_us"] = sums[layer] / k
    out["breakdown.unattributed_us"] = (
        client - queue - sum(sums.values())) / k
    return out


def metric_names() -> Iterable[str]:
    """Names :func:`breakdown` reports."""
    yield "breakdown.client_p50_us"
    yield "breakdown.queue_us"
    for layer in BREAKDOWN_LAYERS:
        yield f"breakdown.{layer}_us"
    yield "breakdown.unattributed_us"
