"""The four workloads: what each deploys, the traffic it sends, and
the oracle its answers are checked against.

Every input comes from the ``--seed`` the benchmark is given; the
server only ever sees the generated requests.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from loadgen import Request

DAY_START = 6 * 3600
DAY_END = 20 * 3600
WINDOW_S = 3600

#: Point-query mix of the journeys and federated workloads, per block
#: of ten requests.
POINT_MIX = ("eap",) * 7 + ("ldp", "sdp", "profile")
#: Batch mix, per block of ten requests.
BATCH_MIX = ("one_to_many",) * 4 + ("matrix",) * 3 + ("isochrone",) * 3


@dataclass(frozen=True)
class Workload:
    """One deployment plus its traffic.

    ``rate`` is the open loop's fixed send rate (requests/s) and
    ``slo_ms`` the latency limit a request must meet to count in
    ``slo_share``; both were sized so the shipped service meets the
    limit at that rate on a 2-core machine without a growing backlog.
    """

    name: str
    why: str
    dataset: str
    scale: float
    rate: float
    slo_ms: float
    build_args: Tuple[str, ...] = ()
    live: bool = False
    federated: bool = False
    cache_size: int = 0
    #: Live events posted per second (hotspot-live).
    event_rate: float = 0.0
    #: Events posted between two clear-alls.
    event_window: int = 0
    #: Distinct query keys the Zipf stream draws from (hotspot-live).
    keys: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="journeys",
            why="uniform random point queries on Sweden x4 over mmap "
            "prefork: request path and planner; cache, live and batch "
            "bypassed",
            dataset="Sweden",
            scale=4,
            rate=600.0,
            slo_ms=10.0,
        ),
        Workload(
            name="hotspot-live",
            why="Zipf commuter pairs on Berlin x4 with the answer cache "
            "on while delays and cancels stream in: cache, journal, "
            "taint revalidation, live fast path",
            dataset="Berlin",
            scale=4,
            rate=150.0,
            slo_ms=50.0,
            live=True,
            cache_size=64,
            event_rate=9.0,
            event_window=20,
            keys=1024,
        ),
        Workload(
            name="batch",
            why="/v1/batch one_to_many, matrix and isochrone on Sweden "
            "x4: the one-to-all columnar pass, per-request overhead "
            "amortised",
            dataset="Sweden",
            scale=4,
            rate=250.0,
            slo_ms=25.0,
        ),
        Workload(
            name="federated",
            why="half intra-, half cross-region point queries on "
            "RheinRuhr x4 split in 3 regions: router and stitching",
            dataset="RheinRuhr",
            scale=4,
            rate=150.0,
            slo_ms=20.0,
            build_args=("--regions", "3", "--from-names"),
            federated=True,
        ),
    )
}


# ----------------------------------------------------------------------
# Traffic
# ----------------------------------------------------------------------

#: What the oracle needs to know about one request.
Meta = Tuple


@dataclass
class Traffic:
    """Requests in send order, with the facts the oracle needs."""

    requests: List[Request] = field(default_factory=list)
    metas: List[Meta] = field(default_factory=list)

    def add(self, request: Request, meta: Meta) -> None:
        self.requests.append(request)
        self.metas.append(meta)


def _kinds(rng: random.Random, mix: Sequence[str], count: int) -> List[str]:
    """``count`` kinds in shuffled blocks of ``mix``: every block holds
    the exact mix, so two seeds differ in their pairs, not in how many
    expensive queries they send."""
    kinds: List[str] = []
    while len(kinds) < count:
        block = list(mix)
        rng.shuffle(block)
        kinds.extend(block)
    return kinds[:count]


def point_request(kind: str, u: int, v: int, t: int) -> Tuple[Request, Meta]:
    """A ``/v1`` point query departing from ``t``.

    LDP's parameter is the latest arrival; it is set two hours after
    ``t`` so the departure falls in the same day band.  SDP and profile
    search the hour after ``t``.
    """
    if kind == "eap":
        path = f"/v1/eap?from={u}&to={v}&t={t}"
        meta = ("eap", u, v, t, None)
    elif kind == "ldp":
        t_arr = t + 2 * WINDOW_S
        path = f"/v1/ldp?from={u}&to={v}&t={t_arr}"
        meta = ("ldp", u, v, t_arr, None)
    else:
        path = f"/v1/{kind}?from={u}&to={v}&t={t}&t_end={t + WINDOW_S}"
        meta = (kind, u, v, t, t + WINDOW_S)
    return ("GET", path, None), meta


def journeys_traffic(graph, rng: random.Random, count: int) -> Traffic:
    traffic = Traffic()
    for kind in _kinds(rng, POINT_MIX, count):
        u, v = rng.sample(range(graph.n), 2)
        t = rng.randrange(DAY_START, DAY_END)
        traffic.add(*point_request(kind, u, v, t))
    return traffic


def federated_traffic(graph, region_of: Sequence[int], rng: random.Random,
                      count: int) -> Traffic:
    """Alternating intra- and cross-region pairs."""
    by_region: Dict[int, List[int]] = {}
    for station, region in enumerate(region_of):
        by_region.setdefault(region, []).append(station)
    traffic = Traffic()
    for i, kind in enumerate(_kinds(rng, POINT_MIX, count)):
        u = rng.randrange(graph.n)
        home = region_of[u]
        if i % 2 == 0:
            v = rng.choice([s for s in by_region[home] if s != u])
        else:
            other = rng.choice([r for r in by_region if r != home])
            v = rng.choice(by_region[other])
        t = rng.randrange(DAY_START, DAY_END)
        traffic.add(*point_request(kind, u, v, t))
    return traffic


def hotspot_keys(graph, rng: random.Random, count: int) -> Traffic:
    """``count`` distinct commuter queries: EAP in the morning peak,
    LDP (arrive by) in the evening peak."""
    seen = set()
    keys = Traffic()
    while len(keys.requests) < count:
        u, v = rng.sample(range(graph.n), 2)
        if rng.random() < 0.8:
            t = rng.randrange(7 * 3600, 9 * 3600, 60)
            request, meta = point_request("eap", u, v, t)
        else:
            t = rng.randrange(15 * 3600, 17 * 3600, 60)
            request, meta = point_request("ldp", u, v, t)
        if request[1] not in seen:
            seen.add(request[1])
            keys.add(request, meta)
    return keys


def zipf_traffic(keys: Traffic, rng: random.Random, count: int,
                 exponent: float = 1.0) -> Traffic:
    """Draw ``count`` requests from ``keys`` with Zipf weights (rank
    ``r`` has weight ``1 / r**exponent``)."""
    weights = [1.0 / (rank ** exponent)
               for rank in range(1, len(keys.requests) + 1)]
    traffic = Traffic()
    for i in rng.choices(range(len(weights)), weights=weights, k=count):
        traffic.add(keys.requests[i], keys.metas[i])
    return traffic


def batch_traffic(graph, rng: random.Random, count: int) -> Traffic:
    traffic = Traffic()
    for kind in _kinds(rng, BATCH_MIX, count):
        t = rng.randrange(DAY_START, DAY_END)
        if kind == "one_to_many":
            body = {"kind": kind, "source": rng.randrange(graph.n),
                    "targets": rng.sample(range(graph.n), 100), "t": t}
        elif kind == "matrix":
            body = {"kind": kind, "sources": rng.sample(range(graph.n), 8),
                    "targets": rng.sample(range(graph.n), 16), "t": t}
        else:
            body = {"kind": kind, "source": rng.randrange(graph.n), "t": t,
                    "budget": 5400}
        request = ("POST", "/v1/batch", json.dumps(body).encode())
        traffic.add(request, ("batch", body))
    return traffic


def commuter_trips(graph, keys: Traffic, count: int) -> List[int]:
    """Trips that the ``count`` hottest keys ride on the base
    timetable, hottest first (temporal Dijkstra)."""
    from repro.algorithms.temporal_dijkstra import DijkstraPlanner

    dijkstra = DijkstraPlanner(graph)
    trips: List[int] = []
    for kind, u, v, t, _ in keys.metas[:count]:
        journey = (dijkstra.earliest_arrival(u, v, t) if kind == "eap"
                   else dijkstra.latest_departure(u, v, t))
        for leg in (journey.path if journey is not None else ()):
            if leg.trip not in trips:
                trips.append(leg.trip)
    return trips


def live_events(graph, rng: random.Random, count: int,
                commuter: Sequence[int]) -> List[dict]:
    """Delays (70%) and cancellations (30%).  Half hit a trip that
    the hottest keys ride, so disruptions reach cached answers and
    invalidation has work to do; the rest hit any trip."""
    trips = sorted(graph.trips)
    events = []
    for _ in range(count):
        pool = commuter if commuter and rng.random() < 0.5 else trips
        trip_id = rng.choice(pool)
        if rng.random() < 0.7:
            stops = len(graph.trips[trip_id].stop_times)
            events.append({
                "kind": "delay",
                "trip_id": trip_id,
                "delay": rng.randrange(120, 1200, 60),
                "from_stop": rng.randrange(max(1, stops - 1)),
            })
        else:
            events.append({"kind": "cancel", "trip_id": trip_id})
    return events


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------


class DijkstraOracle:
    """Temporal Dijkstra on the base timetable — shares no code with
    the labels the server answers from."""

    def __init__(self, graph) -> None:
        from repro.algorithms.temporal_dijkstra import DijkstraPlanner

        self.graph = graph
        self.dijkstra = DijkstraPlanner(graph)
        self.connections = set(graph.connections)

    def check(self, meta: Meta, data: dict) -> Optional[str]:
        """None when ``data`` (a response's ``data``) is right, else
        what is wrong."""
        if meta[0] == "batch":
            return self._check_batch(meta[1], data)
        kind, u, v, t, t_end = meta
        if kind == "profile":
            expected = [list(p) for p in self.dijkstra.profile(u, v, t, t_end)]
            if data["pairs"] != expected:
                return f"profile {u}->{v}: {data['pairs']} != {expected}"
            return None
        journey = data["journey"]
        if kind == "eap":
            expected = self.dijkstra.earliest_arrival(u, v, t)
        elif kind == "ldp":
            expected = self.dijkstra.latest_departure(u, v, t)
        else:
            expected = self.dijkstra.shortest_duration(u, v, t, t_end)
        if (journey is None) != (expected is None):
            return f"{kind} {u}->{v}: feasibility differs"
        if journey is None:
            return None
        if kind == "eap" and journey["arr"] != expected.arr:
            return f"eap {u}->{v}@{t}: arr {journey['arr']} != {expected.arr}"
        if kind == "ldp" and journey["dep"] != expected.dep:
            return f"ldp {u}->{v}@{t}: dep {journey['dep']} != {expected.dep}"
        if kind == "sdp" and (journey["arr"] - journey["dep"]
                              != expected.arr - expected.dep):
            return f"sdp {u}->{v}: duration differs"
        return self._check_path(journey, u, v)

    def _check_path(self, journey: dict, u: int, v: int) -> Optional[str]:
        """The journey's legs are timetable connections chained from
        ``u`` to ``v`` and match its dep/arr."""
        path = journey.get("path")
        if not path:
            return f"journey {u}->{v} has no path"
        legs = [tuple(leg) for leg in path]
        if legs[0][0] != u or legs[-1][1] != v:
            return f"journey {u}->{v} path does not join its endpoints"
        if legs[0][2] != journey["dep"] or legs[-1][3] != journey["arr"]:
            return f"journey {u}->{v} path times differ from dep/arr"
        for a, b in zip(legs, legs[1:]):
            if a[1] != b[0] or a[3] > b[2]:
                return f"journey {u}->{v} path is not chained"
        for leg in legs:
            if leg not in self.connections:
                return f"journey {u}->{v} uses unknown connection {leg}"
        return None

    def _check_batch(self, body: dict, data: dict) -> Optional[str]:
        from repro.algorithms.temporal_dijkstra import earliest_arrival_search
        from repro.timeutil import INF

        kind, t = body["kind"], body["t"]

        def arrivals(source: int) -> List[Optional[int]]:
            eat, _ = earliest_arrival_search(self.graph, source, t)
            return [None if a >= INF else a for a in eat]

        if kind == "one_to_many":
            eat = arrivals(body["source"])
            expected = {str(v): eat[v] for v in body["targets"]}
            got = data["arrivals"]
        elif kind == "matrix":
            expected = {}
            for s in body["sources"]:
                eat = arrivals(s)
                expected[str(s)] = {str(v): eat[v] for v in body["targets"]}
            got = data["matrix"]
        else:
            eat = arrivals(body["source"])
            reach = sorted((a, s) for s, a in enumerate(eat)
                           if a is not None and a - t <= body["budget"])
            expected = [s for _, s in reach]
            got = data["stations"]
        if got != expected:
            return f"batch {kind} at t={t} differs from Dijkstra"
        return None


class MonolithOracle:
    """A monolithic TTL index of the whole network, for federated
    answers.

    Served federated journeys carry times but no legs, so each answer
    is compared on what it defines — arrival for EAP, departure for
    LDP, duration for SDP — and profiles pair by pair.
    """

    def __init__(self, graph) -> None:
        from repro.core import TTLPlanner

        self.planner = TTLPlanner(graph)
        self.planner.preprocess()

    def check(self, meta: Meta, data: dict) -> Optional[str]:
        kind, u, v, t, t_end = meta
        p = self.planner
        if kind == "profile":
            expected = [list(pair) for pair in p.profile(u, v, t, t_end)]
            if data["pairs"] != expected:
                return f"profile {u}->{v} differs from the monolith"
            return None
        journey = data["journey"]
        if kind == "eap":
            expected = p.earliest_arrival(u, v, t)
            value = (lambda j: j["arr"], lambda j: j.arr)
        elif kind == "ldp":
            expected = p.latest_departure(u, v, t)
            value = (lambda j: j["dep"], lambda j: j.dep)
        else:
            expected = p.shortest_duration(u, v, t, t_end)
            value = (lambda j: j["arr"] - j["dep"], lambda j: j.arr - j.dep)
        if (journey is None) != (expected is None):
            return f"{kind} {u}->{v}: feasibility differs from the monolith"
        if journey is not None and value[0](journey) != value[1](expected):
            return f"{kind} {u}->{v}@{t}: differs from the monolith"
        return None


def feasible(meta: Meta, data: dict) -> bool:
    """Whether an answer holds a journey, or reaches any other station."""
    if meta[0] == "batch":
        kind = meta[1]["kind"]
        if kind == "one_to_many":
            return any(a is not None for a in data["arrivals"].values())
        if kind == "matrix":
            return any(a is not None for row in data["matrix"].values()
                       for a in row.values())
        return len(data["stations"]) > 1
    if meta[0] == "profile":
        return bool(data["pairs"])
    return data["journey"] is not None
