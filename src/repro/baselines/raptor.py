"""RAPTOR — Round-bAsed Public Transit Optimized Router.

Not one of the paper's competitors, but *the* algorithm open-source
transit routing standardized on after 2012 (Delling, Pajor, Werneck),
included here as a supplementary exact baseline: it processes routes
in rounds (round ``k`` finds earliest arrivals using at most ``k``
vehicles) and needs almost no preprocessing.

* **EAP** — textbook RAPTOR over per-route timetable columns
  (same-station transfers with zero minimum change time, matching the
  paper's model).  RAPTOR requires FIFO routes (no overtaking), so
  preprocessing splits each route's trips into FIFO chains — the
  standard production fix for real-world timetables.
* **LDP** — RAPTOR on the time-reversed graph (built once), answers
  mapped back.
* **SDP** — rRAPTOR-style range query: departure times swept in
  descending order, re-using arrival labels across sweeps so each
  sweep only touches stops it strictly improves.

Every query type is cross-checked against the temporal Dijkstra oracle
in the test suite.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.graph.connection import Connection, Path
from repro.graph.route import Trip
from repro.graph.timetable import TimetableGraph
from repro.graph.transforms import reversed_graph
from repro.journey import Journey
from repro.planner import RoutePlanner
from repro.timeutil import INF


class _FifoRoute:
    """A stop sequence served by a FIFO (non-overtaking) trip chain."""

    __slots__ = ("stops", "trips", "dep_cols", "arr_cols")

    def __init__(self, stops: Tuple[int, ...], trips: List[Trip]) -> None:
        self.stops = stops
        self.trips = trips
        self.dep_cols: List[List[int]] = [
            [trip.stop_times[i].dep for trip in trips]
            for i in range(len(stops))
        ]
        self.arr_cols: List[List[int]] = [
            [trip.stop_times[i].arr for trip in trips]
            for i in range(len(stops))
        ]


def _fifo_chains(trips: List[Trip]) -> List[List[Trip]]:
    """Partition trips into chains where no trip overtakes another.

    Greedy first-fit over trips sorted by first-stop departure; within
    a chain every stop's departure and arrival columns are
    non-decreasing, which is the property RAPTOR's earliest-catchable
    -trip bisection needs.
    """
    chains: List[List[Trip]] = []
    for trip in sorted(trips, key=lambda t: t.departure):
        for chain in chains:
            last = chain[-1]
            fifo = all(
                st.dep >= prev.dep and st.arr >= prev.arr
                for st, prev in zip(trip.stop_times, last.stop_times)
            )
            if fifo:
                chain.append(trip)
                break
        else:
            chains.append([trip])
    return chains


class _RaptorCore:
    """RAPTOR machinery over one (possibly reversed) timetable graph."""

    def __init__(self, graph: TimetableGraph) -> None:
        self.graph = graph
        self.routes: List[_FifoRoute] = []
        for route in graph.routes.values():
            for chain in _fifo_chains(route.trips):
                self.routes.append(_FifoRoute(route.stops, chain))
        #: stop -> [(route index, stop index on that route)]
        self.routes_of_stop: List[List[Tuple[int, int]]] = [
            [] for _ in range(graph.n)
        ]
        for r_idx, froute in enumerate(self.routes):
            for idx, stop in enumerate(froute.stops[:-1]):
                self.routes_of_stop[stop].append((r_idx, idx))

    # ------------------------------------------------------------------
    # Core rounds
    # ------------------------------------------------------------------

    def run(
        self,
        source: int,
        t: int,
        target: Optional[int] = None,
        best: Optional[List[int]] = None,
        parent: Optional[Dict[int, Tuple]] = None,
        max_rounds: Optional[int] = None,
    ) -> List[int]:
        """Earliest arrivals from ``source`` departing no sooner than
        ``t``.

        ``best`` may be a shared best-arrival array (rRAPTOR re-use);
        entries are only ever improved.  ``parent`` optionally records
        journey pointers ``stop -> (trip, board_idx, alight_idx,
        route)``.
        """
        n = self.graph.n
        if best is None:
            best = [INF] * n
        if t < best[source]:
            best[source] = t
            if parent is not None:
                parent.pop(source, None)
        marked = {source}
        rounds = max_rounds if max_rounds is not None else n
        target_bound = INF if target is None else best[target]

        for _ in range(rounds):
            queue: Dict[int, int] = {}
            for stop in marked:
                for r_idx, idx in self.routes_of_stop[stop]:
                    prev = queue.get(r_idx)
                    if prev is None or idx < prev:
                        queue[r_idx] = idx
            if not queue:
                break
            marked = set()
            for r_idx, start_idx in queue.items():
                froute = self.routes[r_idx]
                stops = froute.stops
                trips = froute.trips
                trip: Optional[Trip] = None
                trip_pos = len(trips)
                board_idx = -1
                for i in range(start_idx, len(stops)):
                    stop = stops[i]
                    if trip is not None:
                        arr = trip.stop_times[i].arr
                        if arr < best[stop] and arr <= target_bound:
                            best[stop] = arr
                            if parent is not None:
                                parent[stop] = (trip, board_idx, i, froute)
                            marked.add(stop)
                            if stop == target:
                                target_bound = arr
                    # Catch an earlier trip of this FIFO chain?
                    ready = best[stop]
                    if ready < INF and i < len(stops) - 1:
                        pos = bisect_left(froute.dep_cols[i], ready)
                        if pos < trip_pos:
                            trip = trips[pos]
                            trip_pos = pos
                            board_idx = i
            if not marked:
                break
        return best

    def run_rounds(
        self, source: int, t: int, max_rounds: int
    ) -> List[List[int]]:
        """Strict per-round arrivals (classic RAPTOR round semantics).

        Returns ``tau`` where ``tau[k][stop]`` is the earliest arrival
        at ``stop`` using at most ``k`` vehicles; boarding in round
        ``k`` uses round ``k-1`` arrivals, so the rounds carry the
        (vehicles, arrival) Pareto information multicriteria queries
        need.
        """
        n = self.graph.n
        best = [INF] * n
        best[source] = t
        prev = list(best)
        marked = {source}
        rounds_out = [list(best)]
        for _ in range(max_rounds):
            queue: Dict[int, int] = {}
            for stop in marked:
                for r_idx, idx in self.routes_of_stop[stop]:
                    known = queue.get(r_idx)
                    if known is None or idx < known:
                        queue[r_idx] = idx
            if not queue:
                break
            marked = set()
            for r_idx, start_idx in queue.items():
                froute = self.routes[r_idx]
                stops = froute.stops
                trips = froute.trips
                trip: Optional[Trip] = None
                trip_pos = len(trips)
                for i in range(start_idx, len(stops)):
                    stop = stops[i]
                    if trip is not None:
                        arr = trip.stop_times[i].arr
                        if arr < best[stop]:
                            best[stop] = arr
                            marked.add(stop)
                    ready = prev[stop]
                    if ready < INF and i < len(stops) - 1:
                        pos = bisect_left(froute.dep_cols[i], ready)
                        if pos < trip_pos:
                            trip = trips[pos]
                            trip_pos = pos
            rounds_out.append(list(best))
            prev = list(best)
            if not marked:
                break
        return rounds_out

    def extract_path(
        self, parent: Dict[int, Tuple], source: int, destination: int
    ) -> Optional[Path]:
        """Rebuild the connection sequence from journey pointers."""
        if source == destination:
            return []
        legs = []
        stop = destination
        guard = 0
        while stop != source:
            entry = parent.get(stop)
            if entry is None:
                return None
            trip, board_idx, alight_idx, froute = entry
            legs.append((trip, board_idx, alight_idx, froute))
            stop = froute.stops[board_idx]
            guard += 1
            if guard > self.graph.n + 1:  # pragma: no cover - defensive
                return None
        legs.reverse()
        path: Path = []
        for trip, board_idx, alight_idx, froute in legs:
            for i in range(board_idx, alight_idx):
                path.append(
                    Connection(
                        froute.stops[i],
                        froute.stops[i + 1],
                        trip.stop_times[i].dep,
                        trip.stop_times[i + 1].arr,
                        trip.trip_id,
                    )
                )
        return path


class RaptorPlanner(RoutePlanner):
    """RAPTOR as a :class:`~repro.planner.RoutePlanner`."""

    name = "RAPTOR"

    def _build(self) -> None:
        self._forward = _RaptorCore(self.graph)
        self._reversed_graph = reversed_graph(self.graph)
        self._backward = _RaptorCore(self._reversed_graph)

    def index_bytes(self) -> int:
        """Timetable columns (8 B per stop time, both directions) plus
        the stop -> route incidence lists."""
        self.preprocess()
        total = 0
        for core in (self._forward, self._backward):
            for froute in core.routes:
                total += len(froute.trips) * len(froute.stops) * 8
            total += sum(len(e) for e in core.routes_of_stop) * 8
        return total

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        parent: Dict[int, Tuple] = {}
        best = self._forward.run(source, t, target=destination, parent=parent)
        if best[destination] >= INF:
            return None
        path = self._forward.extract_path(parent, source, destination)
        if path is None:  # pragma: no cover - defensive
            return None
        return Journey.from_path(path)

    def _latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        # LDP(u -> v by t) == EAP(v -> u from -t) on the time reversal.
        parent: Dict[int, Tuple] = {}
        best = self._backward.run(
            destination, -t, target=source, parent=parent
        )
        if best[source] >= INF:
            return None
        reversed_path = self._backward.extract_path(
            parent, destination, source
        )
        if reversed_path is None:  # pragma: no cover - defensive
            return None
        path = [
            Connection(c.v, c.u, -c.arr, -c.dep, c.trip)
            for c in reversed(reversed_path)
        ]
        return Journey.from_path(path)

    def pareto_arrivals(
        self,
        source: int,
        destination: int,
        t: int,
        max_rounds: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """Multicriteria profile: Pareto-optimal ``(vehicles, arrival)``
        pairs for journeys departing no sooner than ``t``.

        The first pair is the fewest-vehicles journey, the last the
        earliest-arrival journey; each extra vehicle must strictly
        improve the arrival to appear (classic RAPTOR's per-round
        output).
        """
        if self._begin(source, destination):
            return [(0, t)]
        rounds = max_rounds if max_rounds is not None else self.graph.n
        tau = self._forward.run_rounds(source, t, rounds)
        result: List[Tuple[int, int]] = []
        previous = INF
        for k in range(1, len(tau)):
            arr = tau[k][destination]
            if arr < previous:
                result.append((k, arr))
                previous = arr
        return result

    def _shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        from repro.algorithms.profiles import ParetoProfile

        dep_times = sorted(
            {c.dep for c in self.graph.out[source] if t <= c.dep <= t_end},
            reverse=True,
        )
        best = [INF] * self.graph.n
        pairs = ParetoProfile()
        for dep in dep_times:
            self._forward.run(source, dep, target=destination, best=best)
            arr = best[destination]
            if arr < INF and arr <= t_end:
                # Dominated pairs (journeys that actually depart later
                # than ``dep``) are evicted by the profile.
                pairs.add(dep, arr)
        answer = pairs.best_duration(t, t_end)
        if answer is None:
            return None
        return self._earliest_arrival(source, destination, answer[0])
