"""Time-expanded graph routing (Section 9's first related-work
category).

The paper notes that techniques which convert the timetable graph into
a *time-expanded* graph — one node per spatio-temporal event, edges
for rides and for waiting at a station — "are generally not comparable
to the state-of-the-art methods that process queries on G".  This
module implements that category faithfully so the claim is
reproducible:

* every connection contributes a departure event at ``(u, dep)`` and
  an arrival event at ``(v, arr)``;
* consecutive events at one station are linked by waiting edges;
* a ride edge links each departure event to its arrival event.

All edges point forward in time, so the expanded graph is a DAG and an
EAP query is a forward reachability sweep from the first event at the
source no earlier than ``t`` (earliest reachable event at the target).
LDP is the mirrored backward sweep; SDP sweeps departure times.  The
per-query cost is linear in the number of events — exactly why this
category lost to CSA/CHT/TTL.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.algorithms.profiles import ParetoProfile
from repro.graph.connection import Connection, Path
from repro.journey import Journey
from repro.planner import RoutePlanner


class TimeExpandedPlanner(RoutePlanner):
    """Routing on the time-expanded event graph."""

    name = "TimeExpanded"

    def _build(self) -> None:
        graph = self.graph
        #: Per station: sorted distinct event times.
        times: List[List[int]] = [set() for _ in range(graph.n)]  # type: ignore
        for c in graph.connections:
            times[c.u].add(c.dep)
            times[c.v].add(c.arr)
        self._times = [sorted(t) for t in times]

        #: Event ids are (station, position) flattened.
        offsets = [0]
        for t in self._times:
            offsets.append(offsets[-1] + len(t))
        self._offsets = offsets
        self.num_events = offsets[-1]

        def event_id(station: int, time: int) -> int:
            pos = bisect_left(self._times[station], time)
            return self._offsets[station] + pos

        #: Ride edges per departure event; waiting edges are implicit
        #: (event i at a station connects to event i+1).
        self._rides: List[List[Tuple[int, Connection]]] = [
            [] for _ in range(self.num_events)
        ]
        for c in graph.connections:
            self._rides[event_id(c.u, c.dep)].append(
                (event_id(c.v, c.arr), c)
            )
        #: Reverse ride edges per arrival event (for LDP).
        self._rides_in: List[List[Tuple[int, Connection]]] = [
            [] for _ in range(self.num_events)
        ]
        for eid, rides in enumerate(self._rides):
            for target, conn in rides:
                self._rides_in[target].append((eid, conn))
        self.num_ride_edges = graph.m
        self.num_wait_edges = sum(
            max(0, len(t) - 1) for t in self._times
        )

    def index_bytes(self) -> int:
        # One record per event plus one per edge (ride + wait).
        self.preprocess()
        return (
            self.num_events * 8
            + (self.num_ride_edges + self.num_wait_edges) * 12
        )

    # ------------------------------------------------------------------
    # Event helpers
    # ------------------------------------------------------------------

    def _station_of(self, eid: int) -> int:
        lo, hi = 0, self.graph.n
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if self._offsets[mid] <= eid:
                lo = mid
            else:
                hi = mid
        return lo

    def _event_time(self, eid: int) -> int:
        station = self._station_of(eid)
        return self._times[station][eid - self._offsets[station]]

    # ------------------------------------------------------------------
    # EAP: forward reachability sweep in event-time order
    # ------------------------------------------------------------------

    def _forward_sweep(
        self, source: int, t: int, destination: int
    ) -> Tuple[Optional[int], Dict[int, Tuple[int, Optional[Connection]]]]:
        """Returns (earliest reachable event at destination, parents)."""
        self.preprocess()
        reachable: Dict[int, Tuple[int, Optional[Connection]]] = {}
        pos = bisect_left(self._times[source], t)
        if pos == len(self._times[source]):
            return None, reachable
        start = self._offsets[source] + pos
        # Events are processed in a global time-ordered frontier.
        import heapq

        heap: List[Tuple[int, int]] = [(self._times[source][pos], start)]
        reachable[start] = (-1, None)
        best: Optional[int] = None
        while heap:
            time, eid = heapq.heappop(heap)
            station = self._station_of(eid)
            if station == destination:
                best = eid
                break
            # Waiting edge to the next event at this station.
            nxt = eid + 1
            if (
                nxt < self._offsets[station + 1]
                and nxt not in reachable
            ):
                reachable[nxt] = (eid, None)
                heapq.heappush(heap, (self._event_time(nxt), nxt))
            # Ride edges.
            for target, conn in self._rides[eid]:
                if target not in reachable:
                    reachable[target] = (eid, conn)
                    heapq.heappush(heap, (conn.arr, target))
        return best, reachable

    def _earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        best, parents = self._forward_sweep(source, t, destination)
        if best is None:
            return None
        path: Path = []
        eid = best
        while eid in parents:
            prev, conn = parents[eid]
            if conn is not None:
                path.append(conn)
            if prev < 0:
                break
            eid = prev
        path.reverse()
        if not path:  # pragma: no cover - defensive
            return None
        return Journey.from_path(path)

    # ------------------------------------------------------------------
    # LDP: backward sweep
    # ------------------------------------------------------------------

    def _latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        pos = bisect_right(self._times[destination], t) - 1
        if pos < 0:
            return None
        start = self._offsets[destination] + pos
        import heapq

        children: Dict[int, Tuple[int, Optional[Connection]]] = {
            start: (-1, None)
        }
        heap: List[Tuple[int, int]] = [
            (-self._times[destination][pos], start)
        ]
        best: Optional[int] = None
        while heap:
            neg_time, eid = heapq.heappop(heap)
            station = self._station_of(eid)
            if station == source and self._rides[eid]:
                # A departure event at the source: candidate start.
                best = eid
                break
            prev = eid - 1
            if prev >= self._offsets[station] and prev not in children:
                children[prev] = (eid, None)
                heapq.heappush(heap, (-self._event_time(prev), prev))
            for origin, conn in self._rides_in[eid]:
                if origin not in children:
                    children[origin] = (eid, conn)
                    heapq.heappush(heap, (-conn.dep, origin))
        if best is None:
            return None
        path: Path = []
        eid = best
        while eid in children:
            nxt, conn = children[eid]
            if conn is not None:
                path.append(conn)
            if nxt < 0:
                break
            eid = nxt
        if not path:
            return None
        # The first hop out of ``best`` must actually be a ride from
        # the source; walk recorded in order already.
        return Journey.from_path(path)

    # ------------------------------------------------------------------
    # SDP: departure-time sweep
    # ------------------------------------------------------------------

    def _shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        pairs = ParetoProfile()
        for dep in reversed(self.graph.departure_times(source)):
            if dep < t or dep > t_end:
                continue
            best, parents = self._forward_sweep(source, dep, destination)
            if best is None:
                continue
            arr = self._event_time(best)
            if arr <= t_end:
                pairs.add(dep, arr)
        answer = pairs.best_duration(t, t_end)
        if answer is None:
            return None
        return self._earliest_arrival(source, destination, answer[0])
