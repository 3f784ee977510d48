"""Connection Scan Algorithm (CSA) [Dibbelt et al.], as evaluated in
the paper's Section 10.

Preprocessing stores two copies of the connection array:

* ascending by departure time — one forward scan answers EAP;
* descending by departure time — one backward-in-time scan answers
  LDP, and a profile variant of the same scan answers SDP by building,
  per station, the Pareto frontier of (departure, final arrival) pairs
  toward the target (the "list of non-dominated paths" the paper
  mentions when explaining why CSA's SDP queries are several times
  slower than its EAP queries).

Scans use generation-stamped arrays so a query touches only the
stations it reaches instead of resetting O(n) state.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import List, Optional

from repro.algorithms.profiles import ParetoProfile
from repro.core.serialize import connections_bytes
from repro.graph.connection import Connection, Path
from repro.journey import Journey
from repro.planner import RoutePlanner
from repro.resilience.deadline import check_deadline
from repro.timeutil import INF

#: Connections scanned between cooperative deadline checks.  CSA scans
#: are linear in the timetable, so a long window on a big network can
#: burn a whole request budget in one loop.
_DEADLINE_STRIDE = 2048


class CSAPlanner(RoutePlanner):
    """Connection Scan Algorithm."""

    name = "CSA"

    def _build(self) -> None:
        self._by_dep: List[Connection] = sorted(
            self.graph.connections, key=lambda c: (c.dep, c.arr)
        )
        self._dep_keys = [c.dep for c in self._by_dep]
        self._by_dep_desc: List[Connection] = self._by_dep[::-1]
        # Stamped per-query state.
        n = self.graph.n
        self._eat = [0] * n
        self._ldt = [0] * n
        self._jp: List[Optional[Connection]] = [None] * n
        self._stamp = [0] * n
        self._gen = 0

    def index_bytes(self) -> int:
        self.preprocess()
        return 2 * connections_bytes(len(self._by_dep))

    # ------------------------------------------------------------------
    # EAP
    # ------------------------------------------------------------------

    def _earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        self._gen += 1
        gen = self._gen
        eat, jp, stamp = self._eat, self._jp, self._stamp
        eat[source] = t
        jp[source] = None
        stamp[source] = gen
        conns = self._by_dep
        target_eat = INF
        scanned = 0
        for i in range(bisect_left(self._dep_keys, t), len(conns)):
            scanned += 1
            if not scanned % _DEADLINE_STRIDE:
                check_deadline()
            c = conns[i]
            if c.dep > target_eat:
                break
            if stamp[c.u] == gen and c.dep >= eat[c.u]:
                v = c.v
                if stamp[v] != gen or c.arr < eat[v]:
                    eat[v] = c.arr
                    jp[v] = c
                    stamp[v] = gen
                    if v == destination:
                        target_eat = c.arr
        if stamp[destination] != gen:
            return None
        return Journey.from_path(self._extract(source, destination))

    def _extract(self, source: int, destination: int) -> Path:
        path: Path = []
        node = destination
        while node != source:
            conn = self._jp[node]
            assert conn is not None
            path.append(conn)
            node = conn.u
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # LDP
    # ------------------------------------------------------------------

    def _latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        self._gen += 1
        gen = self._gen
        ldt, jp, stamp = self._ldt, self._jp, self._stamp
        ldt[destination] = INF  # any arrival time <= t works at the target
        jp[destination] = None
        stamp[destination] = gen
        scanned = 0
        for c in self._by_dep_desc:
            scanned += 1
            if not scanned % _DEADLINE_STRIDE:
                check_deadline()
            if c.arr > t:
                continue
            v = c.v
            if stamp[v] == gen and (v == destination or c.arr <= ldt[v]):
                u = c.u
                if stamp[u] != gen or c.dep > ldt[u]:
                    ldt[u] = c.dep
                    jp[u] = c
                    stamp[u] = gen
                    if u == source:
                        break
        if stamp[source] != gen or jp[source] is None:
            return None
        path: Path = []
        node = source
        while node != destination:
            conn = self._jp[node]
            assert conn is not None
            path.append(conn)
            node = conn.v
        return Journey.from_path(path)

    # ------------------------------------------------------------------
    # SDP (profile scan)
    # ------------------------------------------------------------------

    def _shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        profiles: dict = {}
        scanned = 0
        for c in self._by_dep_desc:
            scanned += 1
            if not scanned % _DEADLINE_STRIDE:
                check_deadline()
            if c.dep < t:
                break
            if c.dep > t_end:
                continue
            if c.v == destination:
                final = c.arr
            else:
                profile = profiles.get(c.v)
                final = profile.eat(c.arr) if profile is not None else INF
            if final > t_end:
                continue
            profile = profiles.get(c.u)
            if profile is None:
                profile = profiles[c.u] = ParetoProfile()
            profile.add(c.dep, final)
        source_profile = profiles.get(source)
        if source_profile is None:
            return None
        best = source_profile.best_duration(t, t_end)
        if best is None:
            return None
        dep, _, _ = best
        # Re-run the cheap EAP scan at the optimal departure to get the
        # actual connection sequence.
        journey = self._earliest_arrival(source, destination, dep)
        assert journey is not None
        return journey
