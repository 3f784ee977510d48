"""Contraction Hierarchies for Timetables (CHT) [Geisberger], the
paper's stronger baseline.

Preprocessing contracts stations from least to most important.  When a
station ``x`` is contracted, every non-dominated way of travelling
``u -> x -> w`` between still-alive neighbours becomes a *shortcut*
``(u, w, dep, arr)`` carrying references to its two halves, unless the
current direct ``u -> w`` profile already (weakly) dominates it — the
one-hop witness test.  Skipping a shortcut only when a dominating
witness provably exists keeps the hierarchy exact; extra shortcuts
cost space, not correctness.

The search graph stores one **pair profile** per (station, neighbour):
the Pareto staircase of ``(dep, arr)`` entries between the pair.  A
search then relaxes a single entry per neighbour (found by bisection)
instead of walking every timetabled connection — the standard
profile-edge representation of time-dependent CH.

Queries exploit the hierarchy property that every non-dominated
journey has an *up-then-down* representative:

* **EAP** — mark the station cone that can reach the destination via
  down-edges only, then run a two-state temporal Dijkstra from the
  source: state 0 climbs up-edges, either state may descend, but only
  into the marked cone.
* **LDP** — the time-reversed mirror (cone of stations reachable from
  the source via up-edges; backward search from the destination).
* **SDP** — descending departure-time sweeps with self-pruning
  against all later departures: the per-node non-dominated lists the
  paper says make CHT's SDP queries costlier than its EAP queries.

Shortcut unpacking turns answers back into original connections.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from typing import Dict, List, NamedTuple, Optional, Tuple

from repro.algorithms.profiles import ParetoProfile
from repro.graph.connection import Connection, Path
from repro.journey import Journey
from repro.planner import RoutePlanner
from repro.timeutil import INF, NEG_INF


class Shortcut(NamedTuple):
    """A contracted two-hop: ``left`` then ``right`` (payload tree)."""

    left: object
    right: object


class PairEdge(NamedTuple):
    """All non-dominated departures between one station pair."""

    other: int
    deps: List[int]
    arrs: List[int]
    payloads: List[object]  # Connection | Shortcut per entry


def _expand(payload: object) -> Path:
    """Unpack a payload tree into its original connection sequence."""
    stack = [payload]
    path: Path = []
    while stack:
        item = stack.pop()
        if isinstance(item, Connection):
            path.append(item)
        else:
            assert isinstance(item, Shortcut)
            stack.append(item.right)
            stack.append(item.left)
    return path


def _merge_profiles(
    left: ParetoProfile, right: ParetoProfile
) -> List[Tuple[int, int, Shortcut]]:
    """Minimal-wait non-dominated compositions of two edge profiles."""
    out: List[Tuple[int, int, Shortcut]] = []
    j = 0
    len_r = len(right.deps)
    pending: Optional[Tuple[int, int, Shortcut]] = None
    for k in range(len(left.deps)):
        mid = left.arrs[k]
        while j < len_r and right.deps[j] < mid:
            j += 1
        if j == len_r:
            break
        combo = (
            left.deps[k],
            right.arrs[j],
            Shortcut(left.payloads[k], right.payloads[j]),
        )
        if pending is not None:
            if pending[1] == combo[1]:
                pending = combo
                continue
            out.append(pending)
        pending = combo
    if pending is not None:
        out.append(pending)
    return out


class CHTPlanner(RoutePlanner):
    """Contraction Hierarchies on a timetable graph."""

    name = "CHT"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        self.num_shortcuts = 0

    # ------------------------------------------------------------------
    # Preprocessing: contraction
    # ------------------------------------------------------------------

    def _build(self) -> None:
        n = self.graph.n
        fwd: List[Dict[int, ParetoProfile]] = [dict() for _ in range(n)]
        bwd: List[Dict[int, ParetoProfile]] = [dict() for _ in range(n)]
        for c in self.graph.connections:
            profile = fwd[c.u].get(c.v)
            if profile is None:
                profile = fwd[c.u][c.v] = ParetoProfile()
                bwd[c.v][c.u] = profile
            profile.add(c.dep, c.arr, payload=c)

        self.rank = [0] * n  # contraction position; higher = more important
        up_out: List[List[PairEdge]] = [[] for _ in range(n)]
        down_out: List[List[PairEdge]] = [[] for _ in range(n)]
        up_in: List[List[PairEdge]] = [[] for _ in range(n)]
        down_in: List[List[PairEdge]] = [[] for _ in range(n)]
        self.num_shortcuts = 0
        total_entries = 0

        def priority(x: int) -> int:
            ins = len(bwd[x])
            outs = len(fwd[x])
            return ins * outs - ins - outs

        heap: List[Tuple[int, int]] = [(priority(x), x) for x in range(n)]
        heapq.heapify(heap)
        contracted = [False] * n
        position = 0
        while heap:
            prio, x = heapq.heappop(heap)
            if contracted[x]:
                continue
            current = priority(x)
            if current > prio:
                heapq.heappush(heap, (current, x))
                continue
            contracted[x] = True
            self.rank[x] = position
            position += 1

            in_pairs = bwd[x]
            out_pairs = fwd[x]
            # Record x's incident pair profiles into the search graph.
            # Every alive neighbour ranks above x: edges u -> x are
            # "down" for u, edges x -> w are "up" for x.
            for u, profile in in_pairs.items():
                edge = PairEdge(
                    x, list(profile.deps), list(profile.arrs),
                    list(profile.payloads),
                )
                down_out[u].append(edge)
                down_in[x].append(
                    PairEdge(u, edge.deps, edge.arrs, edge.payloads)
                )
                total_entries += len(edge.deps)
            for w, profile in out_pairs.items():
                edge = PairEdge(
                    w, list(profile.deps), list(profile.arrs),
                    list(profile.payloads),
                )
                up_out[x].append(edge)
                up_in[w].append(
                    PairEdge(x, edge.deps, edge.arrs, edge.payloads)
                )
                total_entries += len(edge.deps)

            # Insert shortcuts between x's neighbours.
            for u, in_profile in in_pairs.items():
                del fwd[u][x]
                for w, out_profile in out_pairs.items():
                    if u == w:
                        continue
                    for dep, arr, payload in _merge_profiles(
                        in_profile, out_profile
                    ):
                        existing = fwd[u].get(w)
                        if existing is None:
                            existing = fwd[u][w] = ParetoProfile()
                            bwd[w][u] = existing
                        if existing.add(dep, arr, payload=payload):
                            self.num_shortcuts += 1
            for w in out_pairs:
                del bwd[w][x]
            fwd[x] = {}
            bwd[x] = {}

        self._up_out = up_out
        self._down_out = down_out
        self._up_in = up_in
        self._down_in = down_in
        self._search_entries = total_entries
        # Untimed adjacency for cone marking.
        self._up_next: List[List[int]] = [
            [edge.other for edge in edges] for edges in up_out
        ]
        self._down_prev: List[List[int]] = [
            [edge.other for edge in edges] for edges in down_in
        ]

    def index_bytes(self) -> int:
        self.preprocess()
        # Each search-graph entry is one (dep, arr, ref) connection
        # record in either direction, mirroring CSA's accounting.
        return self._search_entries * 20

    # ------------------------------------------------------------------
    # Cones
    # ------------------------------------------------------------------

    def _down_cone(self, destination: int) -> bytearray:
        """Mark stations that can reach ``destination`` via down-edges
        only (indexable membership: ``cone[x]``)."""
        cone = bytearray(self.graph.n)
        cone[destination] = 1
        stack = [destination]
        down_prev = self._down_prev
        while stack:
            y = stack.pop()
            for x in down_prev[y]:
                if not cone[x]:
                    cone[x] = 1
                    stack.append(x)
        return cone

    def _up_cone(self, source: int) -> bytearray:
        """Mark stations reachable from ``source`` via up-edges only."""
        cone = bytearray(self.graph.n)
        cone[source] = 1
        stack = [source]
        up_next = self._up_next
        while stack:
            x = stack.pop()
            for y in up_next[x]:
                if not cone[y]:
                    cone[y] = 1
                    stack.append(y)
        return cone

    # ------------------------------------------------------------------
    # EAP
    # ------------------------------------------------------------------

    def _earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        cone = self._down_cone(destination)
        dist: Dict[int, int] = {source << 1: t}
        parent: Dict[int, Tuple[int, object]] = {}
        heap: List[Tuple[int, int]] = [(t, source << 1)]
        target0 = destination << 1
        target1 = target0 | 1
        best_key = -1
        while heap:
            arr0, key = heapq.heappop(heap)
            if arr0 > dist.get(key, INF):
                continue
            if key == target0 or key == target1:
                best_key = key
                break
            x, state = key >> 1, key & 1
            if state == 0:
                for edge in self._up_out[x]:
                    i = bisect_left(edge.deps, arr0)
                    if i == len(edge.deps):
                        continue
                    k2 = edge.other << 1
                    arr = edge.arrs[i]
                    if arr < dist.get(k2, INF):
                        dist[k2] = arr
                        parent[k2] = (key, edge.payloads[i])
                        heapq.heappush(heap, (arr, k2))
            for edge in self._down_out[x]:
                if not cone[edge.other]:
                    continue
                i = bisect_left(edge.deps, arr0)
                if i == len(edge.deps):
                    continue
                k2 = (edge.other << 1) | 1
                arr = edge.arrs[i]
                if arr < dist.get(k2, INF):
                    dist[k2] = arr
                    parent[k2] = (key, edge.payloads[i])
                    heapq.heappush(heap, (arr, k2))
        if best_key < 0:
            return None
        path = self._unpack_forward(parent, source, best_key)
        return Journey.from_path(path)

    def _unpack_forward(self, parent, source: int, key: int) -> Path:
        payloads = []
        while key in parent:
            key, payload = parent[key]
            payloads.append(payload)
        assert key >> 1 == source
        payloads.reverse()
        path: Path = []
        for payload in payloads:
            path.extend(_expand(payload))
        return path

    # ------------------------------------------------------------------
    # LDP
    # ------------------------------------------------------------------

    def _latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        cone = self._up_cone(source)
        # State 0: inside the journey's down-suffix (walking backward
        # from the destination); state 1: inside the up-prefix.
        dist: Dict[int, int] = {destination << 1: t}
        child: Dict[int, Tuple[int, object]] = {}
        heap: List[Tuple[int, int]] = [(-t, destination << 1)]
        source0 = source << 1
        source1 = source0 | 1
        best_key = -1
        while heap:
            neg_dep, key = heapq.heappop(heap)
            dep0 = -neg_dep
            if dep0 < dist.get(key, NEG_INF):
                continue
            if key == source0 or key == source1:
                best_key = key
                break
            y, state = key >> 1, key & 1
            if state == 0:
                for edge in self._down_in[y]:
                    i = bisect_right(edge.arrs, dep0) - 1
                    if i < 0:
                        continue
                    k2 = edge.other << 1
                    dep = edge.deps[i]
                    if dep > dist.get(k2, NEG_INF):
                        dist[k2] = dep
                        child[k2] = (key, edge.payloads[i])
                        heapq.heappush(heap, (-dep, k2))
            for edge in self._up_in[y]:
                if not cone[edge.other]:
                    continue
                i = bisect_right(edge.arrs, dep0) - 1
                if i < 0:
                    continue
                k2 = (edge.other << 1) | 1
                dep = edge.deps[i]
                if dep > dist.get(k2, NEG_INF):
                    dist[k2] = dep
                    child[k2] = (key, edge.payloads[i])
                    heapq.heappush(heap, (-dep, k2))
        if best_key < 0:
            return None
        payloads = []
        key = best_key
        while key in child:
            key, payload = child[key]
            payloads.append(payload)
        path: Path = []
        for payload in payloads:
            path.extend(_expand(payload))
        return Journey.from_path(path)

    # ------------------------------------------------------------------
    # SDP (self-pruning descending-departure sweeps)
    # ------------------------------------------------------------------

    def _shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        """SDP via descending departure-time sweeps.

        One hierarchy-restricted EAP sweep per departure time of the
        source inside the window, latest first.  A sweep only expands
        through (station, state) pairs it strictly improves relative to
        all later departures, so total work across sweeps stays close
        to one profile's worth.
        """
        cone = self._down_cone(destination)
        n = self.graph.n
        best_arr = [INF] * (2 * n)  # persists across sweeps
        dist = [0] * (2 * n)
        stamp = [0] * (2 * n)
        gen = 0

        dep_set = set()
        for edge in self._up_out[source]:
            i = bisect_left(edge.deps, t)
            while i < len(edge.deps) and edge.deps[i] <= t_end:
                dep_set.add(edge.deps[i])
                i += 1
        for edge in self._down_out[source]:
            if not cone[edge.other]:
                continue
            i = bisect_left(edge.deps, t)
            while i < len(edge.deps) and edge.deps[i] <= t_end:
                dep_set.add(edge.deps[i])
                i += 1

        pairs = ParetoProfile()
        up_out = self._up_out
        down_out = self._down_out
        for dep in sorted(dep_set, reverse=True):
            gen += 1
            heap: List[Tuple[int, int]] = []
            self._relax_sweep(
                source, 2, dep, cone, heap, dist, stamp, gen,
                best_arr, exact_dep=dep,
            )
            while heap:
                arr0, key = heapq.heappop(heap)
                if stamp[key] != gen or dist[key] != arr0:
                    continue
                if arr0 >= best_arr[key]:
                    continue
                best_arr[key] = arr0
                x, state = key >> 1, key & 1
                if x == destination:
                    if arr0 <= t_end:
                        pairs.add(dep, arr0)
                    continue
                if arr0 > t_end:
                    continue
                self._relax_sweep(
                    x, state, arr0, cone, heap, dist, stamp, gen, best_arr
                )

        best = pairs.best_duration(t, t_end)
        if best is None:
            return None
        journey = self._earliest_arrival(source, destination, best[0])
        assert journey is not None
        return journey

    def _relax_sweep(
        self,
        x: int,
        state: int,
        bound: int,
        cone: bytearray,
        heap: List[Tuple[int, int]],
        dist: List[int],
        stamp: List[int],
        gen: int,
        best_arr: List[int],
        exact_dep: Optional[int] = None,
    ) -> None:
        """Relax from ``(x, state)``; ``state == 2`` means the source
        seed (both states allowed, departures must equal ``exact_dep``).
        """
        if state in (0, 2):
            for edge in self._up_out[x]:
                i = bisect_left(edge.deps, bound)
                if i == len(edge.deps):
                    continue
                if exact_dep is not None and edge.deps[i] != exact_dep:
                    continue
                k2 = edge.other << 1
                arr = edge.arrs[i]
                if arr < best_arr[k2] and (
                    stamp[k2] != gen or arr < dist[k2]
                ):
                    dist[k2] = arr
                    stamp[k2] = gen
                    heapq.heappush(heap, (arr, k2))
        for edge in self._down_out[x]:
            if not cone[edge.other]:
                continue
            i = bisect_left(edge.deps, bound)
            if i == len(edge.deps):
                continue
            if exact_dep is not None and edge.deps[i] != exact_dep:
                continue
            k2 = (edge.other << 1) | 1
            arr = edge.arrs[i]
            if arr < best_arr[k2] and (
                stamp[k2] != gen or arr < dist[k2]
            ):
                dist[k2] = arr
                stamp[k2] = gen
                heapq.heappush(heap, (arr, k2))
