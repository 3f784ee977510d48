"""C-TTL — querying the compressed index (Appendix B).

:class:`CompressedTTLIndex` stores every label group as a
:class:`~repro.core.compression.CGroup` and *materializes* groups on
demand during query processing:

* plain groups are returned as stored;
* route-compressed groups are re-read from the route's timetable;
* pivot-compressed groups are re-merged from their child groups (which
  the compression constraint guarantees are not pivot-compressed, so
  materialization never recurses more than once).

The extra materialization work is exactly the query-time price of
compression the paper measures in Figure 3 (C-TTL slightly slower than
TTL), so no caching is applied.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

from repro.core.compression import (
    CGroup,
    CompressionStats,
    PIVOT,
    PLAIN,
    ROUTE,
    merge_children,
)
from repro.core.index import TTLIndex
from repro.core.label import LabelEntry, LabelGroup
from repro.core.metrics import QueryMetrics
from repro.core.sketch import (
    best_eap_sketch_from_lists,
    best_ldp_sketch_from_lists,
    best_sdp_sketch_from_lists,
)
from repro.core.unfold import sketch_to_journey
from repro.errors import ReconstructionError
from repro.graph.timetable import TimetableGraph
from repro.journey import Journey
from repro.planner import RoutePlanner


class _UniformList:
    """A read-only infinite list of one repeated value.

    Route-group views use it for the shared pivot so decompression
    allocates O(1) instead of O(labels).
    """

    __slots__ = ("value",)

    def __init__(self, value) -> None:
        self.value = value

    def __getitem__(self, _index):
        return self.value


class CompressedTTLIndex:
    """The C-TTL index: compressed label groups plus decompression."""

    def __init__(
        self,
        base: TTLIndex,
        in_cgroups: List[List[CGroup]],
        out_cgroups: List[List[CGroup]],
        stats: CompressionStats,
    ) -> None:
        self.graph: TimetableGraph = base.graph
        self.ranks = base.ranks
        self.in_cgroups = in_cgroups
        self.out_cgroups = out_cgroups
        self.compression_stats = stats
        self.unfold_fallbacks = 0
        #: (src, dst) -> CGroup, for child resolution.
        self._pair_map: Dict[Tuple[int, int], CGroup] = {}
        for dst, groups in enumerate(in_cgroups):
            for cgroup in groups:
                self._pair_map[(cgroup.src, cgroup.dst)] = cgroup
        for src, groups in enumerate(out_cgroups):
            for cgroup in groups:
                self._pair_map[(cgroup.src, cgroup.dst)] = cgroup

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def materialize(self, cgroup: CGroup):
        """Decompress one group (plain group or zero-copy view)."""
        if cgroup.kind == PLAIN:
            assert cgroup.plain is not None
            return cgroup.plain
        if cgroup.kind == ROUTE:
            assert cgroup.route_id is not None
            route = self.graph.routes[cgroup.route_id]
            deps, arrs, trips = route.pair_columns(cgroup.src, cgroup.dst)
            # Zero-copy: the group's columns are the route's timetable
            # columns between the pair.
            return LabelGroup(
                cgroup.hub,
                cgroup.rank,
                deps,
                arrs,
                trips,
                _UniformList(cgroup.pivot),
            )
        if cgroup.kind == PIVOT:
            assert cgroup.pivot is not None
            left = self._materialize_pair(cgroup.src, cgroup.pivot)
            right = self._materialize_pair(cgroup.pivot, cgroup.dst)
            if left is None or right is None:
                raise ReconstructionError(
                    f"missing child groups for compressed pair "
                    f"{cgroup.src}->{cgroup.dst} via {cgroup.pivot}"
                )
            merged = merge_children(left, right, cgroup.pivot)
            merged.hub = cgroup.hub
            merged.rank = cgroup.rank
            return merged
        raise ReconstructionError(f"unknown group kind: {cgroup.kind}")

    def _materialize_pair(self, src: int, dst: int):
        cgroup = self._pair_map.get((src, dst))
        if cgroup is None:
            return None
        return self.materialize(cgroup)

    def materialized_out(self, u: int) -> List:
        """Decompressed out-label groups of ``u`` in rank order."""
        return [self.materialize(g) for g in self.out_cgroups[u]]

    def materialized_in(self, v: int) -> List:
        """Decompressed in-label groups of ``v`` in rank order."""
        return [self.materialize(g) for g in self.in_cgroups[v]]

    # ------------------------------------------------------------------
    # Unfold support (duck-typed like TTLIndex)
    # ------------------------------------------------------------------

    def lookup_by_dep(
        self, src: int, dst: int, dep: int
    ) -> Optional[LabelEntry]:
        """Child label by departure time, decompressing as needed."""
        group = self._materialize_pair(src, dst)
        if group is None:
            return None
        deps = group.deps
        i = bisect_left(deps, dep)
        if i == len(deps) or deps[i] != dep:
            return None
        return group.entry(i)

    def lookup_by_arr(
        self, src: int, dst: int, arr: int
    ) -> Optional[LabelEntry]:
        """Child label by arrival time, decompressing as needed."""
        group = self._materialize_pair(src, dst)
        if group is None:
            return None
        arrs = group.arrs
        i = bisect_left(arrs, arr)
        if i == len(arrs) or arrs[i] != arr:
            return None
        return group.entry(i)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------

    @property
    def num_labels(self) -> int:
        """Stored label count after compression."""
        return self.compression_stats.labels_after

    def compressed_bytes(self) -> int:
        """Model size in bytes: stored labels, group records, and the
        route timetables decompression reads (counted once per route)."""
        from repro.core.serialize import BYTES_PER_LABEL, BYTES_PER_NODE

        stored = 0
        groups = 0
        routes_used = set()
        for table in (self.in_cgroups, self.out_cgroups):
            for cgroups in table:
                for cgroup in cgroups:
                    groups += 1
                    stored += cgroup.stored_labels()
                    if cgroup.kind == ROUTE:
                        routes_used.add(cgroup.route_id)
        route_bytes = 0
        for route_id in routes_used:
            route = self.graph.routes[route_id]
            route_bytes += len(route.trips) * len(route.stops) * 8
        return (
            stored * BYTES_PER_LABEL
            + groups * 12
            + self.graph.n * BYTES_PER_NODE
            + route_bytes
        )


class CompressedTTLPlanner(RoutePlanner):
    """C-TTL: Timetable Labelling with label compression."""

    name = "C-TTL"

    def __init__(
        self,
        graph: TimetableGraph,
        order="hub",
        concise: bool = False,
        mode: str = "both",
        cindex: Optional[CompressedTTLIndex] = None,
    ) -> None:
        super().__init__(graph)
        self._order = order
        self.concise = concise
        self.mode = mode
        self.cindex: Optional[CompressedTTLIndex] = cindex
        #: Cumulative per-query observability counters.
        self.metrics = QueryMetrics()
        if cindex is not None:
            self._preprocess_seconds = 0.0

    def _build(self) -> None:
        from repro.core.build import build_index
        from repro.core.compression import compress_index

        base = build_index(self.graph, order=self._order)
        self.cindex, _ = compress_index(base, mode=self.mode)

    def index_bytes(self) -> int:
        self.preprocess()
        assert self.cindex is not None
        return self.cindex.compressed_bytes()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _lists(self, u: int, v: int):
        assert self.cindex is not None
        return self.cindex.materialized_out(u), self.cindex.materialized_in(v)

    def _earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        return self._journey(best_eap_sketch_from_lists, source, destination, t)

    def _latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        return self._journey(best_ldp_sketch_from_lists, source, destination, t)

    def _shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        return self._journey(
            best_sdp_sketch_from_lists, source, destination, t, t_end
        )

    def _journey(
        self, select, source: int, destination: int, *window: int
    ) -> Optional[Journey]:
        """The counted sketch -> unfold tail of the journey queries;
        ``select`` is one of the ``best_*_sketch_from_lists``."""
        self.metrics.queries += 1
        out_list, in_list = self._lists(source, destination)
        sketch = select(
            out_list, in_list, source, destination, *window,
            metrics=self.metrics,
        )
        if sketch is None:
            return None
        assert self.cindex is not None
        return sketch_to_journey(
            self.cindex, sketch, source, destination, self.concise,
            metrics=self.metrics,
        )

    def _profile(self, source: int, destination: int, t: int, t_end: int):
        """All non-dominated ``(dep, arr)`` journeys in the window,
        computed over the decompressed label groups.

        C-TTL materializes its groups on demand as list-backed views,
        so the columnar kernels of :mod:`repro.core.kernels` cannot
        run here; the shared scalar fold is the implementation.
        """
        from repro.core.profile_queries import profile_from_lists

        self.metrics.queries += 1
        out_list, in_list = self._lists(source, destination)
        return profile_from_lists(
            out_list, in_list, source, destination, t, t_end,
            metrics=self.metrics,
        )
