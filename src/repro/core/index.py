"""The sealed TTL index.

:class:`TTLIndex` is the immutable, queryable product of
:func:`~repro.core.build.build_index`: per-node in/out label sets
grouped by hub and ordered by ``(hub rank, departure)`` — the label
order ``f(l)`` of Section 4.1.  Sealing flattens every label into the
typed columns of :class:`~repro.core.store.LabelStore`; queries touch
the columns through :class:`~repro.core.store.GroupView` slices.

PathUnfold resolves a label's left/right child with two bisections
instead of hash lookups:

* canonical paths between a fixed pair have pairwise distinct
  departure *and* arrival times (ties would violate the Dominance
  Constraint), so an exact-match bisect over the pair's group is
  unambiguous;
* the pair's group lives in ``L_out(src)`` when ``dst`` ranks higher
  and in ``L_in(dst)`` otherwise (Definition 7), and group lists are
  sorted by hub rank, so the group itself is found by bisection too.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.build import BuildStats
from repro.core.label import Label, LabelEntry, LabelGroup
from repro.core.store import GroupView, LabelStore
from repro.errors import IndexBuildError
from repro.graph.timetable import TimetableGraph


@dataclass(frozen=True)
class IndexStats:
    """Summary statistics of a sealed index (cf. Section 10.1)."""

    num_labels: int
    avg_labels_per_node: float
    max_labels_per_node: int
    num_in_labels: int
    num_out_labels: int


class TTLIndex:
    """Queryable TTL label sets over a timetable graph."""

    def __init__(
        self,
        graph: TimetableGraph,
        ranks: List[int],
        in_groups: List[Dict[int, LabelGroup]],
        out_groups: List[Dict[int, LabelGroup]],
        build_stats: Optional[BuildStats] = None,
    ) -> None:
        self._init_identity(graph, ranks, build_stats)

        #: Flat sealed columns, one store per direction.
        self.in_store: LabelStore = LabelStore.from_groups(
            [
                sorted(groups.values(), key=lambda g: g.rank)
                for groups in in_groups
            ]
        )
        self.out_store: LabelStore = LabelStore.from_groups(
            [
                sorted(groups.values(), key=lambda g: g.rank)
                for groups in out_groups
            ]
        )
        self._materialize_views()

    @classmethod
    def from_stores(
        cls,
        graph: TimetableGraph,
        ranks: List[int],
        in_store: LabelStore,
        out_store: LabelStore,
        build_stats: Optional[BuildStats] = None,
    ) -> "TTLIndex":
        """Adopt already-sealed stores without re-flattening.

        This is the zero-copy load path: a TTLIDX03 file's columns are
        memory-mapped into two :meth:`LabelStore.frombuffer` stores and
        handed straight to the index — no per-label Python objects are
        ever materialized.
        """
        if in_store.n != graph.n or out_store.n != graph.n:
            raise IndexBuildError(
                f"store sized for {in_store.n}/{out_store.n} nodes does "
                f"not match graph with {graph.n} stations"
            )
        index = cls.__new__(cls)
        index._init_identity(graph, ranks, build_stats)
        index.in_store = in_store
        index.out_store = out_store
        index._materialize_views()
        return index

    def _init_identity(
        self,
        graph: TimetableGraph,
        ranks: List[int],
        build_stats: Optional[BuildStats],
    ) -> None:
        if len(ranks) != graph.n:
            raise IndexBuildError("rank array does not match graph size")
        self.graph = graph
        self.ranks = list(ranks)
        n = graph.n
        self.node_of_rank = [-1] * n
        for node, rank in enumerate(self.ranks):
            if not 0 <= rank < n:
                raise IndexBuildError(
                    f"rank {rank} of node {node} outside 0..{n - 1}"
                )
            if self.node_of_rank[rank] != -1:
                raise IndexBuildError(
                    f"duplicate rank {rank}: nodes "
                    f"{self.node_of_rank[rank]} and {node}"
                )
            self.node_of_rank[rank] = node
        self.build_stats = build_stats

    def _materialize_views(self) -> None:
        n = self.graph.n
        #: in_groups[v] / out_groups[u]: label-group views sorted by
        #: hub rank, materialized once at seal time.
        self.in_groups: List[List[GroupView]] = [
            self.in_store.views(v) for v in range(n)
        ]
        self.out_groups: List[List[GroupView]] = [
            self.out_store.views(u) for u in range(n)
        ]

        #: Number of times PathUnfold had to fall back to a search
        #: because a tie-pruned child label was absent (observability).
        self.unfold_fallbacks = 0

    @property
    def mapped(self) -> bool:
        """True when the label columns are memory-mapped (TTLIDX03)."""
        return bool(self.in_store.mapped or self.out_store.mapped)

    # ------------------------------------------------------------------
    # Narrow accessor layer (SketchGen / PathUnfold / batch queries)
    # ------------------------------------------------------------------

    def out_label_groups(self, u: int) -> List[GroupView]:
        """Out-label groups of ``u`` in hub-rank order."""
        return self.out_groups[u]

    def in_label_groups(self, v: int) -> List[GroupView]:
        """In-label groups of ``v`` in hub-rank order."""
        return self.in_groups[v]

    def out_label_count(self, u: int) -> int:
        """``|L_out(u)|`` — O(1) from the store offsets."""
        return self.out_store.node_label_count(u)

    def in_label_count(self, v: int) -> int:
        """``|L_in(v)|`` — O(1) from the store offsets."""
        return self.in_store.node_label_count(v)

    # ------------------------------------------------------------------
    # Child lookups for PathUnfold (bisect, no dicts)
    # ------------------------------------------------------------------

    def _pair_group(self, src: int, dst: int) -> Optional[GroupView]:
        """The group holding canonical paths ``src -> dst``, or ``None``.

        Bisects the pair's node group list by the hub's rank.
        """
        ranks = self.ranks
        if ranks[src] < ranks[dst]:
            groups = self.in_groups[dst]
            hub = src
        else:
            groups = self.out_groups[src]
            hub = dst
        target = ranks[hub]
        lo, hi = 0, len(groups)
        while lo < hi:
            mid = (lo + hi) // 2
            if groups[mid].rank < target:
                lo = mid + 1
            else:
                hi = mid
        if lo < len(groups):
            group = groups[lo]
            if group.hub == hub:
                return group
        return None

    def lookup_by_dep(
        self, src: int, dst: int, dep: int
    ) -> Optional[LabelEntry]:
        """The canonical path ``src -> dst`` departing exactly ``dep``."""
        group = self._pair_group(src, dst)
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
        """The canonical path ``src -> dst`` arriving exactly ``arr``."""
        group = self._pair_group(src, dst)
        if group is None:
            return None
        arrs = group.arrs
        i = bisect_left(arrs, arr)
        if i == len(arrs) or arrs[i] != arr:
            return None
        return group.entry(i)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def num_labels(self) -> int:
        """Total label count |L| (the paper's index-size measure)."""
        return self.in_store.num_labels + self.out_store.num_labels

    def store_bytes(self) -> int:
        """Bytes held by the sealed stores' typed columns."""
        return self.in_store.nbytes() + self.out_store.nbytes()

    def in_labels(self, v: int) -> List[Label]:
        """Flat in-label set of ``v`` in ``f(l)`` order (for tests)."""
        return [
            label for group in self.in_groups[v] for label in group.labels()
        ]

    def out_labels(self, u: int) -> List[Label]:
        """Flat out-label set of ``u`` in ``f(l)`` order (for tests)."""
        return [
            label for group in self.out_groups[u] for label in group.labels()
        ]

    def stats(self) -> IndexStats:
        """Aggregate label statistics."""
        num_in = self.in_store.num_labels
        num_out = self.out_store.num_labels
        per_node = [
            self.in_store.node_label_count(v)
            + self.out_store.node_label_count(v)
            for v in range(self.graph.n)
        ]
        n = max(1, self.graph.n)
        return IndexStats(
            num_labels=num_in + num_out,
            avg_labels_per_node=(num_in + num_out) / n,
            max_labels_per_node=max(per_node, default=0),
            num_in_labels=num_in,
            num_out_labels=num_out,
        )

    def check_invariants(self) -> None:
        """Verify structural invariants (tests call this)."""
        for node, groups in enumerate(self.in_groups):
            last_rank = -1
            for group in groups:
                if group.rank <= last_rank:
                    raise AssertionError(
                        f"in-groups of {node} not sorted by hub rank"
                    )
                last_rank = group.rank
                if group.rank >= self.ranks[node]:
                    raise AssertionError(
                        f"in-label of {node} from hub {group.hub} that does "
                        f"not rank higher"
                    )
                group.check_invariants()
        for node, groups in enumerate(self.out_groups):
            last_rank = -1
            for group in groups:
                if group.rank <= last_rank:
                    raise AssertionError(
                        f"out-groups of {node} not sorted by hub rank"
                    )
                last_rank = group.rank
                if group.rank >= self.ranks[node]:
                    raise AssertionError(
                        f"out-label of {node} to hub {group.hub} that does "
                        f"not rank higher"
                    )
                group.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"TTLIndex(n={self.graph.n}, labels={self.num_labels})"
        )
