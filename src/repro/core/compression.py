"""Label compression (Section 7).

Two lossless schemes shrink a TTL index by collapsing whole label
groups (all labels one node holds for one hub) into a single record:

* **Route-based** (Section 7.1): when every label in a group rides a
  trip of the same route and the group's ``(dep, arr, trip)`` list
  coincides with that route's timetable between the pair's endpoints,
  the group is replaced by one reference to the route.  Decompression
  reads the route timetable (already stored with the graph).
* **Pivot-based** (Section 7.2): when every label in a group transfers
  (``trip is None``) and shares the same pivot ``p``, the group is
  replaced by one ``(·, null, null, null, p)`` record.  Decompression
  re-merges the left children (``src -> p``) with the right children
  (``p -> dst``).  To keep decompression non-recursive, a compressed
  group's child groups must not themselves be pivot-compressed — the
  paper's compression constraint — which turns scheme selection into a
  maximum-weight independent set problem on a *dependency graph*.  We
  solve it with the classic GWMIN greedy (pick the alive vertex
  maximizing ``weight / (degree + 1)``), standing in for the cited
  approximation algorithm.

Both schemes verify losslessness at compression time: a group is only
compressed when decompressing it reproduces the original labels
exactly, so tie-pruned corner cases degrade to "not compressed" rather
than to wrong answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.core.index import TTLIndex
from repro.core.label import LabelGroup
from repro.errors import IndexBuildError
from repro.graph.timetable import TimetableGraph

#: Group kinds in the compressed index.
PLAIN = "plain"
ROUTE = "route"
PIVOT = "pivot"

#: Directed pair key: (src, dst) endpoints of a group's canonical paths.
PairKey = Tuple[int, int]


@dataclass
class CGroup:
    """One (possibly compressed) label group of the C-TTL index."""

    hub: int
    rank: int
    kind: str
    src: int
    dst: int
    #: Original labels (PLAIN only).
    plain: Optional[LabelGroup] = None
    #: Route id (ROUTE only).
    route_id: Optional[int] = None
    #: Shared pivot (ROUTE with intermediate stops, and PIVOT).
    pivot: Optional[int] = None
    #: Label count represented (for size accounting).
    size: int = 0

    def stored_labels(self) -> int:
        """How many label records this group stores physically."""
        return self.size if self.kind == PLAIN else 1


@dataclass(frozen=True)
class CompressionStats:
    """Label-count accounting for Table 4."""

    labels_before: int
    labels_after: int
    route_groups: int
    pivot_groups: int

    @property
    def reduction(self) -> float:
        """The paper's ``Δ/|L|`` ratio."""
        if self.labels_before == 0:
            return 0.0
        return (self.labels_before - self.labels_after) / self.labels_before


# ----------------------------------------------------------------------
# Eligibility checks (with losslessness verification)
# ----------------------------------------------------------------------


def _route_candidate(
    graph: TimetableGraph, group: LabelGroup, src: int, dst: int
) -> Optional[int]:
    """Route id if ``group`` is route-compressible between src/dst."""
    if len(group) < 2:
        return None
    route_id: Optional[int] = None
    for trip in group.trips:
        if trip is None:
            return None
        rid = graph.trip_to_route.get(trip)
        if rid is None:
            return None
        if route_id is None:
            route_id = rid
        elif rid != route_id:
            return None
    assert route_id is not None
    pivots = set(group.pivots)
    if len(pivots) != 1:
        return None
    route = graph.routes[route_id]
    if not route.visits_in_order(src, dst):
        return None
    # Decompression serves the route's timetable columns between the
    # endpoints directly (zero copies), so they must form a strict
    # Pareto staircase — i.e. no trip may overtake or duplicate another
    # between src and dst.  Compression is lossless as long as every
    # stored label appears among the column entries: extra entries are
    # real single-trip journeys that were hub-cover-pruned because a
    # dominating alternative exists, so they can never win refinement.
    deps, arrs, _ = route.pair_columns(src, dst)
    for k in range(len(deps) - 1):
        if deps[k] >= deps[k + 1] or arrs[k] >= arrs[k + 1]:
            return None
    stored = set(zip(group.deps, group.arrs))
    if not stored <= set(zip(deps, arrs)):
        return None
    return route_id


def _pivot_candidate(group: LabelGroup) -> Optional[int]:
    """Shared pivot if ``group`` is pivot-compressible."""
    if len(group) < 2:
        return None
    if any(trip is not None for trip in group.trips):
        return None
    pivots = set(group.pivots)
    if len(pivots) != 1:
        return None
    pivot = pivots.pop()
    if pivot is None:  # pragma: no cover - transfer paths have pivots
        return None
    return pivot


def pair_group(index: TTLIndex, src: int, dst: int) -> Optional[LabelGroup]:
    """The label group holding canonical paths ``src -> dst``.

    Lives in ``L_in(dst)`` when ``src`` ranks higher, else in
    ``L_out(src)`` (Definition 7).
    """
    if index.ranks[src] < index.ranks[dst]:
        for group in index.in_groups[dst]:
            if group.hub == src:
                return group
    else:
        for group in index.out_groups[src]:
            if group.hub == dst:
                return group
    return None


def merge_children(
    left: LabelGroup, right: LabelGroup, pivot: int
) -> LabelGroup:
    """Recompose a pivot-compressed group from its child groups.

    Non-dominated minimal-wait merge of the ``src -> p`` frontier with
    the ``p -> dst`` frontier; mirrors the pair scan of SketchGen.
    """
    merged = LabelGroup(hub=-1, rank=-1)
    left_deps, left_arrs = left.deps, left.arrs
    right_deps, right_arrs = right.deps, right.arrs
    j = 0
    len_r = len(right_deps)
    pending: Optional[Tuple[int, int]] = None
    for k in range(len(left_deps)):
        mid = left_arrs[k]
        while j < len_r and right_deps[j] < mid:
            j += 1
        if j == len_r:
            break
        dep, arr = left_deps[k], right_arrs[j]
        if pending is not None:
            if pending[1] == arr:
                pending = (dep, arr)
                continue
            merged.append(pending[0], pending[1], None, pivot)
        pending = (dep, arr)
    if pending is not None:
        merged.append(pending[0], pending[1], None, pivot)
    return merged


def _pivot_reconstruction_matches(
    index: TTLIndex, group: LabelGroup, src: int, dst: int, pivot: int
) -> bool:
    """Verify decompression would cover ``group``.

    The merge of the child frontiers must contain every stored label;
    extra merged entries are real two-leg journeys through the pivot
    that are globally dominated, so — as with route decompression —
    they cannot win refinement and unfold through existing child
    labels.
    """
    left = pair_group(index, src, pivot)
    right = pair_group(index, pivot, dst)
    if left is None or right is None:
        return False
    merged = merge_children(left, right, pivot)
    stored = set(zip(group.deps, group.arrs))
    return stored <= set(zip(merged.deps, merged.arrs))


# ----------------------------------------------------------------------
# Dependency graph + GWMIN independent set (Section 7.2)
# ----------------------------------------------------------------------


def _select_pivot_groups(
    candidates: Dict[PairKey, Tuple[int, int]]
) -> Set[PairKey]:
    """Choose a conflict-free subset of pivot candidates.

    ``candidates`` maps a pair key ``(src, dst)`` to ``(pivot, c)``
    where ``c`` is the group's label count.  Compressing ``(src, dst)``
    forbids compressing its child pairs ``(src, p)`` and ``(p, dst)``.
    Returns the selected pair keys (greedy max-weight independent set).
    """
    weight: Dict[PairKey, int] = {
        key: c - 1 for key, (_, c) in candidates.items()
    }
    adj: Dict[PairKey, Set[PairKey]] = {key: set() for key in candidates}
    for key, (pivot, _) in candidates.items():
        src, dst = key
        for child in ((src, pivot), (pivot, dst)):
            if child in candidates and child != key:
                adj[key].add(child)
                adj[child].add(key)

    alive = {key for key, w in weight.items() if w > 0}
    selected: Set[PairKey] = set()
    while alive:
        best = max(
            alive,
            key=lambda k: (weight[k] / (len(adj[k] & alive) + 1), k),
        )
        selected.add(best)
        removed = (adj[best] & alive) | {best}
        alive -= removed
    return selected


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------


def compress_index(index: TTLIndex, mode: str = "both"):
    """Compress ``index`` into a C-TTL index.

    Args:
        index: a sealed TTL index.
        mode: ``"route"``, ``"pivot"``, or ``"both"`` (route first,
            then pivot on the remaining groups — Section 7.2's combined
            scheme).

    Returns:
        ``(compressed_index, stats)``.
    """
    from repro.core.cindex import CompressedTTLIndex

    if mode not in ("route", "pivot", "both"):
        raise IndexBuildError(f"unknown compression mode: {mode!r}")
    graph = index.graph
    use_route = mode in ("route", "both")
    use_pivot = mode in ("pivot", "both")

    # Enumerate all groups with their direction context.
    located: List[Tuple[LabelGroup, int, int, bool]] = []
    for v, groups in enumerate(index.in_groups):
        for group in groups:
            located.append((group, group.hub, v, True))
    for u, groups in enumerate(index.out_groups):
        for group in groups:
            located.append((group, u, group.hub, False))

    route_choice: Dict[PairKey, int] = {}
    pivot_candidates: Dict[PairKey, Tuple[int, int]] = {}
    for group, src, dst, _ in located:
        key = (src, dst)
        if use_route:
            route_id = _route_candidate(graph, group, src, dst)
            if route_id is not None:
                route_choice[key] = route_id
                continue
        if use_pivot:
            pivot = _pivot_candidate(group)
            if pivot is not None and _pivot_reconstruction_matches(
                index, group, src, dst, pivot
            ):
                pivot_candidates[key] = (pivot, len(group))

    pivot_choice = (
        _select_pivot_groups(pivot_candidates) if use_pivot else set()
    )

    in_cgroups: List[List[CGroup]] = [[] for _ in range(graph.n)]
    out_cgroups: List[List[CGroup]] = [[] for _ in range(graph.n)]
    route_groups = pivot_groups = 0
    labels_after = 0
    for group, src, dst, is_in in located:
        key = (src, dst)
        if key in route_choice:
            cgroup = CGroup(
                hub=group.hub,
                rank=group.rank,
                kind=ROUTE,
                src=src,
                dst=dst,
                route_id=route_choice[key],
                pivot=group.entry(0)[3],
                size=len(group),
            )
            route_groups += 1
            labels_after += 1
        elif key in pivot_choice:
            cgroup = CGroup(
                hub=group.hub,
                rank=group.rank,
                kind=PIVOT,
                src=src,
                dst=dst,
                pivot=pivot_candidates[key][0],
                size=len(group),
            )
            pivot_groups += 1
            labels_after += 1
        else:
            cgroup = CGroup(
                hub=group.hub,
                rank=group.rank,
                kind=PLAIN,
                src=src,
                dst=dst,
                plain=group,
                size=len(group),
            )
            labels_after += len(group)
        if is_in:
            in_cgroups[dst].append(cgroup)
        else:
            out_cgroups[src].append(cgroup)

    stats = CompressionStats(
        labels_before=index.num_labels,
        labels_after=labels_after,
        route_groups=route_groups,
        pivot_groups=pivot_groups,
    )
    compressed = CompressedTTLIndex(index, in_cgroups, out_cgroups, stats)
    return compressed, stats
