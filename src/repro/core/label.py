"""Label records for TTL (Definition 7).

A label ``(hub, dep, arr, trip, pivot)`` stands for one canonical path
between a node and a *hub* that ranks higher than the node:

* in an **in-label** of ``v`` the path runs ``hub -> v``;
* in an **out-label** of ``u`` the path runs ``u -> hub``;
* ``trip`` is the path's vehicle (``None`` when the path transfers);
* ``pivot`` is the highest-ranked intermediate node (``None`` when the
  path is a single connection), used by PathUnfold.

Labels of one node are kept grouped per hub, groups ordered by hub
rank and pairs within a group ordered by departure time — exactly the
total order ``f(l)`` of Section 4.1 that SketchGen's linear merge
relies on.  A :class:`LabelGroup` stores its pairs column-wise
(parallel arrays) so the hot query loops touch compact int lists.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

#: (dep, arr, trip, pivot) — label payload with its pair context implied.
LabelEntry = Tuple[int, int, Optional[int], Optional[int]]


class Label(NamedTuple):
    """One TTL label (Definition 7)."""

    hub: int
    dep: int
    arr: int
    trip: Optional[int]
    pivot: Optional[int]


class LabelGroup:
    """All labels of one node that share a hub.

    Pairs are sorted ascending by departure and, because each group is
    a Pareto frontier (dominated canonical paths cannot exist), also
    ascending by arrival.
    """

    __slots__ = ("hub", "rank", "deps", "arrs", "trips", "pivots")

    def __init__(
        self,
        hub: int,
        rank: int,
        deps: Optional[List[int]] = None,
        arrs: Optional[List[int]] = None,
        trips: Optional[List[Optional[int]]] = None,
        pivots: Optional[List[Optional[int]]] = None,
    ) -> None:
        self.hub = hub
        self.rank = rank
        self.deps: List[int] = deps if deps is not None else []
        self.arrs: List[int] = arrs if arrs is not None else []
        self.trips: List[Optional[int]] = trips if trips is not None else []
        self.pivots: List[Optional[int]] = pivots if pivots is not None else []

    def append(
        self, dep: int, arr: int, trip: Optional[int], pivot: Optional[int]
    ) -> None:
        """Append one label (caller maintains ordering)."""
        self.deps.append(dep)
        self.arrs.append(arr)
        self.trips.append(trip)
        self.pivots.append(pivot)

    def reverse(self) -> None:
        """Reverse in place (descending-phase output -> ascending)."""
        self.deps.reverse()
        self.arrs.reverse()
        self.trips.reverse()
        self.pivots.reverse()

    def entry(self, i: int) -> LabelEntry:
        """The ``i``-th label as ``(dep, arr, trip, pivot)``."""
        return (self.deps[i], self.arrs[i], self.trips[i], self.pivots[i])

    def label(self, i: int) -> Label:
        """The ``i``-th label as a :class:`Label` record."""
        return Label(self.hub, *self.entry(i))

    def labels(self) -> List[Label]:
        """All labels of the group in order."""
        return [self.label(i) for i in range(len(self.deps))]

    def check_invariants(self) -> None:
        """Assert the Pareto / ordering invariants (used by tests)."""
        for i in range(len(self.deps) - 1):
            if not (
                self.deps[i] < self.deps[i + 1]
                and self.arrs[i] < self.arrs[i + 1]
            ):
                raise AssertionError(
                    f"group for hub {self.hub} is not a strict Pareto "
                    f"frontier at position {i}: "
                    f"({self.deps[i]},{self.arrs[i]}) then "
                    f"({self.deps[i + 1]},{self.arrs[i + 1]})"
                )

    def __len__(self) -> int:
        return len(self.deps)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"LabelGroup(hub={self.hub}, size={len(self.deps)})"


def total_label_count(groups_per_node: Sequence[List[LabelGroup]]) -> int:
    """Total number of labels across a per-node group table."""
    return sum(
        len(group) for groups in groups_per_node for group in groups
    )
