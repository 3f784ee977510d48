"""Label-safety analysis: which TTL labels survive a patch-set.

A label stands for one canonical path.  The path is *tainted* when it
uses a connection the current patch-set removed or retimed — serving
it from the static index would hand out a journey that no longer runs.
The analyzer decides taint from the data each label already carries
(Definition 7):

* ``trip`` not ``None`` — the whole canonical path rides one vehicle,
  so it is tainted iff the patched portion of that trip intersects the
  label's ``[dep, arr]`` window;
* otherwise the path transfers and splits at ``pivot`` into two child
  labels (Lemma 4), which are resolved through the index's O(1)
  lookup tables and checked recursively;
* a child that the index tie-pruned cannot be certified and is treated
  as tainted (the engine then falls back — conservative, never wrong).

Results are memoized on the label identity ``(src, dst, dep)`` so the
amortized cost per query is a handful of dictionary hits.  Taint only
ever *over*-approximates: a clean verdict is a proof that the unfolded
path exists verbatim in the live schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.index import TTLIndex
from repro.core.sketch import Sketch
from repro.live.overlay import PatchSet


@dataclass(frozen=True)
class TaintReport:
    """Index-wide taint statistics (observability / benchmarks)."""

    num_labels: int
    num_tainted: int

    @property
    def fraction(self) -> float:
        """Share of labels invalidated by the patch-set."""
        return self.num_tainted / self.num_labels if self.num_labels else 0.0


class TaintAnalyzer:
    """Decides, per label / sketch, whether the static index answer
    is still valid under ``patch``."""

    def __init__(self, index: TTLIndex, patch: PatchSet) -> None:
        self.index = index
        self.patch = patch
        #: (src, dst, dep) -> taint verdict; the key is unique because
        #: canonical paths of a pair have distinct departures.  The
        #: memo is valid ONLY against ``patch``: verdicts must never be
        #: carried to another patch-set generation (the engine builds a
        #: fresh analyzer on every overlay swap and asserts as much).
        self._memo: Dict[Tuple[int, int, int], bool] = {}

    @property
    def memo_size(self) -> int:
        """Memoized verdict count (generation-leak regression tests)."""
        return len(self._memo)

    # ------------------------------------------------------------------
    # Core decision
    # ------------------------------------------------------------------

    def trip_segment_tainted(self, trip: int, dep: int, arr: int) -> bool:
        """True when trip ``trip`` lost/retimed a connection inside the
        ``[dep, arr]`` ride window."""
        removed = self.patch.removed_by_trip.get(trip)
        if not removed:
            return False
        for conn in removed:
            if conn.dep >= dep and conn.arr <= arr:
                return True
        return False

    def segment_tainted(
        self,
        src: int,
        dst: int,
        dep: int,
        arr: int,
        trip: Optional[int],
        pivot: Optional[int],
    ) -> bool:
        """Taint verdict for one label / canonical path segment."""
        key = (src, dst, dep)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        if trip is not None:
            # Single-vehicle path: only that trip's patched window matters.
            verdict = self.trip_segment_tainted(trip, dep, arr)
        elif pivot is None:
            # Cannot happen for well-formed labels (a single connection
            # always has a trip); refuse to certify.
            verdict = True
        else:
            left = self.index.lookup_by_dep(src, pivot, dep)
            right = self.index.lookup_by_arr(pivot, dst, arr)
            if left is None or right is None:
                # Tie-pruned child: PathUnfold would fall back to a
                # search on the *base* graph, which we cannot certify.
                verdict = True
            else:
                l_dep, l_arr, l_trip, l_pivot = left
                r_dep, r_arr, r_trip, r_pivot = right
                verdict = self.segment_tainted(
                    src, pivot, l_dep, l_arr, l_trip, l_pivot
                ) or self.segment_tainted(
                    pivot, dst, r_dep, r_arr, r_trip, r_pivot
                )
        self._memo[key] = verdict
        return verdict

    def sketch_tainted(self, sketch: Sketch) -> bool:
        """Taint verdict for a refined sketch (1-2 label segments)."""
        for segment in (sketch.first, sketch.second):
            if segment is not None and self.segment_tainted(*segment):
                return True
        return False

    # ------------------------------------------------------------------
    # Node / index level views
    # ------------------------------------------------------------------

    def tainted_hubs_out(self, node: int) -> frozenset:
        """Hubs of ``node``'s out-labels with >= 1 tainted label."""
        hubs = set()
        for group in self.index.out_groups[node]:
            for i in range(len(group)):
                if self.segment_tainted(node, group.hub, *group.entry(i)):
                    hubs.add(group.hub)
                    break
        return frozenset(hubs)

    def tainted_hubs_in(self, node: int) -> frozenset:
        """Hubs of ``node``'s in-labels with >= 1 tainted label."""
        hubs = set()
        for group in self.index.in_groups[node]:
            for i in range(len(group)):
                if self.segment_tainted(group.hub, node, *group.entry(i)):
                    hubs.add(group.hub)
                    break
        return frozenset(hubs)

    def report(self) -> TaintReport:
        """Walk the whole index and count tainted labels."""
        total = tainted = 0
        for node in range(self.index.graph.n):
            for direction, groups in (
                ("out", self.index.out_groups[node]),
                ("in", self.index.in_groups[node]),
            ):
                for group in groups:
                    for i in range(len(group)):
                        total += 1
                        if direction == "out":
                            src, dst = node, group.hub
                        else:
                            src, dst = group.hub, node
                        if self.segment_tainted(src, dst, *group.entry(i)):
                            tainted += 1
        return TaintReport(num_labels=total, num_tainted=tainted)
