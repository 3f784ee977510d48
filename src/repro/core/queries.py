"""The TTL planner — query front end (Section 4).

:class:`TTLPlanner` wires together index construction, SketchGen,
refinement, and PathUnfold behind the common
:class:`~repro.planner.RoutePlanner` interface.  ``concise=True``
switches path reconstruction to the concise representation of
Section 8 (cheaper; benchmarked separately in Figure 3).
"""

from __future__ import annotations

from typing import Optional

from repro.core.build import OrderSpec, build_index
from repro.core.index import TTLIndex
from repro.core.metrics import QueryMetrics
from repro.core.sketch import (
    Sketch,
    best_eap_sketch,
    best_ldp_sketch,
    best_sdp_sketch,
)
from repro.core.unfold import sketch_to_journey
from repro.graph.timetable import TimetableGraph
from repro.journey import Journey
from repro.planner import RoutePlanner


class TTLPlanner(RoutePlanner):
    """Timetable Labelling: the paper's method."""

    name = "TTL"

    def __init__(
        self,
        graph: TimetableGraph,
        order: OrderSpec = "hub",
        concise: bool = False,
        index: Optional[TTLIndex] = None,
        build_jobs: int = 1,
        build_chunk_size: Optional[int] = None,
        checkpoint_dir: Optional[str] = None,
        build_resume: bool = False,
    ) -> None:
        """Create the planner.

        Args:
            graph: the timetable graph.
            order: node-order specification (default H-Order).
            concise: return concise paths instead of full paths.
            index: adopt a pre-built index instead of building one in
                :meth:`preprocess` (it must index the same graph).
            build_jobs: worker processes for index construction;
                ``> 1`` routes preprocessing through the build farm
                (``repro.buildfarm``), whose output is identical to
                the serial builder's.
            build_chunk_size: hubs per farm chunk (default: auto).
            checkpoint_dir: persist build progress as resumable
                checkpoint shards in this directory.
            build_resume: resume from a matching checkpoint instead of
                rebuilding completed chunks.
        """
        super().__init__(graph)
        self._order = order
        self.concise = concise
        self.index: Optional[TTLIndex] = index
        self._build_jobs = build_jobs
        self._build_chunk_size = build_chunk_size
        self._checkpoint_dir = checkpoint_dir
        self._build_resume = build_resume
        #: Cumulative per-query observability counters.
        self.metrics = QueryMetrics()
        #: Live build observability (polled by ``/healthz`` while a
        #: background warm-up runs).
        from repro.buildfarm.progress import ProgressTracker

        self.build_progress = ProgressTracker()
        if index is not None:
            self._preprocess_seconds = (
                index.build_stats.seconds if index.build_stats else 0.0
            )

    def _build(self) -> None:
        tracker = self.build_progress
        if (
            self._build_jobs > 1
            or self._checkpoint_dir is not None
        ):
            from repro.buildfarm import build_index_parallel

            self.index = build_index_parallel(
                self.graph,
                order=self._order,
                jobs=self._build_jobs,
                chunk_size=self._build_chunk_size,
                checkpoint_dir=self._checkpoint_dir,
                resume=self._build_resume,
                tracker=tracker,
            )
            return
        # Serial path: cheapest for one process, but still feeds the
        # progress tracker so readiness probes see hub counts.
        tracker.configure(jobs=1, hubs_total=self.graph.n, chunks_total=0)
        tracker.start_phase("build")
        self.index = build_index(
            self.graph,
            order=self._order,
            progress=lambda done, total: tracker.hub_done(),
        )
        tracker.start_phase("done")

    def index_bytes(self) -> int:
        from repro.core.serialize import index_bytes

        self.preprocess()
        assert self.index is not None
        return index_bytes(self.index)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def _earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        return self._journey("eap", source, destination, t)

    def _latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        return self._journey("ldp", source, destination, t)

    def _shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        return self._journey("sdp", source, destination, t, t_end)

    def _journey(
        self,
        kind: str,
        source: int,
        destination: int,
        t: int,
        t_end: Optional[int] = None,
    ) -> Optional[Journey]:
        """The counted sketch -> unfold tail of the journey queries."""
        index = self.index
        assert index is not None
        self.metrics.queries += 1
        sketch = best_sketch(
            index, kind, source, destination, t, t_end, metrics=self.metrics
        )
        if sketch is None:
            return None
        return sketch_to_journey(
            index, sketch, source, destination, self.concise,
            metrics=self.metrics,
        )

    def _profile(self, source: int, destination: int, t: int, t_end: int):
        """All non-dominated ``(dep, arr)`` journeys in the window.

        See :mod:`repro.core.profile_queries`.
        """
        from repro.core.profile_queries import ttl_profile
        from repro.resilience.deadline import check_deadline

        # Profile enumeration is the one TTL query that can run long
        # (wide windows generate thousands of sketches); honor the
        # request budget here and inside the enumeration itself.  The
        # EAP/LDP/SDP label merges stay check-free: they are bounded
        # and the per-query overhead would cost more than it protects.
        check_deadline()
        assert self.index is not None
        self.metrics.queries += 1
        return ttl_profile(
            self.index, source, destination, t, t_end, metrics=self.metrics
        )


def best_sketch(
    index: TTLIndex,
    kind: str,
    source: int,
    destination: int,
    t: int,
    t_end: Optional[int] = None,
    metrics: Optional[QueryMetrics] = None,
) -> Optional[Sketch]:
    """The optimal sketch of one ``eap``, ``ldp`` or ``sdp`` query.

    ``t`` is the departure bound of EAP and SDP and the arrival
    deadline of LDP; ``t_end`` closes the SDP window.  The selectors
    are looked up in this module at call time.
    """
    if kind == "eap":
        return best_eap_sketch(
            index, source, destination, t, metrics=metrics
        )
    if kind == "ldp":
        return best_ldp_sketch(
            index, source, destination, t, metrics=metrics
        )
    assert t_end is not None
    return best_sdp_sketch(
        index, source, destination, t, t_end, metrics=metrics
    )
