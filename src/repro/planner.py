"""The planner protocol.

All route-planning backends expose the same queries (Definitions 2-4
of the paper, plus profile enumeration) through :class:`RoutePlanner`,
so tests and the benchmark harness can swap methods freely:

* :meth:`RoutePlanner.earliest_arrival` — EAP.
* :meth:`RoutePlanner.latest_departure` — LDP.
* :meth:`RoutePlanner.shortest_duration` — SDP.
* :meth:`RoutePlanner.profile` — every non-dominated journey in a
  window; backends without label sets raise
  :class:`~repro.errors.UnsupportedQueryError`.

The unified entry point is :meth:`RoutePlanner.plan`: it takes a
frozen :class:`~repro.query.QueryRequest` and dispatches on its
``query_type``, so the HTTP service, the federation stitcher, the live
engine, and the benchmark harness never switch-case over method
signatures themselves.  The per-type methods are the stable legacy
API, and they hold the query contract: each validates its stations
(and window), answers a same-station query as ``Journey(s, s, t, t)``
(``[(t, t)]`` for profile), calls ``preprocess()``, and only then
calls the subclass's search hook (``_earliest_arrival``,
``_latest_departure``, ``_shortest_duration``, ``_profile``).  The
base class validates; each subclass only searches.

Each journey query returns a :class:`~repro.journey.Journey` or
``None`` when no feasible path exists.  ``preprocess()`` builds
whatever index the method needs and returns the elapsed seconds;
``index_bytes()`` reports the index footprint used by the Figure 4
experiment.
"""

from __future__ import annotations

import abc
import time
from typing import List, Optional, Tuple

from repro.errors import QueryError, UnsupportedQueryError
from repro.graph.timetable import TimetableGraph
from repro.journey import Journey
from repro.query import QueryRequest, QueryResult


class RoutePlanner(abc.ABC):
    """Common interface of every route-planning method in this repo."""

    #: Short display name used in benchmark tables ("TTL", "CSA", ...).
    name: str = "planner"

    def __init__(self, graph: TimetableGraph) -> None:
        self.graph = graph
        self._preprocess_seconds: Optional[float] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def preprocess(self) -> float:
        """Build the method's index; returns wall-clock seconds spent.

        Idempotent: a second call returns the recorded time without
        rebuilding.
        """
        if self._preprocess_seconds is None:
            start = time.perf_counter()
            self._build()
            self._preprocess_seconds = time.perf_counter() - start
        return self._preprocess_seconds

    @property
    def preprocess_seconds(self) -> float:
        """Recorded preprocessing time; 0.0 before :meth:`preprocess`.

        Planners adopting a persisted index report the build time
        recorded in the file's :class:`~repro.core.build.BuildStats`.
        """
        return self._preprocess_seconds or 0.0

    @abc.abstractmethod
    def _build(self) -> None:
        """Perform the actual preprocessing work."""

    @abc.abstractmethod
    def index_bytes(self) -> int:
        """Approximate size in bytes of the preprocessed structures."""

    # ------------------------------------------------------------------
    # Queries: the contract of Definitions 2-4, written once
    # ------------------------------------------------------------------

    def earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        """EAP: the path starting from ``source`` no sooner than ``t``
        that reaches ``destination`` earliest (Definition 2)."""
        if self._begin(source, destination):
            return Journey(source, destination, t, t, path=[])
        return self._earliest_arrival(source, destination, t)

    def latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        """LDP: the path ending at ``destination`` no later than ``t``
        that leaves ``source`` latest (Definition 3)."""
        if self._begin(source, destination):
            return Journey(source, destination, t, t, path=[])
        return self._latest_departure(source, destination, t)

    def shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        """SDP: the minimum-duration path within ``[t, t_end]``
        (Definition 4)."""
        if self._begin(source, destination, t, t_end):
            return Journey(source, destination, t, t, path=[])
        return self._shortest_duration(source, destination, t, t_end)

    def profile(
        self, source: int, destination: int, t: int, t_end: int
    ) -> List[Tuple[int, int]]:
        """Every non-dominated ``(dep, arr)`` journey within
        ``[t, t_end]``, ascending by departure.

        Labelling-based planners answer this from their label sets;
        backends that do not override :meth:`_profile` raise
        :class:`~repro.errors.UnsupportedQueryError` for every call.
        """
        if type(self)._profile is RoutePlanner._profile:
            raise UnsupportedQueryError(self.name, "profile")
        if self._begin(source, destination, t, t_end):
            return [(t, t)]
        return self._profile(source, destination, t, t_end)

    def _begin(
        self,
        source: int,
        destination: int,
        t: int = 0,
        t_end: Optional[int] = None,
    ) -> bool:
        """Validate a query and build the index; True when
        ``source == destination`` (the caller answers without search).
        """
        n = self.graph.n
        if not 0 <= source < n:
            raise QueryError(f"unknown source station: {source}")
        if not 0 <= destination < n:
            raise QueryError(f"unknown destination station: {destination}")
        if t_end is not None and t_end < t:
            raise QueryError(f"empty query window: [{t}, {t_end}]")
        if source == destination:
            return True
        self.preprocess()
        return False

    # The search hooks may assume ``source != destination``, both
    # stations valid, ``t <= t_end`` and a built index.

    @abc.abstractmethod
    def _earliest_arrival(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        """EAP search hook."""

    @abc.abstractmethod
    def _latest_departure(
        self, source: int, destination: int, t: int
    ) -> Optional[Journey]:
        """LDP search hook."""

    @abc.abstractmethod
    def _shortest_duration(
        self, source: int, destination: int, t: int, t_end: int
    ) -> Optional[Journey]:
        """SDP search hook."""

    def _profile(
        self, source: int, destination: int, t: int, t_end: int
    ) -> List[Tuple[int, int]]:
        """Profile search hook; the default marks it unsupported."""
        raise UnsupportedQueryError(self.name, "profile")

    # ------------------------------------------------------------------
    # Unified entry point
    # ------------------------------------------------------------------

    def plan(self, request: QueryRequest) -> QueryResult:
        """Answer any query type from one :class:`QueryRequest`.

        This is the one dispatch from a request to the per-type
        methods; every consumer builds a request and calls here.
        """
        request.validated()
        kind = request.query_type
        if kind == "eap":
            return QueryResult(
                request,
                journey=self.earliest_arrival(
                    request.source, request.destination, request.t
                ),
            )
        if kind == "ldp":
            return QueryResult(
                request,
                journey=self.latest_departure(
                    request.source, request.destination, request.t_end
                ),
            )
        if kind == "sdp":
            return QueryResult(
                request,
                journey=self.shortest_duration(
                    request.source,
                    request.destination,
                    request.t,
                    request.t_end,
                ),
            )
        pairs = self.profile(
            request.source, request.destination, request.t, request.t_end
        )
        if request.max_results is not None:
            pairs = pairs[: request.max_results]
        return QueryResult(request, pairs=tuple(tuple(p) for p in pairs))
