"""Batched label queries: one-to-many, matrix, and isochrone passes.

Accessibility studies ("which stations can I reach within 45 minutes
of 8am?", travel-time matrices for facility placement) ask the same
EAP question for one source against many targets.  With a TTL index
each target costs one merge of the source's out-labels with the
target's in-labels — no graph search at all.

The single entry point is :func:`batch_plan`: it takes
:class:`~repro.query.BatchQuery` items and answers each with one
vectorized pass over the entire in-store when numpy is available
(:func:`repro.core.kernels.one_to_all_arrivals` — O(total labels)
columnar work per source, independent of target count), falling back
to the scalar per-target merge otherwise.  ``/v1/batch`` routes here.

The three historical entry points (``one_to_many_eat``,
``eat_matrix``, ``isochrone``) delegate to :func:`batch_plan` and emit
``DeprecationWarning``.
"""

from __future__ import annotations

import warnings
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union,
)

from repro.core import kernels
from repro.core.index import TTLIndex
from repro.core.sketch import best_eap_sketch_from_lists
from repro.errors import QueryError
from repro.query import BatchQuery

#: The per-kind result shapes, in request order.
BatchResult = Union[
    Dict[int, Optional[int]],           # one_to_many
    Dict[Tuple[int, int], Optional[int]],  # matrix
    List[int],                          # isochrone
]


def batch_plan(
    index: TTLIndex, requests: Sequence[BatchQuery]
) -> List[BatchResult]:
    """Answer a sequence of batched queries, one result per request.

    Every request is validated up front (so a malformed item fails the
    whole batch before any work), then each is answered by the
    vectorized one-to-all kernel when available or the scalar
    per-target merge otherwise — both produce identical values.
    """
    n = index.graph.n
    for request in requests:
        request.validated()
        for station in (*request.sources, *request.targets):
            if not 0 <= station < n:
                raise QueryError(f"unknown station: {station}")
    vectorized = kernels.vectorized_available()

    def one_to_many(source, targets, t):
        return _one_to_many(index, source, targets, t, vectorized)

    return [answer_batch(request, one_to_many, n) for request in requests]


def answer_batch(
    request: BatchQuery,
    one_to_many: Callable[[int, Iterable[int], int], Dict[int, Optional[int]]],
    n: int,
) -> BatchResult:
    """Answer one validated request from earliest-arrival rows.

    ``one_to_many(source, targets, t)`` maps each target to its
    earliest arrival (``None`` where unreachable); ``n`` is the station
    count an isochrone sweeps.  :func:`batch_plan` answers rows from one
    index, the federation router by fanning out per region.
    """
    if request.kind == "one_to_many":
        return one_to_many(request.sources[0], request.targets, request.t)
    if request.kind == "matrix":
        matrix: Dict[Tuple[int, int], Optional[int]] = {}
        for source in request.sources:
            row = one_to_many(source, request.targets, request.t)
            for target, arr in row.items():
                matrix[(source, target)] = arr
        return matrix
    # isochrone
    source, t, budget = request.sources[0], request.t, request.budget
    arrivals = one_to_many(source, range(n), t)
    reachable = [
        (arr, station)
        for station, arr in arrivals.items()
        if arr is not None and arr - t <= budget
    ]
    reachable.sort()
    return [station for _, station in reachable]


def _one_to_many(
    index: TTLIndex,
    source: int,
    targets: Iterable[int],
    t: int,
    vectorized: bool,
) -> Dict[int, Optional[int]]:
    targets = list(targets)
    if vectorized and kernels.use_for_one_to_all(index, len(targets)):
        return kernels.one_to_many_values(index, source, targets, t)
    out_list = index.out_label_groups(source)
    result: Dict[int, Optional[int]] = {}
    for target in targets:
        if target == source:
            result[target] = t
            continue
        sketch = best_eap_sketch_from_lists(
            out_list, index.in_label_groups(target), source, target, t
        )
        result[target] = sketch.arr if sketch is not None else None
    return result


# ----------------------------------------------------------------------
# Legacy entry points (delegating, deprecated)
# ----------------------------------------------------------------------


def _deprecated(name: str) -> None:
    warnings.warn(
        f"repro.core.batch.{name} is deprecated; use batch_plan with "
        f"repro.query.BatchQuery instead",
        DeprecationWarning,
        stacklevel=3,
    )


def one_to_many_eat(
    index: TTLIndex, source: int, targets: Iterable[int], t: int
) -> Dict[int, Optional[int]]:
    """Deprecated: earliest arrivals from ``source`` to each target;
    ``None`` where unreachable.  Use :func:`batch_plan`."""
    _deprecated("one_to_many_eat")
    [result] = batch_plan(
        index,
        [
            BatchQuery(
                kind="one_to_many",
                sources=(source,),
                targets=tuple(targets),
                t=t,
            )
        ],
    )
    return result


def eat_matrix(
    index: TTLIndex,
    sources: Iterable[int],
    targets: Iterable[int],
    t: int,
) -> Dict[Tuple[int, int], Optional[int]]:
    """Deprecated: earliest-arrival matrix between station sets.  Use
    :func:`batch_plan`."""
    _deprecated("eat_matrix")
    [result] = batch_plan(
        index,
        [
            BatchQuery(
                kind="matrix",
                sources=tuple(sources),
                targets=tuple(targets),
                t=t,
            )
        ],
    )
    return result


def isochrone(
    index: TTLIndex, source: int, t: int, budget: int
) -> List[int]:
    """Deprecated: stations reachable within ``budget`` seconds of
    departing no sooner than ``t``, sorted by arrival time.  Use
    :func:`batch_plan`."""
    _deprecated("isochrone")
    [result] = batch_plan(
        index,
        [
            BatchQuery(
                kind="isochrone", sources=(source,), t=t, budget=budget
            )
        ],
    )
    return result
