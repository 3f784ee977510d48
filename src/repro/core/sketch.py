"""SketchGen and refinement (Section 4.1, Algorithm 1).

Candidate generation merges ``L_out(u)`` and ``L_in(v)`` by hub rank in
a single linear pass.  Three kinds of path sketch arise:

* a *direct* out-label whose hub **is** ``v``;
* a *direct* in-label whose hub **is** ``u``;
* a *pair* of labels sharing a hub ``w`` with the in-label departing
  ``w`` no sooner than the out-label arrives there.

Within a shared hub the two Pareto-sorted pair lists are combined with
a two-pointer scan that emits only non-dominated combinations, so the
whole generation runs in ``O(|L_out(u)| + |L_in(v)|)`` and yields at
most that many sketches (Lemma 3).

Refinement is a fold over the generated sketches with the criterion of
the query type (earliest arrival / latest departure / shortest
duration); Lemma 5 justifies answering EAP and LDP with the window
opened to ``+inf`` / ``-inf``.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Iterator, List, NamedTuple, Optional, Tuple

from repro.core import kernels
from repro.core.index import TTLIndex
from repro.core.metrics import QueryMetrics
from repro.timeutil import INF, NEG_INF


class Segment(NamedTuple):
    """One canonical-path half of a sketch, with full label context."""

    src: int
    dst: int
    dep: int
    arr: int
    trip: Optional[int]
    pivot: Optional[int]


class Sketch(NamedTuple):
    """A candidate answer: departure/arrival plus 1-2 label segments."""

    dep: int
    arr: int
    first: Optional[Segment]
    second: Optional[Segment]

    @property
    def duration(self) -> int:
        return self.arr - self.dep


def generate_sketches(
    index: TTLIndex, u: int, v: int, t: int, t_end: int
) -> Iterator[Sketch]:
    """Yield the non-dominated path sketches for a query window.

    Implements Algorithm 1 as a merge of the hub-grouped label sets.
    """
    return generate_sketches_from_lists(
        index.out_label_groups(u), index.in_label_groups(v), u, v, t, t_end
    )


def generate_sketches_from_lists(
    out_list: List, in_list: List, u: int, v: int, t: int, t_end: int
) -> Iterator[Sketch]:
    """Sketch generation over explicit group lists.

    The compressed index (Appendix B) materializes its label groups on
    the fly and feeds them through this same merge, and the selector
    fast paths below reuse the identical :func:`_merge_groups` walk —
    one implementation of the Algorithm 1 hub merge serves all of them.
    """
    for kind, ga, gb in _merge_groups(out_list, in_list, u, v):
        if kind == "out":
            yield from _direct_sketches(ga, u, v, t, t_end, first=True)
        elif kind == "in":
            yield from _direct_sketches(ga, u, v, t, t_end, first=False)
        else:
            # Shared hub: combine the two Pareto frontiers.
            yield from _pair_sketches(ga, gb, u, v, t, t_end)


def _direct_sketches(
    group, u: int, v: int, t: int, t_end: int, first: bool
) -> Iterator[Sketch]:
    """Sketches from labels that directly span ``u -> v``."""
    deps = group.deps
    arrs = group.arrs
    for k in range(bisect_left(deps, t), len(deps)):
        arr = arrs[k]
        if arr > t_end:
            break  # Pareto order: later labels arrive even later.
        seg = Segment(u, v, *group.entry(k))
        if first:
            yield Sketch(deps[k], arr, seg, None)
        else:
            yield Sketch(deps[k], arr, None, seg)


def _pair_sketches(
    ga, gb, u: int, v: int, t: int, t_end: int
) -> Iterator[Sketch]:
    """Non-dominated combinations of out-labels ``u -> w`` with
    in-labels ``w -> v`` (two-pointer scan over Pareto frontiers)."""
    out_deps, out_arrs = ga.deps, ga.arrs
    in_deps, in_arrs = gb.deps, gb.arrs
    len_in = len(in_deps)
    j = 0
    pending: Optional[Tuple[int, int, int, int]] = None  # (dep, arr, k, j)
    for k in range(bisect_left(out_deps, t), len(out_deps)):
        mid = out_arrs[k]
        if mid > t_end:
            break
        while j < len_in and in_deps[j] < mid:
            j += 1
        if j == len_in:
            break
        arr = in_arrs[j]
        if arr > t_end:
            break  # in_arrs only grows as j advances.
        dep = out_deps[k]
        if pending is not None:
            if pending[1] == arr:
                # Same final arrival, later departure dominates.
                pending = (dep, arr, k, j)
                continue
            yield _make_pair_sketch(ga, gb, u, v, pending)
        pending = (dep, arr, k, j)
    if pending is not None:
        yield _make_pair_sketch(ga, gb, u, v, pending)


def _make_pair_sketch(ga, gb, u: int, v: int, pending) -> Sketch:
    dep, arr, k, j = pending
    first = Segment(u, ga.hub, *ga.entry(k))
    second = Segment(gb.hub, v, *gb.entry(j))
    return Sketch(dep, arr, first, second)


# ----------------------------------------------------------------------
# Refinement (Section 4.1 + Lemma 5)
#
# The selectors below are allocation-free fast paths over the same
# label order SketchGen exploits.  For EAP and LDP only one candidate
# per hub can win (the in-group arrival is monotone in the hub arrival
# time), so a pair of bisections per hub suffices; SDP genuinely needs
# the windowed two-pointer merge, performed here on bare int lists.
# Tests cross-check every selector against a fold over
# :func:`generate_sketches`.
# ----------------------------------------------------------------------


def _merge_groups(out_list: List, in_list: List, u: int, v: int):
    """Yield ``("out", ga)``, ``("in", gb)`` direct groups and
    ``("pair", ga, gb)`` shared-hub pairs in rank order."""
    i = j = 0
    len_out, len_in = len(out_list), len(in_list)
    while i < len_out or j < len_in:
        ga = out_list[i] if i < len_out else None
        gb = in_list[j] if j < len_in else None
        if ga is not None and ga.hub == v:
            yield ("out", ga, None)
            i += 1
            continue
        if gb is not None and gb.hub == u:
            yield ("in", gb, None)
            j += 1
            continue
        if gb is None or (ga is not None and ga.rank < gb.rank):
            i += 1
            continue
        if ga is None or gb.rank < ga.rank:
            j += 1
            continue
        yield ("pair", ga, gb)
        i += 1
        j += 1


def _segment(group, k: int, src: int, dst: int) -> Segment:
    return Segment(src, dst, *group.entry(k))


def _count_scan(
    metrics: Optional[QueryMetrics],
    out_list: List,
    in_list: List,
    candidates: int,
) -> None:
    """Fold one selection pass into the planner's counters."""
    if metrics is None:
        return
    metrics.labels_scanned += sum(len(g) for g in out_list) + sum(
        len(g) for g in in_list
    )
    metrics.sketches_generated += candidates


def best_eap_sketch_from_lists(
    out_list: List,
    in_list: List,
    u: int,
    v: int,
    t: int,
    metrics: Optional[QueryMetrics] = None,
) -> Optional[Sketch]:
    """Earliest-arrival candidate (two bisections per hub)."""
    best_arr = INF
    best = None  # (kind, ga, gb, k, j)
    candidates = 0
    for kind, ga, gb in _merge_groups(out_list, in_list, u, v):
        if kind == "pair":
            deps1 = ga.deps
            k = bisect_left(deps1, t)
            if k == len(deps1):
                continue
            mid = ga.arrs[k]
            deps2 = gb.deps
            j = bisect_left(deps2, mid)
            if j == len(deps2):
                continue
            arr = gb.arrs[j]
            candidates += 1
            if arr < best_arr:
                best_arr = arr
                best = (kind, ga, gb, k, j)
        else:
            group = ga
            deps = group.deps
            k = bisect_left(deps, t)
            if k == len(deps):
                continue
            arr = group.arrs[k]
            candidates += 1
            if arr < best_arr:
                best_arr = arr
                best = (kind, ga, gb, k, 0)
    _count_scan(metrics, out_list, in_list, candidates)
    return _selected_sketch(best, u, v)


def best_ldp_sketch_from_lists(
    out_list: List,
    in_list: List,
    u: int,
    v: int,
    t_end: int,
    metrics: Optional[QueryMetrics] = None,
) -> Optional[Sketch]:
    """Latest-departure candidate (two bisections per hub)."""
    best_dep = NEG_INF
    best = None
    candidates = 0
    for kind, ga, gb in _merge_groups(out_list, in_list, u, v):
        if kind == "pair":
            arrs2 = gb.arrs
            j = bisect_right(arrs2, t_end) - 1
            if j < 0:
                continue
            mid = gb.deps[j]
            arrs1 = ga.arrs
            k = bisect_right(arrs1, mid) - 1
            if k < 0:
                continue
            dep = ga.deps[k]
            candidates += 1
            if dep > best_dep:
                best_dep = dep
                best = (kind, ga, gb, k, j)
        else:
            group = ga
            arrs = group.arrs
            k = bisect_right(arrs, t_end) - 1
            if k < 0:
                continue
            dep = group.deps[k]
            candidates += 1
            if dep > best_dep:
                best_dep = dep
                best = (kind, ga, gb, k, 0)
    _count_scan(metrics, out_list, in_list, candidates)
    return _selected_sketch(best, u, v)


def best_sdp_sketch_from_lists(
    out_list: List,
    in_list: List,
    u: int,
    v: int,
    t: int,
    t_end: int,
    metrics: Optional[QueryMetrics] = None,
) -> Optional[Sketch]:
    """Minimum-duration candidate (windowed two-pointer merge)."""
    best_duration = INF
    best = None
    candidates = 0
    for kind, ga, gb in _merge_groups(out_list, in_list, u, v):
        if kind == "pair":
            deps1, arrs1 = ga.deps, ga.arrs
            deps2, arrs2 = gb.deps, gb.arrs
            len_in = len(deps2)
            j = 0
            for k in range(bisect_left(deps1, t), len(deps1)):
                mid = arrs1[k]
                if mid > t_end:
                    break
                while j < len_in and deps2[j] < mid:
                    j += 1
                if j == len_in:
                    break
                arr = arrs2[j]
                if arr > t_end:
                    break
                candidates += 1
                duration = arr - deps1[k]
                if duration < best_duration:
                    best_duration = duration
                    best = (kind, ga, gb, k, j)
        else:
            group = ga
            deps, arrs = group.deps, group.arrs
            for k in range(bisect_left(deps, t), len(deps)):
                arr = arrs[k]
                if arr > t_end:
                    break
                candidates += 1
                duration = arr - deps[k]
                if duration < best_duration:
                    best_duration = duration
                    best = (kind, ga, gb, k, 0)
    _count_scan(metrics, out_list, in_list, candidates)
    return _selected_sketch(best, u, v)


def _selected_sketch(best, u: int, v: int) -> Optional[Sketch]:
    if best is None:
        return None
    kind, ga, gb, k, j = best
    if kind == "out":
        seg = _segment(ga, k, u, v)
        return Sketch(seg.dep, seg.arr, seg, None)
    if kind == "in":
        seg = _segment(ga, k, u, v)
        return Sketch(seg.dep, seg.arr, None, seg)
    first = _segment(ga, k, u, ga.hub)
    second = _segment(gb, j, gb.hub, v)
    return Sketch(first.dep, second.arr, first, second)


def best_eap_sketch(
    index: TTLIndex,
    u: int,
    v: int,
    t: int,
    metrics: Optional[QueryMetrics] = None,
) -> Optional[Sketch]:
    """The sketch with the earliest arrival departing no sooner than
    ``t``.

    Dispatches to the vectorized kernel over the sealed columns when
    numpy is available and the label sets are large enough to beat the
    scalar bisections (``REPRO_SCALAR_KERNELS=1`` forces scalar; the
    two produce byte-identical sketches).
    """
    if kernels.use_for_point(index, u, v):
        return kernels.eap_sketch(index, u, v, t, metrics=metrics)
    return best_eap_sketch_from_lists(
        index.out_label_groups(u),
        index.in_label_groups(v),
        u,
        v,
        t,
        metrics=metrics,
    )


def best_ldp_sketch(
    index: TTLIndex,
    u: int,
    v: int,
    t_end: int,
    metrics: Optional[QueryMetrics] = None,
) -> Optional[Sketch]:
    """The sketch with the latest departure arriving no later than
    ``t_end`` (vectorized when worthwhile, like :func:`best_eap_sketch`)."""
    if kernels.use_for_point(index, u, v):
        return kernels.ldp_sketch(index, u, v, t_end, metrics=metrics)
    return best_ldp_sketch_from_lists(
        index.out_label_groups(u),
        index.in_label_groups(v),
        u,
        v,
        t_end,
        metrics=metrics,
    )


def best_sdp_sketch(
    index: TTLIndex,
    u: int,
    v: int,
    t: int,
    t_end: int,
    metrics: Optional[QueryMetrics] = None,
) -> Optional[Sketch]:
    """The minimum-duration sketch inside ``[t, t_end]`` (vectorized
    when worthwhile, like :func:`best_eap_sketch`)."""
    if kernels.use_for_point(index, u, v):
        return kernels.sdp_sketch(index, u, v, t, t_end, metrics=metrics)
    return best_sdp_sketch_from_lists(
        index.out_label_groups(u),
        index.in_label_groups(v),
        u,
        v,
        t,
        t_end,
        metrics=metrics,
    )
