"""Memory-budget regression tests for the sealed index.

The sealed :class:`~repro.core.store.LabelStore` keeps the medium
synthetic network (Berlin, ~45k labels) at ~36 bytes of retained
memory per label: the typed columns (32 B/label) plus one small
:class:`~repro.core.store.GroupView` per group.  Views that decode
their group into Python lists needed ~119 bytes per label, and the
legacy layout — list-backed groups plus the two tuple-keyed PathUnfold
lookup dicts — ~360, so the ceiling below (double the current
footprint) fails loudly if decoded columns, a per-label dict or
equivalent duplication ever creep back in.
"""

import gc
import tracemalloc

import pytest

from repro.datasets import load_dataset

#: Retained bytes per label allowed for a sealed index (2x headroom
#: over the measured ~36 B/label; list-decoding views were ~119 B/label).
BYTES_PER_LABEL_CEILING = 72

#: Fixed allowance for graph-independent structures.
FIXED_ALLOWANCE = 512 * 1024


@pytest.mark.slow
def test_sealed_index_stays_within_memory_budget():
    from repro.core.build import build_index

    graph = load_dataset("Berlin")
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        index = build_index(graph)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained = after - before
    budget = index.num_labels * BYTES_PER_LABEL_CEILING + FIXED_ALLOWANCE
    assert retained <= budget, (
        f"sealed index retains {retained / 1e6:.2f} MB for "
        f"{index.num_labels} labels "
        f"({retained / index.num_labels:.0f} B/label), over the "
        f"{budget / 1e6:.2f} MB budget — did decoded columns or a "
        f"per-label lookup structure come back?"
    )


#: Bytes a mapped index may retain across the query stream below.  The
#: views read the mapped columns in place, so answering queries should
#: retain ~nothing; a view that caches decoded columns retains MBs.
QUERY_RETENTION_CEILING = 256 * 1024


def _seeded_requests(graph, seed: int, count: int):
    from repro.datasets import QueryWorkload
    from repro.query import QueryRequest

    kinds = ("eap", "ldp", "sdp", "profile")
    return [
        QueryRequest(
            kinds[i % len(kinds)],
            query.source,
            query.destination,
            t=query.t_start,
            t_end=query.t_end,
        )
        for i, query in enumerate(
            QueryWorkload(graph, seed=seed).generate(count)
        )
    ]


@pytest.mark.slow
def test_mapped_queries_retain_no_decoded_labels(tmp_path):
    from repro.core.build import build_index
    from repro.core.queries import TTLPlanner
    from repro.core.serialize import load_index, save_index

    graph = load_dataset("Berlin")
    path = tmp_path / "berlin.ttl"
    save_index(build_index(graph), path)
    index = load_index(path, graph, mmap=True)
    assert index.mapped
    planner = TTLPlanner(graph, index=index)
    # A few queries of every kind first, so one-time state (imports,
    # the kernels' cached column views) is not counted.
    for request in _seeded_requests(graph, seed=1, count=8):
        planner.plan(request)
    requests = _seeded_requests(graph, seed=2015, count=2000)
    gc.collect()
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        for request in requests:
            planner.plan(request)
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    retained = after - before
    assert retained <= QUERY_RETENTION_CEILING, (
        f"answering {len(requests)} queries on a mapped index retained "
        f"{retained / 1e6:.2f} MB — is a view caching decoded columns?"
    )
