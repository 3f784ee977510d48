"""Tests for the sealed TTL index structure."""

import pytest

from repro.core.build import build_index
from repro.core.index import TTLIndex
from repro.core.label import LabelGroup
from repro.errors import IndexBuildError


class TestLookups:
    def test_every_label_resolvable_by_dep_and_arr(self, route_graph):
        index = build_index(route_graph)
        for v in range(route_graph.n):
            for label in index.in_labels(v):
                entry = index.lookup_by_dep(label.hub, v, label.dep)
                assert entry == (label.dep, label.arr, label.trip, label.pivot)
                entry = index.lookup_by_arr(label.hub, v, label.arr)
                assert entry == (label.dep, label.arr, label.trip, label.pivot)
            for label in index.out_labels(v):
                entry = index.lookup_by_dep(v, label.hub, label.dep)
                assert entry == (label.dep, label.arr, label.trip, label.pivot)

    def test_missing_lookup_returns_none(self, route_graph):
        index = build_index(route_graph)
        assert index.lookup_by_dep(0, 1, -12345) is None
        assert index.lookup_by_arr(0, 1, -12345) is None


class TestStats:
    def test_stats_consistency(self, route_graph):
        index = build_index(route_graph)
        stats = index.stats()
        assert stats.num_labels == index.num_labels
        assert stats.num_in_labels + stats.num_out_labels == stats.num_labels
        assert stats.max_labels_per_node >= 0
        assert stats.avg_labels_per_node == pytest.approx(
            stats.num_labels / route_graph.n
        )

    def test_counts_from_offsets_match_the_views(self, route_graph):
        index = build_index(route_graph)
        per_node = [
            len(index.in_labels(v)) + len(index.out_labels(v))
            for v in range(route_graph.n)
        ]
        stats = index.stats()
        assert index.num_labels == sum(per_node) > 0
        assert stats.max_labels_per_node == max(per_node)
        assert stats.num_in_labels == sum(
            len(index.in_labels(v)) for v in range(route_graph.n)
        )

    def test_flat_label_lists_in_rank_order(self, route_graph):
        index = build_index(route_graph)
        for v in range(route_graph.n):
            labels = index.in_labels(v)
            ranks = [index.ranks[label.hub] for label in labels]
            assert ranks == sorted(ranks)


class TestValidation:
    def test_rank_size_mismatch_rejected(self, route_graph):
        with pytest.raises(IndexBuildError):
            TTLIndex(route_graph, [0], [dict()], [dict()])

    def test_duplicate_ranks_rejected(self, route_graph):
        n = route_graph.n
        ranks = list(range(n))
        ranks[1] = ranks[0]  # two nodes share rank 0
        empty = [dict() for _ in range(n)]
        with pytest.raises(IndexBuildError, match="duplicate rank"):
            TTLIndex(route_graph, ranks, empty, [dict() for _ in range(n)])

    def test_out_of_range_rank_rejected(self, route_graph):
        n = route_graph.n
        ranks = list(range(n))
        ranks[0] = n  # outside 0..n-1
        empty = [dict() for _ in range(n)]
        with pytest.raises(IndexBuildError, match="outside"):
            TTLIndex(route_graph, ranks, empty, [dict() for _ in range(n)])

    def test_check_invariants_detects_bad_group_order(self, route_graph):
        index = build_index(route_graph)
        # Corrupt: append an out-of-order group to some node with
        # at least one group.
        for v in range(route_graph.n):
            if index.in_groups[v]:
                bogus = LabelGroup(hub=index.in_groups[v][0].hub, rank=-1)
                index.in_groups[v].append(bogus)
                break
        else:
            pytest.skip("no labels in this index")
        with pytest.raises(AssertionError):
            index.check_invariants()

    def test_check_invariants_detects_broken_pareto(self, route_graph):
        index = build_index(route_graph)
        for v in range(route_graph.n):
            for group in index.in_groups[v]:
                if len(group) >= 2:
                    # Duplicate dep in place: breaks strict dep order.
                    group.deps[1] = group.deps[0]
                    with pytest.raises(AssertionError):
                        index.check_invariants()
                    return
        pytest.skip("no group with two labels in this index")


class TestNodeOfRank:
    def test_inverse_of_ranks(self, route_graph):
        index = build_index(route_graph)
        for node, rank in enumerate(index.ranks):
            assert index.node_of_rank[rank] == node
