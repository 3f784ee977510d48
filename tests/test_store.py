"""Tests for the flat sealed label store."""

import pytest

from repro.core.build import build_index
from repro.core.label import LabelGroup
from repro.core.store import COLUMN_NAMES, NONE_SENTINEL, GroupView, LabelStore


def make_store():
    """Two nodes: node 0 has two groups, node 1 has none."""
    g1 = LabelGroup(hub=1, rank=0)
    g1.append(10, 20, 7, None)
    g1.append(15, 25, 8, 3)
    g2 = LabelGroup(hub=2, rank=1)
    g2.append(5, 9, None, None)
    return LabelStore.from_groups([[g1, g2], []])


class TestLabelStore:
    def test_offsets_and_counts(self):
        store = make_store()
        assert store.n == 2
        assert store.num_labels == 3
        assert store.num_groups == 2
        assert store.node_label_count(0) == 3
        assert store.node_label_count(1) == 0
        assert list(store.node_starts) == [0, 2, 2]
        assert list(store.group_starts) == [0, 2, 3]

    def test_none_encoded_as_sentinel(self):
        store = make_store()
        assert store.trips[2] == NONE_SENTINEL
        assert store.pivots[0] == NONE_SENTINEL

    def test_views_decode_back(self):
        store = make_store()
        first, second = store.views(0)
        assert (first.hub, first.rank) == (1, 0)
        assert list(first.deps) == [10, 15]
        assert list(first.arrs) == [20, 25]
        assert list(first.trips) == [7, 8]
        assert list(first.pivots) == [None, 3]
        assert (second.hub, len(second)) == (2, 1)
        assert second.trips[0] is None
        assert store.views(1) == []

    def test_nbytes_counts_all_columns(self):
        store = make_store()
        # 3 labels * 4 columns + 2 groups * 2 columns + offsets.
        expected = 8 * (3 * 4 + 2 * 2 + 3 + 3)
        assert store.nbytes() == expected

    def test_empty_store(self):
        store = LabelStore.from_groups([])
        assert store.num_labels == 0
        assert store.num_groups == 0


class TestGroupView:
    def test_label_records(self):
        store = make_store()
        view = store.views(0)[0]
        label = view.label(1)
        assert (label.hub, label.dep, label.arr) == (1, 15, 25)
        assert (label.trip, label.pivot) == (8, 3)
        assert [l.dep for l in view.labels()] == [10, 15]

    def test_deps_are_writable_in_place(self):
        store = make_store()
        view = store.views(0)[0]
        view.deps[0] = 11
        # deps is a writable slice of the heap column, so the mutation
        # lands in the store and every reader sees it (tests corrupt
        # groups this way).
        assert view.deps[0] == 11
        assert view.label(0).dep == 11
        assert store.deps[0] == 11

    def test_check_invariants_detects_violation(self):
        store = make_store()
        view = store.views(0)[0]
        view.check_invariants()
        view.arrs[1] = view.arrs[0]
        with pytest.raises(AssertionError, match="Pareto"):
            view.check_invariants()

    def test_matches_index_groups(self, route_graph):
        index = build_index(route_graph)
        for v in range(route_graph.n):
            for group in index.in_groups[v]:
                assert isinstance(group, GroupView)
                assert len(group.labels()) == len(group)


def _mapped(store):
    """A store over read-only copies of ``store``'s columns, built the
    way the TTLIDX03 loader builds one over a mapped file."""
    return LabelStore.frombuffer(
        store.n,
        {
            name: memoryview(getattr(store, name).tobytes()).cast("q")
            for name in COLUMN_NAMES
        },
    )


class TestViewsReadColumnsInPlace:
    def test_view_carries_no_per_label_state(self):
        assert set(GroupView.__slots__) == {
            "hub", "rank", "_store", "_lo", "_hi",
        }
        for store in (make_store(), _mapped(make_store())):
            view = store.views(0)[0]
            assert not hasattr(view, "__dict__")
            # deps/arrs are slices of the sealed columns, not copies.
            for column, name in ((view.deps, "deps"), (view.arrs, "arrs")):
                assert isinstance(column, memoryview)
                assert column.obj is memoryview(getattr(store, name)).obj
            assert view.deps is not view.deps  # nothing cached

    def test_entry_maps_sentinel_to_none_heap_and_mapped(self):
        for store in (make_store(), _mapped(make_store())):
            first, second = store.views(0)
            assert first.entry(0) == (10, 20, 7, None)
            assert first.entry(1) == (15, 25, 8, 3)
            assert first.entry(-1) == first.entry(1)
            assert second.entry(0) == (5, 9, None, None)
            assert first.label(0) == (1, 10, 20, 7, None)
            # Whole-group decoding maps the sentinel the same way.
            assert first.pivots == [None, 3]
            assert second.trips == [None]
            with pytest.raises(IndexError):
                first.entry(2)
            with pytest.raises(IndexError):
                second.entry(-2)
