"""The flat sealed label store.

A sealed :class:`~repro.core.index.TTLIndex` keeps every label column
(``dep``, ``arr``, ``trip``, ``pivot``) in one contiguous
``array('q')`` per direction — the layout Delling et al.'s *Public
Transit Labeling* uses to make label queries a few bisections over
cache-friendly memory.  Group and node boundaries are offset arrays,
so per-node label counts and group slices are O(1).

Query code never touches the columns directly: it goes through
:class:`GroupView`, a façade over one group's slice that exposes
exactly the :class:`~repro.core.label.LabelGroup` surface
(``hub``/``rank``/``deps``/``arrs``/``trips``/``pivots``/``entry``/
``label``/``labels``/``check_invariants``).  SketchGen, refinement,
PathUnfold, profile queries, and the compressed index all consume
groups through this one accessor layer, so the storage layout can
evolve without touching the algorithms.

A view decodes nothing: ``deps``/``arrs`` are ``memoryview`` slices
of the sealed columns, which ``bisect`` and the selector loops index
in place, and a label's trip and pivot are read by position through
``entry(i)``.  Views hold no per-label state, so heap and mapped
stores share one view class, and N worker processes mapping one index
file keep sharing its physical pages however many queries they
answer.  ``trip`` and ``pivot`` are optional in a label; the store
encodes ``None`` as ``-1`` and ``entry`` maps it back, so consumers
still see ``None`` for transfer paths.
"""

from __future__ import annotations

from array import array
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.core.label import Label, LabelEntry, LabelGroup

#: Sentinel for a ``None`` trip/pivot in the typed columns.
NONE_SENTINEL = -1

#: The eight flat columns of one direction, in canonical order — the
#: order the TTLIDX03 on-disk column directory uses.
COLUMN_NAMES = (
    "deps",
    "arrs",
    "trips",
    "pivots",
    "hubs",
    "group_ranks",
    "group_starts",
    "node_starts",
)


def _encode(value: Optional[int]) -> int:
    return NONE_SENTINEL if value is None else value


def _decode(raw: Iterable[int]) -> List[Optional[int]]:
    return [None if value < 0 else value for value in raw]


# ----------------------------------------------------------------------
# Flat wire format for label-group tables
#
# The build farm ships label state between processes.  Pickling the
# per-node ``Dict[int, LabelGroup]`` tables would serialize millions of
# small Python objects; instead a table is flattened into seven typed
# ``array('q')`` columns (which pickle as raw bytes) and rebuilt on the
# other side.  The layout mirrors :class:`LabelStore`: one row per
# group in the ``nodes``/``hubs`` columns, label payloads contiguous in
# ``deps``/``arrs``/``trips``/``pivots`` with ``group_starts`` offsets.
# ----------------------------------------------------------------------

#: (nodes, hubs, group_starts, deps, arrs, trips, pivots)
GroupTableBlob = Tuple[array, array, array, array, array, array, array]


def encode_group_entries(
    entries: Iterable[Tuple[int, LabelGroup]]
) -> GroupTableBlob:
    """Flatten ``(node, group)`` pairs into typed columns.

    Accepts any group-like objects (``LabelGroup`` or ``GroupView``).
    Order is preserved exactly — decoding yields the same sequence.
    """
    nodes = array("q")
    hubs = array("q")
    group_starts = array("q", [0])
    deps = array("q")
    arrs = array("q")
    trips = array("q")
    pivots = array("q")
    for node, group in entries:
        nodes.append(node)
        hubs.append(group.hub)
        deps.extend(group.deps)
        arrs.extend(group.arrs)
        trips.extend(_encode(t) for t in group.trips)
        pivots.extend(_encode(p) for p in group.pivots)
        group_starts.append(len(deps))
    return (nodes, hubs, group_starts, deps, arrs, trips, pivots)


def decode_group_entries(
    blob: GroupTableBlob, ranks: Sequence[int]
) -> List[Tuple[int, LabelGroup]]:
    """Rebuild the ``(node, LabelGroup)`` sequence from flat columns.

    ``ranks`` supplies each hub's rank (not carried on the wire).
    """
    nodes, hubs, group_starts, deps, arrs, trips, pivots = blob
    entries: List[Tuple[int, LabelGroup]] = []
    for g in range(len(nodes)):
        lo = group_starts[g]
        hi = group_starts[g + 1]
        group = LabelGroup(
            hubs[g],
            ranks[hubs[g]],
            deps=list(deps[lo:hi]),
            arrs=list(arrs[lo:hi]),
            trips=_decode(trips[lo:hi]),
            pivots=_decode(pivots[lo:hi]),
        )
        entries.append((nodes[g], group))
    return entries


def blob_num_labels(blob: GroupTableBlob) -> int:
    """Number of labels carried by one wire blob — O(1)."""
    return len(blob[3])


class GroupView:
    """One label group: a ``[lo, hi)`` slice of a :class:`LabelStore`.

    Duck-typed like :class:`~repro.core.label.LabelGroup`, one class for
    heap and mapped stores alike.  The view holds only ``hub``,
    ``rank``, its store and its extent — no per-label state:

    * ``deps`` / ``arrs`` are ``memoryview`` slices of the sealed
      columns, so ``bisect`` and indexing read the column in place;
    * :meth:`entry` reads one label's ``(dep, arr, trip, pivot)`` by
      position, mapping the ``-1`` sentinel back to ``None``;
    * ``trips`` / ``pivots`` decode the whole group into fresh lists on
      every access — for whole-group consumers (serialization,
      compression); per-label readers use :meth:`entry`.
    """

    __slots__ = ("hub", "rank", "_store", "_lo", "_hi")

    def __init__(self, store: "LabelStore", g: int) -> None:
        self.hub = store.hubs[g]
        self.rank = store.group_ranks[g]
        self._store = store
        self._lo = store.group_starts[g]
        self._hi = store.group_starts[g + 1]

    @property
    def deps(self) -> memoryview:
        return self._store.deps_mv[self._lo:self._hi]

    @property
    def arrs(self) -> memoryview:
        return self._store.arrs_mv[self._lo:self._hi]

    @property
    def trips(self) -> List[Optional[int]]:
        return _decode(self._store.trips_mv[self._lo:self._hi])

    @property
    def pivots(self) -> List[Optional[int]]:
        return _decode(self._store.pivots_mv[self._lo:self._hi])

    def entry(self, i: int) -> LabelEntry:
        """The ``i``-th label as ``(dep, arr, trip, pivot)``."""
        size = self._hi - self._lo
        if i < 0:
            i += size
        if not 0 <= i < size:
            raise IndexError("label index out of range")
        store = self._store
        p = self._lo + i
        trip = store.trips_mv[p]
        pivot = store.pivots_mv[p]
        return (
            store.deps_mv[p],
            store.arrs_mv[p],
            None if trip < 0 else trip,
            None if pivot < 0 else pivot,
        )

    def label(self, i: int) -> Label:
        """The ``i``-th label as a :class:`Label` record."""
        return Label(self.hub, *self.entry(i))

    def labels(self) -> List[Label]:
        """All labels of the group in order."""
        return [self.label(i) for i in range(len(self))]

    def check_invariants(self) -> None:
        """Assert the Pareto / ordering invariants (used by tests)."""
        deps = self.deps
        arrs = self.arrs
        for i in range(len(deps) - 1):
            if not (deps[i] < deps[i + 1] and arrs[i] < arrs[i + 1]):
                raise AssertionError(
                    f"group for hub {self.hub} is not a strict Pareto "
                    f"frontier at position {i}: "
                    f"({deps[i]},{arrs[i]}) then "
                    f"({deps[i + 1]},{arrs[i + 1]})"
                )

    def __len__(self) -> int:
        return self._hi - self._lo

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"GroupView(hub={self.hub}, size={len(self)})"


class LabelStore:
    """Flat typed columns for one direction (in or out) of an index.

    Layout (all ``array('q')``):

    * ``deps`` / ``arrs`` / ``trips`` / ``pivots`` — one entry per
      label, groups contiguous, nodes contiguous;
    * ``hubs`` / ``group_ranks`` — one entry per group;
    * ``group_starts`` — label offset of each group (length
      ``num_groups + 1``);
    * ``node_starts`` — group offset of each node (length ``n + 1``).
    """

    __slots__ = (
        "n",
        "mapped",
        "deps",
        "arrs",
        "trips",
        "pivots",
        "hubs",
        "group_ranks",
        "group_starts",
        "node_starts",
        "deps_mv",
        "arrs_mv",
        "trips_mv",
        "pivots_mv",
        "_ndarrays",
    )

    def __init__(self, n: int) -> None:
        self.n = n
        self.mapped = False
        self.deps = array("q")
        self.arrs = array("q")
        self.trips = array("q")
        self.pivots = array("q")
        self.hubs = array("q")
        self.group_ranks = array("q")
        self.group_starts = array("q", [0])
        self.node_starts = array("q", [0])

    @classmethod
    def from_groups(
        cls, groups_per_node: Sequence[Iterable]
    ) -> "LabelStore":
        """Seal per-node group lists (already sorted by hub rank) into
        flat columns.  Accepts any group-like objects exposing
        ``hub``/``rank``/``deps``/``arrs``/``trips``/``pivots``."""
        store = cls(len(groups_per_node))
        deps, arrs = store.deps, store.arrs
        trips, pivots = store.trips, store.pivots
        for groups in groups_per_node:
            for group in groups:
                store.hubs.append(group.hub)
                store.group_ranks.append(group.rank)
                deps.extend(group.deps)
                arrs.extend(group.arrs)
                trips.extend(_encode(t) for t in group.trips)
                pivots.extend(_encode(p) for p in group.pivots)
                store.group_starts.append(len(deps))
            store.node_starts.append(len(store.hubs))
        store._freeze_views()
        return store

    @classmethod
    def frombuffer(cls, n: int, columns: dict) -> "LabelStore":
        """Zero-copy store over externally owned int64 buffers.

        ``columns`` maps every name in :data:`COLUMN_NAMES` to a
        ``memoryview`` already cast to format ``'q'`` (typically slices
        of one read-only ``mmap`` of a TTLIDX03 index file).  Nothing
        is copied: the store's columns *are* the supplied buffers, so N
        processes mapping the same file share one physical copy of the
        label data through the page cache.  The buffers keep their
        exporter (the mmap) alive for the store's lifetime.

        The caller is responsible for structural validation — see
        :meth:`check_columns`.
        """
        store = cls.__new__(cls)
        store.n = n
        store.mapped = True
        for name in COLUMN_NAMES:
            setattr(store, name, columns[name])
        store._freeze_views()
        return store

    def check_columns(self) -> None:
        """Validate the structural invariants of the flat columns.

        Cheap — O(groups + nodes), no per-label work — and raises
        ``ValueError`` with a precise message on the first defect.
        Used by the TTLIDX03 loader after the per-column digests have
        already established byte integrity.
        """
        num_labels = len(self.deps)
        for name in ("arrs", "trips", "pivots"):
            if len(getattr(self, name)) != num_labels:
                raise ValueError(
                    f"column {name!r} has {len(getattr(self, name))} "
                    f"entries, expected {num_labels}"
                )
        num_groups = len(self.hubs)
        if len(self.group_ranks) != num_groups:
            raise ValueError(
                f"column 'group_ranks' has {len(self.group_ranks)} "
                f"entries, expected {num_groups}"
            )
        if len(self.group_starts) != num_groups + 1:
            raise ValueError(
                f"column 'group_starts' has {len(self.group_starts)} "
                f"entries, expected {num_groups + 1}"
            )
        if len(self.node_starts) != self.n + 1:
            raise ValueError(
                f"column 'node_starts' has {len(self.node_starts)} "
                f"entries, expected {self.n + 1}"
            )
        for name, limit in (
            ("group_starts", num_labels),
            ("node_starts", num_groups),
        ):
            offsets = getattr(self, name)
            if offsets[0] != 0 or offsets[len(offsets) - 1] != limit:
                raise ValueError(
                    f"column {name!r} does not span 0..{limit}"
                )
            previous = 0
            for offset in offsets:
                if offset < previous:
                    raise ValueError(
                        f"column {name!r} is not monotone at offset "
                        f"{offset} (previous {previous})"
                    )
                previous = offset
        for g in range(num_groups):
            if not 0 <= self.hubs[g] < self.n:
                raise ValueError(
                    f"group {g} hub {self.hubs[g]} outside 0..{self.n - 1}"
                )

    def _freeze_views(self) -> None:
        self.deps_mv = memoryview(self.deps)
        self.arrs_mv = memoryview(self.arrs)
        self.trips_mv = memoryview(self.trips)
        self.pivots_mv = memoryview(self.pivots)
        self._ndarrays = None

    def ndarray_columns(self) -> dict:
        """Zero-copy ``numpy.int64`` views over every flat column.

        The contract (relied on by :mod:`repro.core.kernels` and
        documented in ``docs/label_store.md``): each entry of the
        returned dict is a 1-D ``int64`` ndarray that **shares memory**
        with the sealed column — ``np.frombuffer`` over the heap
        ``array('q')`` columns, ``np.asarray`` over the ``'q'``-cast
        memoryviews of a mapped (TTLIDX03) store.  Nothing is copied,
        so N worker processes mapping one index file still share one
        physical copy of the label data; the arrays are read-only in
        spirit (the store is sealed) and cached after the first call.

        Raises ``ImportError`` when numpy is unavailable — callers
        gate on :func:`repro.core.kernels.vectorized_available`.
        """
        cached = self._ndarrays
        if cached is None:
            import numpy as np

            cached = {
                name: np.frombuffer(getattr(self, name), dtype=np.int64)
                if not self.mapped
                else np.asarray(getattr(self, name), dtype=np.int64)
                for name in COLUMN_NAMES
            }
            self._ndarrays = cached
        return cached

    # ------------------------------------------------------------------
    # Extents
    # ------------------------------------------------------------------

    def node_group_extent(self, node: int) -> Tuple[int, int]:
        """Half-open group-index range ``[g0, g1)`` of ``node``."""
        return self.node_starts[node], self.node_starts[node + 1]

    def node_label_extent(self, node: int) -> Tuple[int, int]:
        """Half-open label-index range ``[lo, hi)`` of ``node``."""
        g0, g1 = self.node_group_extent(node)
        return self.group_starts[g0], self.group_starts[g1]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------

    def views(self, node: int) -> List[GroupView]:
        """Group views of ``node`` in hub-rank order."""
        return [
            GroupView(self, g)
            for g in range(self.node_starts[node], self.node_starts[node + 1])
        ]

    def node_label_count(self, node: int) -> int:
        """Number of labels of ``node`` — O(1) from the offsets."""
        return (
            self.group_starts[self.node_starts[node + 1]]
            - self.group_starts[self.node_starts[node]]
        )

    @property
    def num_labels(self) -> int:
        return len(self.deps)

    @property
    def num_groups(self) -> int:
        return len(self.hubs)

    def nbytes(self) -> int:
        """Bytes held by the typed columns (excludes view objects)."""
        return sum(
            column.itemsize * len(column)
            for column in (
                self.deps,
                self.arrs,
                self.trips,
                self.pivots,
                self.hubs,
                self.group_ranks,
                self.group_starts,
                self.node_starts,
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LabelStore(n={self.n}, groups={self.num_groups}, "
            f"labels={self.num_labels})"
        )
