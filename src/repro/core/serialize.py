"""Index persistence and size accounting.

Two size notions:

* :func:`index_bytes` — the *model* size used by the Figure 4
  experiment: 20 bytes per label (five 32-bit fields: hub, dep, arr,
  trip, pivot) plus small per-group and per-node overheads.  This is
  how the paper counts index size, and is what the space benchmarks
  report for every method so the comparison is apples-to-apples.
* :func:`save_index` / :func:`load_index` — an actual binary file
  format (64-bit fields, magic header) for persisting built indices.

File format ``TTLIDX03`` (current): a columnar layout whose label
columns are raw little-endian int64 blobs.  After the header (station
count, rank array, build-stats footer hoisted forward) comes a column
directory — ``(offset, item count, crc32)`` per column, sixteen
columns: the eight :data:`~repro.core.store.COLUMN_NAMES` for each
direction — and then the 8-byte-aligned blobs themselves.  Because the
blobs *are* the sealed :class:`~repro.core.store.LabelStore` columns,
loading can either copy them into heap arrays (``mmap=False``) or
``mmap`` the file read-only and wrap zero-copy ``memoryview`` slices
(``mmap=True``): no per-label Python object is ever built, and N
serving processes mapping the same file share one physical copy of the
index through the page cache.

Legacy formats still load: ``TTLIDX02`` (per-group records plus a
:class:`~repro.core.build.BuildStats` footer) and ``TTLIDX01`` (same
body, no stats).  ``save_index(..., version=2)`` keeps writing the old
format for compatibility tooling; only TTLIDX03 files can be
memory-mapped.

Loading validates what it reads — hub and pivot ids must be station
ids, the rank array must be a permutation of ``0..n-1``, counts must
be non-negative — and every defect raises
:class:`~repro.errors.SerializationError` with a clear message, never
a raw ``IndexError``/``struct.error``: a service must not crash (or,
worse, mis-answer) because an index file was corrupted in transit.
Saving is atomic (temp file + fsync + ``os.replace``), so a crash
mid-save can never leave a truncated index behind.
"""

from __future__ import annotations

import io
import mmap as mmap_module
import os
import struct
import sys
import zlib
from array import array
from contextlib import contextmanager
from pathlib import Path as FsPath
from typing import BinaryIO, Dict, Iterator, List, Optional, Union

from repro.core.build import BuildStats
from repro.core.index import TTLIndex
from repro.core.label import LabelGroup
from repro.core.store import COLUMN_NAMES, LabelStore
from repro.errors import SerializationError
from repro.graph.timetable import TimetableGraph

PathLike = Union[str, FsPath]

_MAGIC_V3 = b"TTLIDX03"
_MAGIC = b"TTLIDX02"
_LEGACY_MAGIC = b"TTLIDX01"

#: TTLIDX03 column-directory entry: byte offset, item count, crc32.
_DIR_ENTRY = "<3q"
#: Two directions x the eight store columns.
_NUM_COLUMNS = 2 * len(COLUMN_NAMES)

#: Stats footer: seconds, order_seconds as doubles; num_labels,
#: forward_pops, backward_pops, cover_pruned, dominance_pruned,
#: dijkstra_runs as signed 64-bit ints.
_STATS_FORMAT = "<2d6q"

#: Model cost per label: hub, dep, arr, trip, pivot as 32-bit ints.
BYTES_PER_LABEL = 20
#: Model cost per label group: hub id + length.
BYTES_PER_GROUP = 8
#: Model cost per node: two set pointers/lengths.
BYTES_PER_NODE = 16


def index_bytes(index: TTLIndex) -> int:
    """Model size of a TTL index in bytes (Figure 4 accounting)."""
    labels = index.num_labels
    groups = sum(len(g) for g in index.in_groups) + sum(
        len(g) for g in index.out_groups
    )
    return (
        labels * BYTES_PER_LABEL
        + groups * BYTES_PER_GROUP
        + index.graph.n * BYTES_PER_NODE
    )


def connections_bytes(num_connections: int) -> int:
    """Model size of one sorted connection array (CSA accounting):
    u, v, dep, arr, trip as 32-bit ints."""
    return num_connections * 20


# ----------------------------------------------------------------------
# Binary persistence
# ----------------------------------------------------------------------


@contextmanager
def atomic_write(path: PathLike) -> Iterator[BinaryIO]:
    """Write a file atomically: yield a handle onto a temp file in the
    target directory; on clean exit flush + fsync it, rename it over
    ``path`` with :func:`os.replace`, and fsync the directory entry.
    On failure the temp file is removed and ``path`` is untouched, so a
    crash mid-write leaves either the previous file or no file — never
    a truncated one.  Shared by :func:`save_index` and the build-farm
    checkpoint shards.
    """
    path = FsPath(path)
    tmp = path.with_name(f"{path.name}.tmp.{os.getpid()}")
    try:
        with open(tmp, "wb") as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    _fsync_directory(path.parent)


def write_group_record(fh: BinaryIO, group) -> None:
    """Write one label group in the TTLIDX02 group-record encoding
    (``<qq`` hub/size header, then ``<qqqq`` per label), the unit
    shared by full index files and checkpoint shards."""
    _write_group(fh, group)


def read_group_record(fh: BinaryIO, ranks: List[int], n: int) -> LabelGroup:
    """Read one TTLIDX02 group record, validating hub/pivot ids."""
    return _read_group(fh, ranks, n)


def read_exact(fh: BinaryIO, count: int) -> bytes:
    """Read exactly ``count`` bytes or raise ``SerializationError``."""
    return _read_exact(fh, count)


def _write_group(fh: BinaryIO, group) -> None:
    fh.write(struct.pack("<qq", group.hub, len(group)))
    for i in range(len(group)):
        dep, arr, trip, pivot = group.entry(i)
        fh.write(
            struct.pack(
                "<qqqq",
                dep,
                arr,
                -1 if trip is None else trip,
                -1 if pivot is None else pivot,
            )
        )


def _read_group(fh: BinaryIO, ranks: List[int], n: int) -> LabelGroup:
    hub, size = struct.unpack("<qq", _read_exact(fh, 16))
    if not 0 <= hub < n:
        raise SerializationError(
            f"corrupt index file: group hub {hub} outside 0..{n - 1}"
        )
    if size < 0:
        raise SerializationError(
            f"corrupt index file: negative group size {size}"
        )
    group = LabelGroup(hub, ranks[hub])
    for _ in range(size):
        dep, arr, trip, pivot = struct.unpack("<qqqq", _read_exact(fh, 32))
        if pivot >= n:
            raise SerializationError(
                f"corrupt index file: label pivot {pivot} outside "
                f"0..{n - 1}"
            )
        group.append(
            dep,
            arr,
            trip if trip >= 0 else None,
            pivot if pivot >= 0 else None,
        )
    return group


def _read_exact(fh: BinaryIO, count: int) -> bytes:
    data = fh.read(count)
    if len(data) != count:
        raise SerializationError("truncated index file")
    return data


def _write_stats(fh: BinaryIO, stats: Optional[BuildStats]) -> None:
    if stats is None:
        fh.write(struct.pack("<q", 0))
        return
    fh.write(struct.pack("<q", 1))
    fh.write(
        struct.pack(
            _STATS_FORMAT,
            stats.seconds,
            stats.order_seconds,
            stats.num_labels,
            stats.forward_pops,
            stats.backward_pops,
            stats.cover_pruned,
            stats.dominance_pruned,
            stats.dijkstra_runs,
        )
    )


def _read_stats(fh: BinaryIO) -> Optional[BuildStats]:
    (present,) = struct.unpack("<q", _read_exact(fh, 8))
    if present == 0:
        return None
    if present != 1:
        raise SerializationError(
            f"corrupt index file: bad stats flag {present}"
        )
    fields = struct.unpack(
        _STATS_FORMAT, _read_exact(fh, struct.calcsize(_STATS_FORMAT))
    )
    return BuildStats(
        seconds=fields[0],
        order_seconds=fields[1],
        num_labels=fields[2],
        forward_pops=fields[3],
        backward_pops=fields[4],
        cover_pruned=fields[5],
        dominance_pruned=fields[6],
        dijkstra_runs=fields[7],
    )


def save_index(index: TTLIndex, path: PathLike, version: int = 3) -> None:
    """Write ``index`` to ``path``; TTLIDX03 by default.

    ``version=3`` (default) writes the columnar mmap-capable format;
    ``version=2`` keeps writing the legacy TTLIDX02 group records for
    tooling that expects them.  Either way the write is *atomic*: the
    bytes go to a temporary file in the target directory, are flushed
    and fsynced, and only then renamed over ``path`` with
    :func:`os.replace`.  A crash mid-save therefore leaves either the
    previous index or no file — never a truncated file that a later
    service start would reject (or worse, half-load).  The temporary
    file is removed on failure.
    """
    if version == 3:
        _save_index_v3(index, path)
        return
    if version != 2:
        raise ValueError(f"unsupported index format version: {version}")
    with atomic_write(path) as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<q", index.graph.n))
        for rank in index.ranks:
            fh.write(struct.pack("<q", rank))
        for groups_per_node in (index.in_groups, index.out_groups):
            for groups in groups_per_node:
                fh.write(struct.pack("<q", len(groups)))
                for group in groups:
                    _write_group(fh, group)
        _write_stats(fh, index.build_stats)


# ----------------------------------------------------------------------
# TTLIDX03: columnar, digested, mmap-capable
# ----------------------------------------------------------------------


def _require_little_endian() -> None:
    if sys.byteorder != "little":  # pragma: no cover - exotic hosts
        raise SerializationError(
            "TTLIDX03 blobs are little-endian; this host is "
            f"{sys.byteorder}-endian",
            hint="use save_index(..., version=2) on big-endian hosts",
        )


def _save_index_v3(index: TTLIndex, path: PathLike) -> None:
    _require_little_endian()
    n = index.graph.n
    stats_buffer = io.BytesIO()
    _write_stats(stats_buffer, index.build_stats)
    stats_blob = stats_buffer.getvalue()

    blobs: List[bytes] = []
    for store in (index.in_store, index.out_store):
        for name in COLUMN_NAMES:
            blobs.append(getattr(store, name).tobytes())

    header_size = (
        8  # magic
        + 8  # station count
        + 8 * n  # rank array
        + len(stats_blob)
        + 8  # column count
        + struct.calcsize(_DIR_ENTRY) * _NUM_COLUMNS
    )
    directory: List[bytes] = []
    offset = header_size
    for blob in blobs:
        directory.append(
            struct.pack(
                _DIR_ENTRY, offset, len(blob) // 8, zlib.crc32(blob)
            )
        )
        offset += len(blob)

    with atomic_write(path) as fh:
        fh.write(_MAGIC_V3)
        fh.write(struct.pack("<q", n))
        fh.write(array("q", index.ranks).tobytes())
        fh.write(stats_blob)
        fh.write(struct.pack("<q", _NUM_COLUMNS))
        for entry in directory:
            fh.write(entry)
        for blob in blobs:
            fh.write(blob)


def _check_ranks(ranks: List[int], n: int) -> None:
    seen = [False] * n
    for node, rank in enumerate(ranks):
        if not 0 <= rank < n or seen[rank]:
            raise SerializationError(
                f"corrupt index file: rank array is not a permutation "
                f"of 0..{n - 1} (rank {rank} of node {node})"
            )
        seen[rank] = True


def _read_stats_from(buf, offset: int):
    """Parse the stats record at ``offset``; returns (stats, end)."""
    try:
        (present,) = struct.unpack_from("<q", buf, offset)
    except struct.error:
        raise SerializationError("truncated index file") from None
    offset += 8
    if present == 0:
        return None, offset
    if present != 1:
        raise SerializationError(
            f"corrupt index file: bad stats flag {present}"
        )
    try:
        fields = struct.unpack_from(_STATS_FORMAT, buf, offset)
    except struct.error:
        raise SerializationError("truncated index file") from None
    stats = BuildStats(
        seconds=fields[0],
        order_seconds=fields[1],
        num_labels=fields[2],
        forward_pops=fields[3],
        backward_pops=fields[4],
        cover_pruned=fields[5],
        dominance_pruned=fields[6],
        dijkstra_runs=fields[7],
    )
    return stats, offset + struct.calcsize(_STATS_FORMAT)


def _load_index_v3(
    path: PathLike,
    graph: TimetableGraph,
    use_mmap: bool,
    verify: bool,
) -> TTLIndex:
    _require_little_endian()
    if use_mmap:
        with open(path, "rb") as fh:
            try:
                mapping = mmap_module.mmap(
                    fh.fileno(), 0, access=mmap_module.ACCESS_READ
                )
            except (ValueError, OSError):
                raise SerializationError(
                    "truncated index file"
                ) from None
        buf = memoryview(mapping)
    else:
        with open(path, "rb") as fh:
            buf = memoryview(fh.read())

    if bytes(buf[:8]) != _MAGIC_V3:
        raise SerializationError(f"not a TTLIDX03 index file: {path}")
    try:
        (n,) = struct.unpack_from("<q", buf, 8)
    except struct.error:
        raise SerializationError("truncated index file") from None
    if n < 0:
        raise SerializationError(
            f"corrupt index file: negative station count {n}"
        )
    if n != graph.n:
        raise SerializationError(
            f"index built for {n} stations, graph has {graph.n}"
        )
    if len(buf) < 16 + 8 * n:
        raise SerializationError("truncated index file")
    ranks = buf[16:16 + 8 * n].cast("q").tolist()
    _check_ranks(ranks, n)
    stats, offset = _read_stats_from(buf, 16 + 8 * n)
    try:
        (num_columns,) = struct.unpack_from("<q", buf, offset)
    except struct.error:
        raise SerializationError("truncated index file") from None
    if num_columns != _NUM_COLUMNS:
        raise SerializationError(
            f"corrupt index file: expected {_NUM_COLUMNS} columns, "
            f"directory lists {num_columns}"
        )
    offset += 8
    entry_size = struct.calcsize(_DIR_ENTRY)
    blobs_start = offset + entry_size * _NUM_COLUMNS
    columns = []
    for i in range(_NUM_COLUMNS):
        name = COLUMN_NAMES[i % len(COLUMN_NAMES)]
        try:
            blob_offset, count, crc = struct.unpack_from(
                _DIR_ENTRY, buf, offset + i * entry_size
            )
        except struct.error:
            raise SerializationError("truncated index file") from None
        if (
            count < 0
            or blob_offset < blobs_start
            or blob_offset % 8 != 0
            or blob_offset + 8 * count > len(buf)
        ):
            raise SerializationError(
                f"truncated index file: column {name!r} offset "
                f"{blob_offset} (+{count} items) outside the file",
                hint="the index file is corrupt; rebuild it with "
                "'repro-ttl build'",
            )
        blob = buf[blob_offset:blob_offset + 8 * count]
        if verify and zlib.crc32(blob) != crc:
            raise SerializationError(
                f"corrupt index file: column {name!r} digest mismatch",
                hint="the index file is corrupt; rebuild it with "
                "'repro-ttl build'",
            )
        if use_mmap:
            columns.append(blob.cast("q"))
        else:
            copied = array("q")
            copied.frombytes(blob)
            columns.append(copied)

    stores = []
    for direction in range(2):
        base = direction * len(COLUMN_NAMES)
        named = {
            name: columns[base + i]
            for i, name in enumerate(COLUMN_NAMES)
        }
        if use_mmap:
            store = LabelStore.frombuffer(n, named)
        else:
            store = LabelStore.__new__(LabelStore)
            store.n = n
            store.mapped = False
            for name in COLUMN_NAMES:
                setattr(store, name, named[name])
            store._freeze_views()
        try:
            store.check_columns()
        except ValueError as exc:
            raise SerializationError(
                f"corrupt index file: {exc}",
                hint="the index file is corrupt; rebuild it with "
                "'repro-ttl build'",
            ) from None
        stores.append(store)
    if not use_mmap:
        buf.release()
    return TTLIndex.from_stores(graph, ranks, stores[0], stores[1], stats)


def index_file_magic(path: PathLike) -> bytes:
    """The 8-byte magic of an index file (for format dispatch)."""
    with open(path, "rb") as fh:
        return fh.read(8)


def is_mmap_capable(path: PathLike) -> bool:
    """True when ``path`` is a TTLIDX03 file (loadable with
    ``mmap=True``)."""
    try:
        return index_file_magic(path) == _MAGIC_V3
    except OSError:
        return False


def _fsync_directory(directory: FsPath) -> None:
    """Best-effort fsync of the directory entry after a rename, so the
    new name survives a power loss (not supported everywhere)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def load_index(
    path: PathLike,
    graph: TimetableGraph,
    *,
    mmap: bool = False,
    verify: bool = True,
) -> TTLIndex:
    """Load an index written by :func:`save_index`.

    The caller supplies the graph the index was built for; a station
    count mismatch is rejected.  The format is auto-detected from the
    magic: current ``TTLIDX03`` files, ``TTLIDX02`` files, and legacy
    ``TTLIDX01`` files (which carry no build stats) all load.

    ``mmap=True`` maps a TTLIDX03 file read-only and wraps its label
    columns as zero-copy ``memoryview`` slices — the load is O(header)
    instead of O(index), and concurrent processes share one physical
    copy via the page cache.  ``verify=False`` skips the per-column
    crc32 check (the structural validation still runs); useful when a
    supervisor already verified the file once and forks workers that
    re-map it.
    """
    magic = index_file_magic(path)
    if magic == _MAGIC_V3:
        return _load_index_v3(path, graph, mmap, verify)
    if mmap:
        raise SerializationError(
            f"index file {path} is not memory-mappable "
            f"(magic {magic!r})",
            hint="only TTLIDX03 files can be memory-mapped; re-save "
            "with save_index(index, path) to upgrade",
        )
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic not in (_MAGIC, _LEGACY_MAGIC):
            raise SerializationError(f"not a TTL index file: {path}")
        legacy = magic == _LEGACY_MAGIC
        (n,) = struct.unpack("<q", _read_exact(fh, 8))
        if n != graph.n:
            raise SerializationError(
                f"index built for {n} stations, graph has {graph.n}"
            )
        ranks = [
            struct.unpack("<q", _read_exact(fh, 8))[0] for _ in range(n)
        ]
        seen = [False] * n
        for node, rank in enumerate(ranks):
            if not 0 <= rank < n or seen[rank]:
                raise SerializationError(
                    f"corrupt index file: rank array is not a permutation "
                    f"of 0..{n - 1} (rank {rank} of node {node})"
                )
            seen[rank] = True
        tables: List[List[Dict[int, LabelGroup]]] = []
        for _ in range(2):
            per_node: List[Dict[int, LabelGroup]] = []
            for _ in range(n):
                (count,) = struct.unpack("<q", _read_exact(fh, 8))
                if count < 0:
                    raise SerializationError(
                        f"corrupt index file: negative group count {count}"
                    )
                groups: Dict[int, LabelGroup] = {}
                for _ in range(count):
                    group = _read_group(fh, ranks, n)
                    groups[group.hub] = group
                per_node.append(groups)
            tables.append(per_node)
        stats = None if legacy else _read_stats(fh)
    return TTLIndex(graph, ranks, tables[0], tables[1], stats)
