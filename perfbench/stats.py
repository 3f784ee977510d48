"""Arithmetic shared by the benchmark: percentiles, span self time,
``smaps_rollup`` parsing and open-loop due-time latency.

Everything here is pure (no I/O beyond reading a /proc file in
:func:`process_tree_pss_kb`) so ``perfbench/tests`` can check it
directly.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: A tail percentile is reported only when at least this many samples
#: lie beyond it; otherwise the percentile is an extrapolation.
MIN_BEYOND = 10


class InsufficientSamples(ValueError):
    """Raised when a percentile has fewer than :data:`MIN_BEYOND`
    samples beyond it."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th
    percentile (nearest-rank)."""
    return n - nearest_rank(n, q)


def nearest_rank(n: int, q: float) -> int:
    """1-based nearest rank of the ``q``-th percentile of ``n`` samples."""
    if n <= 0:
        raise InsufficientSamples("no samples")
    # round() guards against 0.99 * 1000 = 989.9999999.
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (need not be sorted)."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), q) - 1]


def tail_percentile(values: Sequence[float], q: float) -> float:
    """Like :func:`percentile`, but refuses a tail the sample cannot
    support: at least :data:`MIN_BEYOND` samples must lie beyond it."""
    beyond = samples_beyond(len(values), q)
    if beyond < MIN_BEYOND:
        raise InsufficientSamples(
            f"p{q:g} of {len(values)} samples has {beyond} beyond it; "
            f"need {MIN_BEYOND}"
        )
    return percentile(values, q)


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle two for even counts); 0.0 for
    an empty sample, which per-layer metrics use for "never called"."""
    if not values:
        return 0.0
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def covered_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``.

    Child spans can overlap (two threads working for one parent), so
    their durations cannot simply be summed.
    """
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None:
            cur_a, cur_b = a, b
        elif a <= cur_b:
            cur_b = max(cur_b, b)
        else:
            total += cur_b - cur_a
            cur_a, cur_b = a, b
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[dict]) -> Dict[Tuple[int, int], float]:
    """Self time of every span: its duration minus the part of it its
    direct children cover.

    ``spans`` are dicts with ``pid``, ``id``, ``parent`` (or None),
    ``start`` and ``end``; ids are unique within a pid.  Returns
    ``{(pid, id): self_time}`` in the spans' time unit.
    """
    children: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("parent") is not None:
            key = (span["pid"], span["parent"])
            children.setdefault(key, []).append((span["start"], span["end"]))
    result = {}
    for span in spans:
        key = (span["pid"], span["id"])
        duration = span["end"] - span["start"]
        covered = covered_length(
            children.get(key, ()), span["start"], span["end"]
        )
        result[key] = duration - covered
    return result


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def parse_pss_kb(smaps_rollup: str) -> int:
    """The ``Pss:`` total (kB) from a ``/proc/<pid>/smaps_rollup`` text.

    Only the plain ``Pss:`` line counts; ``Pss_Anon``/``Pss_File``/
    ``Pss_Shmem`` are its breakdown and must not be added again.
    """
    for line in smaps_rollup.splitlines():
        fields = line.split()
        if len(fields) >= 2 and fields[0] == "Pss:":
            return int(fields[1])
    raise ValueError("no Pss: line in smaps_rollup")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (all its threads' children)."""
    kids: List[int] = []
    task_dir = f"/proc/{pid}/task"
    try:
        tids = os.listdir(task_dir)
    except FileNotFoundError:
        return kids
    for tid in tids:
        try:
            with open(f"{task_dir}/{tid}/children") as fh:
                kids.extend(int(x) for x in fh.read().split())
        except FileNotFoundError:
            continue
    return kids


def process_tree(pid: int) -> List[int]:
    """``pid`` and all its descendants."""
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(child_pids(current))
    return tree


def process_tree_pss_kb(pid: int) -> int:
    """Summed Pss of a process tree.  Pss splits each shared page
    evenly among the processes mapping it, so a page the workers share
    through mmap counts once in the sum."""
    total = 0
    for member in process_tree(pid):
        try:
            with open(f"/proc/{member}/smaps_rollup") as fh:
                total += parse_pss_kb(fh.read())
        except FileNotFoundError:
            continue
    return total


# ----------------------------------------------------------------------
# Open loop
# ----------------------------------------------------------------------


def due_latency(due: float, done: float) -> float:
    """Latency of one open-loop request, timed from when it was due to
    be sent.  A stall that delays sending is part of the latency: this
    is what keeps a generator that falls behind from hiding the wait
    it imposes on later requests."""
    return done - due


def generator_lateness(due: float, picked: float, sent: float) -> float:
    """How late the generator itself sent a request.

    ``picked`` is when a connection became free and took the request.
    Waiting for a free connection is the system's backlog (counted in
    :func:`due_latency`); only the delay past ``max(due, picked)`` is
    the generator's own scheduling error.
    """
    return sent - max(due, picked)
