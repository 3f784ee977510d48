"""Index verification — an ``fsck`` for TTL indices.

A loaded or hand-modified index can be structurally sound yet
semantically wrong (stale graph, corrupted labels).  This module
checks, beyond :meth:`TTLIndex.check_invariants`:

1. **Structure** — group ordering, Pareto staircases, hub ranks.
2. **Feasibility** — every (sampled) label's ``(dep, arr)`` pair is an
   achievable journey in the graph, with the exact arrival of the
   earliest-arrival path at that departure (canonical paths are EAPs,
   Observation 1).
3. **Completeness** — for sampled station pairs and times, the index
   answers EAP queries identically to a fresh temporal Dijkstra.

Verification is sampling-based (full verification is quadratic); the
sample size trades confidence for time.  Used by the CLI's ``verify``
subcommand and by the serialization tests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional

from repro.algorithms.temporal_dijkstra import earliest_arrival_search
from repro.core.index import TTLIndex
from repro.core.sketch import best_eap_sketch
from repro.timeutil import INF


@dataclass
class VerificationReport:
    """Outcome of :func:`verify_index`."""

    structure_ok: bool = True
    labels_checked: int = 0
    label_errors: List[str] = field(default_factory=list)
    queries_checked: int = 0
    query_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            self.structure_ok
            and not self.label_errors
            and not self.query_errors
        )

    def summary(self) -> str:
        status = "OK" if self.ok else "CORRUPT"
        lines = [
            f"index verification: {status}",
            f"  structure:      {'ok' if self.structure_ok else 'BROKEN'}",
            f"  labels checked: {self.labels_checked} "
            f"({len(self.label_errors)} errors)",
            f"  queries checked: {self.queries_checked} "
            f"({len(self.query_errors)} errors)",
        ]
        for err in (self.label_errors + self.query_errors)[:10]:
            lines.append(f"  ! {err}")
        return "\n".join(lines)


def verify_index(
    index: TTLIndex,
    label_samples: int = 200,
    query_samples: int = 100,
    seed: int = 0,
) -> VerificationReport:
    """Verify ``index`` against its graph; see module docstring."""
    report = VerificationReport()
    rng = random.Random(seed)
    graph = index.graph

    # 1. Structure.
    try:
        index.check_invariants()
    except AssertionError as exc:
        report.structure_ok = False
        report.label_errors.append(f"structure: {exc}")

    # 2. Label feasibility (sampled).
    all_labels = []
    for v in range(graph.n):
        for group in index.in_groups[v]:
            for dep, arr in zip(group.deps, group.arrs):
                all_labels.append((group.hub, v, dep, arr))
        for group in index.out_groups[v]:
            for dep, arr in zip(group.deps, group.arrs):
                all_labels.append((v, group.hub, dep, arr))
    if all_labels:
        count = min(label_samples, len(all_labels))
        for src, dst, dep, arr in rng.sample(all_labels, count):
            report.labels_checked += 1
            eat, _ = earliest_arrival_search(graph, src, dep, target=dst)
            if eat[dst] != arr:
                report.label_errors.append(
                    f"label {src}->{dst} dep={dep}: claims arr={arr}, "
                    f"graph says {eat[dst]}"
                )

    # 3. Query completeness (sampled EAP probes).
    if graph.n >= 2 and graph.connections:
        stats = graph.stats()
        for _ in range(query_samples):
            u = rng.randrange(graph.n)
            v = rng.randrange(graph.n)
            if u == v:
                continue
            t = rng.randint(stats.min_time, stats.max_time)
            report.queries_checked += 1
            eat, _ = earliest_arrival_search(graph, u, t, target=v)
            expected: Optional[int] = eat[v] if eat[v] < INF else None
            sketch = best_eap_sketch(index, u, v, t)
            got = sketch.arr if sketch is not None else None
            if expected != got:
                report.query_errors.append(
                    f"EAP {u}->{v} t={t}: index says {got}, "
                    f"graph says {expected}"
                )
    return report
