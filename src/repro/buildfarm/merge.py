"""Deterministic reduction of worker candidates into committed labels.

Workers search hubs of one chunk concurrently, pruning only against
the labels committed by earlier chunks — so their candidate groups are
supersets of the canonical label sets: every surplus candidate is
cover-dominated through some higher-ranked hub of the *same* chunk.
The merge replays the serial algorithm's pruning decision exactly:
hubs are processed in strict rank order, each candidate label is
re-checked with :func:`repro.core.build._covered` against the state
committed so far, and survivors are committed before the next hub is
filtered.

Why this reproduces the serial index label for label:

* Coverage depends only on ``(dep, arr)`` and the two hub maps — not
  on which path produced the candidate — and the maps here grow
  through exactly the states the serial builder's maps pass through.
* Within one hub, the forward and backward filters are independent:
  the cover check for hub ``h`` pairs only hubs present in *both*
  maps, and ``h`` never appears in its own label maps, so ``h``'s
  fresh emissions cannot influence its own filtering (matching the
  serial builder, where they are equally inert).
* Candidate groups arrive in ascending-departure order, the same order
  the serial builder stores, so the filtered subsequence is the serial
  group verbatim — metadata included, because surviving labels' paths
  avoid every cover-pruned node (see ``docs/build_pipeline.md``).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.build import _covered
from repro.core.label import LabelGroup

from repro.buildfarm.checkpoint import Entries

#: Per-node hub->group tables, same shape the serial builder uses.
StateTables = List[Dict[int, LabelGroup]]


def _filter_group(
    candidate: LabelGroup,
    src_out: Dict[int, LabelGroup],
    dst_in: Dict[int, LabelGroup],
    prune_cover: bool,
) -> Tuple[LabelGroup, int]:
    """Drop candidate labels the serial builder would cover-prune."""
    if not prune_cover:
        return candidate, 0
    kept = LabelGroup(candidate.hub, candidate.rank)
    dropped = 0
    for i in range(len(candidate)):
        dep, arr, trip, pivot = candidate.entry(i)
        if _covered(src_out, dst_in, dep, arr):
            dropped += 1
            continue
        kept.append(dep, arr, trip, pivot)
    return kept, dropped


def merge_hub(
    h: int,
    fwd_entries: Entries,
    bwd_entries: Entries,
    in_state: StateTables,
    out_state: StateTables,
    prune_cover: bool,
) -> Tuple[Entries, Entries, int]:
    """Filter and commit one hub's candidates.

    Both directions are filtered against the state *before* this hub's
    commits (their serial counterparts cannot see each other either),
    then committed together.  Returns the committed ``(node, group)``
    entries per direction plus the number of labels dropped.
    """
    dropped_total = 0
    in_commits: Entries = []
    out_commits: Entries = []

    # Forward candidates: canonical paths h -> v, destined for
    # L_in(v); serial cover check is (out_groups[h], in_groups[v]).
    out_map_h = out_state[h]
    for v, candidate in fwd_entries:
        kept, dropped = _filter_group(
            candidate, out_map_h, in_state[v], prune_cover
        )
        dropped_total += dropped
        if len(kept):
            in_commits.append((v, kept))

    # Backward candidates: canonical paths v -> h, destined for
    # L_out(v); serial cover check is (out_groups[v], in_groups[h]).
    in_map_h = in_state[h]
    for v, candidate in bwd_entries:
        kept, dropped = _filter_group(
            candidate, out_state[v], in_map_h, prune_cover
        )
        dropped_total += dropped
        if len(kept):
            out_commits.append((v, kept))

    for v, group in in_commits:
        in_state[v][h] = group
    for v, group in out_commits:
        out_state[v][h] = group
    return in_commits, out_commits, dropped_total


def apply_entries(
    in_entries: Entries, out_entries: Entries,
    in_state: StateTables, out_state: StateTables,
) -> int:
    """Replay committed entries (e.g. loaded from a shard) into state.

    Returns the number of labels applied.
    """
    labels = 0
    for node, group in in_entries:
        in_state[node][group.hub] = group
        labels += len(group)
    for node, group in out_entries:
        out_state[node][group.hub] = group
        labels += len(group)
    return labels
