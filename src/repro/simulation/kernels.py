"""Vectorised scan primitives for the block simulation core.

The simulation engine consumes availability in ``(m, block_size)`` ``int8``
blocks (see :mod:`repro.simulation.engine`).  This module hosts the numeric
primitives of that consumption — the per-block companion masks, the
per-worker next-change table, and the span searches used by the engine's
fast paths:

``block_companions``
    The DOWN / column-identical masks the per-slot loop reads at O(1).

``next_change_table``
    ``nc[q, j]`` = first slot after ``j`` at which worker ``q`` changes
    state (``L`` when it never does inside the block).  Turns the engine's
    uneventful-span search into an O(#enrolled) gather + min.

``frozen_span``
    Slots after ``j`` during which every *enrolled* worker provably holds
    its current state (the exact condition of the engine's fast-forward).

``compute_span``
    Computation-phase window search: how many slots after ``j`` can be
    consumed before the first enrolled DOWN transition or the iteration's
    completing slot, and how many of them are all-UP compute slots.  Unlike
    ``frozen_span`` it jumps straight over UP/RECLAIMED flicker.

``comm_phase_span``
    Whole-communication-phase jump for the capacity-surplus case
    (``ncom >= #enrolled``): with a channel for everybody, the sticky
    policy degenerates to "every needing UP worker is served every slot",
    so worker ``q``'s transfer completes on its ``N_q``-th UP slot and the
    phase collapses to per-worker cumulative-UP searches.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.types import DOWN, UP

__all__ = [
    "BlockData",
    "block_companions",
    "next_change_table",
    "frozen_span",
    "compute_span",
    "comm_phase_span",
]

_UP_CODE = int(UP)
_DOWN_CODE = int(DOWN)

#: Chunk width of the ``compute_span`` scan: bounds the temporaries
#: (and the overshoot past an in-window iteration completion) without giving
#: up the vectorised inner comparisons.
_SPAN_CHUNK = 512


# ----------------------------------------------------------------------
# Block scans
# ----------------------------------------------------------------------
def block_companions(
    block: np.ndarray, last_column: Optional[np.ndarray]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block masks read by the engine's slot loop.

    Returns ``(down, same)`` where ``down[j]`` flags a DOWN worker in column
    ``j`` and ``same[j]`` flags a column identical to its predecessor
    (``last_column`` supplies the predecessor of column 0).
    """
    length = block.shape[1]
    down = (block == _DOWN_CODE).any(axis=0)
    same = np.empty(length, dtype=bool)
    same[0] = last_column is not None and bool(np.array_equal(block[:, 0], last_column))
    if length > 1:
        same[1:] = ~(block[:, 1:] != block[:, :-1]).any(axis=0)
    return down, same


def next_change_table(block: np.ndarray) -> np.ndarray:
    """``nc[q, j]`` = smallest ``k > j`` with ``block[q, k] != block[q, j]``, else ``L``.

    Built with one reversed ``minimum.accumulate`` suffix scan, so the cost
    is a handful of vectorised passes over the block regardless of how the
    change positions are distributed.
    """
    num_workers, length = block.shape
    table = np.full((num_workers, length), length, dtype=np.int32)
    if length > 1:
        positions = np.arange(1, length, dtype=np.int32)
        candidates = np.where(
            block[:, 1:] != block[:, :-1], positions, np.int32(length)
        )
        table[:, : length - 1] = np.minimum.accumulate(
            candidates[:, ::-1], axis=1
        )[:, ::-1]
    return table


def frozen_span(table: np.ndarray, enrolled_ids: np.ndarray, rel: int) -> int:
    """Slots after *rel* during which no enrolled worker changes state."""
    if enrolled_ids.size == 0:
        return int(table.shape[1]) - rel - 1
    return int(table[enrolled_ids, rel].min()) - rel - 1


def compute_span(
    block: np.ndarray,
    enrolled_ids: np.ndarray,
    rel: int,
    length: int,
    needed: int,
) -> Tuple[int, int]:
    """Computation-phase window after *rel*: ``(advance, progressed)``.

    Consumes columns ``rel+1, rel+2, ...`` while no enrolled worker is DOWN
    and the iteration cannot complete, stopping *before* the first enrolled
    DOWN column and *before* the all-UP column on which cumulative progress
    would reach *needed* (both are left to the engine's per-slot path), and
    at the block end.  ``progressed`` counts the all-UP columns among the
    ``advance`` consumed ones; the rest are idle (RECLAIMED flicker).

    Scanned in bounded chunks so the temporaries stay small and an early
    stop does not pay for the rest of the block.
    """
    needed_eff = needed if needed > 1 else 1
    advance = 0
    progressed = 0
    start = rel + 1
    while start < length:
        stop = start + _SPAN_CHUNK
        if stop > length:
            stop = length
        window = block[enrolled_ids, start:stop]
        down = (window == _DOWN_CODE).any(axis=0)
        limit = window.shape[1]
        if down.any():
            limit = int(np.argmax(down))
        all_up = (window[:, :limit] == _UP_CODE).all(axis=0)
        cumulative = np.cumsum(all_up)
        room = needed_eff - progressed
        if cumulative.size and cumulative[-1] >= room:
            # The column where progress would hit ``needed`` completes the
            # iteration: consume everything before it and stop.
            cut = int(np.searchsorted(cumulative, room))
            advance += cut
            progressed += int(cumulative[cut - 1]) if cut else 0
            return advance, progressed
        advance += limit
        if cumulative.size:
            progressed += int(cumulative[-1])
        if limit < window.shape[1]:  # stopped at an enrolled DOWN column
            return advance, progressed
        start = stop
    return advance, progressed


#: First chunk width of the ``comm_phase_span`` scan; typical phases are a
#: few tens of slots, so start small and grow geometrically for stalls.
_PHASE_CHUNK = 64


def comm_phase_span(
    block: np.ndarray,
    enrolled_ids: np.ndarray,
    needs: np.ndarray,
    rel: int,
    length: int,
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Jump a whole communication phase, starting *at* column *rel*.

    Valid only while every needing UP worker is guaranteed a channel
    (``ncom >= #enrolled``): then worker ``i`` receives exactly one unit on
    each of its UP columns until its ``needs[i]`` units are done, and the
    phase ends on the column where the last transfer completes.  The scan
    stops *before* the first column with an enrolled DOWN worker (the
    caller guarantees column *rel* has none) and at the block end.

    Returns ``(advance, units, holders)``: the number of columns consumed
    (all of them communication slots), the per-worker units served, and the
    per-worker "granted a channel on the last consumed column" mask — the
    sticky-holder set the slot-by-slot policy would have left behind.
    """
    count = enrolled_ids.shape[0]
    carry = np.zeros(count, dtype=np.int64)
    last_up = np.zeros(count, dtype=bool)
    advance = 0
    start = rel
    chunk = _PHASE_CHUNK
    while start < length:
        stop = start + chunk
        if stop > length:
            stop = length
        chunk *= 2
        window = block[enrolled_ids, start:stop]
        width = window.shape[1]
        down = (window == _DOWN_CODE).any(axis=0)
        limit = width
        if down.any():
            limit = int(np.argmax(down))
            if limit == 0:
                break
        up = window[:, :limit] == _UP_CODE
        cumulative = np.cumsum(up, axis=1) + carry[:, None]
        met = (cumulative >= needs[:, None]).all(axis=0)
        if met.any():
            done = int(np.argmax(met))  # the column completing the phase
            advance += done + 1
            carry = cumulative[:, done]
            holders = up[:, done] & (carry <= needs) & (needs > 0)
            return advance, np.minimum(needs, carry), holders
        advance += limit
        carry = cumulative[:, limit - 1]
        last_up = up[:, limit - 1]
        if limit < width:  # stopped at an enrolled DOWN column
            break
        start = stop
    holders = last_up & (carry <= needs) & (needs > 0)
    return advance, np.minimum(needs, carry), holders


# ----------------------------------------------------------------------
# Shared per-block bundle
# ----------------------------------------------------------------------
class BlockData:
    """One prefetched availability block plus its derived structures.

    Bundles what the engine installs per prefetch so the multi-heuristic
    driver can compute everything once and hand the same bundle to every
    engine.  The next-change table is built lazily — only the fast paths
    read it — and exactly once per block no matter how many engines ask.
    """

    __slots__ = ("block", "down", "same", "_next_change")

    def __init__(self, block: np.ndarray, last_column: Optional[np.ndarray]) -> None:
        self.block = block
        self.down, self.same = block_companions(block, last_column)
        self._next_change: Optional[np.ndarray] = None

    @property
    def length(self) -> int:
        return self.block.shape[1]

    def ensure_next_change(self) -> np.ndarray:
        if self._next_change is None:
            self._next_change = next_change_table(self.block)
        return self._next_change
