"""Vectorised scan primitives for the block simulation core.

The simulation engine consumes availability in ``(m, block_size)`` ``int8``
blocks (see :mod:`repro.simulation.engine`).  This module hosts the numeric
primitives of that consumption — the per-block companion masks, the
per-worker next-change and phase tables, and the span searches used by the
engine's fast paths.  The tables are built at most once per window (see
:class:`BlockData`), so the frozen-span and communication-phase jumps cost a
few NumPy calls however many slots they cover:

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

``phase_tables``
    Per-worker cumulative UP counts (flattened with row offsets so one
    ``searchsorted`` serves every row) and a next-DOWN table.

``comm_phase_span``
    Whole-communication-phase jump for the capacity-surplus case
    (``ncom >= #enrolled``): with a channel for everybody, the sticky
    policy degenerates to "every needing UP worker is served every slot",
    so worker ``q``'s transfer completes on its ``N_q``-th UP slot and the
    phase collapses to one search in the UP counts and one next-DOWN
    gather.
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
    "phase_tables",
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


def phase_tables(block: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(up_counts, next_down)``: the ``(m, L + 1)`` tables :func:`comm_phase_span` reads.

    ``up_counts[q, k]`` is ``q·(L + 1)`` plus the number of UP slots of
    worker *q* in columns ``[0, k)``.  A row's counts never reach ``L + 1``,
    so the row offsets keep the flattened table sorted and one
    ``searchsorted`` serves every row.  ``next_down[q, k]`` is the first
    column ``>= k`` at which worker *q* is DOWN, else ``L``.
    """
    num_workers, length = block.shape
    width = length + 1
    # The narrowest dtypes that hold the values: two windows' tables can be
    # alive at once, and they are the largest per-window structures.
    dtype = np.int32 if num_workers * width < 2**31 else np.int64
    up_counts = np.zeros((num_workers, width), dtype=dtype)
    np.cumsum(block == _UP_CODE, axis=1, dtype=dtype, out=up_counts[:, 1:])
    up_counts += np.arange(0, num_workers * width, width, dtype=dtype)[:, None]
    column_dtype = np.int16 if length < 2**15 else np.int32
    next_down = np.full((num_workers, width), length, dtype=column_dtype)
    columns = np.arange(length, dtype=column_dtype)
    np.copyto(next_down[:, :length], columns, where=block == _DOWN_CODE)
    backwards = next_down[:, ::-1]
    np.minimum.accumulate(backwards, axis=1, out=backwards)
    return up_counts, next_down


def comm_phase_span(
    tables: Tuple[np.ndarray, np.ndarray],
    enrolled_ids: np.ndarray,
    needs: np.ndarray,
    rel: int,
) -> Tuple[int, np.ndarray, np.ndarray]:
    """Jump a whole communication phase, starting *at* column *rel*.

    Valid only while every needing UP worker is guaranteed a channel
    (``ncom >= #enrolled``): then worker ``i`` receives exactly one unit on
    each of its UP columns until its ``needs[i]`` units are done, and the
    phase ends on the column where the last transfer completes.  The jump
    stops *before* the first column with an enrolled DOWN worker (the
    caller guarantees column *rel* has none) and at the block end.

    *tables* are the block's :func:`phase_tables`: the stop column is one
    gather + min over ``next_down``, and every worker's completing column
    comes from one ``searchsorted`` over the flattened UP counts, so the
    cost is a fixed handful of NumPy calls however long the phase is.

    Returns ``(advance, units, holders)``: the number of columns consumed
    (all of them communication slots), the per-worker units served, and the
    per-worker "granted a channel on the last consumed column" mask — the
    sticky-holder set the slot-by-slot policy would have left behind.
    """
    up_counts, next_down = tables
    counts = up_counts.ravel()
    at = enrolled_ids * up_counts.shape[1] + rel  # flat index of each row's column rel
    room = int(next_down.ravel()[at].min()) - rel
    before = counts[at]
    # Targets in the table's dtype: a wider one would cast the whole table.
    # ``reach[i]`` counts the columns from *rel* through worker i's
    # completing column; it exceeds the block when the worker cannot finish.
    reach = counts.searchsorted(np.add(before, needs, dtype=counts.dtype)) - at
    advance = int(reach.max())
    if advance <= room:
        return advance, needs, reach == advance
    after = counts[at + room]
    carry = after - before
    up_last = after > counts[at + room - 1]
    return room, np.minimum(needs, carry), up_last & (carry <= needs) & (needs > 0)


# ----------------------------------------------------------------------
# Shared per-block bundle
# ----------------------------------------------------------------------
class BlockData:
    """One prefetched availability block plus its derived structures.

    Bundles what the engine installs per prefetch so the multi-heuristic
    driver can compute everything once and hand the same bundle to every
    engine.  The next-change and phase tables are built lazily — only the
    fast paths read them — and exactly once per block no matter how many
    engines ask.
    """

    __slots__ = ("block", "down", "same", "_next_change", "_phase_tables")

    def __init__(self, block: np.ndarray, last_column: Optional[np.ndarray]) -> None:
        self.block = block
        self.down, self.same = block_companions(block, last_column)
        self._next_change: Optional[np.ndarray] = None
        self._phase_tables: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def length(self) -> int:
        return self.block.shape[1]

    def ensure_next_change(self) -> np.ndarray:
        if self._next_change is None:
            self._next_change = next_change_table(self.block)
        return self._next_change

    def ensure_phase_tables(self) -> Tuple[np.ndarray, np.ndarray]:
        if self._phase_tables is None:
            self._phase_tables = phase_tables(self.block)
        return self._phase_tables
