"""Span scans for the block simulation core.

The simulation engine consumes availability in ``(m, block_size)`` ``int8``
blocks (see :mod:`repro.simulation.engine`).  This module hosts the
per-block structures of that consumption and the span searches behind the
engine's fast paths.

``block_companions``
    The DOWN / column-identical masks the per-slot loop reads at O(1).

:meth:`BlockData.events`
    Three sorted column lists per worker: its non-UP columns, its DOWN
    columns and its state-change columns, each an ``array('i')`` (4 bytes a
    column).  A worker's lists are built on the first read of that worker
    in that window and shared by every engine reading the window, so a jump
    costs a few ``bisect`` calls per enrolled worker however many slots it
    covers, and no NumPy call at all.

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
    so worker ``q``'s transfer completes on its ``N_q``-th UP slot.

The walks inside ``compute_span`` and ``comm_phase_span`` step over whole
runs of equal states (a non-UP column's run ends at the worker's next
state change), so their length is the number of RECLAIMED runs crossed,
not the number of columns.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.types import DOWN, UP

__all__ = [
    "BlockData",
    "block_companions",
    "frozen_span",
    "compute_span",
    "comm_phase_span",
]

_UP_CODE = int(UP)
_DOWN_CODE = int(DOWN)

#: A sorted list of window columns, kept as a compact ``array('i')``.
ColumnList = Sequence[int]
#: A worker's ``(non_up, down, changes)`` column lists in one window.
WorkerEvents = Tuple[ColumnList, ColumnList, ColumnList]


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


def _first_column(column_lists: Iterable[ColumnList], start: int, stop: int) -> int:
    """The first column in ``[start, stop)`` on any of *column_lists*, else *stop*."""
    for columns in column_lists:
        index = bisect_left(columns, start)
        if index < len(columns) and columns[index] < stop:
            stop = columns[index]
    return stop


def _run_end(changes: ColumnList, col: int, length: int) -> int:
    """One past the last column of the run of equal states covering *col*."""
    index = bisect_right(changes, col)
    return changes[index] if index < len(changes) else length


def frozen_span(data: "BlockData", workers: Sequence[int], rel: int) -> int:
    """Slots after *rel* during which no worker of *workers* changes state."""
    changes = (data.events(worker)[2] for worker in workers)
    return _first_column(changes, rel + 1, data.length) - rel - 1


def compute_span(
    data: "BlockData", workers: Sequence[int], rel: int, needed: int
) -> Tuple[int, int]:
    """Computation-phase window after *rel*: ``(advance, progressed)``.

    Consumes columns ``rel+1, rel+2, ...`` while no enrolled worker is DOWN
    and the iteration cannot complete, stopping *before* the first enrolled
    DOWN column and *before* the all-UP column on which cumulative progress
    would reach *needed* (both are left to the engine's per-slot path), and
    at the block end.  ``progressed`` counts the all-UP columns among the
    ``advance`` consumed ones; the rest are idle (RECLAIMED flicker).

    The walk alternates two steps: from an all-UP column it jumps to the
    next column where some worker is not UP, and from such a column to the
    end of the longest non-UP run covering it.
    """
    length = data.length
    lists = [data.events(worker) for worker in workers]
    stop = _first_column((downs for _, downs, _ in lists), rel + 1, length)
    # All-UP columns that can be consumed before the completing one.
    room = needed - 1 if needed > 1 else 0
    progressed = 0
    col = rel + 1
    while col < stop:
        blocked = stop  # the first column >= col where some worker is not UP
        skip = col  # the end of the non-UP runs covering col
        for non_up, _, changes in lists:
            index = bisect_left(non_up, col)
            if index < len(non_up):
                first = non_up[index]
                if first == col:
                    end = _run_end(changes, col, length)
                    if end > skip:
                        skip = end
                elif first < blocked:
                    blocked = first
        if skip > col:
            col = skip
            continue
        if progressed + blocked - col > room:
            return col + room - progressed - rel - 1, room
        progressed += blocked - col
        col = blocked
    return stop - rel - 1, progressed


def comm_phase_span(
    data: "BlockData", workers: Sequence[int], needs: Sequence[int], rel: int
) -> Tuple[int, Sequence[int], List[int]]:
    """Jump a whole communication phase, starting *at* column *rel*.

    Valid only while every needing UP worker is guaranteed a channel
    (``ncom >= #enrolled``): then worker ``workers[i]`` receives exactly one
    unit on each of its UP columns until its ``needs[i]`` units are done,
    and the phase ends on the column where the last transfer completes.  The
    jump stops *before* the first column with an enrolled DOWN worker (the
    caller guarantees column *rel* has none) and at the block end.

    Returns ``(advance, units, holders)``: the number of columns consumed
    (all of them communication slots), the per-worker units served, and the
    workers granted a channel on the last consumed column — the
    sticky-holder set the slot-by-slot policy would have left behind.
    """
    length = data.length
    lists = [data.events(worker) for worker in workers]
    stop = _first_column((downs for _, downs, _ in lists), rel, length)
    # ``ends[i]`` is one past worker i's completing column (past *stop* when
    # it cannot finish before it); a worker that needs nothing ends at rel.
    ends = []
    for (non_up, _, changes), need in zip(lists, needs):
        end = rel + need
        index = bisect_left(non_up, rel)
        while end <= stop and index < len(non_up) and non_up[index] < end:
            # Step over the whole non-UP run starting at this column.
            first = non_up[index]
            run = _run_end(changes, first, length) - first
            end += run
            index += run
        ends.append(end)
    last = max(ends)
    if last <= stop:
        holders = [worker for worker, end in zip(workers, ends) if end == last]
        return last - rel, needs, holders
    units = []
    holders = []
    for worker, (non_up, _, _), need in zip(workers, lists, needs):
        below_stop = bisect_left(non_up, stop)
        carry = stop - rel - (below_stop - bisect_left(non_up, rel))  # UP columns
        units.append(need if need < carry else carry)
        # Served on the last column: UP there and still short before it.  An
        # UP last column makes ``carry >= 1``, so a worker that needs
        # nothing is never a holder.
        if carry <= need and bisect_left(non_up, stop - 1) == below_stop:
            holders.append(worker)
    return stop - rel, units, holders


# ----------------------------------------------------------------------
# Shared per-block bundle
# ----------------------------------------------------------------------
class BlockData:
    """One prefetched availability block plus its derived structures.

    Bundles what the engine installs per prefetch so the multi-heuristic
    driver can compute everything once and hand the same bundle to every
    engine.  The per-worker event lists are built lazily — only the fast
    paths read them, and only for the workers they ask about — and exactly
    once per window no matter how many engines ask.
    """

    __slots__ = ("block", "down", "same", "_events")

    def __init__(self, block: np.ndarray, last_column: Optional[np.ndarray]) -> None:
        self.block = block
        self.down, self.same = block_companions(block, last_column)
        self._events: List[Optional[WorkerEvents]] = [None] * block.shape[0]

    @property
    def length(self) -> int:
        return self.block.shape[1]

    def events(self, worker: int) -> WorkerEvents:
        """*worker*'s sorted ``(non_up, down, changes)`` column lists.

        ``non_up`` holds the columns where the worker is not UP, ``down``
        those where it is DOWN and ``changes`` the columns ``k >= 1`` whose
        state differs from column ``k - 1``.
        """
        lists = self._events[worker]
        if lists is None:
            row = self.block[worker]
            non_up = np.flatnonzero(row != _UP_CODE)
            lists = self._events[worker] = (
                _column_list(non_up),
                _column_list(non_up[row[non_up] == _DOWN_CODE]),
                _column_list(np.flatnonzero(row[1:] != row[:-1]) + 1),
            )
        return lists


def _column_list(columns: np.ndarray) -> ColumnList:
    """*columns* as an ``array('i')``: 4 bytes a column, read by ``bisect`` as is."""
    return array("i", columns.astype(np.intc).tobytes())
