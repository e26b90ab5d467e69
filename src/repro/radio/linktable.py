"""Per-slot link caps and per-KB energy of a signal trace, in slot blocks.

Every slot's observation carries, per row, the Eq. (1) link cap
``floor(tau * v(sig) / delta)`` and the Eq. (24) reception energy
``P(sig)``.  Both depend only on the signal trace, which is fixed
before the run starts (fault blackouts included), so evaluating them
slot by slot repeats the models' ufunc chains every slot.
:class:`LinkTable` evaluates them for a block of slots at once and
hands out per-slot row views.  The block evaluation is the models'
own ``out=`` chain run on a 2-D block — elementwise, so every row is
bitwise equal to the per-slot evaluation — and blocks bound the table
to about ``BLOCK_CELLS`` cells whatever the horizon.  The rows handed
out are read-only: observations carry them.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import read_only
from repro.errors import ConfigurationError

__all__ = ["LinkTable"]

#: Cells per block (``slots * columns``): three float64/int64 tables of
#: this size take under 400 KB.  On the benchmark workloads this block
#: runs as fast as a whole-horizon table, which raises the churn
#: workload's peak RSS by 13 MB, while one slot per block runs 6-19%
#: slower.
BLOCK_CELLS = 1 << 14


class LinkTable:
    """Signal, link-cap and per-KB-energy rows of a signal trace.

    Parameters
    ----------
    signals:
        ``(>= n_slots, n_i)`` signal traces (dBm), laid side by side as
        the table's columns — one per run when a batch stacks runs.
    n_slots:
        Slots the table covers.
    tau_s, delta_kb:
        Slot length and data-unit size of Eq. (1).
    throughput, power:
        The run's :class:`~repro.radio.throughput.ThroughputModel` and
        :class:`~repro.radio.power.PowerModel`.
    pad_dbm:
        When given, one extra last column holding this signal level —
        the floor signal the engine shows vacant rows.
    """

    def __init__(
        self,
        signals,
        n_slots: int,
        tau_s: float,
        delta_kb: float,
        throughput,
        power,
        pad_dbm: float | None = None,
    ):
        self.signals = list(signals)
        if not self.signals or n_slots <= 0:
            raise ConfigurationError("link table needs a signal trace and slots")
        self.n_slots = int(n_slots)
        self.tau_s = float(tau_s)
        self.delta_kb = float(delta_kb)
        self.throughput = throughput
        self.power = power
        self.pad_dbm = pad_dbm
        width = sum(s.shape[1] for s in self.signals) + (pad_dbm is not None)
        self.width = width
        self.block = max(1, min(self.n_slots, BLOCK_CELLS // width))
        shape = (self.block, width)
        # A lone trace is read in place; anything else is laid out here.
        self._layout = (
            np.empty(shape) if len(self.signals) > 1 or pad_dbm is not None else None
        )
        self._link = np.empty(shape, dtype=np.int64)
        self._p = np.empty(shape)
        self._scratch = np.empty(shape)
        self._link_ro = read_only(self._link)
        self._p_ro = read_only(self._p)
        self._sig = None
        self._start = self._stop = 0
        self._gathered = None

    def rows(self, slot: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(sig_dbm, link_units, p_mj_per_kb)`` rows of ``slot``.

        The rows are views into the current block: valid until a slot
        outside it is asked for.
        """
        if not self._start <= slot < self._stop:
            self._fill(slot)
        k = slot - self._start
        return self._sig[k], self._link_ro[k], self._p_ro[k]

    def rows_through(
        self, slot: int, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`rows` gathered into row space: row ``i`` reads column
        ``cols[i]``.

        The gather covers the rest of the block at once and is reused
        while ``cols`` is the same array object, so callers pass a map
        they replace (never mutate) when it changes.  The rows are
        views, valid until the next call.
        """
        if not self._start <= slot < self._stop:
            self._fill(slot)
        g = self._gathered
        if g is None or g[0] is not cols or g[1] != self._start or g[2] > slot:
            k = slot - self._start
            m = self._stop - self._start
            g = self._gathered = (
                cols,
                self._start,
                slot,
                *(t[k:m].take(cols, axis=1) for t in (self._sig, self._link, self._p)),
            )
            for t in g[3:]:
                t.flags.writeable = False
        k = slot - g[2]
        return g[3][k], g[4][k], g[5][k]

    def _fill(self, start: int) -> None:
        if not 0 <= start < self.n_slots:
            raise ConfigurationError(f"slot {start} outside the link table")
        stop = min(start + self.block, self.n_slots)
        m = stop - start
        if self._layout is None:
            sig = self.signals[0][start:stop]
        else:
            sig = self._layout[:m]
            col = 0
            for trace in self.signals:
                w = trace.shape[1]
                sig[:, col : col + w] = trace[start:stop]
                col += w
            if self.pad_dbm is not None:
                sig[:, col] = self.pad_dbm
        scratch = self._scratch[:m]
        self.throughput.max_units(
            sig, self.tau_s, self.delta_kb, out=self._link[:m], scratch=scratch
        )
        self.power.p(sig, out=self._p[:m], scratch=scratch)
        sig.flags.writeable = False  # this view only; the array behind stays writable
        self._sig = sig
        self._start, self._stop = start, stop
