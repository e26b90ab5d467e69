"""RRCFleet kernels: idle-cost preview and per-slot state/tail step.

The per-slot tail increment is the difference of the Eq. (4) closed
form at the idle ages bracketing the slot (see :mod:`repro.radio.tail`)
— ``pd*min(t, T1) + pf*clip(t - T1, 0, T2)`` — zeroed for transmitting
or never-promoted devices.

A device's idle age is a function of one integer: ``k``, the slots
since its last transmission.  Transmitting resets the age to exactly
0.0 and each idle slot adds ``dt``, so every promoted device walks the
same sequence ``a_0 = 0.0, a_{k+1} = a_k + dt``, and the increment of
the slot that takes it from ``k`` to ``k + 1`` idle slots is
``tail(a_{k+1}) - tail(a_k)``.  :func:`idle_cost_table` evaluates that
table indexed by the count *after* the slot, with ``table[0] = 0.0``
for the slot a device transmits in (the exact ufunc chain of
``tail_energy_mj``, so every entry is bitwise equal to the per-device
evaluation), and the per-slot kernels are lookups:

* ``rrc_idle_cost`` — ``table[k + 1]``, 0 for never-promoted devices:
  the price EMA puts on the ``phi_i = 0`` branch of Eq. (5);
* ``rrc_step`` — the state advances (``k + 1``, or 0 where
  transmitting; a device that transmits is promoted for good) and the
  slot's tail is ``table`` at the new count, 0 for devices still never
  promoted — the preview with transmitting devices zeroed, formed from
  the fleet's own state.

The preview reads ``table[1:]`` at ``k`` (a view made with the table).
The step reads the fleet's current ``(k, never)`` arrays and writes the
alternates (:class:`repro.radio.rrc.RRCFleet` swaps bindings
afterwards).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import register

__all__ = [
    "idle_cost_table",
    "rrc_step_numpy",
    "rrc_step_loops",
    "rrc_idle_cost_numpy",
    "rrc_idle_cost_loops",
]


def _tail_into(t, pd_mw, pf_mw, t1_s, t2_s, out, tmp):
    """Eq. (4) with the exact ufunc chain of ``tail_energy_mj``."""
    np.minimum(t, t1_s, out=out)
    np.multiply(out, pd_mw, out=out)
    np.subtract(t, t1_s, out=tmp)
    np.maximum(tmp, 0.0, out=tmp)
    np.minimum(tmp, t2_s, out=tmp)
    np.multiply(tmp, pf_mw, out=tmp)
    np.add(out, tmp, out=out)


def idle_cost_table(ages, pd_mw, pf_mw, t1_s, t2_s) -> np.ndarray:
    """``[0.0, tail(ages[1]) - tail(ages[0]), tail(ages[2]) - tail(ages[1]), ...]``."""
    ages = np.asarray(ages, dtype=float)
    tails = np.empty_like(ages)
    _tail_into(ages, pd_mw, pf_mw, t1_s, t2_s, tails, np.empty_like(ages))
    table = np.zeros_like(ages)
    table[1:] = tails[1:] - tails[:-1]
    return table


def rrc_idle_cost_numpy(costs, k, never, out):
    costs.take(k, out=out, mode="clip")
    np.copyto(out, 0.0, where=never)
    return 0


def rrc_idle_cost_loops(costs, k, never, out):
    n = k.shape[0]
    for i in range(n):
        out[i] = 0.0 if never[i] else costs[k[i]]
    return 0


def rrc_step_numpy(tx, table, k_in, never_in, k_out, never_out, tail_out):
    np.add(k_in, 1, out=k_out)
    np.copyto(k_out, 0, where=tx)
    np.greater(never_in, tx, out=never_out)
    table.take(k_out, out=tail_out, mode="clip")
    np.copyto(tail_out, 0.0, where=never_out)
    return 0


def rrc_step_loops(tx, table, k_in, never_in, k_out, never_out, tail_out):
    n = tx.shape[0]
    for i in range(n):
        k_out[i] = 0 if tx[i] else k_in[i] + 1
        never_out[i] = never_in[i] and not tx[i]
        tail_out[i] = 0.0 if never_out[i] else table[k_out[i]]
    return 0


def _warmup_step(fn):
    """Specialise rrc_step on a two-device instance."""
    n = 2
    fn(
        np.array([True, False]),
        np.array([0.0, 800.0, 700.0, 600.0, 500.0]),
        np.array([0, 3], dtype=np.int64),
        np.array([False, True]),
        np.empty(n, dtype=np.int64),
        np.empty(n, dtype=np.bool_),
        np.empty(n),
    )


def _warmup_idle_cost(fn):
    """Specialise rrc_idle_cost on a two-device instance."""
    fn(
        np.array([800.0, 700.0, 0.0]),
        np.array([0, 2], dtype=np.int64),
        np.array([False, True]),
        np.empty(2),
    )


register(
    "rrc_step",
    numpy=rrc_step_numpy,
    python=rrc_step_loops,
    warmup=_warmup_step,
    phase="rrc",
)
register(
    "rrc_idle_cost",
    numpy=rrc_idle_cost_numpy,
    python=rrc_idle_cost_loops,
    warmup=_warmup_idle_cost,
    phase="observe",
)
