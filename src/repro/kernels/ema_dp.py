"""Fused EMA DP kernel: the certified solver's exact fallback.

:class:`repro.core.ema.EMAScheduler` first tries the closed form of
:func:`repro.core.slot_solver.certified_slot_solve`.  It accepts an
allocation only when a Lagrangian certificate shows every other
feasible allocation costs more by ``Delta > tol``, with
``tol = 16 * (N + 1) * eps * B + 1e-12`` and
``B = sum_k max(|idle_k|, |const_k|) + max_k |slope_k| * M``: more than
twice this DP's worst-case rounding error plus its ``1e-12`` backtrack
threshold, so the DP would return the same allocation bit for bit.
Every call the certificate cannot settle (ties, thin margins,
non-finite coefficients) comes here, unchanged.

One kernel call solves the whole per-slot knapsack of Algorithm 2 (see
:mod:`repro.core.ema` for the derivation): the DP forward recursion over
users, the trailing-window minimum that exploits the affine transmit
cost, and the backtrack that recovers the per-user allocations
from the value tables.

The numpy implementation is a vectorised loop: a per-user ufunc chain
whose trailing-window minimum is :func:`window_min`, ``ceil(log2 w)``
doubling passes of ``np.minimum`` over a ``+inf``-padded buffer.  The
python/numba implementation replaces it with a monotonic-deque sliding
minimum fused into the forward sweep.  A minimum is exact whatever the
order it is taken in, and both kernels compute the transmit branch with
the same additions and multiplications in the same association order,
so the results are bit-identical — the contract checked by
``tests/kernels/test_kernel_parity.py``.

Caller contract (enforced by :class:`repro.core.ema.EMAScheduler`):

* ``n_active = active_idx.size >= 1`` and ``n_states >= 1``;
* ``rows`` is C-contiguous ``(n_active, n_states)`` float64;
* ``m_idx[:n_states] == arange(n_states)`` as float64;
* ``fscratch`` has at least ``FSCRATCH_PER_STATE * n_states`` float64
  slots and ``iscratch`` at least ``n_states`` int64 slots;
* ``w_eff[k] >= 0``; ``w_eff[k] == 0`` marks pure
  no-transmit users (zero window, non-finite reception power or
  non-finite slope), whose slope is never read; every other user has
  finite ``slope``, ``const`` and ``idle``.

No kernel reads ``origin`` (``w - w//2 - 1``, a minimum-filter window
origin); it stays because callers and argument hooks address the
signature by position.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import register

__all__ = ["FSCRATCH_PER_STATE", "ema_dp_numpy", "ema_dp_loops", "window_min"]

#: Float64 scratch slots per DP state: the numpy kernel's zero row, its
#: product row, and two ``window_min`` buffers of ``n_states`` +inf
#: padding plus ``n_states`` data each.
FSCRATCH_PER_STATE = 6


def window_min(ping, pong, pad, end, w):
    """Minima of ``ping[pad:end]`` over the ``w``-wide windows ending at each index.

    Doubling: each pass takes ``np.minimum`` of the window minima so far
    and the same minima ``step = min(size, w - size)`` slots back, so
    ``ceil(log2 w)`` passes reach width ``w`` (cut to the data length).
    ``ping[:pad]`` and ``pong[:pad]`` must hold ``+inf``, with
    ``pad >= w // 2``; the passes overwrite both data parts and return
    a view of one.  NaN propagates.  On a tie ``np.minimum`` returns its
    second operand, the later window's, so a ``0.0`` / ``-0.0`` tie
    resolves as in the loop kernel's deque.
    """
    w = min(w, end - pad)
    cur, nxt = ping, pong
    cur_data, nxt_data = ping[pad:end], pong[pad:end]
    size = 1
    while size < w:
        step = min(size, w - size)
        np.minimum(cur[pad - step : end - step], cur_data, out=nxt_data)
        cur, nxt = nxt, cur
        cur_data, nxt_data = nxt_data, cur_data
        size += step
    return cur_data


def ema_dp_numpy(
    phi, active_idx, w_eff, origin, slope, const, idle, rows, m_idx, fscratch, iscratch
):
    """Vectorised DP: per-user ufunc chain + doubling window minimum."""
    n_active = active_idx.shape[0]
    n_states = rows.shape[1]
    pad = n_states
    end = pad + n_states
    zeros_row = fscratch[0:n_states]
    prod = fscratch[n_states : 2 * n_states]
    ping = fscratch[2 * n_states : 2 * n_states + end]
    pong = fscratch[2 * n_states + end : 2 * n_states + 2 * end]
    zeros_row[:] = 0.0
    # +inf padding, plus the first data slot of ping: the basis is
    # written one slot right of the data start, so the window minimum
    # at m covers basis[m - w : m] and is +inf at m = 0.
    ping[: pad + 1] = np.inf
    pong[:pad] = np.inf
    basis = ping[pad + 1 : end]
    prod_head = prod[:-1]
    # Python-scalar mirrors of the coefficient vectors: the DP loop
    # reads one scalar per user and list indexing is several times
    # cheaper than NumPy scalar extraction at this call rate.
    w_list = w_eff[:n_active].tolist()
    slope_list = slope[:n_active].tolist()
    const_list = const[:n_active].tolist()
    idle_list = idle[:n_active].tolist()

    a_prev = zeros_row
    for k in range(n_active):
        idle_k = idle_list[k]
        a_cur = rows[k]
        w = w_list[k]
        if w == 0:
            np.add(a_prev, idle_k, out=a_cur)  # no-tx only
        else:
            # basis[m] = a_prev[m] - slope * m, for m < n_states - 1
            np.multiply(m_idx, slope_list[k], out=prod)
            np.subtract(a_prev[:-1], prod_head, out=basis)
            twm = window_min(ping, pong, pad, end, w)
            # tx = (const + slope * m_idx) + twm, with twm[0] = +inf
            # (empty trailing window).
            np.add(prod, const_list[k], out=prod)
            np.add(prod, twm, out=prod)
            # a_cur = min(no_tx, tx) with no_tx = a_prev + idle
            np.add(a_prev, idle_k, out=a_cur)
            np.minimum(a_cur, prod, out=a_cur)
        a_prev = a_cur

    # Step 15: best total unit count, then backtrack per user.  The
    # argmin over phi_i is re-derived at the chosen capacity point only
    # — O(w_i) work per user instead of storing the full g(i, M) table.
    m_star = int(np.argmin(a_prev))
    affine = ping[pad:end]
    vals = prod
    m = m_star
    for level in range(n_active - 1, -1, -1):
        w_here = min(w_list[level], m)
        if w_here <= 0 or not np.isfinite(slope_list[level]):
            continue  # phi stays 0, m unchanged
        slope_k = slope_list[level]
        a_prev = rows[level - 1] if level > 0 else zeros_row
        best_val = float(a_prev[m]) + idle_list[level]
        # vals[j] = a_prev[m - (j+1)] + const + slope * (j+1):
        # the fancy index a_prev[m - cands] is a reversed slice.
        v_here = vals[:w_here]
        np.multiply(m_idx[1 : w_here + 1], slope_k, out=affine[:w_here])
        np.add(a_prev[m - w_here : m][::-1], const_list[level], out=v_here)
        np.add(v_here, affine[:w_here], out=v_here)
        j = int(v_here.argmin())
        if v_here[j] < best_val - 1e-12:
            best_phi = j + 1
            phi[active_idx[level]] = best_phi
            m -= best_phi
    return m_star


def ema_dp_loops(
    phi, active_idx, w_eff, origin, slope, const, idle, rows, m_idx, fscratch, iscratch
):
    """Loop DP with a monotonic-deque sliding minimum (numba source)."""
    n_active = active_idx.shape[0]
    n_states = rows.shape[1]
    basis = fscratch[0:n_states]
    zeros_row = fscratch[3 * n_states : 4 * n_states]
    for m in range(n_states):
        zeros_row[m] = 0.0
    dq = iscratch  # ring of candidate indices, basis-increasing

    for k in range(n_active):
        idle_k = idle[k]
        if k == 0:
            a_prev = zeros_row
        else:
            a_prev = rows[k - 1]
        a_cur = rows[k]
        w = w_eff[k]
        if w == 0:
            for m in range(n_states):
                a_cur[m] = a_prev[m] + idle_k
        else:
            slope_k = slope[k]
            const_k = const[k]
            head = 0
            tail = 0
            for m in range(n_states):
                if m >= 1:
                    # Admit k = m-1 to the window [m-w, m-1].
                    b = a_prev[m - 1] - slope_k * m_idx[m - 1]
                    basis[m - 1] = b
                    while tail > head and basis[dq[tail - 1]] >= b:
                        tail -= 1
                    dq[tail] = m - 1
                    tail += 1
                while tail > head and dq[head] < m - w:
                    head += 1
                no_tx = a_prev[m] + idle_k
                if tail > head:
                    tx = (slope_k * m_idx[m] + const_k) + basis[dq[head]]
                    a_cur[m] = tx if tx < no_tx else no_tx
                else:
                    a_cur[m] = no_tx

    last = rows[n_active - 1]
    m_star = 0
    best = last[0]
    for m in range(1, n_states):
        if last[m] < best:
            best = last[m]
            m_star = m

    m = m_star
    for level in range(n_active - 1, -1, -1):
        w_here = w_eff[level]
        if m < w_here:
            w_here = m
        if w_here <= 0:
            continue
        slope_k = slope[level]
        if not np.isfinite(slope_k):
            continue
        if level == 0:
            a_prev = zeros_row
        else:
            a_prev = rows[level - 1]
        best_val = a_prev[m] + idle[level]
        const_k = const[level]
        best_v = np.inf
        best_j = -1
        for j in range(w_here):
            v = (a_prev[m - (j + 1)] + const_k) + m_idx[j + 1] * slope_k
            if v < best_v:
                best_v = v
                best_j = j
        if best_j >= 0 and best_v < best_val - 1e-12:
            phi[active_idx[level]] = best_j + 1
            m -= best_j + 1
    return m_star


def _warmup(fn):
    """Specialise the production signature on a two-state instance."""
    n_states = 2
    phi = np.zeros(1, dtype=np.int64)
    active_idx = np.zeros(1, dtype=np.int64)
    w_eff = np.ones(1, dtype=np.int64)
    origin = np.zeros(1, dtype=np.int64)
    slope = np.full(1, -1.0)
    const = np.zeros(1)
    idle = np.full(1, 0.5)
    rows = np.empty((1, n_states))
    m_idx = np.arange(n_states, dtype=float)
    fscratch = np.empty(FSCRATCH_PER_STATE * n_states)
    iscratch = np.empty(n_states, dtype=np.int64)
    fn(phi, active_idx, w_eff, origin, slope, const, idle, rows, m_idx, fscratch, iscratch)


register(
    "ema_dp",
    numpy=ema_dp_numpy,
    python=ema_dp_loops,
    warmup=_warmup,
    phase="schedule",
)
