"""RTMA round-granting kernel (paper Algorithm 1, steps 4-13).

Grants units to eligible users in fixed rate order, round by round,
until the slot budget or every per-user demand is exhausted.  The numpy
implementation grants every round the budget covers in full at once
(closed form over a rounds-by-users grid) and then the one partial
round cumsum-clipped; the python/numba implementation grants
sequentially in the same order.  Within a round each user's take
depends only on its *pre-round* state and grants are consumed in
``order``, so both hand out identical (all-int64, hence exact) grants.

All arrays are full fleet length; ``order`` is a stable rate argsort of
every user (ineligible lanes simply take 0).  ``phi`` is updated in
place; the return value is the budget left over.
"""

from __future__ import annotations

import numpy as np

from repro.kernels.registry import register

__all__ = ["rtma_rounds_numpy", "rtma_rounds_loops"]


#: Largest ``(rounds + 1) * users`` grid the closed form builds; larger
#: instances run the rounds one at a time.  The closed form costs about
#: the grid, the round loop about the rounds the budget covers; timed
#: on the instances the simulator produces (RTMA at N = 4-2000), the
#: closed form is faster up to about 750 cells (1.3-2x, N <= 50), even
#: at 1500-3000 cells (N = 100-200) and slower beyond (N >= 400).
_GRID_CELLS = 1 << 11


def rtma_rounds_numpy(phi, eligible, need, cap, order, budget):
    """Closed-form rounds: every full round at once, then the partial one.

    A round gives each live user (eligible, positive need)
    ``min(need, cap - phi)`` units, so after ``r`` full rounds it holds
    ``phi + min(r * need, head)`` with ``head = max(cap - phi, 0)``.
    One ``(rounds + 1, users)`` grid of those totals finds the last
    round the budget covers in full; the round after it is granted in
    rate order, cumsum-clipped at what is left.  All int64, so the
    grants equal the sequential scan's exactly.
    """
    if budget <= 0:
        return budget
    live = eligible & (need > 0)
    head = np.where(live, cap - phi, 0)
    np.maximum(head, 0, out=head)
    step = np.where(live, need, 1)
    rounds = int((-(-head // step)).max(initial=0))
    if rounds == 0:
        return budget
    if (rounds + 1) * head.shape[0] > _GRID_CELLS:
        return _rounds_one_by_one(phi, eligible, need, cap, order, budget)
    grid = np.minimum(np.arange(rounds + 1)[:, None] * step, head)
    granted = grid.sum(axis=1)
    if granted[rounds] <= budget:
        phi += grid[rounds]
        return budget - int(granted[rounds])
    # granted[0] == 0 <= budget < granted[rounds]: round r + 1 is partial.
    r = int(np.searchsorted(granted, budget, side="right")) - 1
    left = budget - int(granted[r])
    take_sorted = (grid[r + 1] - grid[r])[order]
    cum = np.cumsum(take_sorted)
    grant_sorted = np.where(
        cum <= left, take_sorted, np.maximum(left - (cum - take_sorted), 0)
    )
    phi += grid[r]
    phi[order] += grant_sorted
    # The partial round's takes exceed what is left, so it spends it all.
    return 0


def _rounds_one_by_one(phi, eligible, need, cap, order, budget):
    """The rounds one at a time: cumsum over the rate order, clipped."""
    not_eligible = ~eligible
    while budget > 0:
        headroom = cap - phi
        take = np.minimum(need, headroom)
        take[not_eligible] = 0
        np.maximum(take, 0, out=take)
        if not take.any():
            break  # every eligible user is satisfied or capped
        take_sorted = take[order]
        cum = np.cumsum(take_sorted)
        grant_sorted = np.where(
            cum <= budget, take_sorted, np.maximum(budget - (cum - take_sorted), 0)
        )
        grant = np.empty_like(grant_sorted)
        grant[order] = grant_sorted
        granted = int(grant.sum())
        if granted == 0:
            break
        phi += grant
        budget -= granted
    return budget


def rtma_rounds_loops(phi, eligible, need, cap, order, budget):
    """Sequential rounds in rate order (numba source)."""
    n = order.shape[0]
    while budget > 0:
        any_take = False
        granted = 0
        for k in range(n):
            u = order[k]
            if not eligible[u]:
                continue
            take = need[u]
            headroom = cap[u] - phi[u]
            if headroom < take:
                take = headroom
            if take <= 0:
                continue
            any_take = True
            if budget > 0:
                g = take if take <= budget else budget
                phi[u] += g
                budget -= g
                granted += g
        if not any_take or granted == 0:
            break
    return budget


def _warmup(fn):
    """Specialise the production signature on a two-user instance."""
    phi = np.zeros(2, dtype=np.int64)
    eligible = np.array([True, False])
    need = np.ones(2, dtype=np.int64)
    cap = np.full(2, 3, dtype=np.int64)
    order = np.arange(2, dtype=np.int64)
    fn(phi, eligible, need, cap, order, np.int64(2))


register(
    "rtma_rounds",
    numpy=rtma_rounds_numpy,
    python=rtma_rounds_loops,
    warmup=_warmup,
    phase="schedule",
)
