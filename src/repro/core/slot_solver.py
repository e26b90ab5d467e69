"""Certified closed-form solver for EMA's per-slot knapsack (Eq. 22).

EMA's slot problem charges each active user ``k`` the cost ``idle_k``
for not transmitting and ``const_k + slope_k * phi`` for ``phi`` in
``[1, w_k]``, minimised subject to ``sum(phi) <= M``: a fixed-charge
linear knapsack.  :mod:`repro.kernels.ema_dp` solves it exactly by an
O(N * M) dynamic program.  Almost always, though, Lagrangian duality
alone pins the optimum down.  :func:`certified_slot_solve` finds it in
O(N log N) and *proves* that the DP would return the same allocation,
bit for bit; when it cannot prove that, it returns ``None`` and the
caller runs the DP.

Certificate
-----------
For a multiplier ``lam >= 0`` let ``g_k(phi) = cost_k(phi) + lam * phi``
be user ``k``'s reduced cost.  For any ``y`` with ``sum(y) <= M`` and
any ``x`` with ``lam * (M - sum(x)) == 0``::

    cost(y) - cost(x) = sum_k [g_k(y_k) - g_k(x_k)] + lam * (M - sum(y))

and the last term is never negative.  Three shapes of ``x`` are
certified:

* **closed** (``lam = 0``): every user takes its best of
  ``{0, 1, w_k}`` and the total fits the budget;
* **fractional break** (``lam = -slope_k0``): the LP relaxation, filled
  greedily over each user's convex hull of ``(0, idle)``,
  ``(1, const + slope)`` and ``(w, const + slope * w)``, stops inside
  break user ``k0``'s transmit segment.  ``k0``'s reduced transmit cost
  is then flat, so ``k0`` takes the residual ``M - sum_{k != k0} x_k``,
  which must lie in ``[1, w_k0]``; everyone else takes its reduced-cost
  argmin.  Moving ``k0`` alone either leaves budget unused or drops it
  to idle (``const_k0 <= idle_k0``), which costs at least ``lam``;
* **integral break**: the greedy fills ``M`` exactly at a segment end.
  ``lam`` is the midpoint of the dual interval between the last taken
  and the first untaken segment slope, and every user's reduced-cost
  argmin must add up to ``M``.  When that end falls between one user's
  0->1 and 1->w segments (they are collinear when ``const == idle``),
  that user is also tried as a fractional break user with residual 1.

If every user ``k`` (bar ``k0``) beats its reduced-cost runner-up by
``margin_k``, every other feasible allocation costs at least
``Delta = min_k margin_k`` more (``min(lam, min_k margin_k)`` for a
fractional break): the optimum is unique by that gap.

Tolerance
---------
The DP's value tables carry rounding error.  With the scale
``B = sum_k max(|idle_k|, |const_k|) + max_k |slope_k| * M`` every
quantity a DP level rounds is bounded by ``B``; one level rounds at most
ten of them, so each table entry is within ``E = 5 * N * eps * B`` of
its exact value.  The backtrack compares two entries and transmits only
when that wins by more than ``1e-12``.  A unique optimum with gap
``Delta > 2 * E + 1e-12`` is therefore exactly the allocation the DP
returns: its ``argmin`` and tie rules are never consulted.  The solver
accepts ``Delta > tol`` with ::

    tol = 16 * (N + 1) * eps * B + 1e-12

which also absorbs the rounding in its own margin arithmetic.  Ties
(for instance the slot-0 queues seeded so that every user at the same
power shares one slope) have ``Delta = 0`` and always go to the DP.
"""

from __future__ import annotations

import numpy as np

__all__ = ["CLOSED", "CERTIFIED", "certified_slot_solve", "certificate_tolerance"]

#: Path names returned by :func:`certified_slot_solve`.
CLOSED = "closed"
CERTIFIED = "certified"

_EPS = float(np.finfo(float).eps)


def certificate_tolerance(n_active, budget, const, idle, live_slope) -> float:
    """``tol = 16 * (N + 1) * eps * B + 1e-12`` (see the module docstring)."""
    scale = float(np.maximum(np.abs(idle), np.abs(const)).sum())
    if live_slope.size:
        scale += float(np.abs(live_slope).max()) * budget
    return 16.0 * (n_active + 1) * _EPS * scale + 1e-12


def _reduced_choice(s_red, w, const, idle):
    """Each user's reduced-cost argmin over ``{0} u [1, w]`` and its margin.

    The transmit cost is affine, so its best is an end (1 or ``w``) and
    its runner-up the next unit over, ``|s_red|`` worse (none if
    ``w == 1``).  An idle user's margin is its best transmit's excess.
    """
    t1 = const + s_red
    tw = const + s_red * w
    best_tx = np.minimum(t1, tw)
    take = best_tx < idle
    x = np.where(take, np.where(tw < t1, w, 1.0), 0.0)
    tx_gap = np.where(w >= 2.0, np.abs(s_red), np.inf)
    margin = np.where(take, np.minimum(idle - best_tx, tx_gap), best_tx - idle)
    return x, margin


def _binding(budget, s, w, c, i, tol):
    """Certified allocation of a binding call, or ``None``."""
    # Hull segments: two (0->1 then 1->w) when const <= idle keeps
    # (1, const + slope) on the hull, else one chord 0->w; w == 1 users
    # have the single 0->1 segment.
    two = (w >= 2.0) & (c <= i)
    first = two | (w < 2.0)
    chord = ~first
    idx = np.arange(w.size)
    # Rounding may lift a two-segment user's 0->1 slope above its 1->w
    # slope (they tie when const == idle); keep the hull's order.
    head = np.where(two, np.minimum((c + s) - i, s), (c + s) - i)
    slopes = np.concatenate((head[first], s[two], ((c + s * w) - i)[chord] / w[chord]))
    lens = np.concatenate((np.ones(int(first.sum())), w[two] - 1.0, w[chord]))
    owner = np.concatenate((idx[first], idx[two], idx[chord]))

    neg = np.flatnonzero(slopes < 0.0)
    order = neg[np.argsort(slopes[neg], kind="stable")]
    cum = np.cumsum(lens[order])
    b = int(np.searchsorted(cum, budget))
    if b >= order.size:
        return None
    seg = order[b]
    if budget < cum[b]:
        # The break lands inside a segment (a 1->w or chord one; a
        # chord user's transmit cost is not flat, and it is refused).
        return _fractional(budget, int(owner[seg]), s, w, c, i, tol)
    nxt = order[b + 1] if b + 1 < order.size else -1
    lam_hi = -float(slopes[seg])
    lam_lo = -float(slopes[nxt]) if nxt >= 0 else 0.0
    x = None
    if lam_lo < lam_hi:
        x = _integral(budget, 0.5 * (lam_lo + lam_hi), s, w, c, i, tol)
    if x is None and nxt >= 0 and owner[nxt] == owner[seg]:
        # The budget ends between one user's 0->1 and 1->w segments,
        # near-collinear when const == idle: a break at its first unit.
        x = _fractional(budget, int(owner[nxt]), s, w, c, i, tol)
    return x


def _fractional(budget, k0, s, w, c, i, tol):
    """Break user ``k0`` takes the residual under ``lam = -slope_k0``."""
    lam = -float(s[k0])
    x, margin = _reduced_choice(s + lam, w, c, i)
    x[k0] = 0.0
    margin[k0] = np.inf
    residual = budget - x.sum()
    if not (1.0 <= residual <= w[k0]) or c[k0] > i[k0]:
        return None
    if min(lam, float(margin.min())) <= tol:
        return None
    x[k0] = residual
    return x


def _integral(budget, lam, s, w, c, i, tol):
    """Every user's reduced-cost argmin under ``lam``, filling the budget."""
    x, margin = _reduced_choice(s + lam, w, c, i)
    if x.sum() != budget or float(margin.min()) <= tol:
        return None
    return x


def certified_slot_solve(phi, active_idx, w_eff, slope, const, idle, budget):
    """Solve one slot in closed form when a certificate proves the answer.

    Takes the DP kernel's packed coefficients (``w_eff == 0`` marks pure
    no-transmit users, whose slope is never read) and the unit budget
    ``M >= 1``.  On success writes the allocation into
    ``phi[active_idx]`` (left zero elsewhere) and returns
    :data:`CLOSED` (capacity does not bind) or :data:`CERTIFIED`
    (it binds); the allocation is byte-equal to the DP's.  Returns
    ``None``, with ``phi`` untouched, when the DP must decide.
    """
    if not (np.isfinite(idle).all() and np.isfinite(const).all()):
        return None
    live = np.flatnonzero(w_eff > 0)
    s = slope[live]
    if not np.isfinite(s).all():
        return None
    w = w_eff[live].astype(float)
    c = const[live]
    i = idle[live]
    tol = certificate_tolerance(active_idx.shape[0], budget, const, idle, s)

    x, margin = _reduced_choice(s, w, c, i)
    if x.sum() <= budget:
        if live.size and float(margin.min()) <= tol:
            return None
        path = CLOSED
    else:
        x = _binding(budget, s, w, c, i, tol)
        if x is None:
            return None
        path = CERTIFIED
    phi[active_idx[live]] = x
    return path
