"""Allocation validation and repair for constraints (1) and (2).

The engine validates every scheduler's output with
:func:`check_constraints` (raising
:class:`~repro.errors.ConstraintViolationError` on any violation) so a
buggy policy fails loudly instead of silently inflating its results.
:func:`clip_to_constraints` is the lenient variant used by baseline
implementations that compute a *desired* allocation first and then fit
it to the physical limits in user order.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import as_array
from repro.errors import ConstraintViolationError
from repro.net.gateway import SlotObservation

__all__ = ["check_constraints", "clip_to_constraints"]


def check_constraints(phi: np.ndarray, obs: SlotObservation) -> None:
    """Raise unless ``phi`` satisfies Eqs. (1)-(2) and activity masking.

    Checks, in order:

    * shape and integrality (non-negative integers);
    * per-user link cap ``phi_i <= floor(tau * v(sig_i) / delta)``;
    * BS budget ``sum(phi) <= floor(tau * S(n) / delta)``;
    * inactive users receive nothing.

    The engine calls this every slot, so the per-user checks run as one
    fail-fast test — an inactive user's cap is 0, so ``phi <= link *
    active`` covers Eq. (1) and activity together — and the checks are
    replayed one by one, for the message, only when it fails.
    """
    phi = as_array(phi)
    if phi.shape != (obs.n_users,):
        raise ConstraintViolationError(
            f"allocation shape {phi.shape} != ({obs.n_users},)", obs.slot
        )
    if phi.dtype.kind not in "iu":
        raise ConstraintViolationError(
            f"allocation dtype {phi.dtype} is not integral", obs.slot
        )
    cap = np.multiply(obs.link_units, obs.active)
    if phi.min() < 0 or np.greater(phi, cap).any():
        _explain_per_user(phi, obs)
    _check_budget(phi, obs)


def _check_budget(phi: np.ndarray, obs: SlotObservation) -> None:
    """Eq. (2): the slot's units fit the BS budget."""
    run_budgets = getattr(obs, "run_unit_budgets", None)
    if run_budgets is not None:
        # Run-stacked observation: Eq. (2) holds per run segment, not
        # over the aggregate row space (int64 reduceat sums are exact).
        totals = np.add.reduceat(phi, obs.run_offsets[:-1])
        over_run = np.greater(totals, run_budgets)
        if over_run.any():
            r = int(over_run.argmax())
            raise ConstraintViolationError(
                f"run {r}: total {int(totals[r])} units exceeds BS budget "
                f"{int(run_budgets[r])} (Eq. 2)",
                obs.slot,
            )
    else:
        total = int(phi.sum())
        if total > obs.unit_budget:
            raise ConstraintViolationError(
                f"total {total} units exceeds BS budget {obs.unit_budget} (Eq. 2)",
                obs.slot,
            )


def _explain_per_user(phi: np.ndarray, obs: SlotObservation) -> None:
    """Raise the first violation in :func:`check_constraints` order.

    Called once the fail-fast test has found a per-user violation; the
    Eq. (2) budget sits between the link cap and the activity check.
    """
    if (phi < 0).any():
        raise ConstraintViolationError("negative allocation", obs.slot)
    over = phi > obs.link_units
    if over.any():
        i = int(over.argmax())
        raise ConstraintViolationError(
            f"user {i}: phi={int(phi[i])} exceeds link cap {int(obs.link_units[i])} "
            f"(Eq. 1)",
            obs.slot,
        )
    _check_budget(phi, obs)
    raise ConstraintViolationError("allocation to inactive user", obs.slot)


def clip_to_constraints(desired: np.ndarray, obs: SlotObservation) -> np.ndarray:
    """Fit a desired (possibly fractional/overcommitted) allocation to
    constraints (1)-(2).

    Per-user caps are applied first; then the BS budget is granted in
    ascending user-index order (first-come-first-served), which models
    the naive head-of-line behaviour the paper's *default* strategy
    exhibits and that RTMA's round-based allocation deliberately avoids.
    """
    # The int cast truncates, which is the floor on non-negatives.
    want = np.maximum(desired, 0.0, dtype=float).astype(np.int64)
    np.minimum(want, obs.link_units, out=want)
    want[~obs.active] = 0
    run_budgets = getattr(obs, "run_unit_budgets", None)
    if run_budgets is not None:
        return _clip_batch(want, obs.run_offsets, run_budgets)
    # Greedy prefix under the budget: cumulative sum, then truncate the
    # first user that crosses the line and zero the rest.
    cum = np.cumsum(want)
    budget = obs.unit_budget
    if cum[-1] <= budget:
        return want
    over = cum > budget
    first = int(over.argmax())
    prior = int(cum[first - 1]) if first > 0 else 0
    want[first] = max(budget - prior, 0)
    want[first + 1 :] = 0
    return want


def _clip_batch(
    want: np.ndarray, run_offsets: np.ndarray, run_budgets: np.ndarray
) -> np.ndarray:
    """Segmented greedy-prefix clip for run-stacked observations.

    Each run gets the serial treatment against its own budget: per-run
    cumulative sum (int64, so 2-D and 1-D orders agree exactly),
    truncate the first over-budget user, zero the rest of the segment.
    ``want`` (fresh from :func:`clip_to_constraints`) is clipped in
    place.
    """
    phi = want
    n_runs = run_budgets.shape[0]
    n_per_run = int(run_offsets[1] - run_offsets[0])
    if want.size == n_runs * n_per_run:
        # Uniform segments (the batch engine's invariant): one 2-D
        # cumsum, then the serial tail-zeroing on offending rows only.
        phi2 = phi.reshape(n_runs, n_per_run)
        cum = np.cumsum(phi2, axis=1)
        over = cum > run_budgets[:, None]
        for r in np.flatnonzero(over.any(axis=1)):
            first = int(np.argmax(over[r]))
            prior = int(cum[r, first - 1]) if first > 0 else 0
            phi2[r, first] = max(int(run_budgets[r]) - prior, 0)
            phi2[r, first + 1 :] = 0
        return phi
    for r in range(n_runs):
        lo = int(run_offsets[r])
        hi = int(run_offsets[r + 1])
        cum = np.cumsum(want[lo:hi])
        budget = int(run_budgets[r])
        over = cum > budget
        if np.any(over):
            first = int(np.argmax(over))
            prior = int(cum[first - 1]) if first > 0 else 0
            seg = phi[lo:hi]
            seg[first] = max(budget - prior, 0)
            seg[first + 1 :] = 0
    return phi
