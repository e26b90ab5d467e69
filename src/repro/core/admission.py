"""Admission control for arriving streaming sessions.

When a churn run's engine sees a session arrive it consults an
:class:`AdmissionPolicy` before granting the session a fleet row.
Rejected sessions never receive data units and are
reported separately from admitted load (offered vs admitted split in
summaries), following the admission-control framing of Bethanabhotla
et al. (arXiv:1305.3586) where the scheduler and the admission rule
are co-designed.

Three policies ship:

``accept-all``
    The default; combined with ``all_at_zero`` arrivals it reproduces
    the paper's fixed population exactly.

``capacity-threshold``
    Admit while fewer than ``max_active`` sessions are resident.

``budget-aware``
    Admit while every resident session (including the candidate) can
    still be guaranteed at least ``min_units_per_user`` data units of
    the nominal per-slot budget Φ ≤ τS/δ from constraint (2) — a
    crude but deterministic proxy for "the cell can still feed
    everyone".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError

__all__ = [
    "ADMISSION_POLICIES",
    "AdmissionContext",
    "AdmissionPolicy",
    "AcceptAllPolicy",
    "CapacityThresholdPolicy",
    "BudgetAwarePolicy",
    "make_admission_policy",
]

#: Recognised values of ``SimConfig.admission``.
ADMISSION_POLICIES = ("accept-all", "capacity-threshold", "budget-aware")


@dataclass(frozen=True)
class AdmissionContext:
    """Everything a policy may inspect when a session arrives.

    Attributes
    ----------
    slot:
        Arrival slot of the candidate session.
    active_sessions:
        Sessions resident in the cell *before* this decision.
    capacity_rows:
        Current fleet row capacity (grows on demand; informational).
    unit_budget:
        Nominal per-slot data-unit budget ``τS/δ`` (constraint (2)).
    flow:
        The candidate :class:`~repro.net.flows.VideoFlow`.
    """

    slot: int
    active_sessions: int
    capacity_rows: int
    unit_budget: int
    flow: Any


class AdmissionPolicy(abc.ABC):
    """Decide whether an arriving session gets a fleet row."""

    #: Stable policy name (mirrors ``SimConfig.admission`` values).
    name: str = "admission"

    @abc.abstractmethod
    def admit(self, ctx: AdmissionContext) -> bool:
        """``True`` to admit the session described by ``ctx``."""

    def reset(self) -> None:
        """Clear any internal state before a run (default: stateless)."""


class AcceptAllPolicy(AdmissionPolicy):
    """Admit every arriving session (the paper's implicit policy)."""

    name = "accept-all"

    def admit(self, ctx: AdmissionContext) -> bool:
        return True


class CapacityThresholdPolicy(AdmissionPolicy):
    """Admit while fewer than ``max_active`` sessions are resident."""

    name = "capacity-threshold"

    def __init__(self, max_active: int) -> None:
        if max_active <= 0:
            raise ConfigurationError("max_active must be positive")
        self.max_active = int(max_active)

    def admit(self, ctx: AdmissionContext) -> bool:
        return ctx.active_sessions < self.max_active


class BudgetAwarePolicy(AdmissionPolicy):
    """Admit while the Φ budget still covers every resident session.

    A session is admitted iff ``(active + 1) * min_units_per_user``
    fits in the nominal per-slot unit budget, i.e. the cell could give
    each resident session its guaranteed floor every slot even at the
    candidate's arrival instant.
    """

    name = "budget-aware"

    def __init__(self, min_units_per_user: int) -> None:
        if min_units_per_user <= 0:
            raise ConfigurationError("min_units_per_user must be positive")
        self.min_units_per_user = int(min_units_per_user)

    def admit(self, ctx: AdmissionContext) -> bool:
        return (ctx.active_sessions + 1) * self.min_units_per_user <= ctx.unit_budget


def make_admission_policy(cfg) -> AdmissionPolicy:
    """Build the policy described by a :class:`~repro.sim.config.SimConfig`."""
    if cfg.admission == "accept-all":
        return AcceptAllPolicy()
    if cfg.admission == "capacity-threshold":
        return CapacityThresholdPolicy(cfg.admission_max_active)
    if cfg.admission == "budget-aware":
        return BudgetAwarePolicy(cfg.admission_min_units_per_user)
    raise ConfigurationError(f"unknown admission policy {cfg.admission!r}")
