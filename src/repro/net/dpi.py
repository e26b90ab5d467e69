"""Deep-packet-inspection middlebox stand-in.

The paper's Information Collector obtains each flow's required data
rate "from DPI middleboxes that are part of existing cellular networks"
(Section III-A).  We model the middlebox as a classifier that inspects
a :class:`~repro.net.flows.VideoFlow` and reports the rate the
*gateway* believes the flow needs — optionally with bounded inspection
error, which lets robustness experiments quantify how sensitive RTMA
and EMA are to mis-estimated bitrates.
"""

from __future__ import annotations

import numpy as np

from repro.arrays import as_array
from repro.errors import ConfigurationError
from repro.net.flows import VideoFlow

__all__ = ["DPIInspector"]

_F8 = np.dtype(float)


class DPIInspector:
    """Reports per-flow required data rates with optional estimation error.

    Parameters
    ----------
    rate_error_frac:
        Multiplicative error half-width: the reported rate is the true
        ``p_i(n)`` scaled by a factor drawn uniformly from
        ``[1 - e, 1 + e]`` per flow (fixed for the flow's lifetime,
        mimicking a mis-classified manifest).  ``0`` (default) reports
        the truth, as the paper assumes.
    rng:
        Seed or generator for error draws.
    """

    def __init__(self, rate_error_frac: float = 0.0, rng=None):
        if not 0.0 <= rate_error_frac < 1.0:
            raise ConfigurationError("rate_error_frac must be in [0, 1)")
        self.rate_error_frac = float(rate_error_frac)
        self._rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        self._flow_factor: dict[int, float] = {}

    def classify(self, flow: VideoFlow) -> str:
        """Protocol classification (pass-through for synthetic flows)."""
        return flow.protocol

    def required_rate_kbps(self, flow: VideoFlow, slot: int) -> float:
        """The rate the gateway observes for ``flow`` at ``slot``."""
        true_rate = flow.video.rate_kbps(slot)
        if self.rate_error_frac == 0.0:
            return true_rate
        factor = self._flow_factor.get(flow.user_id)
        if factor is None:
            e = self.rate_error_frac
            factor = float(self._rng.uniform(1.0 - e, 1.0 + e))
            self._flow_factor[flow.user_id] = factor
        return true_rate * factor

    def required_rates_kbps(self, flows: list[VideoFlow], slot: int) -> np.ndarray:
        """Vector of observed rates for a flow list (engine fast path)."""
        return np.array(
            [self.required_rate_kbps(f, slot) for f in flows], dtype=float
        )

    def observed_rates_kbps(
        self, flows: list[VideoFlow], true_rates_kbps: np.ndarray
    ) -> np.ndarray:
        """Apply the per-flow error factors to precomputed true rates.

        The fleet path evaluates ``p_i(n)`` for the whole cell in one
        vectorized lookup (see
        :meth:`repro.media.fleet.ClientFleet.rates_for_slot`); this
        applies the same per-flow factors — drawn lazily in flow order,
        exactly as :meth:`required_rate_kbps` would — to that vector.
        With zero error a float array input is returned as is.
        """
        rates = as_array(true_rates_kbps, _F8)
        if self.rate_error_frac == 0.0:
            return rates
        e = self.rate_error_frac
        factors = np.empty(len(flows), dtype=float)
        for k, flow in enumerate(flows):
            factor = self._flow_factor.get(flow.user_id)
            if factor is None:
                factor = float(self._rng.uniform(1.0 - e, 1.0 + e))
                self._flow_factor[flow.user_id] = factor
            factors[k] = factor
        return rates * factors
