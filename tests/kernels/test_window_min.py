"""The doubling sliding minimum behind the EMA DP and ``trailing_window_min``.

:func:`repro.kernels.ema_dp.window_min` replaced scipy's
``minimum_filter1d``.  A minimum is exact, so the contract is
bit-identity: against a brute-force window minimum that keeps the
latest minimal element (the loop kernel's deque rule), and against
scipy itself, used here as a test-only oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ema import trailing_window_min
from repro.kernels.ema_dp import window_min

#: Finite floats with both zeros, plus both infinities.
VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf]),
)


def brute_window_min(values, window):
    """``out[i]`` = min over ``values[max(0, i-window+1) : i+1]``, latest tie."""
    out = np.empty(len(values))
    for i in range(len(values)):
        best = np.inf
        for v in values[max(0, i - window + 1) : i + 1]:
            if v <= best:
                best = v
        out[i] = best
    return out


def brute_trailing_min(values, window):
    """``out[M]`` = min over ``values[max(0, M-window) : M]``, latest tie."""
    shifted = [np.inf] + list(values[:-1])
    return brute_window_min(shifted, window)


def run_window_min(values, window, pad):
    n = len(values)
    ping = np.full(pad + n, np.inf)
    ping[pad:] = values
    pong = np.full(pad + n, np.inf)
    out = window_min(ping, pong, pad, pad + n, window)
    # The padding survives the passes: later calls reuse the buffers.
    assert np.all(ping[:pad] == np.inf) and np.all(pong[:pad] == np.inf)
    return out


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(VALUES, min_size=1, max_size=300),
    window=st.integers(1, 320),
    extra_pad=st.integers(0, 3),
)
def test_window_min_matches_brute_force(values, window, extra_pad):
    pad = min(window, len(values)) // 2 + extra_pad
    out = run_window_min(values, window, pad)
    assert out.tobytes() == brute_window_min(values, window).tobytes()


@settings(max_examples=300, deadline=None)
@given(values=st.lists(VALUES, min_size=1, max_size=300), window=st.integers(1, 320))
def test_trailing_window_min_matches_brute_force(values, window):
    out = trailing_window_min(np.array(values), window)
    assert out.tobytes() == brute_trailing_min(values, window).tobytes()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 65, 300])
def test_window_of_one_and_window_past_the_end(n):
    values = np.random.default_rng(n).normal(size=n)
    assert run_window_min(values, 1, 0).tobytes() == values.tobytes()
    for window in (n, n + 1, 10 * n):
        expected = np.minimum.accumulate(values)
        assert run_window_min(values, window, n // 2).tobytes() == expected.tobytes()


def scipy_trailing_min(values, window):
    """The implementation ``trailing_window_min`` had before the doubling one."""
    ndimage = pytest.importorskip("scipy.ndimage")
    shifted = np.empty_like(values)
    shifted[0] = np.inf
    shifted[1:] = values[:-1]
    w = min(window, values.size)
    return ndimage.minimum_filter1d(
        shifted, size=w, mode="constant", cval=np.inf, origin=w - 1 - w // 2
    )


def test_bit_identical_to_scipy_minimum_filter():
    rng = np.random.default_rng(3)
    for _ in range(400):
        n = int(rng.integers(1, 300))
        values = rng.normal(0.0, 1e3, size=n)
        special = rng.random(n)
        values[special < 0.05] = np.inf
        values[special > 0.95] = -np.inf
        if rng.random() < 0.3:
            values = np.round(values / 500.0)  # ties, zeros excluded below
            values[values == 0.0] = 1.0
        for window in {1, 2, int(rng.integers(1, n + 1)), n, n + 5}:
            ours = trailing_window_min(values, window)
            assert ours.tobytes() == scipy_trailing_min(values, window).tobytes()


def test_signed_zero_ties_equal_scipy_in_value():
    # 0.0 and -0.0 compare equal, and scipy may keep either one; the
    # doubling minimum keeps the latest, as the loop kernel does.
    values = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -0.0])
    for window in range(1, 8):
        ours = trailing_window_min(values, window)
        assert np.array_equal(ours, scipy_trailing_min(values, window))
        assert ours.tobytes() == brute_trailing_min(list(values), window).tobytes()
