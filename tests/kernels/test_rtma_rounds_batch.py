"""The segmented RTMA batch kernel equals the serial rounds per segment.

``rtma_rounds_batch_numpy`` runs every run's round in one pass over the
stacked rows (one gather, one cumsum with per-segment bases, one clip
at each run's budget).  Its contract is byte-identity with running
:func:`~repro.kernels.rtma_rounds.rtma_rounds_numpy` on each segment
alone, and with the loop kernel ``rtma_rounds_batch_loops`` (the numba
source, run interpreted here and compiled where Numba is installed).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import available_backends, registry
from repro.kernels.batch_step import rtma_rounds_batch_loops, rtma_rounds_batch_numpy
from repro.kernels.rtma_rounds import rtma_rounds_numpy

ALT_BACKENDS = [b for b in available_backends() if b != "numpy"]


def per_segment_reference(phi, eligible, need, cap, order, budgets, run_offsets):
    """``rtma_rounds_numpy`` on each run segment alone."""
    for r in range(budgets.shape[0]):
        lo, hi = int(run_offsets[r]), int(run_offsets[r + 1])
        rtma_rounds_numpy(
            phi[lo:hi], eligible[lo:hi], need[lo:hi], cap[lo:hi],
            order[lo:hi], int(budgets[r]),
        )


def assert_matches_serial(instance):
    """Byte-compare ``phi`` from every implementation on ``instance``."""
    phi0, eligible, need, cap, order, budgets, run_offsets = instance
    kernels = [per_segment_reference, rtma_rounds_batch_loops]
    kernels += [registry.resolve("rtma_rounds_batch", b) for b in ALT_BACKENDS]
    want = phi0.copy()
    rtma_rounds_batch_numpy(want, eligible, need, cap, order, budgets, run_offsets)
    for kern in kernels:
        got = phi0.copy()
        kern(got, eligible, need, cap, order, budgets.copy(), run_offsets)
        assert got.tobytes() == want.tobytes(), kern


def build(segments, phi0=None):
    """Stack per-run ``(eligible, need, cap, rates, budget)`` segments."""
    lengths = [len(seg[0]) for seg in segments]
    run_offsets = np.concatenate([[0], np.cumsum(lengths)]).astype(np.int64)
    eligible = np.concatenate([np.asarray(s[0], dtype=bool) for s in segments])
    need = np.concatenate([np.asarray(s[1], dtype=np.int64) for s in segments])
    cap = np.concatenate([np.asarray(s[2], dtype=np.int64) for s in segments])
    order = np.concatenate(
        [np.argsort(np.asarray(s[3], dtype=float), kind="stable") for s in segments]
    ).astype(np.int64)
    budgets = np.array([s[4] for s in segments], dtype=np.int64)
    if phi0 is None:
        phi0 = np.zeros(int(run_offsets[-1]), dtype=np.int64)
    return phi0, eligible, need, cap, order, budgets, run_offsets


@st.composite
def segment(draw, n_users):
    n = n_users
    eligible = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    need = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    cap = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
    # Few distinct rates, so equal rates (stable order) come up often.
    rates = draw(st.lists(st.sampled_from([300.0, 450.0, 600.0]), min_size=n, max_size=n))
    demand = sum(c for c, e in zip(cap, eligible) if e)
    budget = draw(st.one_of(st.just(0), st.integers(0, 40), st.just(demand + 5)))
    return eligible, need, cap, rates, budget


@st.composite
def instances(draw):
    n_runs = draw(st.integers(1, 5))
    n_users = draw(st.integers(0, 8))
    segments = [draw(segment(n_users)) for _ in range(n_runs)]
    total = n_runs * n_users
    phi0 = np.array(
        draw(st.lists(st.integers(0, 3), min_size=total, max_size=total)),
        dtype=np.int64,
    )
    return build(segments, phi0)


class TestSegmentedRounds:
    @settings(max_examples=300, deadline=None)
    @given(instance=instances())
    def test_matches_serial_rounds(self, instance):
        assert_matches_serial(instance)

    @pytest.mark.parametrize(
        "segments",
        [
            # R=1.
            [([True, True, False, True], [2, 3, 1, 2], [5, 1, 4, 0], [450, 300, 300, 600], 7)],
            [
                # Zero budget next to a live run.
                ([True, True, True], [2, 2, 2], [6, 6, 6], [300, 300, 300], 0),
                ([True, True, True], [2, 2, 2], [6, 6, 6], [300, 300, 300], 5),
                # Every lane ineligible.
                ([False, False, False], [3, 3, 3], [9, 9, 9], [300, 450, 600], 12),
                # Budget at and above total demand; cap < need and cap == 0.
                ([True, True, True], [4, 4, 4], [2, 0, 7], [600, 300, 450], 9),
                ([True, True, True], [4, 4, 4], [2, 0, 7], [600, 300, 450], 30),
                # Equal rates: the stable order alone decides who is short.
                ([True, True, True], [3, 3, 3], [9, 9, 9], [450, 450, 450], 10),
            ],
        ],
        ids=["one-run", "edge-segments"],
    )
    def test_edge_segments(self, segments):
        assert_matches_serial(build(segments))
