"""Exactness of the two-amplitude Grover engine.

The engine keeps one marked and one unmarked amplitude and reproduces
NumPy's pairwise summation of the ``2^n`` vector without building it.
Every test here compares bit for bit against the ``2^n``-vector
recurrence it replaced (:func:`vector_run`), or against
``np.add.reduce`` itself, so a NumPy release that changes its float64
summation order fails here first.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.grover import PhaseOracleGrover, simulator
from repro.grover.simulator import TwoValuedSum, _uniform_sum_program


def vector_run(n, marked, iterations, snapshot_at=(), depolarize=0.0):
    """The ``2^n``-vector simulation, kept only as the exactness oracle."""
    idx = np.array(sorted(marked), dtype=np.int64)
    amp = np.full(1 << n, 1.0 / np.sqrt(1 << n))
    snaps = {0: amp.copy()} if 0 in snapshot_at else {}
    history = [float(np.sum(amp[idx] ** 2)) if idx.size else 0.0]
    for i in range(1, iterations + 1):
        amp[idx] *= -1.0
        amp = 2.0 * amp.mean() - amp
        history.append(float(np.sum(amp[idx] ** 2)) if idx.size else 0.0)
        if i in snapshot_at:
            snaps[i] = amp.copy()
    d = 1.0 - (1.0 - depolarize) ** iterations if depolarize else 0.0
    p = amp ** 2 / (amp ** 2).sum()
    return amp, history, snaps, (1.0 - d) * p + d / p.size if d else p, d


def same_bits(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@st.composite
def marked_sets(draw, min_n=1, max_n=20):
    """A register width and a marked set of one of several shapes."""
    n = draw(st.integers(min_n, max_n))
    dim = 1 << n
    shape = draw(st.sampled_from(["sparse", "dense", "run", "empty", "one", "all", "every_leaf"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "sparse":
        marked = rng.choice(dim, size=min(dim, int(rng.integers(1, 64))), replace=False)
    elif shape == "dense":
        marked = rng.choice(dim, size=int(rng.integers(0, min(dim, 1 << 14) + 1)), replace=False)
    elif shape == "run":
        start = int(rng.integers(0, dim))
        marked = np.arange(start, min(dim, start + int(rng.integers(1, 4096))))
    elif shape == "empty":
        marked = np.array([], dtype=np.int64)
    elif shape == "one":
        marked = rng.integers(0, dim, size=1)
    elif shape == "all":
        marked = np.arange(dim if n <= 16 else 0)  # M = N, cheap widths only
    else:  # one index in every 128-element block, plus a few more
        blocks = np.arange(0, dim, 128)
        marked = np.concatenate(
            (blocks + rng.integers(0, min(dim, 128), size=blocks.size),
             rng.integers(0, dim, size=8))
        )
    return n, np.unique(marked).astype(np.int64)


def check_run(n, marked, iterations, depolarize=0.0, seed=0):
    snapshot_at = (0, iterations // 2, iterations)
    amp, history, snaps, probs, d = vector_run(
        n, marked, iterations, snapshot_at, depolarize
    )
    run = PhaseOracleGrover(n, marked).run(
        iterations, snapshot_at=snapshot_at, depolarize=depolarize
    )
    assert same_bits(run.amplitudes, amp)
    assert run.history == history
    assert run.depolarization == d
    assert set(run.amplitude_snapshots) == set(snaps)
    for i, vector in run.amplitude_snapshots.items():
        assert same_bits(vector, snaps[i])
    assert same_bits(run.probabilities(), probs)
    clean = history[-1]
    expected = (1.0 - d) * clean + d * (marked.size / (1 << n)) if d else clean
    assert run.success_probability == (expected if marked.size else 0.0)

    ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
    draws = [run.measure_once(ours) for _ in range(4)]
    assert draws == [int(theirs.choice(probs.size, p=probs)) for _ in range(4)]
    counts = run.measure(64, ours)
    values, tallies = np.unique(theirs.choice(probs.size, size=64, p=probs), return_counts=True)
    assert counts == {int(v): int(c) for v, c in zip(values, tallies)}


class TestAgainstVectorRecurrence:
    @given(marked_sets(), st.integers(0, 40), st.sampled_from([0.0, 0.05]), st.integers(0, 99))
    @settings(max_examples=60, deadline=None)
    def test_random_runs_are_bit_identical(self, case, iterations, depolarize, seed):
        n, marked = case
        if n >= 17:
            iterations = min(iterations, 6)  # the vector oracle is O(2^n) per round
        check_run(n, marked, iterations, depolarize, seed)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_in_order_path_every_marked_set(self, n):
        """Below 8 elements NumPy sums in order: try every marked set."""
        for bits in range(1 << (1 << n)):
            marked = np.array([i for i in range(1 << n) if bits >> i & 1], dtype=np.int64)
            check_run(n, marked, 5)

    @pytest.mark.parametrize("marked", [[], [0], [127], [3, 64, 65], list(range(128))])
    def test_single_block(self, marked):
        """n = 7: the whole register is one 128-element block."""
        check_run(7, np.array(marked, dtype=np.int64), 12, depolarize=0.1)

    def test_history_squares_by_multiplication(self):
        """Fig. 12's run (N = 64, M = 1, 6 rounds) ends on an amplitude
        whose Python ``a ** 2`` is one ulp off NumPy's ``a * a``."""
        run = PhaseOracleGrover(6, [42]).run(6)
        a = run.marked_amplitude
        assert a ** 2 != a * a
        check_run(6, np.array([42], dtype=np.int64), 6)

    def test_optimal_schedule_at_n20(self):
        check_run(20, np.array([5, 1 << 19, (1 << 20) - 1], dtype=np.int64), 12)

    def test_no_snapshots_unless_requested(self):
        run = PhaseOracleGrover(5, [3]).run(4)
        assert run.snapshots == {} and run.amplitude_snapshots == {}


def both_walks(n, marked):
    """The emulator compiled to a scalar program and walked with NumPy."""
    with mock.patch.object(simulator, "_MAX_PROGRAM_STEPS", 1 << 62):
        program = TwoValuedSum(n, marked)
    with mock.patch.object(simulator, "_MAX_PROGRAM_STEPS", -1):
        walk = TwoValuedSum(n, marked)
    return program, walk


class TestSummationEmulator:
    """Direct checks of the emulated reduction against ``np.add.reduce``."""

    @given(
        marked_sets(max_n=16),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.floats(-1e3, 1e3, allow_nan=False),
        st.integers(-300, 300),
    )
    @settings(max_examples=150, deadline=None)
    def test_two_valued_sum(self, case, x, y, exponent):
        n, marked = case
        x, y = x * 2.0 ** exponent, y * 3.0 ** (exponent // 3)
        vector = np.full(1 << n, y)
        vector[marked] = x
        expected = np.add.reduce(vector)
        for emulator in both_walks(n, marked):
            assert same_bits(emulator(x, y), expected)

    @given(marked_sets(min_n=17), st.floats(-1.0, 1.0, allow_nan=False))
    @settings(max_examples=30, deadline=None)
    def test_two_valued_sum_wide(self, case, x):
        n, marked = case
        vector = np.full(1 << n, 1.0 / 3.0)
        vector[marked] = x
        assert same_bits(TwoValuedSum(n, marked)(x, 1.0 / 3.0), np.add.reduce(vector))

    def test_walk_follows_size(self):
        assert TwoValuedSum(19, np.array([7]))._program is not None
        assert TwoValuedSum(19, np.arange(0, 1 << 19, 97))._program is None

    @given(st.integers(0, 5000), st.floats(-1e6, 1e6, allow_nan=False))
    @settings(max_examples=150, deadline=None)
    def test_uniform_sum_program(self, count, value):
        expected = np.add.reduce(np.full(count, value))
        assert same_bits(_uniform_sum_program(count)(value), expected)

    @pytest.mark.parametrize("count", [7, 8, 9, 127, 128, 129, 135, 136, 1000, 65536, 300001])
    def test_uniform_sum_program_boundaries(self, count):
        value = 0.1 / 3.0
        program = _uniform_sum_program(count)
        assert same_bits(program(value), np.add.reduce(np.full(count, value)))
        assert len(program.steps) < 200  # shared sub-sums: O(log count) steps
