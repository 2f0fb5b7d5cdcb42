"""Unit tests for Grover schedules and probabilities."""

import math

import pytest

from repro.grover import (
    error_probability,
    optimal_iterations,
    paper_error_bound,
    success_probability,
)


class TestOptimalIterations:
    def test_single_marked_64(self):
        # The paper's Fig. 12 run: N = 64, M = 1 -> 6 iterations.
        assert optimal_iterations(64, 1) == 6

    def test_formula(self):
        for n_states, marked in [(16, 1), (256, 4), (1024, 10)]:
            expected = math.floor(math.pi / 4 * math.sqrt(n_states / marked))
            assert optimal_iterations(n_states, marked) == expected

    def test_majority_marked_gives_zero(self):
        assert optimal_iterations(4, 4) == 0

    def test_zero_only_above_pi_over_4_squared(self):
        """A marked majority alone does not give 0: the cut is (pi/4)^2 N."""
        assert optimal_iterations(16, 9) == 1
        assert optimal_iterations(16, 10) == 0
        for n_states in (16, 64, 1024, 1 << 16):
            for marked in range(n_states // 2, n_states + 1):
                zero = marked > (math.pi / 4) ** 2 * n_states
                assert (optimal_iterations(n_states, marked) == 0) == zero

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            optimal_iterations(0, 1)
        with pytest.raises(ValueError):
            optimal_iterations(8, 0)
        with pytest.raises(ValueError):
            optimal_iterations(8, 9)


class TestSuccessProbability:
    def test_initial_uniform(self):
        assert success_probability(64, 1, 0) == pytest.approx(1 / 64)

    def test_monotone_until_optimum(self):
        probs = [success_probability(64, 1, i) for i in range(7)]
        assert probs == sorted(probs)

    def test_near_one_at_optimum(self):
        iters = optimal_iterations(64, 1)
        assert success_probability(64, 1, iters) > 0.99

    def test_zero_marked(self):
        assert success_probability(16, 0, 3) == 0.0

    def test_error_complements_success(self):
        assert error_probability(64, 1, 6) == pytest.approx(
            1 - success_probability(64, 1, 6)
        )

    def test_negative_iterations(self):
        with pytest.raises(ValueError):
            success_probability(8, 1, -1)


class TestPaperBound:
    def test_bound_dominates_exact_error_at_optimum(self):
        for n_states in (64, 256, 1024):
            iters = optimal_iterations(n_states, 1)
            assert paper_error_bound(iters) >= error_probability(n_states, 1, iters)

    def test_decreases_quadratically(self):
        assert paper_error_bound(20) == pytest.approx(paper_error_bound(10) / 4)

    def test_invalid(self):
        with pytest.raises(ValueError):
            paper_error_bound(0)
