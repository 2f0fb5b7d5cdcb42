"""Unit tests for BBHT search (Grover with unknown M)."""

import numpy as np
import pytest

from repro.grover import PhaseOracleGrover, bbht_search


class TestBBHT:
    @pytest.mark.parametrize("marked", [[5], [1, 9, 14], list(range(8))])
    def test_finds_a_solution(self, marked, rng):
        engine = PhaseOracleGrover(4, marked)
        result = bbht_search(engine, rng=rng)
        assert result.found
        assert result.mask in set(marked)

    def test_no_solutions_terminates(self, rng):
        engine = PhaseOracleGrover(4, [])
        result = bbht_search(engine, rng=rng)
        assert not result.found
        assert result.mask is None
        # the default budget, plus at most one overshooting round
        assert result.oracle_calls <= (6 * 4 + 12) + 4

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_default_abort_threshold(self, n):
        """The default budget is 6 * ceil(sqrt(N)) + 12 oracle calls."""
        engine = PhaseOracleGrover(n, [])
        budget = 6 * int(np.ceil(np.sqrt(1 << n))) + 12
        for seed in range(5):
            default = bbht_search(engine, rng=seed)
            assert default == bbht_search(engine, rng=seed, max_oracle_calls=budget)
            assert budget <= default.oracle_calls < budget + int(np.ceil(np.sqrt(1 << n)))

    def test_cost_scales_with_rarity(self):
        """Expected calls grow as M shrinks (the O(sqrt(N/M)) law)."""
        n = 8
        dense_costs, sparse_costs = [], []
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dense = bbht_search(PhaseOracleGrover(n, range(64)), rng=rng)
            rng = np.random.default_rng(seed)
            sparse = bbht_search(PhaseOracleGrover(n, [7]), rng=rng)
            assert dense.found and sparse.found
            dense_costs.append(dense.oracle_calls)
            sparse_costs.append(sparse.oracle_calls)
        assert np.mean(sparse_costs) > np.mean(dense_costs)

    def test_respects_budget(self, rng):
        engine = PhaseOracleGrover(6, [3])
        result = bbht_search(engine, rng=rng, max_oracle_calls=0)
        assert not result.found
        assert result.oracle_calls == 0

    def test_near_optimal_expected_cost(self):
        """Mean BBHT cost is within a small factor of pi/4 sqrt(N/M)."""
        n, m = 8, 4
        engine = PhaseOracleGrover(n, range(m))
        optimal = np.pi / 4 * np.sqrt((1 << n) / m)
        costs = [
            bbht_search(engine, rng=np.random.default_rng(s)).oracle_calls
            for s in range(40)
        ]
        assert np.mean(costs) < 8 * optimal


class TestRestartsAndHooks:
    """The resilience hooks: execute/corrupt callables and schedule restarts."""

    def test_clean_run_reports_no_restarts(self, rng):
        engine = PhaseOracleGrover(4, [5])
        result = bbht_search(engine, rng=rng)
        assert result.restarts_used == 0

    def test_passthrough_hooks_are_identity(self):
        engine = PhaseOracleGrover(4, [5])
        plain = bbht_search(engine, rng=np.random.default_rng(3))
        hooked = bbht_search(
            engine,
            rng=np.random.default_rng(3),
            execute=lambda eng, iters: eng.run(iters),
            corrupt=lambda mask: mask,
        )
        assert hooked.mask == plain.mask
        assert hooked.oracle_calls == plain.oracle_calls
        assert hooked.rounds == plain.rounds

    def test_execute_hook_sees_every_run(self, rng):
        engine = PhaseOracleGrover(4, [5])
        calls = []

        def execute(eng, iterations):
            calls.append(iterations)
            return eng.run(iterations)

        result = bbht_search(engine, rng=rng, execute=execute)
        assert result.found
        assert len(calls) == result.rounds

    def test_corrupting_every_sample_consumes_restarts(self, rng):
        # A corrupt hook that maps every measurement to an unmarked
        # state defeats each schedule; the restart budget is consumed
        # and the failure is reported with full accounting.
        engine = PhaseOracleGrover(4, [5])
        result = bbht_search(
            engine, rng=rng, restarts=2, corrupt=lambda mask: 0
        )
        assert not result.found
        assert result.restarts_used == 2
        assert result.rejected == result.rounds

    def test_restart_recovers_from_transient_corruption(self):
        # Corruption that stops after the first schedule: the restart
        # finds the solution the first schedule was denied.
        engine = PhaseOracleGrover(4, [5])
        state = {"rounds": 0}

        def corrupt(mask):
            state["rounds"] += 1
            return 0 if state["rounds"] <= 40 else mask

        result = bbht_search(
            engine, rng=np.random.default_rng(4), restarts=3, corrupt=corrupt
        )
        assert result.found
        assert result.restarts_used >= 1
        assert result.rejected >= 40

    def test_same_seed_same_run_with_hooks(self):
        engine = PhaseOracleGrover(4, [1, 9])
        runs = [
            bbht_search(
                engine,
                rng=np.random.default_rng(17),
                restarts=1,
                corrupt=lambda mask: mask,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestQtkpIntegration:
    def test_bbht_mode_finds_paper_solution(self, fig1, rng):
        from repro.core import qtkp

        result = qtkp(fig1, 2, 4, counting="bbht", rng=rng)
        assert result.found
        assert result.subset == frozenset({0, 1, 3, 4})
        assert result.iterations == 0  # mode marker
        assert result.oracle_calls > 0

    def test_bbht_mode_fails_above_optimum(self, fig1, rng):
        from repro.core import qtkp

        result = qtkp(fig1, 2, 5, counting="bbht", rng=rng)
        assert not result.found
        assert result.oracle_calls > 0

    def test_unknown_counting_mode_rejected(self, fig1, rng):
        from repro.core import qtkp

        with pytest.raises(ValueError, match="counting"):
            qtkp(fig1, 2, 3, counting="magic", rng=rng)
