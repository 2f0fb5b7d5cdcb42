"""Unit tests for the k-cplex oracle (the heart of qTKP)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.oracle import (
    COMPONENT_DEGREE_COMPARE,
    COMPONENT_DEGREE_COUNT,
    COMPONENT_ENCODE,
    COMPONENT_SIZE_CHECK,
    KCplexOracle,
    OracleCosts,
)
from repro.datasets import figure1_graph
from repro.graphs import Graph, complete_graph, empty_graph, gnm_random_graph
from repro.kplex import is_kplex


class TestConstruction:
    def test_invalid_k(self, fig1):
        with pytest.raises(ValueError):
            KCplexOracle(fig1.complement(), 0, 1)

    def test_invalid_threshold(self, fig1):
        with pytest.raises(ValueError):
            KCplexOracle(fig1.complement(), 2, -1)
        with pytest.raises(ValueError):
            KCplexOracle(fig1.complement(), 2, 7)

    def test_registers_present(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        regs = oracle.u_check.registers
        assert regs["v"].size == 6
        assert regs["e"].size == fig1.complement().num_edges

    def test_qubit_budget_reported(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        assert oracle.num_qubits > 6
        assert oracle.num_vertices == 6


class TestPredicate:
    def test_matches_kplex_definition(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        for mask in range(64):
            subset = fig1.bitmask_to_subset(mask)
            expected = len(subset) >= 4 and is_kplex(fig1, subset, 2)
            assert oracle.predicate(mask) == expected

    def test_threshold_zero_accepts_empty(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 0)
        assert oracle.predicate(0)

    def test_unique_solution_on_paper_graph(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        marked = [m for m in range(64) if oracle.predicate(m)]
        assert len(marked) == 1
        assert fig1.bitmask_to_subset(marked[0]) == frozenset({0, 1, 3, 4})


class TestCircuitFaithfulness:
    """The built circuit must compute exactly the predicate."""

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("threshold", [1, 3, 5])
    def test_circuit_equals_predicate_fig1(self, k, threshold):
        g = figure1_graph()
        oracle = KCplexOracle(g.complement(), k, threshold)
        for mask in range(64):
            assert oracle.classical_eval(mask) == oracle.predicate(mask)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_circuit_equals_predicate_random(self, seed):
        g = gnm_random_graph(6, 8, seed=seed)
        oracle = KCplexOracle(g.complement(), 2, 3)
        for mask in range(64):
            assert oracle.classical_eval(mask) == oracle.predicate(mask)

    def test_uncompute_restores_all_ancillas(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        for mask in range(64):
            assert oracle.uncompute_is_clean(mask)

    def test_complete_graph_every_subset_passes_degree(self):
        # Complement of K_n is empty: every subset is a 1-cplex.
        g = complete_graph(5)
        oracle = KCplexOracle(g.complement(), 1, 3)
        for mask in range(32):
            expected = bin(mask).count("1") >= 3
            assert oracle.classical_eval(mask) == expected

    def test_empty_graph_edge_cases(self):
        # Complement of the empty graph is complete: only tiny subsets pass.
        g = empty_graph(4)
        oracle = KCplexOracle(g.complement(), 2, 1)
        for mask in range(16):
            subset = g.bitmask_to_subset(mask)
            expected = 1 <= len(subset) and is_kplex(g, subset, 2)
            assert oracle.classical_eval(mask) == expected


class TestPhaseOracleCircuit:
    def test_width_is_ucheck_plus_oracle_qubit(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        assert oracle.phase_oracle_circuit().num_qubits == oracle.num_qubits + 1

    def test_gate_count_is_twice_plus_mark(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        phase = oracle.phase_oracle_circuit()
        assert phase.num_gates == 2 * oracle.u_check.num_gates + 1


class TestComponentCosts:
    def test_components_sum_to_total(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        costs = oracle.component_costs()
        assert costs.total == (
            costs.encode + costs.degree_count + costs.degree_compare
            + costs.size_check + costs.mark
        )

    def test_shares_sum_to_one(self, fig1):
        shares = KCplexOracle(fig1.complement(), 2, 4).component_costs().shares()
        assert sum(shares.values()) == pytest.approx(1.0)

    def test_degree_count_dominates(self, fig1):
        # Table IV: degree counting is the largest oracle component.
        shares = KCplexOracle(fig1.complement(), 2, 4).component_costs().shares()
        assert shares["degree_count"] > shares["degree_compare"]
        assert shares["degree_count"] > shares["size_check"]

    def test_degree_count_share_grows_with_n(self):
        """Table IV trend: the degree-count share increases with n."""
        shares = []
        for n, m in [(6, 8), (8, 14), (10, 23)]:
            g = gnm_random_graph(n, m, seed=0)
            oracle = KCplexOracle(g.complement(), 2, 3)
            shares.append(oracle.component_costs().shares()["degree_count"])
        assert shares[0] < shares[-1]

    def test_encode_gate_count_matches_complement_edges(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        # one Toffoli per complement edge, counted twice (U and U-dagger)
        assert oracle.component_costs().encode == 2 * fig1.complement().num_edges


def built_costs(oracle: KCplexOracle) -> OracleCosts:
    """Component costs read off the fully built ``U_check``."""
    forward = oracle.u_check.labelled_gate_counts()
    return OracleCosts(
        encode=2 * forward.get(COMPONENT_ENCODE, 0),
        degree_count=2 * forward.get(COMPONENT_DEGREE_COUNT, 0),
        degree_compare=2 * forward.get(COMPONENT_DEGREE_COMPARE, 0),
        size_check=2 * forward.get(COMPONENT_SIZE_CHECK, 0),
        mark=1,
    )


class TestCircuitFreeAccounting:
    """``component_costs`` counts gates without building ``U_check``."""

    @given(
        st.integers(0, 11), st.data(), st.integers(1, 6),
        st.sampled_from(["compact", "full_adder"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_equals_built_circuit(self, n, data, k, adder):
        m = data.draw(st.integers(0, n * (n - 1) // 2))
        graph = gnm_random_graph(n, m, seed=data.draw(st.integers(0, 999)))
        threshold = data.draw(st.integers(0, n))
        oracle = KCplexOracle(graph.complement(), k, threshold, adder=adder)
        assert oracle.component_costs() == built_costs(
            KCplexOracle(graph.complement(), k, threshold, adder=adder)
        )

    @pytest.mark.parametrize("adder", ["compact", "full_adder"])
    @pytest.mark.parametrize(
        "graph",
        [
            complete_graph(7),                         # complement: all isolated
            empty_graph(6),                            # complement: complete
            Graph(6, [(0, 1), (1, 2), (2, 0)]),        # isolated vertices 3..5
            Graph(1),
        ],
        ids=["complete", "empty", "isolated", "single"],
    )
    @pytest.mark.parametrize("k", [1, 2, 4, 9])  # k - 1 >= 2^width: always pass
    def test_edge_shapes(self, graph, k, adder):
        n = graph.num_vertices
        for threshold in (0, n):
            oracle = KCplexOracle(graph.complement(), k, threshold, adder=adder)
            assert oracle.component_costs() == built_costs(oracle)

    def test_does_not_build_the_circuit(self, fig1, monkeypatch):
        def refuse(self):
            raise AssertionError("component_costs built U_check")

        monkeypatch.setattr(KCplexOracle, "_circuit", property(refuse))
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        assert oracle.component_costs().total > 0
        with pytest.raises(AssertionError, match="built U_check"):
            oracle.u_check

    def test_circuit_is_built_once(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4)
        assert oracle.u_check is oracle.u_check


class TestDegenerateGraphs:
    def test_single_vertex(self):
        g = Graph(1)
        oracle = KCplexOracle(g.complement(), 1, 1)
        assert oracle.classical_eval(0) is False
        assert oracle.classical_eval(1) is True

    def test_two_vertices_no_edge(self):
        g = Graph(2)  # complement = single edge
        oracle = KCplexOracle(g.complement(), 1, 2)
        # {0,1} is not a 1-plex of g (they are not adjacent).
        assert oracle.classical_eval(3) is False


class TestAdderModes:
    """The oracle supports both accumulation circuits."""

    def test_full_adder_oracle_is_faithful(self, fig1):
        oracle = KCplexOracle(fig1.complement(), 2, 4, adder="full_adder")
        for mask in range(64):
            assert oracle.classical_eval(mask) == oracle.predicate(mask)
            assert oracle.uncompute_is_clean(mask)

    def test_full_adder_uses_more_resources(self, fig1):
        compact = KCplexOracle(fig1.complement(), 2, 4)
        faithful = KCplexOracle(fig1.complement(), 2, 4, adder="full_adder")
        assert faithful.num_qubits > compact.num_qubits
        assert faithful.component_costs().total > compact.component_costs().total

    def test_unknown_adder_rejected(self, fig1):
        with pytest.raises(ValueError, match="adder"):
            KCplexOracle(fig1.complement(), 2, 4, adder="ripple")
