"""Equivalence and savings contracts for the adaptive threshold ladder.

``qmkp(..., ladder="adaptive")`` must be *provably* an optimization, not
an approximation:

* identical optimum size to the classical branch search and to the
  binary ladder, on every paper gate instance and counting mode;
* never more qTKP probes or Grover oracle calls than the binary ladder,
  and strictly fewer in aggregate across the suite;
* ledgers that still reconcile (skipped thresholds are claimed, probe
  counts add up);
* checkpoint journals (schema v2) that resume bit-identically from any
  truncation point, including when the resuming process uses a
  different kernel backend than the writer.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core.qmkp import qmkp
from repro.datasets.paper_instances import GATE_INSTANCES
from repro.graphs import Graph
from repro.kplex import maximum_kplex
from repro.obs import RunLedger, Tracer
from repro.perf.kernels import available_backends
from repro.resilience.checkpoint import CheckpointMismatchError

INSTANCES = [
    (name, inst, k)
    for name, inst in GATE_INSTANCES.items()
    for k in inst.known_optima
]


def _random_graph(n, p, seed):
    rng = np.random.default_rng(seed)
    edges = [
        (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(n, edges)


class TestOptimumEquivalence:
    @pytest.mark.parametrize(
        "name,inst,k", INSTANCES, ids=[f"{n}-k{k}" for n, _, k in INSTANCES]
    )
    @pytest.mark.parametrize("counting", ["exact", "bbht"])
    def test_matches_known_optimum_and_binary(self, name, inst, k, counting):
        graph = inst.build()
        expected = inst.known_optima[k]
        assert len(maximum_kplex(graph, k).subset) == expected
        binary = qmkp(graph, k, counting=counting, rng=7)
        adaptive = qmkp(graph, k, counting=counting, rng=7, ladder="adaptive")
        assert binary.size == expected
        assert adaptive.size == expected
        assert adaptive.qtkp_calls <= binary.qtkp_calls
        if counting == "exact":
            # Exact counting has a deterministic per-probe cost, so the
            # ladder can never be worse instance-by-instance.  BBHT's
            # ceiling carryover redraws the schedule, so its guarantee
            # is aggregate (test_strict_savings_in_aggregate) rather
            # than per-instance.
            assert adaptive.oracle_calls <= binary.oracle_calls
            assert adaptive.gate_units <= binary.gate_units

    @pytest.mark.parametrize("counting", ["exact", "bbht"])
    def test_strict_savings_in_aggregate(self, counting):
        total_binary = total_adaptive = 0
        probes_binary = probes_adaptive = 0
        for _, inst, k in INSTANCES:
            graph = inst.build()
            b = qmkp(graph, k, counting=counting, rng=3)
            a = qmkp(graph, k, counting=counting, rng=3, ladder="adaptive")
            assert a.size == b.size
            total_binary += b.oracle_calls
            total_adaptive += a.oracle_calls
            probes_binary += b.qtkp_calls
            probes_adaptive += a.qtkp_calls
        assert probes_adaptive < probes_binary
        assert total_adaptive < total_binary

    def test_reduce_and_bounds_compose(self):
        graph = _random_graph(12, 0.45, 5)
        ref = qmkp(graph, 2, reduce_first=True, rng=11)
        adaptive = qmkp(
            graph, 2, reduce_first=True, rng=11, ladder="adaptive"
        )
        assert adaptive.size == ref.size

    def test_invalid_ladder_rejected(self):
        with pytest.raises(ValueError, match="ladder"):
            qmkp(Graph(3, [(0, 1)]), 2, ladder="galactic")

    def test_binary_default_unchanged(self):
        graph = _random_graph(10, 0.5, 9)
        default = qmkp(graph, 2, counting="bbht", rng=21)
        explicit = qmkp(graph, 2, counting="bbht", rng=21, ladder="binary")
        assert default.subset == explicit.subset
        assert default.oracle_calls == explicit.oracle_calls
        assert default.gate_units == explicit.gate_units
        assert default.skipped_thresholds == explicit.skipped_thresholds == 0


class TestLedger:
    @pytest.mark.parametrize("counting", ["exact", "bbht"])
    def test_traced_adaptive_run_reconciles(self, counting):
        graph = _random_graph(11, 0.5, 7)
        tracer = Tracer()
        result = qmkp(
            graph, 2, counting=counting, rng=123, ladder="adaptive",
            tracer=tracer,
        )
        ledger = RunLedger.from_tracer(tracer)
        assert ledger.verify(raise_on_drift=False) == []
        if result.skipped_thresholds:
            assert (
                ledger.total("qmkp_skipped_thresholds")
                == result.skipped_thresholds
            )
        assert ledger.total("oracle_calls") == result.oracle_calls

    def test_progression_is_monotone_and_reaches_optimum(self):
        graph = _random_graph(11, 0.5, 13)
        result = qmkp(graph, 2, counting="bbht", rng=5, ladder="adaptive")
        sizes = [event.size for event in result.progression]
        assert sizes == sorted(sizes)
        assert sizes[-1] == result.size


class TestJournalReplay:
    @pytest.mark.parametrize("counting", ["exact", "bbht"])
    def test_resume_bit_identical_from_every_prefix(self, tmp_path, counting):
        graph = _random_graph(11, 0.5, 7)
        ref_path = tmp_path / "ref.wal"
        ref = qmkp(
            graph, 2, counting=counting, rng=123, ladder="adaptive",
            checkpoint=ref_path,
        )
        lines = ref_path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["ladder"] == "adaptive"
        assert header["schema"].endswith("/v2")
        assert len(lines) > 2  # header + at least two records to truncate
        for keep in range(1, len(lines)):
            part = tmp_path / f"part{keep}.wal"
            part.write_text("\n".join(lines[: 1 + keep]) + "\n")
            res = qmkp(
                graph, 2, counting=counting, rng=123, ladder="adaptive",
                resume=part, checkpoint=part,
            )
            assert res.subset == ref.subset
            assert res.oracle_calls == ref.oracle_calls
            assert res.gate_units == ref.gate_units
            assert res.qtkp_calls == ref.qtkp_calls
            assert res.skipped_thresholds == ref.skipped_thresholds
            # The extended journal must equal the uninterrupted one.
            assert part.read_text() == ref_path.read_text()

    def test_resume_across_kernel_backends(self, tmp_path, monkeypatch):
        backends = available_backends()
        if len(backends) < 2:
            pytest.skip("only one kernel backend available")
        graph = _random_graph(11, 0.5, 17)
        ref_path = tmp_path / "ref.wal"
        monkeypatch.setenv("REPRO_KERNEL", backends[0])
        ref = qmkp(
            graph, 2, counting="bbht", rng=42, ladder="adaptive",
            checkpoint=ref_path,
        )
        lines = ref_path.read_text().splitlines()
        part = tmp_path / "part.wal"
        part.write_text("\n".join(lines[:2]) + "\n")
        monkeypatch.setenv("REPRO_KERNEL", backends[-1])
        res = qmkp(
            graph, 2, counting="bbht", rng=42, ladder="adaptive",
            resume=part, checkpoint=part,
        )
        assert res.subset == ref.subset
        assert res.oracle_calls == ref.oracle_calls
        assert res.skipped_thresholds == ref.skipped_thresholds
        assert part.read_text() == ref_path.read_text()

    def test_ladder_mismatch_rejected(self, tmp_path):
        graph = _random_graph(9, 0.5, 2)
        path = tmp_path / "adaptive.wal"
        qmkp(graph, 2, rng=1, ladder="adaptive", checkpoint=path)
        with pytest.raises(CheckpointMismatchError, match="ladder"):
            qmkp(graph, 2, rng=1, ladder="binary", resume=path)

    def test_v1_journal_resumes_as_binary(self, tmp_path):
        graph = _random_graph(9, 0.5, 2)
        path = tmp_path / "bin.wal"
        ref = qmkp(graph, 2, counting="bbht", rng=5, checkpoint=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert header["ladder"] == "binary"
        v1_header = {k: v for k, v in header.items() if k != "ladder"}
        v1_header["schema"] = "repro.resilience/qmkp-checkpoint/v1"
        v1 = tmp_path / "v1.wal"
        v1.write_text(
            json.dumps(v1_header, sort_keys=True) + "\n"
            + "\n".join(lines[1:2]) + "\n"
        )
        res = qmkp(graph, 2, counting="bbht", rng=5, resume=v1)
        assert res.subset == ref.subset
        assert res.oracle_calls == ref.oracle_calls
