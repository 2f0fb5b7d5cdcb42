"""``anneal-qamkp``: in-process qaMKP, k = 3, penalty R = 2.

One solve of an instance runs it twice: qaMKP on the simulated QPU
(1000 us budget, 1 us per read), then the simulated-annealing baseline
(100000 us budget); its first answer is the QPU one.  Timing the pair
as one solve keeps the median latency inside one cluster of costs:
timed apart, half the solves are ~3x faster than the other half and
the median falls in the gap between them.  The inputs are the paper's
``D_20_100`` and ``D_30_300``, whose optima are certified in
:mod:`repro.datasets.paper_instances`, plus G(30, 300) graphs from a
fixed pool that the workload seed relabels.  The seed also draws every
sampler seed.
"""

from __future__ import annotations

import importlib
import random

from common import graph_record, relabel
from inprocess import Item

K = 3
PENALTY = 2.0
BUDGET_US = {"qpu": 1000.0, "sa": 100000.0}  # in solve order
POOL_SEED = 2509_01261
PAPER = ["D_20_100", "D_30_300"]
GNM = [(30, 300)] * 3  # five instances: the median lands on one of them
TINY_PAPER = ["D_10_40"]
TINY_GNM = [(12, 40)]


class AnnealWorkload:
    name = "anneal-qamkp"
    #: An answer's size swings with its sampler seed; 60 answers keep the
    #: quality of a run within a few percent across seeds.
    exact_passes = 6
    setup_code = (
        "import importlib\n"
        "importlib.import_module('repro.core.qamkp')\n"
        "from repro.perf import resolve_kernel\n"
        "resolve_kernel()\n"
        "print('ready', flush=True)\n"
    )

    def prepare(self, tiny: bool) -> None:
        from repro.datasets.paper_instances import ANNEALING_INSTANCES
        from repro.graphs import gnm_random_graph
        from repro.kplex import is_kplex, maximum_kplex

        self.qamkp_mod = importlib.import_module("repro.core.qamkp")
        self.is_kplex = is_kplex
        self.fixed = []  # paper instances: never relabelled
        for name in TINY_PAPER if tiny else PAPER:
            inst = ANNEALING_INSTANCES[name]
            self.fixed.append((name, inst.build(), inst.known_optima[K]))
        rng = random.Random(POOL_SEED)
        self.pool = []
        for n, m in TINY_GNM if tiny else GNM:
            graph = gnm_random_graph(n, m, seed=rng.randrange(2**31))
            self.pool.append((graph, maximum_kplex(graph, K).size))

    def make_pass(self, seed: int, index: int) -> list[Item]:
        rng = random.Random(f"{self.name}/{seed}/{index}")
        graphs = [(name, g, opt) for name, g, opt in self.fixed]
        graphs += [
            (f"G_{g.num_vertices}_{g.num_edges}-{slot}", relabel(g, rng), opt)
            for slot, (g, opt) in enumerate(self.pool)
        ]
        return [
            Item(g, K, opt, rng.randrange(2**31), f"p{index}-{name}")
            for name, g, opt in graphs
        ]

    def solve(self, item: Item, on_first) -> dict[str, object]:
        results = {}
        for solver, budget in BUDGET_US.items():
            results[solver] = self.qamkp_mod.qamkp(
                item.graph, item.k, penalty=PENALTY, runtime_us=budget,
                delta_t_us=1.0, solver=solver, seed=item.seed,
            )
            on_first(results[solver].repaired)
        return results

    def verify(self, item: Item, results, first) -> tuple[bool, str]:
        for solver, result in results.items():
            if not self.is_kplex(item.graph, result.repaired, item.k):
                return False, (
                    f"{solver}: repaired {sorted(result.repaired)} is not a "
                    f"{item.k}-plex"
                )
            if result.repaired_size > item.optimum:
                return False, (
                    f"{solver}: repaired size {result.repaired_size} exceeds the "
                    f"certified optimum {item.optimum}"
                )
        return True, ""

    def describe(self, item: Item) -> dict[str, object]:
        return {**graph_record(item.graph), "k": item.k, "seed": item.seed}

    def answer(self, results) -> dict[str, object]:
        return {solver: {"repaired": sorted(r.repaired), "cost": r.cost}
                for solver, r in results.items()}

    def exact_values(self, items, timed) -> dict[str, float]:
        ratios = [r.repaired_size / item.optimum
                  for item, t in zip(items, timed) for r in t.result.values()]
        return {
            # An annealer read is this solver's call to the quantum device.
            "oracle_calls": sum(int(r.info["num_reads"])
                                for t in timed for r in t.result.values()),
            "anneal_quality": sum(ratios) / len(ratios),
        }

    def layer_values(self, items, timed) -> dict[str, float]:
        qpu = [t.result["qpu"].info for t in timed]
        results = [r for t in timed for r in t.result.values()]
        return {
            "annealing.chain_len_avg": sum(
                i["average_chain_length"] for i in qpu) / len(qpu),
            "annealing.chain_break_fraction": sum(
                i["chain_break_fraction"] for i in qpu) / len(qpu),
            "annealing.feasible_ratio": sum(r.feasible for r in results) / len(results),
        }
