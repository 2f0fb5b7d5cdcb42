"""The repository benchmark.

    python3 perfbench/run.py --workload gate-qmkp --seed 1 --seconds 20 --trace 0

runs one workload and prints each metric by name and unit, then, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones from a separately traced pass (its
spans go to ``perfbench/.work/spans/``).  ``--workload all`` runs every
workload, each in its own process.  The exit code is 0 only when every
answer passed its check.  The workloads and metrics are those
``BENCHMARK.json`` lists.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import catalogue
import common

def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=catalogue.WORKLOADS + ["all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=catalogue.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the self-tests")
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool) -> common.Outcome:
    tmp = common.prepare_process()
    spans = common.WORK / "spans" / f"{name}-seed{seed}.json"
    try:
        if name == "service-gateway":
            import service

            return service.run(seed, seconds, trace, tiny, tmp, spans)
        import inprocess

        if name == "gate-qmkp":
            from gate import GateWorkload as Workload
        else:
            from anneal import AnnealWorkload as Workload
        return inprocess.run(Workload(), seed, seconds, trace, tiny, tmp, spans)
    finally:
        common.cleanup(tmp)


def result_line(out: common.Outcome, trace: bool) -> dict[str, object]:
    names = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    metrics = {}
    for name in names:
        value, unit = out.metrics[name]
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": out.correct, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics}


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in catalogue.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(f"[{name}] {line}" for line in lines[:-1]))
        doc = json.loads(lines[-1]) if lines else {"correct": False}
        combined["correct"] &= bool(doc.get("correct")) and proc.returncode == 0
        combined["attempted"] += doc.get("attempted", 0)
        combined["failed"] += doc.get("failed", 0)
        for metric, record in doc.get("metrics", {}).items():
            combined["metrics"][f"{name}.{metric}"] = record
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    trace = bool(args.trace)
    out = run_workload(args.workload, args.seed, args.seconds, trace, args.tiny)
    doc = result_line(out, trace)
    for name, record in doc["metrics"].items():
        print(f"{args.workload} {name} = {record['value']:.6g} {record['unit']}")
    print("notes " + json.dumps(out.notes, sort_keys=True))
    for error in out.errors:
        print(f"error: {error}", file=sys.stderr)
    print(json.dumps(doc))
    return 0 if out.correct else 1


if __name__ == "__main__":
    sys.exit(main())
