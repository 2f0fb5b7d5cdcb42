"""The benchmark's workloads and metrics, read from ``BENCHMARK.json``
at the root of the checkout, so the runner, the self-tests and the
manifest follow one list.

Every workload reports every metric.  A metric that does not apply to
a workload's solver is defined for it in the README (for example
``ttfi_p50_s`` of a non-progressive annealing solve is its full
latency), and a layer the workload never calls reports 0.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text()
)

RUN_SECONDS: int = MANIFEST["run_seconds"]
WORKLOADS: list[str] = [w["name"] for w in MANIFEST["workloads"]]
END_TO_END: list[str] = [m["name"] for m in MANIFEST["end_to_end"]]
PER_LAYER: list[str] = [m["name"] for m in MANIFEST["per_layer"]]
UNITS: dict[str, str] = {
    m["name"]: m["unit"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]
}

#: Spans whose self time is reported as ``<span>.self_s``.
SELF_TIME_SPANS = [
    name[: -len(".self_s")] for name in PER_LAYER if name.endswith(".self_s")
]
