"""Self-tests of the benchmark: ``python3 -m pytest perfbench/tests``.

They run every workload at its tiny size, check the result contract,
seeded reproducibility, and that a wrong answer is caught.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import catalogue  # noqa: E402
from common import tail  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(*args: str, cwd: Path = ROOT, code: str | None = None):
    """Run the benchmark (or ``code`` with the benchmark importable)."""
    cmd = [sys.executable]
    cmd += ["-c", code] if code else [str(cwd / "perfbench" / "run.py")]
    cmd += list(args)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(proc) -> dict:
    return json.loads(proc.stdout.splitlines()[-1])


def notes(proc) -> dict:
    line = next(l for l in proc.stdout.splitlines() if l.startswith("notes "))
    return json.loads(line[len("notes "):])


def test_manifest_names_and_bounds():
    names = catalogue.WORKLOADS + catalogue.END_TO_END + catalogue.PER_LAYER
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit)
               for unit in catalogue.UNITS.values())
    bounds = {m["name"]: m["bound"] for m in catalogue.MANIFEST["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", catalogue.WORKLOADS)
def test_tiny_pass_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    doc = result(proc)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = catalogue.PER_LAYER if trace else catalogue.END_TO_END
    assert list(doc["metrics"]) == wanted
    for name, record in doc["metrics"].items():
        assert NAME.fullmatch(name)
        assert set(record) == {"value", "unit"}
        assert record["unit"] == catalogue.UNITS[name]
        assert isinstance(record["value"], (int, float))
        if not trace:
            assert record["value"] > 0, name
    if trace:
        spans = json.loads(Path(notes(proc)["spans"]).read_text())
        assert spans["spans"] and all(
            {"id", "parent", "name", "solve", "start", "end"} <= set(span)
            for span in spans["spans"]
        )


def test_seed_reproduces_inputs_and_answers():
    runs = [bench("--workload", "gate-qmkp", "--seed", str(seed), "--seconds", "0",
                  "--tiny") for seed in (5, 5, 6)]
    assert all(proc.returncode == 0 for proc in runs)
    same, again, other = (notes(proc) for proc in runs)
    assert same["instances_digest"] == again["instances_digest"]
    assert same["answers_digest"] == again["answers_digest"]
    assert same["instances_digest"] != other["instances_digest"]


DOCTORED = """
import dataclasses, sys
sys.path.insert(0, "perfbench")
import gate, run
solve = gate.GateWorkload.solve
def doctored(self, item, on_first):
    result = solve(self, item, on_first)
    return dataclasses.replace(result, subset=frozenset(sorted(result.subset)[1:]))
gate.GateWorkload.solve = doctored
sys.exit(run.main(sys.argv[1:]))
"""


@pytest.mark.parametrize("trace", [0, 1])
def test_wrong_answer_fails_the_run(trace):
    proc = bench("--workload", "gate-qmkp", "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny", code=DOCTORED)
    assert proc.returncode != 0
    doc = result(proc)
    assert doc["correct"] is False and doc["failed"] > 0
    if trace:
        assert doc["metrics"]["error_rate"]["value"] > 0
    assert "is not a 2-plex" in proc.stderr or "optimum" in proc.stderr


def test_service_checker_rejects_doctored_and_solved_duplicates(tmp_path):
    import service

    maker = service.JobMaker(seed=1, segment="t", client=0, tmp=tmp_path,
                             shapes=service._shapes(tiny=True))
    job = maker.next()
    checker = service.Checker(tmp_path)
    answer = dict(checker.reference(job))
    job.result = {"verified": True, "answer": answer}
    job.submit_docs = [{"replayed": False}]
    assert checker.check(job) == (True, "")

    job.result = {"verified": True,
                  "answer": {**answer, "vertices": answer["vertices"][1:]}}
    assert checker.check(job)[0] is False

    job.result = {"verified": False, "answer": answer}
    assert checker.check(job)[0] is False

    duplicate = dataclasses.replace(job, kind="duplicate",
                                    result={"verified": True, "answer": answer})
    assert checker.check(duplicate)[0] is False  # came back as a second solve
    duplicate.submit_docs = [{"replayed": True}]
    assert checker.check(duplicate) == (True, "")


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 41)]
    value, pct, count = tail(samples)
    assert (pct, count) == (75, 40)
    assert sum(s > value for s in samples) == 10
    assert tail([1.0, 2.0, 3.0]) == (3.0, 100, 3)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench("--workload", "gate-qmkp", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
