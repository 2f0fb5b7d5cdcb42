#!/usr/bin/env python
"""Chaos smoke check for the solver service's crash-resume guarantee.

The CI scenario, end to end through the real supervisor and worker
subprocesses:

1. run a reference batch of jobs on an undisturbed service;
2. run the same batch under a scripted :class:`ChaosPlan` that SIGKILLs
   worker children mid-job — one job killed once, one killed twice
   (cumulative probe counts, since the journal counts resumed records);
3. require every chaos-run answer to be **byte-identical** to its
   reference, every receipt ledger reconciled, and the service metrics
   to account for exactly the scripted crashes and resumes;
4. check the typed backpressure error on an over-capacity queue;
5. run a fleet-shared-cache batch whose publishing worker is SIGKILLed
   mid-publish (after the temp-segment fsync, before the atomic
   rename): the store must hold zero torn segments, the resumed
   attempt must fall back to local enumeration and republish, the
   readers must attach, and every answer must stay byte-identical to
   an undisturbed shared-cache run;
6. SIGKILL the runner zygote (the pre-imported process every job
   child is forked from) under a job whose journal already holds a
   probe: the job must resume on a relaunched zygote with a
   byte-identical answer and a reconciled receipt, and the relaunch
   must be counted in ``service_zygote_restarts``.

Everything is seeded and scripted — no wall-clock randomness — so a
failure is a regression, never flake.  Exits nonzero with a diagnostic
on any deviation.  No arguments; work happens in a temp directory.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.graphs import gnm_random_graph, write_edge_list  # noqa: E402
from repro.perf import SharedTableStore  # noqa: E402
from repro.service import (  # noqa: E402
    BackpressureError,
    ChaosPlan,
    JobSpec,
    ServiceConfig,
    Supervisor,
)


def fail(message: str) -> None:
    print(f"FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


async def run_batch(specs, workdir, chaos=None, **config_kwargs):
    config = ServiceConfig(
        workers=config_kwargs.pop("workers", 2), workdir=str(workdir),
        **config_kwargs,
    )
    async with Supervisor(config, chaos=chaos) as sup:
        jobs = [sup.submit(spec) for spec in specs]
        results = await asyncio.gather(
            *(job.result_dict() for job in jobs)
        )
    return jobs, results, sup


async def zygote_kill_run(spec, workdir):
    """Run ``spec`` and SIGKILL the zygote under its second attempt.

    Attempt 0 kills itself after journaling probe 1; attempt 1 is held
    just after "started", which is when the zygote dies under it.
    """
    chaos = ChaosPlan(kills={spec.name: [1]}, holds={spec.name: 0.5})
    config = ServiceConfig(workers=1, workdir=str(workdir))
    async with Supervisor(config, chaos=chaos) as sup:
        job = sup.submit(spec)
        while job.child_pid is None:
            await asyncio.sleep(0.005)
        attempt0 = job.child_pid
        while job.resumes < 1 or job.child_pid in (None, attempt0):
            await asyncio.sleep(0.005)
        os.kill(sup.zygote.pid, signal.SIGKILL)
        result = await job.result_dict()
    return job, result, sup


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="service-chaos-"))
    graph = tmp / "graph.txt"
    # gnm(7, 10, seed=1): three qMKP probes, so kills after probes 1
    # and 2 genuinely land mid-search.
    write_edge_list(gnm_random_graph(7, 10, seed=1), graph)
    specs = [
        JobSpec(str(graph), k=2, seed=7, name="job-a"),
        JobSpec(str(graph), k=2, seed=11, name="job-b"),
        JobSpec(str(graph), k=2, solver="bs", name="job-c"),
    ]

    _, reference, _ = asyncio.run(run_batch(specs, tmp / "ref"))
    print("reference answers:")
    for spec, result in zip(specs, reference):
        print(f"  {spec.name}: {json.dumps(result['answer'], sort_keys=True)}")

    # job-a: killed once after probe 1.  job-b: killed after probe 1,
    # resumed, killed again after (cumulative) probe 2, resumed again.
    chaos = ChaosPlan(kills={"job-a": [1], "job-b": [1, 2]})
    jobs, results, sup = asyncio.run(run_batch(specs, tmp / "chaos", chaos))

    for spec, job, result, ref in zip(specs, jobs, results, reference):
        if result["answer"] != ref["answer"]:
            fail(
                f"{spec.name}: chaos answer differs from reference:\n"
                f"  reference: {json.dumps(ref['answer'], sort_keys=True)}\n"
                f"  chaos:     {json.dumps(result['answer'], sort_keys=True)}"
            )
        if not result["verified"]:
            fail(f"{spec.name}: run ledger did not reconcile")
        receipt = json.loads(Path(result["receipt"]).read_text())
        if not receipt["ledger"]["verified"]:
            fail(f"{spec.name}: receipt ledger did not reconcile")
        print(
            f"  {spec.name}: byte-identical after {job.resumes} resume(s), "
            "receipt reconciled"
        )

    counters = sup.tracer.registry.as_dict()["counters"]
    if counters.get("service_worker_crashes") != 3:
        fail(f"expected 3 worker crashes, saw {counters}")
    if counters.get("service_jobs_resumed") != 3:
        fail(f"expected 3 job resumes, saw {counters}")
    if counters.get("service_jobs_completed") != 3:
        fail(f"expected 3 completed jobs, saw {counters}")
    print("service metrics: 3 crashes, 3 resumes, 3 completions")

    # Typed backpressure: an unstarted supervisor drains nothing, so
    # the bounded lane fills deterministically.
    sup2 = Supervisor(ServiceConfig(workers=1, queue_capacity=1,
                                    workdir=str(tmp / "bp")))
    sup2.submit(specs[0])
    try:
        sup2.submit(specs[1])
    except BackpressureError as exc:
        if exc.capacity != 1:
            fail(f"backpressure carried wrong capacity: {exc.capacity}")
        print(f"backpressure: typed rejection ({exc})")
    else:
        fail("over-capacity submit was not rejected")

    # Fleet-shared cache under a mid-publish SIGKILL.  One worker slot
    # keeps the schedule exact: share-0 cold-builds, is killed between
    # the temp-segment fsync and the atomic rename, resumes against an
    # empty store, re-enumerates locally and publishes; share-1/share-2
    # attach the one valid segment.
    shared_specs = [
        JobSpec(str(graph), k=2, seed=7, name=f"share-{i}") for i in range(3)
    ]
    _, shared_ref, _ = asyncio.run(run_batch(
        shared_specs, tmp / "shared-ref", workers=1,
        shared_cache_dir=str(tmp / "cache-ref"),
    ))
    chaos = ChaosPlan(publish_kills={"share-0": [1]})
    _, shared_results, shared_sup = asyncio.run(run_batch(
        shared_specs, tmp / "shared-chaos", workers=1, chaos=chaos,
        shared_cache_dir=str(tmp / "cache-chaos"),
    ))
    for spec, result, ref in zip(shared_specs, shared_results, shared_ref):
        if result["answer"] != ref["answer"]:
            fail(
                f"{spec.name}: shared-cache chaos answer differs:\n"
                f"  reference: {json.dumps(ref['answer'], sort_keys=True)}\n"
                f"  chaos:     {json.dumps(result['answer'], sort_keys=True)}"
            )
        if not result["verified"]:
            fail(f"{spec.name}: shared-cache chaos ledger did not reconcile")
    counters = shared_sup.tracer.registry.as_dict()["counters"]
    if counters.get("service_worker_crashes") != 1:
        fail(f"expected 1 mid-publish crash, saw {counters}")
    if counters.get("service_jobs_resumed") != 1:
        fail(f"expected 1 resume after the publish kill, saw {counters}")
    store = SharedTableStore(tmp / "cache-chaos")
    if len(store) != 1:
        fail(f"expected exactly 1 valid segment after the kill, saw {len(store)}")
    # The kill orphans the fsynced-but-never-renamed temp file; that is
    # the crash-safety contract working, and readers must ignore it.
    leftovers = [
        p.name for p in (tmp / "cache-chaos").iterdir()
        if p.suffix not in (".seg", ".gen")
    ]
    if any(not name.endswith(".tmp") for name in leftovers):
        fail(f"unexpected debris in the segment store: {leftovers}")
    stats = [res["cache"] for res in shared_results]
    publishes = sum(s["shared_publishes"] for s in stats)
    hits = sum(s["shared_hits"] for s in stats)
    if publishes != 1 or hits != 2:
        fail(
            f"expected 1 publish + 2 shared hits after the kill, "
            f"saw publishes={publishes} hits={hits}"
        )
    print(
        "shared cache: mid-publish SIGKILL left old-or-nothing, "
        "resume republished, 2 readers attached, answers byte-identical"
    )

    # The zygote SIGKILLed mid-job: same graph, k and seed as job-a, so
    # the undisturbed reference answer is job-a's.
    victim = JobSpec(str(graph), k=2, seed=7, name="zygote-victim")
    job, result, zsup = asyncio.run(zygote_kill_run(victim, tmp / "zygote"))
    if result["answer"] != reference[0]["answer"]:
        fail(
            "zygote-victim: answer after the zygote kill differs:\n"
            f"  reference: {json.dumps(reference[0]['answer'], sort_keys=True)}\n"
            f"  chaos:     {json.dumps(result['answer'], sort_keys=True)}"
        )
    receipt = json.loads(Path(result["receipt"]).read_text())
    if not result["verified"] or not receipt["ledger"]["verified"]:
        fail("zygote-victim: receipt ledger did not reconcile")
    if result["resumed_probes"] != 1:
        fail(f"zygote-victim: expected 1 resumed probe, saw {result}")
    counters = zsup.tracer.registry.as_dict()["counters"]
    if counters.get("service_zygote_restarts") != 1:
        fail(f"expected 1 zygote restart, saw {counters}")
    if counters.get("service_worker_crashes") != 2:
        fail(f"expected 2 crashes (self-kill + zygote kill), saw {counters}")
    print(
        f"zygote SIGKILL: resumed on a relaunched zygote after {job.resumes} "
        "resume(s), answer byte-identical, receipt reconciled, 1 restart"
    )

    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
