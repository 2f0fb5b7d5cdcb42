"""Runner zygote: one pre-imported process forks every job child.

The crash domain is still one process per job; these tests pin what
the zygote must not change (byte-identical answers, clean per-job
environments, crash→resume when the zygote itself dies, no process
outliving the service) and what it must hold (one OS thread at fork).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

import repro
from repro.datasets import figure1_graph
from repro.graphs import gnm_random_graph, write_edge_list
from repro.service import (
    ChaosPlan,
    JobSpec,
    ServiceConfig,
    ServiceError,
    Supervisor,
)
from repro.service.http import GatewayClient

SRC = str(Path(repro.__file__).resolve().parents[1])


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig1.edges"
    write_edge_list(figure1_graph(), path)
    return str(path)


@pytest.fixture
def multi_probe_graph_file(tmp_path):
    """Needs three qMKP probes, so a kill after probe 1 lands mid-search."""
    path = tmp_path / "gnm.edges"
    write_edge_list(gnm_random_graph(7, 10, seed=1), path)
    return str(path)


def _config(tmp_path, **kwargs) -> ServiceConfig:
    kwargs.setdefault("workdir", str(tmp_path / "work"))
    return ServiceConfig(**kwargs)


def _alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return False
    return "\nState:\tZ" not in status


def _threads(pid: int) -> int:
    status = Path(f"/proc/{pid}/status").read_text()
    return int(status.split("\nThreads:")[1].split()[0])


def _children(pid: int) -> list[int]:
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            status = (entry / "status").read_text()
        except OSError:
            continue
        if f"\nPPid:\t{pid}\n" in status:
            found.append(int(entry.name))
    return found


async def _wait_for(predicate, timeout_s: float = 30.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        await asyncio.sleep(0.005)


class TestZygoteCrashDomain:
    def test_zygote_sigkill_resumes_bit_identically(
        self, multi_probe_graph_file, tmp_path
    ):
        spec = JobSpec(multi_probe_graph_file, k=2, seed=7, name="victim")

        async def reference():
            config = _config(tmp_path, workers=1, workdir=str(tmp_path / "ref"))
            async with Supervisor(config) as sup:
                job = sup.submit(spec)
                return await job.result_dict()

        # Attempt 0 SIGKILLs itself after journaling probe 1; attempt 1
        # is held after "started", and the zygote is killed under it.
        chaos = ChaosPlan(kills={"victim": [1]}, holds={"victim": 0.5})

        async def chaos_run():
            config = _config(tmp_path, workers=1, workdir=str(tmp_path / "chaos"))
            async with Supervisor(config, chaos=chaos) as sup:
                job = sup.submit(spec)
                await _wait_for(lambda: job.child_pid is not None)
                attempt0 = job.child_pid
                await _wait_for(
                    lambda: job.resumes == 1
                    and job.child_pid not in (None, attempt0)
                )
                first_zygote, child = sup.zygote.pid, job.child_pid
                os.kill(first_zygote, signal.SIGKILL)
                result = await job.result_dict()
                return job, result, sup, first_zygote, child

        ref = asyncio.run(reference())
        job, result, sup, first_zygote, child = asyncio.run(chaos_run())
        assert json.dumps(result["answer"], sort_keys=True) == json.dumps(
            ref["answer"], sort_keys=True
        )
        assert result["verified"]
        assert result["resumed_probes"] == 1
        assert job.resumes == 2
        counters = sup.tracer.registry.as_dict()["counters"]
        assert counters["service_zygote_restarts"] == 1
        assert counters["service_worker_crashes"] == 2
        assert counters["service_jobs_resumed"] == 2
        assert not _alive(first_zygote)
        assert not _alive(child)

    def test_zygote_has_one_thread_at_fork(self, graph_file, tmp_path):
        async def scenario():
            async with Supervisor(_config(tmp_path, workers=1)) as sup:
                job = sup.submit(JobSpec(graph_file, k=2, seed=7))
                await job.result_dict()
                # Idle in its loop after a fork: the state it forks from.
                return _threads(sup.zygote.pid)

        assert asyncio.run(scenario()) == 1

    def test_spawn_failure_is_not_a_restart(self, graph_file, tmp_path):
        async def scenario():
            config = _config(
                tmp_path, workers=1, python=str(tmp_path / "no-such-python")
            )
            async with Supervisor(config) as sup:
                job = sup.submit(JobSpec(graph_file, k=2))
                with pytest.raises(ServiceError, match="internal error"):
                    await job.result_dict()
            return sup

        sup = asyncio.run(scenario())
        counters = sup.tracer.registry.as_dict()["counters"]
        assert "service_zygote_restarts" not in counters


class TestForkedChild:
    def test_answers_are_byte_identical_to_a_spawned_runner(
        self, multi_probe_graph_file, tmp_path
    ):
        specs = [
            JobSpec(multi_probe_graph_file, k=2, seed=7, name="q"),
            JobSpec(multi_probe_graph_file, k=2, solver="bs", name="b"),
            JobSpec(multi_probe_graph_file, k=2, seed=3, solver="qamkp-sa",
                    runtime_us=200.0, name="a"),
        ]

        async def forked():
            async with Supervisor(_config(tmp_path, workers=2)) as sup:
                jobs = [sup.submit(spec) for spec in specs]
                return [await job.result_dict() for job in jobs]

        results = asyncio.run(forked())
        for spec, result in zip(specs, results):
            job_file = tmp_path / f"{spec.name}.job.json"
            job_file.write_text(json.dumps({
                "job_id": "spawned",
                "spec": spec.as_dict(),
                "checkpoint": str(tmp_path / f"{spec.name}.wal"),
                "receipt": str(tmp_path / f"{spec.name}.receipt.json"),
            }))
            proc = subprocess.run(
                [sys.executable, "-m", "repro.service.runner", str(job_file)],
                capture_output=True, text=True, check=True,
                env={**os.environ, "PYTHONPATH": SRC},
            )
            spawned = json.loads(proc.stdout.splitlines()[-1])
            assert spawned["event"] == "result"
            assert json.dumps(spawned["answer"], sort_keys=True) == json.dumps(
                result["answer"], sort_keys=True
            ), spec.name

    def test_child_env_is_exactly_the_request_and_never_leaks(self, tmp_path):
        # Drive a zygote over its raw protocol, with the runner replaced
        # by an env dump: the child must see exactly the env it was sent
        # (nothing from the previous job), and the zygote's own
        # os.environ must be untouched by either job.
        dump = tmp_path / "zygote-env.json"
        script = textwrap.dedent(f"""
            import json, os, socket, sys
            from repro.service import zygote
            def fake_main(argv):
                with open(argv[0], "w") as fh:
                    json.dump(dict(os.environ), fh)
                print("ran", argv[0])
                return 7
            zygote.runner.main = fake_main
            zygote.serve(socket.socket(fileno=int(sys.argv[1])))
            with open({str(dump)!r}, "w") as fh:
                json.dump(dict(os.environ), fh)
        """)
        ours, theirs = socket.socketpair(socket.AF_UNIX, socket.SOCK_SEQPACKET)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(theirs.fileno())],
            pass_fds=(theirs.fileno(),),
            env={**os.environ, "PYTHONPATH": SRC},
        )
        theirs.close()
        chaos_env = {
            "PYTHONPATH": SRC, "QMKP_CRASH_AFTER_PROBES": "1",
            "REPRO_RUNNER_HOLD_S": "5",
        }
        clean_env = {"PYTHONPATH": SRC, "ONLY_IN_JOB_2": "yes"}
        outputs = []
        try:
            assert json.loads(ours.recv(4096)) == {"ready": True}
            for name, env in (("job1", chaos_env), ("job2", clean_env)):
                out_r, out_w = os.pipe()
                err_r, err_w = os.pipe()
                request = {"job_file": str(tmp_path / f"{name}.env"), "env": env}
                socket.send_fds(ours, [json.dumps(request).encode()],
                                [out_w, err_w])
                os.close(out_w)
                os.close(err_w)
                pid = json.loads(ours.recv(4096))["pid"]
                exit_reply = json.loads(ours.recv(4096))
                assert exit_reply == {"exit": pid, "code": 7}
                with os.fdopen(out_r) as out, os.fdopen(err_r) as err:
                    outputs.append((out.read(), err.read()))
        finally:
            ours.close()
            assert proc.wait(timeout=60) == 0
        assert outputs[0][0] == f"ran {tmp_path / 'job1.env'}\n"
        job1 = json.loads((tmp_path / "job1.env").read_text())
        job2 = json.loads((tmp_path / "job2.env").read_text())
        assert job1 == chaos_env
        assert job2 == clean_env
        zygote_env = json.loads(dump.read_text())
        for key in ("QMKP_CRASH_AFTER_PROBES", "REPRO_RUNNER_HOLD_S",
                    "ONLY_IN_JOB_2"):
            assert key not in zygote_env

    def test_planned_chaos_does_not_reach_the_next_job(
        self, multi_probe_graph_file, tmp_path
    ):
        chaos = ChaosPlan(kills={"victim": [1]}, holds={"victim": 0.3})

        async def scenario():
            config = _config(tmp_path, workers=1)
            async with Supervisor(config, chaos=chaos) as sup:
                victim = sup.submit(
                    JobSpec(multi_probe_graph_file, k=2, seed=7, name="victim")
                )
                await victim.result_dict()
                clean = sup.submit(
                    JobSpec(multi_probe_graph_file, k=2, seed=7, name="clean")
                )
                result = await clean.result_dict()
            return victim, clean, result, sup

        victim, clean, result, sup = asyncio.run(scenario())
        assert victim.resumes == 1
        assert clean.resumes == 0
        assert result["resumed_probes"] == 0
        registry = sup.tracer.registry.as_dict()
        assert registry["counters"]["service_worker_crashes"] == 1
        # Three attempts ran; only the victim's two held for 0.3 s.
        run = registry["histograms"]["service_job_run_seconds"]
        assert run["count"] == 3
        assert run["min"] < 0.3


class TestNoProcessOutlivesTheService:
    def test_drain_reaps_the_zygote_and_children(self, graph_file, tmp_path):
        async def scenario():
            async with Supervisor(_config(tmp_path, workers=2)) as sup:
                jobs = [sup.submit(JobSpec(graph_file, k=2, seed=s))
                        for s in range(3)]
                for job in jobs:
                    await job.result_dict()
                zygote = sup.zygote.pid
            return zygote, [job.child_pid for job in jobs]

        zygote, children = asyncio.run(scenario())
        assert not _alive(zygote)
        assert children and not any(_alive(pid) for pid in children)

    def test_suspend_reaps_the_zygote_and_children(
        self, multi_probe_graph_file, tmp_path
    ):
        chaos = ChaosPlan(holds={"held": 30.0})

        async def scenario():
            sup = Supervisor(_config(tmp_path, workers=1), chaos=chaos)
            await sup.start()
            held = sup.submit(
                JobSpec(multi_probe_graph_file, k=2, seed=7, name="held")
            )
            await _wait_for(lambda: held.child_pid is not None)
            zygote = sup.zygote.pid
            await sup.shutdown(drain=False)
            return held, zygote

        held, zygote = asyncio.run(scenario())
        assert held.state == "suspended"
        assert not _alive(zygote)
        assert not _alive(held.child_pid)

    def test_sigkilled_server_takes_zygote_and_children_down(
        self, graph_file, tmp_path
    ):
        env = {**os.environ, "PYTHONPATH": SRC, "REPRO_RUNNER_HOLD_S": "60"}
        server = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", str(tmp_path / "spool"),
             "--http", "127.0.0.1:0", "--workers", "1"],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        try:
            url = server.stdout.readline().split()[-1]
            GatewayClient(url).submit(JobSpec(graph_file, k=2, seed=7))
            deadline = time.monotonic() + 30
            while True:
                zygotes = _children(server.pid)
                children = [c for z in zygotes for c in _children(z)]
                if children:
                    break
                assert time.monotonic() < deadline, "job child never forked"
                time.sleep(0.01)
            server.send_signal(signal.SIGKILL)
            server.wait()
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
            server.stdout.close()
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in zygotes + children):
            assert time.monotonic() < deadline, "zygote or child outlived server"
            time.sleep(0.01)
