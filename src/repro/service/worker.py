"""Worker slot: run one job child at a time, relay its events.

A :class:`Worker` is an asyncio task owned by the supervisor.  It pulls
jobs off the shared :class:`~repro.service.queue.JobQueue`, asks the
supervisor's :class:`Zygote` to fork a :mod:`repro.service.runner`
child for each, relays the child's JSON event stream (incumbents to
the caller's handle, the result onto the job), and hands the exit code
to the supervisor's crash policy.

The *child* is the crash domain: a SIGKILL there is detected here as a
negative returncode and never takes the service down.  The worker task
itself does no solving, so the only state lost with a killed child is
the probe in flight — everything else is in the job's checkpoint
journal.

The zygote (:mod:`repro.service.zygote`, one per supervisor) has the
solver stack imported already, so a job's child starts in milliseconds
instead of paying a fresh interpreter's ~1 s of imports.  Losing the
zygote loses no more than losing its children: every in-flight job
exits ``-SIGKILL`` into the same crash→resume path, and the next spawn
relaunches it (``service_zygote_restarts``).
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import time
from collections import deque
from pathlib import Path

import repro

from ..perf.shared import PUBLISH_KILL_ENV, SHARED_CACHE_ENV
from .jobs import IncumbentEvent, Job

__all__ = ["ForkedProcess", "Worker", "Zygote"]

#: Limit for one protocol line from the child (vertices lists are small;
#: this is just a guard against a runaway child flooding the parent).
_LINE_LIMIT = 1 << 20
#: Upper bound on one zygote reply datagram.
_REPLY_LIMIT = 1 << 16
#: Seconds a closed, ready zygote gets to see EOF and exit before it
#: is killed.
_CLOSE_TIMEOUT_S = 30.0


def _with_repro_path(env: dict[str, str]) -> dict[str, str]:
    """``env`` with this process's ``repro`` package first on PYTHONPATH,
    so a child imports the same package however the parent found it."""
    src = str(Path(repro.__file__).resolve().parents[1])
    existing = env.get("PYTHONPATH", "")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    return env


class ForkedProcess:
    """A zygote-forked job child, seen through the subset of
    :class:`asyncio.subprocess.Process` that workers and the supervisor
    use: ``pid``, ``stdout``/``stderr`` stream readers, ``wait()``,
    ``returncode``, ``send_signal()`` and ``kill()``."""

    def __init__(self) -> None:
        loop = asyncio.get_running_loop()
        self.pid: int | None = None
        self.returncode: int | None = None
        self.stdout = asyncio.StreamReader(limit=_LINE_LIMIT)
        self.stderr = asyncio.StreamReader(limit=_LINE_LIMIT)
        self._forked = loop.create_future()
        self._exited = loop.create_future()

    async def _attach(self, stdout_fd: int, stderr_fd: int) -> None:
        loop = asyncio.get_running_loop()
        for fd, reader in ((stdout_fd, self.stdout), (stderr_fd, self.stderr)):
            await loop.connect_read_pipe(
                lambda reader=reader: asyncio.StreamReaderProtocol(reader),
                open(fd, "rb", buffering=0),
            )

    def _set_exit(self, code: int) -> None:
        if self.returncode is None:
            self.returncode = code
            self._exited.set_result(code)
        if not self._forked.done():
            self._forked.set_result(None)

    async def wait(self) -> int:
        return await asyncio.shield(self._exited)

    def send_signal(self, sig: int) -> None:
        if self.returncode is not None or self.pid is None:
            return
        try:
            os.kill(self.pid, sig)
        except ProcessLookupError:
            pass  # exited; the zygote's exit report is on its way

    def kill(self) -> None:
        self.send_signal(signal.SIGKILL)


class Zygote:
    """Supervisor-side handle of the runner zygote process.

    :meth:`start` launches ``python -m repro.service.zygote`` without
    waiting for its imports; :meth:`spawn` forks one job child through
    it; :meth:`close` shuts the control channel, on which the zygote
    exits — or kills it if it is still importing, since it then holds
    nothing.  A dead zygote fails its in-flight children with
    ``-SIGKILL`` and is relaunched by the next spawn.
    """

    def __init__(self, python: str, tracer) -> None:
        self.python = python
        self.tracer = tracer
        self.proc: asyncio.subprocess.Process | None = None
        self._control: socket.socket | None = None
        self._pending: deque[ForkedProcess] = deque()  # awaiting a pid
        self._children: dict[int, ForkedProcess] = {}
        self._launched = False
        self._ready = False  # the zygote finished its imports
        self._launching = asyncio.Lock()  # one relaunch, however many spawns

    @property
    def pid(self) -> int | None:
        return self.proc.pid if self.proc is not None else None

    async def start(self) -> None:
        """Launch eagerly.  A zygote that cannot start is not an error
        here: the first spawn retries and fails that job instead."""
        try:
            await self._launch()
        except OSError:
            pass

    async def _launch(self) -> None:
        async with self._launching:
            if self._control is not None:
                return  # another spawn relaunched it meanwhile
            ours, theirs = socket.socketpair(
                socket.AF_UNIX, socket.SOCK_SEQPACKET
            )
            env = _with_repro_path(dict(os.environ))
            # One BLAS thread: fork() must happen in a single-threaded
            # process.
            env["OPENBLAS_NUM_THREADS"] = "1"
            env["OMP_NUM_THREADS"] = "1"
            try:
                self.proc = await asyncio.create_subprocess_exec(
                    self.python, "-m", "repro.service.zygote",
                    str(theirs.fileno()), pass_fds=(theirs.fileno(),), env=env,
                )
            except BaseException:
                ours.close()
                raise
            finally:
                theirs.close()
            if self._launched:
                self.tracer.add("service_zygote_restarts", 1)
            self._launched = True
            self._ready = False
            ours.setblocking(False)
            self._control = ours
            asyncio.get_running_loop().add_reader(
                ours.fileno(), self._on_readable
            )

    async def spawn(self, job_file: Path, env: dict[str, str]) -> ForkedProcess:
        """Fork a runner child for ``job_file`` under ``env``."""
        child = ForkedProcess()
        stdout_r, stdout_w = os.pipe()
        stderr_r, stderr_w = os.pipe()
        try:
            await child._attach(stdout_r, stderr_r)
            request = json.dumps({"job_file": str(job_file), "env": env})
            for attempt in (0, 1):
                if self._control is None:
                    await self._launch()
                try:
                    socket.send_fds(
                        self._control, [request.encode("utf-8")],
                        [stdout_w, stderr_w],
                    )
                    break
                except (BrokenPipeError, ConnectionResetError):
                    # The zygote died while idle; the request never
                    # reached it, so a relaunch can take it safely.
                    self._lost()
                    if attempt:
                        raise
            self._pending.append(child)
        finally:
            os.close(stdout_w)
            os.close(stderr_w)
        await asyncio.shield(child._forked)
        return child

    def _on_readable(self) -> None:
        while self._control is not None:
            try:
                data = self._control.recv(_REPLY_LIMIT)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if not data:
                self._lost()
                return
            reply = json.loads(data)
            if "ready" in reply:
                self._ready = True
                continue
            if "exit" in reply:
                child = self._children.pop(reply["exit"], None)
                if child is not None:
                    child._set_exit(int(reply["code"]))
                continue
            child = self._pending.popleft()
            if "pid" in reply:
                child.pid = int(reply["pid"])
                self._children[child.pid] = child
                child._forked.set_result(None)
            else:
                child._forked.set_exception(OSError(reply["error"]))

    def _lost(self) -> None:
        """The channel closed: every child it owed an answer about dies.

        A pending request may have been forked just before the zygote
        died; its child, if any, holds the job pipes, so the worker
        still reads them to EOF before the crash policy runs.
        """
        control, self._control = self._control, None
        if control is not None:
            asyncio.get_running_loop().remove_reader(control.fileno())
            control.close()
        for child in list(self._children.values()) + list(self._pending):
            child.kill()
            child._set_exit(-signal.SIGKILL)
        self._children.clear()
        self._pending.clear()

    async def close(self) -> None:
        """Close the channel and reap the zygote (it exits on EOF)."""
        self._lost()
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if not self._ready:
            proc.kill()  # still importing: no child, nothing to flush
        try:
            await asyncio.wait_for(proc.wait(), _CLOSE_TIMEOUT_S)
        except asyncio.TimeoutError:
            proc.kill()
            await proc.wait()


class Worker:
    """One worker slot of the supervisor's pool."""

    def __init__(self, name: str, supervisor) -> None:
        self.name = name
        self.supervisor = supervisor
        self.current: Job | None = None
        self.proc: ForkedProcess | None = None
        self._spawned_at: float | None = None  # this attempt's phase stamps
        self._started_at: float | None = None

    async def run(self) -> None:
        """Main loop: drain the queue until it closes.

        The loop itself must survive anything one job can throw at it —
        a missing interpreter, an over-limit protocol line, a bug in the
        relay — so :meth:`_execute` runs under a guard that settles the
        job as failed (callers awaiting it never hang) and keeps this
        worker slot serving.
        """
        while True:
            job = await self.supervisor.queue.get()
            if job is None:
                return
            self.supervisor.observe(
                "service_job_queue_seconds", time.monotonic() - job.queued_at
            )
            self.current = job
            try:
                await self._execute(job)
            except Exception as exc:  # noqa: BLE001 — the slot must live
                await self._abort(job, exc)
            finally:
                self.current = None
                self.proc = None
                self._spawned_at = self._started_at = None

    async def _abort(self, job: Job, exc: Exception) -> None:
        """Settle a job whose *relay* (not the solver) blew up."""
        sup = self.supervisor
        proc = self.proc
        if proc is not None and proc.returncode is None:
            proc.kill()
            await proc.wait()
        sup.tracer.add("service_worker_errors", 1)
        if not job.done:
            sup.tracer.add("service_jobs_failed", 1)
            job.settle(
                "failed",
                f"worker {self.name} internal error: "
                f"{type(exc).__name__}: {exc}",
            )

    # ------------------------------------------------------------------
    def _job_file(self, job: Job) -> Path:
        path = job.jobfile_path
        # Attempt 1 (re)writes the file so a stale one from a previous
        # service run can never smuggle in another job's spec; resumes
        # reuse it — resolve_backend pins the solver, so the content
        # could only be identical anyway.
        if job.resumes == 0 or not path.exists():
            path.write_text(json.dumps({
                "job_id": job.job_id,
                "spec": {**job.spec.as_dict(), "solver": job.solver},
                "checkpoint": str(job.checkpoint_path),
                "receipt": str(job.receipt_path),
            }, indent=2, sort_keys=True) + "\n")
        return path

    def _child_env(self, job: Job) -> dict[str, str]:
        env = _with_repro_path(dict(os.environ))
        # A fresh attempt must not inherit a stale chaos hook from the
        # service environment; the plan below re-adds what it scripts.
        env.pop("QMKP_CRASH_AFTER_PROBES", None)
        env.pop("QMKP_SIGINT_AFTER_PROBES", None)
        env.pop(PUBLISH_KILL_ENV, None)
        # The shared tier is supervisor policy, not ambient environment:
        # the child sees it exactly when the config enables it.
        env.pop(SHARED_CACHE_ENV, None)
        shared_dir = self.supervisor.shared_cache_dir
        if shared_dir is not None:
            env[SHARED_CACHE_ENV] = str(shared_dir)
        chaos = self.supervisor.chaos
        if chaos is not None:
            env.update(chaos.env_for(job.spec.name, job.resumes))
        return env

    async def _execute(self, job: Job) -> None:
        sup = self.supervisor
        if sup.suspending:
            # The shutdown sweep only SIGINTs children that already
            # exist; a job dequeued around the sweep must not start a
            # fresh solve that would block the suspend.
            sup.tracer.add("service_jobs_suspended", 1)
            job.settle("suspended", "service shut down before the job started")
            return
        sup.resolve_backend(job)
        if job.state == "failed":
            return  # every degradation rung was breaker-rejected
        job.state = "running"
        job.worker = self.name
        sup.mark_busy(+1)
        job.child_pid = None  # this attempt's child has not started yet
        self._started_at = None
        try:
            # The job file is written after backend resolution so the
            # child sees the effective (possibly degraded) solver.
            job_file = self._job_file(job)
            self._spawned_at = time.monotonic()
            proc = await sup.zygote.spawn(job_file, self._child_env(job))
            self.proc = proc
            stderr_task = asyncio.ensure_future(proc.stderr.read())
            while True:
                line = await proc.stdout.readline()
                if not line:
                    break
                self._handle_line(job, line)
            returncode = await proc.wait()
            if self._started_at is not None:
                sup.observe(
                    "service_job_run_seconds",
                    time.monotonic() - self._started_at,
                )
            stderr = (await stderr_task).decode(errors="replace")
        finally:
            sup.mark_busy(-1)
        await sup.on_exit(job, returncode, stderr)

    def _handle_line(self, job: Job, line: bytes) -> None:
        sup = self.supervisor
        try:
            payload = json.loads(line)
            event = payload.get("event")
            if event == "incumbent":
                incumbent = IncumbentEvent(
                    job_id=job.job_id,
                    size=int(payload["size"]),
                    threshold=int(payload["threshold"]),
                    cumulative_gate_units=int(
                        payload["cumulative_gate_units"]
                    ),
                    cumulative_oracle_calls=int(
                        payload["cumulative_oracle_calls"]
                    ),
                    vertices=tuple(payload["vertices"]),
                    replayed=bool(payload.get("replayed", False)),
                )
                job.push_incumbent(incumbent)
                sup.tracer.add("service_incumbents_streamed", 1)
            elif event == "result":
                job.result = {
                    "answer": payload["answer"],
                    "verified": bool(payload.get("verified", False)),
                    "receipt": payload.get("receipt"),
                    "resumed_probes": payload.get("resumed_probes", 0),
                }
                if "cache" in payload:
                    job.result["cache"] = payload["cache"]
            elif event == "started":
                # Once this is seen the child's SIGINT handler is
                # installed: a suspend signal from here on is graceful.
                job.child_pid = int(payload["pid"])
                if self._spawned_at is not None:
                    self._started_at = time.monotonic()
                    sup.observe(
                        "service_job_spawn_seconds",
                        self._started_at - self._spawned_at,
                    )
                if sup.suspending and self.proc is not None \
                        and self.proc.returncode is None:
                    # The child spawned after the shutdown sweep, so the
                    # sweep's SIGINT missed it — deliver it now, at the
                    # first moment it is guaranteed to land gracefully.
                    self.proc.send_signal(signal.SIGINT)
            # "suspended" is informational; the exit code is the
            # authoritative signal for the supervisor's policy.
        except (KeyError, TypeError, ValueError):
            # A crashing child can tear its final line mid-write (bad
            # JSON, same as the WAL) or emit a field the relay cannot
            # coerce — count it, never kill the worker over it.
            sup.tracer.add("service_protocol_errors", 1)
