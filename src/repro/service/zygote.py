"""Runner zygote: one pre-imported process that forks a child per job.

``python -m repro.service.zygote FD`` is launched once per supervisor
(see :class:`repro.service.worker.Zygote`).  It imports the runner's
solver stack and resolves the kernel tier once, then serves spawn
requests over the control socket ``FD``, one end of an ``AF_UNIX``
``SOCK_SEQPACKET`` socketpair:

* request — one JSON message ``{"job_file": ..., "env": {...}}`` with
  the job's stdout and stderr write ends attached as ``SCM_RIGHTS``;
* replies — ``{"ready": true}`` once, when the imports are done;
  per request ``{"pid": n}`` right after the fork (``{"error": ...}``
  when it fails), then ``{"exit": n, "code": c}`` once the child is
  reaped, where ``c`` follows the :mod:`subprocess` returncode
  convention (negative = killed by that signal).

Each child is the process ``python -m repro.service.runner JOB.json``
would have been, minus the imports: it closes every zygote fd, puts
the job pipes on fds 1 and 2, restores the default SIGINT and SIGCHLD
handling, replaces ``os.environ`` with the worker-computed environment,
runs :func:`repro.service.runner.main` and ``_exit``\\ s with its code.
One process per job stays the crash domain.

The zygote itself ignores SIGINT (the supervisor suspends children on
its own) and exits when the control socket reaches EOF — the
supervisor closed it or died — SIGKILLing any child still running, so
neither it nor a child outlives the server.  No module of the package
imports this one: it only ever runs as ``__main__``.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import sys
import traceback

from ..perf import resolve_kernel
from . import runner

#: Upper bound on one spawn request (job file path + environment).
_MAX_REQUEST = 1 << 20


def _send(control: socket.socket, payload: dict[str, object]) -> None:
    control.send(json.dumps(payload, sort_keys=True).encode("utf-8"))


def _child(request: dict, fds: list[int], control: socket.socket) -> None:
    """Become the job's runner process; never returns."""
    code = 1
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        control.detach()  # closed below with every other zygote fd
        os.dup2(fds[0], 1)
        os.dup2(fds[1], 2)
        os.closerange(3, os.sysconf("SC_OPEN_MAX"))
        sys.stdout = open(1, "w", closefd=False)
        sys.stderr = open(2, "w", buffering=1, errors="backslashreplace",
                          closefd=False)
        os.environ.clear()
        os.environ.update(request["env"])
        code = runner.main([request["job_file"]])
    except KeyboardInterrupt:
        # An interpreter whose KeyboardInterrupt escapes dies *by*
        # SIGINT; the supervisor's exit policy expects exactly that.
        sys.stdout.flush()
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        os.kill(os.getpid(), signal.SIGINT)
    except BaseException:  # noqa: BLE001 — report it as an interpreter would
        traceback.print_exc()
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (OSError, ValueError):
                pass
        os._exit(code)


def _fork(control: socket.socket, message: bytes, fds: list[int],
          children: set[int]) -> None:
    """Fork one job child for a spawn request and reply with its pid."""
    try:
        try:
            request = json.loads(message)
            if len(fds) != 2:
                raise ValueError(f"expected 2 pipe fds, got {len(fds)}")
            pid = os.fork()
        except (OSError, ValueError) as exc:
            _send(control, {"error": f"{type(exc).__name__}: {exc}"})
            return
        if pid == 0:
            _child(request, fds, control)
        children.add(pid)
        _send(control, {"pid": pid})
    finally:
        for fd in fds:
            os.close(fd)


def _reap(control: socket.socket, children: set[int]) -> None:
    """Report every child that exited since the last call."""
    while children:
        pid, status = os.waitpid(-1, os.WNOHANG)
        if pid == 0:
            return
        children.discard(pid)
        _send(control, {"exit": pid, "code": os.waitstatus_to_exitcode(status)})


def serve(control: socket.socket) -> None:
    """Serve spawn requests until the control socket reaches EOF."""
    wake_r, wake_w = os.pipe()
    os.set_blocking(wake_r, False)
    os.set_blocking(wake_w, False)
    signal.set_wakeup_fd(wake_w)
    signal.signal(signal.SIGCHLD, lambda signum, frame: None)
    children: set[int] = set()
    try:
        _send(control, {"ready": True})
        while True:
            ready, _, _ = select.select([control, wake_r], [], [])
            if wake_r in ready:
                while True:
                    try:
                        os.read(wake_r, 512)
                    except BlockingIOError:
                        break
            _reap(control, children)
            if control in ready:
                message, fds, _flags, _addr = socket.recv_fds(
                    control, _MAX_REQUEST, 2
                )
                if not message:
                    return  # the supervisor closed the channel or died
                _fork(control, message, fds, children)
    except (BrokenPipeError, ConnectionResetError):
        return  # the supervisor is gone mid-reply
    finally:
        for pid in children:
            os.kill(pid, signal.SIGKILL)
        for pid in children:
            os.waitpid(pid, 0)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        print("usage: python -m repro.service.zygote FD", file=sys.stderr)
        return 2
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    control = socket.socket(fileno=int(argv[0]))
    resolve_kernel()  # build or load the kernel tier once, for every child
    sys.stdout.flush()
    sys.stderr.flush()
    serve(control)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
