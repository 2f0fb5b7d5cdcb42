"""``service-gateway``: the HTTP/SSE gateway under a closed loop of 2 clients.

The server is ``python -m repro.cli serve SPOOL --http 127.0.0.1:0
--workers 2`` in a fresh spool and workdir.  Two client threads of this
process each drive ``GatewayClient.solve`` one job at a time.  Each
client's jobs cycle through four kinds: a cold small qMKP job, a cold
``qamkp-sa`` job, a duplicate resubmission of one of that client's
settled jobs, and a qMKP mutation job with an edit script.  Cold jobs
pay for a fresh runner interpreter; a duplicate must come back from the
gateway's idempotent path without reaching a worker.

Every answer is checked after the timed loop: it must be byte-identical
to the answer :func:`repro.service.runner.execute` gives in this
process for the same spec, carry ``verified: true``, and be a k-plex
of the job's (edited) graph, of maximum size for qMKP jobs.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from common import (
    ROOT,
    Outcome,
    child_env,
    digest,
    latency_metrics,
    peak_rss_mb,
    rusage_cpu,
    time_fresh_interpreter,
)
from layers import per_layer_metrics
from spans import SpanRecorder, share_table

CLIENTS = 2
WORKERS = 2
QUEUE_CAPACITY = 4  # at least CLIENTS, so a closed loop is never refused
#: The job mix, one of each kind in turn.  No traffic data exists to
#: weight it, so the four paths get equal shares: each is sampled as
#: often as the others.  An assumption, not a measurement.
KINDS = ("qmkp", "qamkp-sa", "duplicate", "mutation")
#: Jobs per client whose answers feed the exact per-seed counts; every
#: client completes them even when the run's seconds are up.
EXACT_JOBS = 3 * len(KINDS)
POOL_SEED = 2509_2026
#: qamkp-sa budget, as in the anneal workload: 1000 reads, so the
#: quality of a pass does not hinge on a handful of reads.
SA_BUDGET_US = 100000.0
#: Recorded set-up launches before and after the main run (the main
#: server's own launch is one more sample).
SETUP_LAUNCHES = (2, 2)
TRACED_JOBS = 8  # per client and per segment of a traced run
IMPORT_REPS = 3


@dataclass
class Job:
    label: str
    kind: str
    spec: object
    graph_path: Path
    edits: list[tuple[str, int, int]] = field(default_factory=list)
    submitted: float = 0.0
    first_incumbent: float | None = None
    finished: float = 0.0
    submit_docs: list[dict] = field(default_factory=list)
    result: dict | None = None
    error: str | None = None


# ----------------------------------------------------------------------
# Server process
# ----------------------------------------------------------------------
class Server:
    """One ``repro serve`` process in its own session and directory."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> float:
        """Launch; seconds until the banner and one good ``GET /metrics``."""
        from repro.service.http import GatewayClient

        self.root.mkdir(parents=True)
        start = time.perf_counter()
        with open(self.root / "server.err", "w") as stderr:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", str(self.root / "spool"),
                 "--http", "127.0.0.1:0", "--workers", str(WORKERS),
                 "--queue-capacity", str(QUEUE_CAPACITY),
                 "--workdir", str(self.root / "work")],
                stdout=subprocess.PIPE,
                stderr=stderr,
                env=child_env(self.root),
                cwd=ROOT,
                text=True,
                start_new_session=True,
            )
        banner = self.proc.stdout.readline()
        if not banner.startswith("gateway listening on "):
            self.stop()
            raise RuntimeError(f"server did not start: {banner!r}")
        self.url = banner.split()[-1]
        json.loads(GatewayClient(self.url).metrics())
        return time.perf_counter() - start

    def stop(self) -> bool:
        """SIGTERM, wait, and report whether the process group is gone.

        Runners inherit the server's process group, so any member still
        alive after the server exited is a leaked server or runner; it
        is killed and the stop reported as unclean.
        """
        proc = self.proc
        if proc is None:
            return True
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return False
        finally:
            proc.stdout.close()
        deadline = time.monotonic() + 5.0
        while _group_alive(proc.pid):
            if time.monotonic() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                return False
            time.sleep(0.05)
        return True


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def _shapes(tiny: bool) -> dict[str, list[tuple[object, int, list]]]:
    """The fixed pool of job shapes per cold kind: ``(graph, k, edits)``.

    Small G(n, m) graphs, m in [2n, 3n], with no isolated vertex
    (edge-list files only name vertices that have an edge).  Like the
    gate workload's pool, shapes are fixed so that every seed's jobs
    cost alike; the seed relabels them and draws the solver seeds.
    """
    from repro.graphs import gnm_random_graph

    rng = random.Random(POOL_SEED)
    sizes = [8, 9] if tiny else [10, 11, 12, 13, 11, 12]
    shapes: dict[str, list[tuple[object, int, list]]] = {}
    for kind in KINDS:
        if kind == "duplicate":
            continue
        shapes[kind] = []
        for n in sizes:
            graph = gnm_random_graph(n, rng.randint(2 * n, 3 * n),
                                     seed=rng.randrange(2**31))
            while min(graph.degrees()) == 0:
                graph = gnm_random_graph(n, graph.num_edges, seed=rng.randrange(2**31))
            edits = _edit_script(graph, rng) if kind == "mutation" else []
            shapes[kind].append((graph, rng.choice((2, 3)), edits))
    return shapes


class JobMaker:
    """Deterministic job sequence for one client of one run segment."""

    def __init__(self, seed: int, segment: str, client: int, tmp: Path,
                 shapes: dict[str, list]):
        self.prefix = f"{segment}-c{client}"
        self.client = client
        self.seed = seed
        self.dir = tmp / "inputs"
        self.dir.mkdir(exist_ok=True)
        self.shapes = shapes
        self.settled: list[Job] = []
        self.count = 0

    def next(self) -> Job:
        from repro.graphs import Graph, write_edge_list
        from repro.service.jobs import JobSpec

        index = self.count
        self.count += 1
        label = f"{self.prefix}-j{index}"
        rng = random.Random(f"service-gateway/{self.seed}/{label}")
        kind = KINDS[index % len(KINDS)]
        if kind == "duplicate" and not self.settled:
            kind = "qmkp"  # every earlier job failed; its check reports that
        if kind == "duplicate":
            original = rng.choice(self.settled)
            return Job(label, kind, original.spec, original.graph_path,
                       original.edits)
        pool = self.shapes[kind]
        # The two clients start half a pool apart, so they rarely run
        # the same shape at the same time.
        base, k, base_edits = pool[(index // len(KINDS) + self.client * len(pool) // 2)
                                   % len(pool)]
        perm = list(range(base.num_vertices))
        rng.shuffle(perm)
        graph = Graph(base.num_vertices, [(perm[u], perm[v]) for u, v in base.edges])
        edits = [(op, perm[u], perm[v]) for op, u, v in base_edits]
        path = self.dir / f"{label}.txt"
        write_edge_list(graph, path)
        edits_path = None
        if edits:
            edits_path = self.dir / f"{label}.edits"
            edits_path.write_text("".join(f"{op} {u} {v}\n" for op, u, v in edits))
        spec = JobSpec(graph_path=str(path), k=k,
                       solver="qamkp-sa" if kind == "qamkp-sa" else "qmkp",
                       seed=rng.randrange(2**31), runtime_us=SA_BUDGET_US,
                       edits_path=None if edits_path is None else str(edits_path))
        return Job(label, kind, spec, path, edits)

    def settle(self, job: Job) -> None:
        if job.kind != "duplicate" and job.error is None:
            self.settled.append(job)


def _edit_script(graph, rng: random.Random) -> list[tuple[str, int, int]]:
    """Three edits, delete / insert / delete, so a job takes both
    marked-set patch paths; the length is a choice, not traffic data."""
    edges = set(graph.edges)
    n = graph.num_vertices
    script = []
    for step in range(3):
        if step % 2 == 0:
            u, v = rng.choice(sorted(edges))
            edges.discard((u, v))
            script.append(("del", u, v))
        else:
            missing = [(u, v) for u in range(n) for v in range(u + 1, n)
                       if (u, v) not in edges]
            u, v = rng.choice(missing)
            edges.add((u, v))
            script.append(("add", u, v))
    return script


# ----------------------------------------------------------------------
# Clients
# ----------------------------------------------------------------------
def _client_class():
    from repro.service.http import GatewayClient, GatewayError

    class BenchClient(GatewayClient):
        """Keeps every submission response and counts 429/503 retries."""

        def __init__(self, url: str) -> None:
            super().__init__(url, rng=random.Random(0))
            self.submit_docs: list[dict] = []
            self.retries = 0

        def submit(self, spec):
            try:
                doc = super().submit(spec)
            except GatewayError as exc:
                if exc.status in (429, 503):
                    self.retries += 1
                raise
            self.submit_docs.append(doc)
            return doc

    return BenchClient, GatewayError


def drive(url: str, makers: list[JobMaker], stop_at: float | None,
          jobs_per_client: int | None, min_jobs: int = 0,
          rec: SpanRecorder | None = None):
    """Run the closed loop; returns ``(jobs, wall_s, retries)``.

    Each client stops after ``jobs_per_client`` jobs or, once it has
    done ``min_jobs``, at ``stop_at``; the job in flight always finishes.
    """
    BenchClient, GatewayError = _client_class()
    jobs: list[list[Job]] = [[] for _ in makers]
    retries = [0] * len(makers)

    def loop(c: int) -> None:
        client = BenchClient(url)
        maker = makers[c]
        while True:
            if jobs_per_client is not None and len(jobs[c]) >= jobs_per_client:
                break
            if (stop_at is not None and time.perf_counter() >= stop_at
                    and len(jobs[c]) >= min_jobs):
                break
            job = maker.next()

            def on_event(record, job=job) -> None:
                if record["event"] == "incumbent" and job.first_incumbent is None:
                    job.first_incumbent = time.perf_counter()

            before = len(client.submit_docs)
            job.submitted = time.perf_counter()
            try:
                if rec is None:
                    _, job.result = client.solve(job.spec, on_event=on_event)
                else:
                    with rec.span("bench.job", solve=job.label):
                        _, job.result = client.solve(job.spec, on_event=on_event)
            except (GatewayError, OSError) as exc:
                job.error = f"{type(exc).__name__}: {exc}"
            job.finished = time.perf_counter()
            job.submit_docs = client.submit_docs[before:]
            jobs[c].append(job)
            maker.settle(job)
        retries[c] = client.retries

    start = time.perf_counter()
    threads = [threading.Thread(target=loop, args=(c,)) for c in range(len(makers))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs, time.perf_counter() - start, sum(retries)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
class Checker:
    """Reference answers and optima, computed outside the timed loop."""

    def __init__(self, tmp: Path) -> None:
        self.tmp = tmp / "reference"
        self.tmp.mkdir()
        self.answers: dict[str, dict] = {}
        self.optima: dict[str, int] = {}

    def reference(self, job: Job) -> dict:
        """The answer of the same spec executed by the runner in-process."""
        from repro.service.runner import execute

        key = job.spec.content_key()
        if key not in self.answers:
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer):
                execute({"job_id": job.label, "spec": job.spec.as_dict(),
                         "checkpoint": str(self.tmp / f"{key}.ckpt"),
                         "receipt": str(self.tmp / f"{key}.receipt.json")})
            events = [json.loads(line) for line in buffer.getvalue().splitlines()]
            self.answers[key] = next(e for e in events if e["event"] == "result")["answer"]
        return self.answers[key]

    def final_graph(self, job: Job):
        """The job's graph after its edit script, in file-label space."""
        from repro.graphs import Graph, read_edge_list

        graph, labels = read_edge_list(job.graph_path)
        edges = {tuple(sorted((labels[u], labels[v]))) for u, v in graph.edges}
        for op, u, v in job.edits:
            (edges.add if op == "add" else edges.discard)(tuple(sorted((u, v))))
        order = sorted(labels.values())
        index = {label: i for i, label in enumerate(order)}
        return Graph(len(order), [(index[u], index[v]) for u, v in edges]), index

    def check(self, job: Job) -> tuple[bool, str]:
        from repro.kplex import is_kplex, maximum_kplex

        if job.error is not None:
            return False, job.error
        result = job.result
        if not result.get("verified"):
            return False, f"result not verified: {result}"
        if not job.submit_docs:
            return False, "no submission response"
        replayed = bool(job.submit_docs[0].get("replayed"))
        if replayed != (job.kind == "duplicate"):
            return False, f"{job.kind} job came back with replayed={replayed}"
        answer = result.get("answer")
        canonical = json.dumps(answer, sort_keys=True)
        if canonical != json.dumps(self.reference(job), sort_keys=True):
            return False, f"answer {canonical} differs from the in-process solve"
        graph, index = self.final_graph(job)
        subset = frozenset(index[v] for v in answer["vertices"])
        k = job.spec.k
        if not is_kplex(graph, subset, k):
            return False, f"answer {answer['vertices']} is not a {k}-plex"
        key = job.spec.content_key()
        if key not in self.optima:
            self.optima[key] = maximum_kplex(graph, k).size
        optimum = self.optima[key]
        if job.spec.solver == "qmkp" and len(subset) != optimum:
            return False, f"qmkp answer size {len(subset)} != optimum {optimum}"
        if len(subset) > optimum:
            return False, f"answer size {len(subset)} exceeds optimum {optimum}"
        return True, ""


def _gateway_counters(url: str) -> dict[str, float]:
    from repro.service.http import GatewayClient

    return json.loads(GatewayClient(url).metrics())["counters"]


def _check_jobs(out: Outcome, checker: Checker, jobs: list[Job],
                url: str) -> dict[str, float]:
    for job in jobs:
        ok, why = checker.check(job)
        out.check(ok, f"{job.label} ({job.kind}): {why}")
    counters = _gateway_counters(url)
    cold = sum(job.kind != "duplicate" for job in jobs)
    submissions = counters.get("gateway_submissions", 0)
    out.check(submissions == cold,
              f"gateway ran {submissions} submissions for {cold} distinct specs")
    return counters


def _cpu_children() -> float:
    return rusage_cpu(resource.RUSAGE_CHILDREN)


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run(seed: int, seconds: float, trace: bool, tiny: bool, tmp: Path,
        spans_path: Path) -> Outcome:
    out = Outcome()
    if trace:
        return _traced(out, seed, tiny, tmp, spans_path)
    exact = len(KINDS) if tiny else EXACT_JOBS

    # Set-up: launch and stop a server a few times before and after the
    # main run, so the samples span the run; the first launch is a
    # warm-up (byte-code, kernel library) and is not recorded.  The
    # children CPU of an idle launch is what the main server's total is
    # corrected by, so cpu_per_solve_s counts job work only.
    setups: list[float] = []
    idle_cpu: list[float] = []
    before, after = (1, 0) if tiny else SETUP_LAUNCHES
    _launch(out, tmp / "warm-up", [], [])
    for rep in range(before):
        _launch(out, tmp / f"setup-before{rep}", setups, idle_cpu)

    cpu_children0 = _cpu_children()
    cpu_self0 = rusage_cpu(resource.RUSAGE_SELF)
    server = Server(tmp / "main")
    setups.append(server.start())
    try:
        shapes = _shapes(tiny)
        makers = [JobMaker(seed, "run", c, tmp, shapes) for c in range(CLIENTS)]
        per_client, _, retries = drive(
            server.url, makers, time.perf_counter() + seconds, None, exact)
        cpu_self = rusage_cpu(resource.RUSAGE_SELF) - cpu_self0
        jobs = [job for client in per_client for job in client]
        checker = Checker(tmp)
        _check_jobs(out, checker, jobs, server.url)
    finally:
        out.check(server.stop(), "server or runner outlived SIGTERM")
    cpu_children = _cpu_children() - cpu_children0 - statistics.median(idle_cpu)
    for rep in range(after):
        _launch(out, tmp / f"setup-after{rep}", setups, idle_cpu)

    # Latencies of cold jobs only: a replay takes milliseconds, so mixed
    # in it would set which quantile of the cold jobs the median is.
    cold = [job for job in jobs if job.kind != "duplicate"]
    latencies = [job.finished - job.submitted for job in cold]
    firsts = _first_incumbents(cold)
    # Exact counts: a replay does no quantum work, and which settled job
    # a duplicate repeats is drawn at random.
    exact_jobs = [job for client in per_client for job in client[:exact]
                  if job.kind != "duplicate"]
    out.put("setup_s", statistics.median(setups), "s")
    # Each client's rate over its own busy span, summed: the clients stop
    # at different moments after the deadline, and the one that stopped
    # first was not offering load while it waited for the other.
    latency_metrics(out, latencies, sum(
        len(client) / (client[-1].finished - client[0].submitted)
        for client in per_client))
    out.put("ttfi_p50_s", statistics.median(firsts), "s")
    out.put("oracle_calls", sum(
        job.result["answer"].get("oracle_calls", 0) for job in exact_jobs
        if job.result), "count")
    ratios = [
        len(job.result["answer"]["vertices"]) / checker.optima[job.spec.content_key()]
        for job in exact_jobs
        if job.result and job.spec.content_key() in checker.optima
    ]
    out.put("anneal_quality", statistics.mean(ratios) if ratios else 0.0, "ratio")
    out.put("cpu_per_solve_s", (cpu_children + cpu_self) / len(jobs), "s")
    out.put("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    out.notes.update(
        jobs=len(jobs), retries_429=retries,
        kinds={kind: sum(job.kind == kind for job in jobs) for kind in KINDS},
        setup_samples=[round(s, 4) for s in setups],
        instances_digest=digest([_describe(job) for job in exact_jobs]),
        answers_digest=digest([job.result and job.result["answer"]
                               for job in exact_jobs]),
    )
    return out


def _launch(out: Outcome, root: Path, setups: list[float],
            idle_cpu: list[float]) -> None:
    """Start and stop one idle server; record its set-up time and CPU."""
    cpu0 = _cpu_children()
    server = Server(root)
    elapsed = server.start()
    out.check(server.stop(), f"set-up server {root.name} left processes behind")
    setups.append(elapsed)
    idle_cpu.append(_cpu_children() - cpu0)


def _first_incumbents(jobs: list[Job]) -> list[float]:
    """Submit to first SSE incumbent, over the jobs that streamed one."""
    return [job.first_incumbent - job.submitted for job in jobs
            if job.first_incumbent is not None]


def _describe(job: Job) -> dict[str, object]:
    """A job's inputs without the run's temporary paths."""
    spec = job.spec.as_dict()
    spec.pop("graph_path")
    spec.pop("edits_path")
    return {**spec, "graph": Path(job.graph_path).read_text(), "edits": job.edits}


def _import_seconds(tmp: Path) -> list[float]:
    """Cold ``import repro.service.runner`` in fresh interpreters, after
    one unrecorded warm-up."""
    code = ("import time\nt = time.perf_counter()\nimport repro.service.runner\n"
            "print('ready', time.perf_counter() - t)\n")
    return [time_fresh_interpreter(code, tmp) for _ in range(IMPORT_REPS + 1)][1:]


def _traced(out: Outcome, seed: int, tiny: bool, tmp: Path, spans_path: Path) -> Outcome:
    """Untraced then traced segment of equal job counts on one server."""
    from repro.service.http import GatewayClient

    count = len(KINDS) if tiny else TRACED_JOBS
    shapes = _shapes(tiny)
    server = Server(tmp / "main")
    server.start()
    rec = SpanRecorder()
    try:
        base, base_wall, _ = drive(
            server.url, [JobMaker(seed, "base", c, tmp, shapes) for c in range(CLIENTS)],
            None, count)
        rec.wrap(GatewayClient, "submit", "service.http.submit")
        try:
            traced, traced_wall, retries = drive(
                server.url,
                [JobMaker(seed, "traced", c, tmp, shapes) for c in range(CLIENTS)],
                None, count, rec=rec)
        finally:
            rec.unwrap_all()
        base_jobs = [job for client in base for job in client]
        jobs = [job for client in traced for job in client]
        counters = _check_jobs(out, Checker(tmp), base_jobs + jobs, server.url)
    finally:
        out.check(server.stop(), "server or runner outlived SIGTERM")

    cold = [job for job in jobs if job.kind != "duplicate"]
    streams = [job.finished - job.first_incumbent for job in cold
               if job.first_incumbent is not None]
    duplicates = [job for job in jobs if job.kind == "duplicate"]
    replayed = sum(bool(doc.get("replayed")) for job in duplicates
                   for doc in job.submit_docs[:1])
    # Replays are few per segment, so both segments' are pooled.
    replays = [job.finished - job.submitted for job in base_jobs + jobs
               if job.kind == "duplicate"]
    per_layer_metrics(out, rec, {
        "service.http.retries_429": retries,
        "service.first_incumbent_s": statistics.median(_first_incumbents(cold)),
        "service.stream_s": statistics.median(streams),
        "service.replay_ratio": replayed / len(duplicates),
        "service.replay_latency_s": statistics.median(replays),
        "service.runner.import_s": statistics.median(_import_seconds(tmp)),
        "service.gateway.submissions": counters.get("gateway_submissions", 0),
        "service.gateway.events_streamed": counters.get("gateway_events_streamed", 0),
        "service.gateway.events_replayed": counters.get("gateway_events_replayed", 0),
        "service.gateway.evictions": counters.get("service_slow_client_evictions", 0),
        "bench.trace_overhead": traced_wall / base_wall - 1,
    })
    rec.write(spans_path, {"workload": "service-gateway", "seed": seed,
                           "jobs": len(jobs), "gateway_counters": counters})
    out.notes.update(spans=str(spans_path), jobs=len(jobs),
                     answers_digest=digest([job.result and job.result["answer"]
                                            for job in jobs]),
                     self_time_shares=share_table(rec))
    return out
