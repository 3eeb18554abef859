"""The four benchmark workloads: set-up, measurement and the traced run.

Every workload is driven through the public API only — ``RiskServer`` over
TCP for quote-interactive, ``RiskService.submit`` in-process for the other
three (fleet-shards with ``workers=`` pointing at ``are worker`` processes).
See ``perfbench/README.md`` for what each workload stresses and bypasses.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import gc
import json
import math
import os
import pickle
import re
import resource
import select
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Sequence, Tuple

import books
from tracing import Tracer, attribute, install_layer_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: quote-interactive open-loop arrival rate (requests per second), about a
#: quarter of the closed-loop capacity of a 2-core machine.  At 100 req/s the
#: GIL-bound server queues enough to amplify host-speed drift, and a load
#: generator sharing the two cores falls behind its schedule.
OPEN_LOOP_RATE = 60.0
#: Closed-loop client connections of quote-interactive.
CLOSED_LOOP_CONNECTIONS = 2
#: The generator fell behind its schedule when more than a tenth of its sends
#: went out later than one mean inter-arrival gap: the offered load is then no
#: longer the intended Poisson stream.  Rarer late sends (host stalls) are
#: charged to latency, which is timed from each request's due time.
MAX_SCHEDULE_LAG_P90_S = 1.0 / OPEN_LOOP_RATE
#: Fleet workers (one per core of the reference machine) and shards.
FLEET_WORKERS = 2
FLEET_SHARDS = 4
#: Kernel passes whose median gives each engine.kernel_ms.<backend>.
KERNEL_REPEATS = 3

#: Span names, in the order a request crosses them; each reports ``<name>_ms``.
LAYER_SPANS = (
    "server.self", "request.decode", "service.prepare", "digests.program",
    "digests.yet", "digests.layer", "plan_cache.lookup", "result_cache.lookup",
    "plan.lower", "service.execute", "engine.kernel", "plan.stack_build",
    "plan.restrict", "results.merge", "fleet.run", "fleet.frame_send",
    "fleet.wait", "fleet.frame_recv", "fleet.partial_decode", "result_cache.store",
    "pricing.quote", "metrics.risk_metrics", "response.encode",
)


class BenchmarkError(RuntimeError):
    """The run cannot report a valid measurement."""


# --------------------------------------------------------------------------- #
# Small helpers
# --------------------------------------------------------------------------- #
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1])."""
    ordered = sorted(values)
    if not ordered:
        raise BenchmarkError("no samples")
    rank = max(math.ceil(q * len(ordered)) - 1, 0)
    return ordered[min(rank, len(ordered) - 1)]


def reference_answers(workload: str, seed: int) -> Dict[Any, List[books.Answer]]:
    """:func:`books.reference_set` of ``workload``, computed in a child process.

    The reference book and its cold runs then never count in this process's
    peak resident memory, which is ``peak_rss_mb`` of the in-process workloads.
    A plain subprocess, not ``multiprocessing``, whose resource tracker would
    outlive the run.
    """
    code = ("import pickle, sys, books; sys.stdout.buffer.write("
            "pickle.dumps(books.reference_set(sys.argv[1], int(sys.argv[2]))))")
    try:
        done = subprocess.run(
            [sys.executable, "-c", code, workload, str(seed)],
            cwd=HERE, env=child_env(), capture_output=True, timeout=600.0,
            preexec_fn=die_with_parent,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError("reference answers took longer than 600s") from exc
    if done.returncode != 0:
        tail = done.stderr.decode("utf-8", "replace")[-2000:]
        raise BenchmarkError(f"reference answers failed ({done.returncode}): {tail}")
    return pickle.loads(done.stdout)


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mb(pid: int) -> float:
    """Peak resident memory (``VmHWM``) of a live child process."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


_LIBC = ctypes.CDLL(None, use_errno=True) if sys.platform.startswith("linux") else None
_PR_SET_PDEATHSIG = 1


def die_with_parent() -> None:
    """Child-side ``preexec_fn``: the kernel sends the child SIGTERM when this
    process dies, so a benchmark killed from outside leaves no child behind."""
    if _LIBC is not None:
        _LIBC.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def read_line(stream, timeout: float) -> str:
    """One line from a child's pipe, or ``BenchmarkError`` after ``timeout``."""
    ready, _, _ = select.select([stream], [], [], timeout)
    if not ready:
        raise BenchmarkError(f"child process said nothing within {timeout:.0f}s")
    line = stream.readline()
    if not line:
        raise BenchmarkError("child process exited before it was ready")
    return line.decode("utf-8", "replace")


def stop_process(proc: subprocess.Popen, timeout: float = 60.0) -> bytes:
    """Wait for ``proc`` to end (killing it after ``timeout``); its stdout."""
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
    return out or b""


class Tally:
    """Attempted/failed counts and the latencies of answered requests."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.latencies: List[float] = []

    def record(self, seconds: float, ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.latencies.append(seconds)
        else:
            self.failed += 1

    def add_counts(self, other: "Tally") -> None:
        """Count ``other``'s requests in this tally (not its latencies)."""
        self.attempted += other.attempted
        self.failed += other.failed


def cache_ratio(responses: Sequence[Tuple[int, int]]) -> float:
    """Plan-cache hits over lookups from ``(hits, misses)`` pairs."""
    hits = sum(h for h, _ in responses)
    lookups = hits + sum(m for _, m in responses)
    return hits / lookups if lookups else 0.0


def layer_metrics(tracer: Tracer, requests: Sequence[Any]) -> Dict[str, float]:
    """Mean self time per request of every layer, plus the residual.

    Means (not medians) so that the layers and ``unattributed_ms`` add up to
    ``latency_mean_ms`` exactly; a layer entered by a third of the requests
    would have a median of zero.
    """
    grouped = tracer.by_request()
    shares = [attribute(grouped[request]) for request in requests]
    unknown = {name for share in shares for name in share} - set(LAYER_SPANS) - {"client"}
    if unknown:
        raise BenchmarkError(f"spans outside the layer vocabulary: {sorted(unknown)}")
    n = len(shares)
    metrics = {
        f"{name}_ms": 1e3 * sum(share.get(name, 0.0) for share in shares) / n
        for name in LAYER_SPANS
    }
    metrics["unattributed_ms"] = 1e3 * sum(share.get("client", 0.0) for share in shares) / n
    metrics["latency_mean_ms"] = 1e3 * sum(sum(share.values()) for share in shares) / n
    return metrics


def kernel_probe(workload) -> Dict[str, float]:
    """Kernel-level numbers on the workload's plan (Fig. 6b phases, backends)."""
    from repro import AggregateRiskEngine, EngineConfig
    from repro.core.native.build import native_status
    from repro.core.plan import PlanBuilder

    plan = PlanBuilder.from_program(workload.program, workload.yet)

    def timed(engine) -> Tuple[float, Any]:
        result = engine.run_plan(plan)  # builds the stack / loads the library
        samples = []
        for _ in range(KERNEL_REPEATS):
            started = perf_counter()
            result = engine.run_plan(plan)
            samples.append(perf_counter() - started)
        return statistics.median(samples), result

    vectorized_s, _ = timed(AggregateRiskEngine())
    native_s = 0.0
    if native_status()["available"]:
        seconds, result = timed(AggregateRiskEngine(EngineConfig(backend="native")))
        if not result.details.get("native_fallback"):
            native_s = seconds
    if not native_s:
        print("perfbench: native kernel unavailable; engine.kernel_ms.native = 0",
              file=sys.stderr)
    phases = AggregateRiskEngine(EngineConfig(record_phases=True)).run_plan(plan)
    seconds = phases.phase_breakdown.seconds
    lookups = workload.spec.total_lookups
    return {
        "engine.kernel_ms.vectorized": 1e3 * vectorized_s,
        "engine.kernel_ms.native": 1e3 * native_s,
        "kernel.event_fetch_ms": 1e3 * seconds.get("event_fetch", 0.0),
        "kernel.elt_lookup_ms": 1e3 * seconds.get("elt_lookup", 0.0),
        "kernel.financial_terms_ms": 1e3 * seconds.get("financial_terms", 0.0),
        "kernel.layer_terms_ms": 1e3 * seconds.get("layer_terms", 0.0),
        "kernel.lookups": float(lookups),
        "kernel.lookups_per_s": lookups / vectorized_s,
        "kernel.stack_bytes": float(plan.stack().nbytes),
    }


#: Per-layer metrics that only some workloads produce (zero elsewhere).
BYPASS_DEFAULTS = {
    "server.stats_p50_ms": 0.0,
    "server.refused": 0.0,
    "plan_cache.hit_ratio": 0.0,
    "result_cache.hit_ratio": 0.0,
    "result_cache.repriced_trial_ratio": 0.0,
    "fleet.bytes_received": 0.0,
    "fleet.requeued_shards": 0.0,
    "fleet.shard_skew": 0.0,
    "open_loop.latency_p50_ms": 0.0,
    "open_loop.latency_p99_ms": 0.0,
    "schedule_lag_p50_ms": 0.0,
    "schedule_lag_p99_ms": 0.0,
}


def traced_run_metrics(
    parts: Dict[str, float], tracer: Tracer, requests: Sequence[Any],
    untraced: Tally, traced: Tally, workload: str, seed: int,
) -> Dict[str, float]:
    """The per-layer metrics every traced run reports (workloads add their own).

    Counts ``traced`` into ``untraced``, which then tallies the whole run.
    The kernel probe runs on a fresh copy of the book, once the served one
    is released.
    """
    untraced.add_counts(traced)
    metrics = dict(BYPASS_DEFAULTS)
    metrics.update({k: v for k, v in parts.items() if k != "setup_s"})
    metrics.update(layer_metrics(tracer, requests))
    metrics["fleet.bytes_received"] = statistics.fmean(
        tracer.counters[r].get("fleet.bytes_received", 0.0) for r in requests
    )
    metrics["trace_overhead_ratio"] = (
        percentile(traced.latencies, 0.5) / percentile(untraced.latencies, 0.5)
    )
    metrics["error_ratio"] = untraced.failed / untraced.attempted
    metrics.update(kernel_probe(books.generate(workload, seed)))
    return metrics


# --------------------------------------------------------------------------- #
# In-process workloads (portfolio-64, delta-refresh, fleet-shards)
# --------------------------------------------------------------------------- #
class InProcessWorkload:
    """A closed loop of ``RiskService.submit`` calls by one in-process caller."""

    name = ""
    service_options: Dict[str, Any] = {}
    warmup_steps = 1
    #: Set-ups per untraced run; ``setup_s`` is their median.
    setup_repeats = 3

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.answers = reference_answers(self.name, seed)
        self.expected = self.answers["run"]
        self.service = None

    # -- set-up ------------------------------------------------------------ #
    def start_helpers(self) -> float:
        """Start helper processes; returns their start-up seconds."""
        return 0.0

    def stop_helpers(self) -> None:
        pass

    def setup(self) -> Dict[str, float]:
        started = perf_counter()
        workload = books.generate(self.name, self.seed)
        generated = perf_counter()
        try:
            worker_start_s = self.start_helpers()
            registering = perf_counter()
            self.service = books.new_service(**self.service_options)
            self.register(workload)
            answering = perf_counter()
            response = self.service.submit(self.first_document())
            done = perf_counter()
            if not books.response_matches(response, self.expected):
                raise BenchmarkError(f"{self.name}: first answer differs from the reference")
        except BaseException:
            self.teardown()
            raise
        return {
            "setup_s": done - started,
            "setup.generate_s": generated - started,
            "setup.worker_start_s": worker_start_s,
            "setup.server_start_s": answering - registering,
            "setup.first_answer_s": done - answering,
        }

    def register(self, workload) -> None:
        self.service.register_workload(books.BOOK, workload)

    def first_document(self) -> dict:
        return books.run_document()

    def teardown(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None
        self.stop_helpers()
        gc.collect()

    # -- one operation ----------------------------------------------------- #
    def operation(self, index: int) -> Tuple[Callable[[], Any], List[books.Answer]]:
        """The timed call of operation ``index`` and the answer it must give."""
        document = self.first_document()
        return (lambda: self.service.submit(document)), self.expected

    def step(self, index: int, tracer: Tracer | None) -> Tuple[float, bool, Any]:
        call, expected = self.operation(index)
        with tracer.request(index) if tracer else contextlib.nullcontext():
            started = perf_counter()
            response = call()
            ended = perf_counter()
        if tracer:
            tracer.root(index, started, ended)
        return ended - started, books.response_matches(response, expected), response

    def closed_loop(
        self, seconds: float, first: int, tracer: Tracer | None = None
    ) -> Tuple[Tally, float, List[Any], int]:
        tally = Tally()
        responses: List[Any] = []
        index = first
        started = perf_counter()
        deadline = started + seconds
        while perf_counter() < deadline:
            try:
                latency, ok, response = self.step(index, tracer)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted
                print(f"perfbench: request {index} failed: {exc!r}", file=sys.stderr)
                latency, ok, response = 0.0, False, None
            tally.record(latency, ok)
            if tracer is not None and ok:
                responses.append((index, response))
            index += 1
        wall = perf_counter() - started
        return tally, wall, responses, index

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb()

    def layer_extras(self, responses: Sequence[Tuple[int, Any]]) -> Dict[str, float]:
        return {
            "plan_cache.hit_ratio": cache_ratio(
                [(r.cache.hits, r.cache.misses) for _, r in responses if r.cache is not None]
            ),
        }

    # -- runs -------------------------------------------------------------- #
    def measure(self, seconds: float) -> Tuple[Dict[str, float], Tally]:
        setups = []
        for repeat in range(self.setup_repeats):
            setups.append(self.setup()["setup_s"])
            if repeat < self.setup_repeats - 1:
                self.teardown()
        try:
            index = self.warm_up()
            tally, wall, _, _ = self.closed_loop(seconds, index)
            rss = self.peak_rss_mb()
        finally:
            self.teardown()
        latencies = tally.latencies
        return {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
            "latency_p90_ms": 1e3 * percentile(latencies, 0.90),
            "requests_per_s": len(latencies) / wall,
            "peak_rss_mb": rss,
        }, tally

    def warm_up(self) -> int:
        for index in range(self.warmup_steps):
            _, ok, _ = self.step(index, None)
            if not ok:
                raise BenchmarkError(f"{self.name}: warm-up answer differs from the reference")
        return self.warmup_steps

    def trace(self, seconds: float) -> Tuple[Dict[str, float], Tally]:
        parts = self.setup()
        tracer = Tracer()
        try:
            index = self.warm_up()
            untraced, _, _, index = self.closed_loop(seconds / 2, index)
            first_traced = index
            install_layer_spans(tracer)
            try:
                traced, _, responses, _ = self.closed_loop(seconds / 2, first_traced, tracer)
            finally:
                tracer.uninstall()
        finally:
            self.teardown()
        requests = [index for index, _ in responses]
        metrics = traced_run_metrics(
            parts, tracer, requests, untraced, traced, self.name, self.seed
        )
        metrics.update(self.layer_extras(responses))
        return metrics, untraced


class Portfolio64(InProcessWorkload):
    name = "portfolio-64"


class DeltaRefresh(InProcessWorkload):
    """Appends, layer edits and exact repeats against the result cache."""

    name = "delta-refresh"
    service_options = {"result_cache": True}
    setup_repeats = 5

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.ops = books.delta_ops(seed, books.SHAPES[self.name][2])
        self.warmup_steps = len(self.ops)

    def register(self, workload) -> None:
        super().register(workload)
        self.book = books.DeltaBook(workload, self.seed)

    def operation(self, index: int) -> Tuple[Callable[[], Any], List[books.Answer]]:
        op = self.ops[index % len(self.ops)]
        if op.kind == "append":
            write = functools.partial(self.service.register_yet, books.BOOK,
                                      self.book.yet(op.appended))
        elif op.kind == "edit":
            write = functools.partial(self.service.register_program, books.BOOK,
                                      self.book.program_at(op.levels))
        else:
            write = None
        document = books.run_document()

        def call():
            if write is not None:
                write()
            return self.service.submit(document)

        return call, self.answers[(op.levels, op.appended)]

    def layer_extras(self, responses: Sequence[Tuple[int, Any]]) -> Dict[str, float]:
        extras = super().layer_extras(responses)
        statuses = [r.result_cache for _, r in responses]
        hits = sum(1 for s in statuses if s["status"] in ("exact", "append", "rows"))
        repriced = answered = 0
        for (_, response), status in zip(responses, statuses):
            n_trials = response.result.n_trials
            answered += n_trials
            if status["status"] == "append":
                repriced += status["repriced_trials"]
            elif status["status"] != "exact":
                repriced += n_trials
        extras["result_cache.hit_ratio"] = hits / len(statuses)
        extras["result_cache.repriced_trial_ratio"] = repriced / answered
        return extras


class FleetShards(InProcessWorkload):
    """A local coordinator pricing across ``are worker`` processes."""

    name = "fleet-shards"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.workers: List[Tuple[subprocess.Popen, str]] = []

    def start_helpers(self) -> float:
        started = perf_counter()
        procs = [
            subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker", "--listen", "127.0.0.1:0"],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=child_env(), cwd=ROOT,
                preexec_fn=die_with_parent,
            )
            for _ in range(FLEET_WORKERS)
        ]
        try:
            for proc in procs:
                line = read_line(proc.stderr, 120.0)
                match = re.search(r"listening on (\S+)", line)
                if match is None:
                    raise BenchmarkError(f"unexpected worker banner: {line!r}")
                self.workers.append((proc, match.group(1)))
        except BaseException:
            for proc in procs:
                proc.kill()
                stop_process(proc)
            self.workers = []
            raise
        return perf_counter() - started

    def stop_helpers(self) -> None:
        from repro.distributed import WorkerClient

        workers, self.workers = self.workers, []
        for proc, address in workers:
            try:
                with WorkerClient(address, timeout=10.0) as client:
                    client.shutdown()
            except OSError:
                proc.kill()
            stop_process(proc)

    def first_document(self) -> dict:
        return books.run_document(
            workers=[address for _, address in self.workers], shards=FLEET_SHARDS
        )

    def peak_rss_mb(self) -> float:
        return self_peak_rss_mb() + sum(
            process_peak_rss_mb(proc.pid) for proc, _ in self.workers
        )

    def layer_extras(self, responses: Sequence[Tuple[int, Any]]) -> Dict[str, float]:
        extras = super().layer_extras(responses)
        fleets = [r.details["fleet"] for _, r in responses]
        skews = []
        for fleet in fleets:
            counts = list(fleet["shards_per_worker"].values())
            skews.append(max(counts) / max(min(counts), 1))
        extras["fleet.requeued_shards"] = float(sum(f["requeued_shards"] for f in fleets))
        extras["fleet.shard_skew"] = statistics.median(skews)
        return extras


# --------------------------------------------------------------------------- #
# quote-interactive: a server process and a TCP load generator
# --------------------------------------------------------------------------- #
class ServerProcess:
    """``perfbench/serve.py`` in a child process."""

    def __init__(self, seed: int, trace: bool = False) -> None:
        command = [sys.executable, str(HERE / "serve.py"), "--seed", str(seed)]
        self.proc = subprocess.Popen(
            command + (["--trace"] if trace else []),
            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, preexec_fn=die_with_parent,
        )
        try:
            ready = json.loads(read_line(self.proc.stdout, 120.0))
        except BaseException:
            self.proc.kill()
            stop_process(self.proc)
            raise
        self.port = int(ready["port"])
        self.generate_s = float(ready["generate_s"])

    def client(self):
        from repro.service import ServeClient

        return ServeClient("127.0.0.1", self.port)

    def stop(self) -> Dict[str, Any]:
        """Drain the server; its final report (peak RSS, spans)."""
        try:
            with self.client() as client:
                client.request({"op": "shutdown"})
        except OSError:
            self.proc.kill()
        lines = stop_process(self.proc).decode("utf-8", "replace").strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchmarkError(f"server exited with {self.proc.returncode}")
        return json.loads(lines[-1])


class QuoteInteractive:
    """Closed-loop latency and throughput over TCP NDJSON.

    The end-to-end numbers come from a closed loop on two connections, which
    keeps both cores busy.  The traced run also offers a Poisson open loop
    and reports its latency and schedule lag as per-layer numbers: on a
    machine that idles between arrivals they follow the host's cost of
    waking a vCPU, which shifts for minutes at a time (see README.md).
    """

    name = "quote-interactive"
    setup_repeats = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.expected = reference_answers(self.name, seed)

    def check(self, document: dict, payload: dict) -> bool:
        return books.payload_matches(payload, self.expected[document["kind"]])

    def setup(self) -> Tuple[ServerProcess, Dict[str, float]]:
        started = perf_counter()
        server = ServerProcess(self.seed)
        ready = perf_counter()
        try:
            with server.client() as client:
                payload = client.request(books.run_document())
            done = perf_counter()
            if not self.check(books.run_document(), payload):
                raise BenchmarkError("quote-interactive: first answer differs from the reference")
        except BaseException:
            server.proc.kill()
            stop_process(server.proc)
            raise
        return server, {
            "setup_s": done - started,
            "setup.generate_s": server.generate_s,
            "setup.server_start_s": ready - started - server.generate_s,
            "setup.worker_start_s": 0.0,
            "setup.first_answer_s": done - ready,
        }

    def warm_up(self, server: ServerProcess) -> None:
        with server.client() as client:
            for document in books.quote_requests(self.seed + 1, 50):
                if not self.check(document, client.request(document)):
                    raise BenchmarkError("quote-interactive: warm-up answer differs")

    def open_loop(self, server: ServerProcess, n: int) -> Tuple[Tally, List[float]]:
        """``n`` Poisson arrivals; latency counts from each request's due time."""
        documents = books.quote_requests(self.seed, n)
        due = books.poisson_schedule(self.seed, n, OPEN_LOOP_RATE)
        received: Dict[int, Tuple[float, dict]] = {}
        client = server.client()

        def receive() -> None:
            try:
                for _ in range(n):
                    payload = client.recv()
                    received[payload.get("id")] = (perf_counter(), payload)
            except (OSError, ValueError) as exc:
                print(f"perfbench: receiver stopped: {exc!r}", file=sys.stderr)

        receiver = threading.Thread(target=receive, daemon=True)
        # A short switch interval keeps the sender on schedule while the
        # receiver thread decodes answers, and no collector pass stalls
        # either thread.
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(0.0005)
        gc.disable()
        receiver.start()
        lags: List[float] = []
        start = perf_counter() + 0.05
        try:
            for i, (document, offset) in enumerate(zip(documents, due)):
                at = start + float(offset)
                delay = at - perf_counter()
                if delay > 0:
                    time.sleep(delay)
                lags.append(perf_counter() - at)
                client.send({"id": i, **document})
            receiver.join(timeout=120.0)
        finally:
            gc.enable()
            sys.setswitchinterval(switch_interval)
            client.close()
        if receiver.is_alive():
            receiver.join(timeout=5.0)
        tally = Tally()
        for i, (document, offset) in enumerate(zip(documents, due)):
            answer = received.get(i)
            if answer is None:
                tally.record(0.0, False)
                continue
            tally.record(answer[0] - start - float(offset), self.check(document, answer[1]))
        return tally, lags

    def closed_loop(
        self, server: ServerProcess, seconds: float, tracer: Tracer | None = None
    ) -> Tuple[Tally, float, List[dict]]:
        """Back-to-back requests on each connection; with ``tracer``, client
        spans and the answers (for the plan-cache hit ratio) are kept.

        Each connection cycles through its own seeded sequence, so each
        carries the same share of `run_many` requests whatever the seed.
        """
        tallies = [Tally() for _ in range(CLOSED_LOOP_CONNECTIONS)]
        payloads: List[dict] = []
        ends: List[float] = []
        started = perf_counter()
        deadline = started + seconds

        def connection(k: int) -> None:
            tally = tallies[k]
            documents = books.quote_requests(self.seed + 2 + k, 64)
            try:
                with server.client() as client:
                    i = k
                    while perf_counter() < deadline:
                        document = documents[i // CLOSED_LOOP_CONNECTIONS % len(documents)]
                        sent = perf_counter()
                        payload = client.request({"id": i, **document})
                        answered = perf_counter()
                        ok = self.check(document, payload)
                        tally.record(answered - sent, ok)
                        if tracer is not None and ok:
                            tracer.root(i, sent, answered)
                            payloads.append(payload)
                        i += CLOSED_LOOP_CONNECTIONS
            except (OSError, ValueError) as exc:
                print(f"perfbench: connection {k} stopped: {exc!r}", file=sys.stderr)
                tally.record(0.0, False)
            ends.append(perf_counter())

        threads = [
            threading.Thread(target=connection, args=(k,), daemon=True)
            for k in range(CLOSED_LOOP_CONNECTIONS)
        ]
        gc.disable()
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=seconds + 120.0)
        finally:
            gc.enable()
        total = Tally()
        for tally in tallies:
            total.add_counts(tally)
            total.latencies.extend(tally.latencies)
        return total, max(ends) - started, payloads

    @staticmethod
    def check_lag(lags: Sequence[float]) -> Tuple[float, float]:
        p50, p90, p99 = (percentile(lags, q) for q in (0.50, 0.90, 0.99))
        print(f"perfbench: schedule lag p50 {1e3 * p50:.3f} ms, p90 {1e3 * p90:.3f} ms, "
              f"p99 {1e3 * p99:.3f} ms", file=sys.stderr)
        if p90 > MAX_SCHEDULE_LAG_P90_S:
            raise BenchmarkError(
                f"invalid run: the load generator fell behind its schedule "
                f"(lag p90 {1e3 * p90:.2f} ms > {1e3 * MAX_SCHEDULE_LAG_P90_S:.1f} ms)"
            )
        return p50, p99

    def measure(self, seconds: float) -> Tuple[Dict[str, float], Tally]:
        setups = []
        for repeat in range(self.setup_repeats):
            server, parts = self.setup()
            setups.append(parts["setup_s"])
            if repeat < self.setup_repeats - 1:
                server.stop()
        try:
            self.warm_up(server)
            tally, wall, _ = self.closed_loop(server, seconds)
        finally:
            report = server.stop()
        latencies = tally.latencies
        return {
            "setup_s": statistics.median(setups),
            "latency_p50_ms": 1e3 * percentile(latencies, 0.50),
            "latency_p90_ms": 1e3 * percentile(latencies, 0.90),
            "requests_per_s": len(latencies) / wall,
            "peak_rss_mb": float(report["peak_rss_mb"]),
        }, tally

    def trace(self, seconds: float) -> Tuple[Dict[str, float], Tally]:
        """A third of ``seconds`` each: open loop, closed loop, traced closed loop."""
        server, parts = self.setup()
        try:
            self.warm_up(server)
            offered, lags = self.open_loop(server, int(OPEN_LOOP_RATE * seconds / 3))
            untraced, _, _ = self.closed_loop(server, seconds / 3)
        finally:
            server.stop()
        lag_p50, lag_p99 = self.check_lag(lags)

        traced_server = ServerProcess(self.seed, trace=True)
        try:
            self.warm_up(traced_server)
            tracer = Tracer()
            traced, _, payloads = self.closed_loop(traced_server, seconds / 3, tracer)
            with traced_server.client() as client:
                stats = client.request({"op": "stats"})["stats"]
        finally:
            report = traced_server.stop()
        tracer.spans.extend(tuple(span) for span in report["spans"])
        requests = sorted({span[0] for span in tracer.spans if span[1] == 0})
        untraced.add_counts(offered)
        metrics = traced_run_metrics(
            parts, tracer, requests, untraced, traced, self.name, self.seed
        )
        metrics["server.stats_p50_ms"] = 1e3 * float(stats["p50_seconds"])
        metrics["server.refused"] = float(stats["rejected"])
        metrics["plan_cache.hit_ratio"] = cache_ratio(
            [(p["cache"]["hits"], p["cache"]["misses"]) for p in payloads if "cache" in p]
        )
        metrics["open_loop.latency_p50_ms"] = 1e3 * percentile(offered.latencies, 0.50)
        metrics["open_loop.latency_p99_ms"] = 1e3 * percentile(offered.latencies, 0.99)
        metrics["schedule_lag_p50_ms"] = 1e3 * lag_p50
        metrics["schedule_lag_p99_ms"] = 1e3 * lag_p99
        return metrics, untraced


WORKLOAD_CLASSES = {
    "quote-interactive": QuoteInteractive,
    "portfolio-64": Portfolio64,
    "delta-refresh": DeltaRefresh,
    "fleet-shards": FleetShards,
}
