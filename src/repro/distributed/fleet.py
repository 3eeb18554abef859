"""The fleet coordinator: a ``run_plan`` executor over socket workers.

:class:`FleetEngine` is a :class:`~repro.core.scheduler.PlanScheduler` like
the six local backends: :meth:`FleetEngine.run` lowers the program to an
:class:`~repro.core.plan.ExecutionPlan` and calls ``run_plan``, which cuts
the shards, merges the partials and assembles the result.  Only the mapping
of shards onto compute differs: the fleet's :class:`ShardRun` executor puts
the shards on a shared **work-stealing queue**, and one coordinator thread
per :class:`~repro.distributed.worker.FleetWorker` pulls the next shard,
sends a ``run_shard`` control line and hands the streamed
:class:`~repro.core.results.PartialResult` to the scheduler's accumulator
as it arrives.  A fast worker simply prices more shards than a slow one.

Failure semantics:

* **timeout + one retry** — a request that times out (or whose connection
  drops) is retried once against the same worker over a fresh connection;
* **death → requeue** — a worker that fails its retry is marked dead and
  its shard goes back on the queue.  A survivor leaves only once the queue
  is empty *and* no shard is in flight, so a shard requeued after the
  queue drained is still picked up;
* **errors surface** — a structured worker error is re-raised to the
  caller as :class:`~repro.distributed.protocol.WorkerError`;
* **total loss** — if every worker dies, :class:`FleetError` names the
  lost trial ranges.

Because shard merges are pure column placement, none of this scheduling —
work stealing, retries, requeue order — can change a single bit of the
final result; the conformance suite pins the merged output to the
monolithic run on every backend.
"""

from __future__ import annotations

import pickle
import queue
import socket
import threading
from collections import deque
from typing import Any, Callable, List, Mapping, Sequence, Tuple

from repro.core.config import EngineConfig
from repro.core.plan import ExecutionPlan, PlanBuilder
from repro.core.results import EngineResult, PartialResult
from repro.core.scheduler import PlanScheduler, ShardRun
from repro.parallel.partitioner import TrialRange
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.service.digests import program_digest, yet_digest
from repro.utils.timing import PhaseTimer
from repro.yet.io import YetShardReader, yet_to_bytes
from repro.yet.stores import InMemoryYetStore, LocalDirYetStore
from repro.yet.table import YearEventTable
from repro.distributed.protocol import (
    MissingArtifact,
    WorkerError,
    encode_config,
    parse_address,
    recv_frame,
    send_frame,
)

__all__ = ["FleetEngine", "FleetError", "WorkerClient", "probe_worker"]


class FleetError(RuntimeError):
    """The fleet could not complete the analysis (all workers lost)."""


class WorkerClient:
    """Blocking framed-NDJSON client for one fleet worker.

    One coordinator thread owns one client; the class is not thread-safe.
    ``timeout`` bounds every socket operation — connect, send, and the wait
    for a shard's result — so a hung worker surfaces as ``socket.timeout``
    rather than a stuck fleet.
    """

    def __init__(self, address: str | Tuple[str, int], timeout: float = 120.0) -> None:
        self.host, self.port = parse_address(address)
        self.address = f"{self.host}:{self.port}"
        self.timeout = float(timeout)
        self._sock: socket.socket | None = None
        self._stream = None

    # ------------------------------------------------------------------ #
    # Connection lifecycle
    # ------------------------------------------------------------------ #
    def connect(self) -> "WorkerClient":
        if self._sock is None:
            sock = socket.create_connection((self.host, self.port), timeout=self.timeout)
            sock.settimeout(self.timeout)
            self._sock = sock
            self._stream = sock.makefile("rwb")
        return self

    def reconnect(self) -> "WorkerClient":
        self.close()
        return self.connect()

    def close(self) -> None:
        if self._stream is not None:
            try:
                self._stream.close()
            except OSError:
                pass
            self._stream = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "WorkerClient":
        return self.connect()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Requests
    # ------------------------------------------------------------------ #
    def request(
        self, document: Mapping[str, Any], payload: bytes | None = None
    ) -> Tuple[dict, bytes | None]:
        """One request/response exchange; raises on structured errors.

        ``MissingArtifact`` is re-raised as its own type (the caller ships
        and resends); every other ``{"error": ...}`` reply becomes a
        :class:`WorkerError` carrying the remote exception's class name.
        """
        self.connect()
        assert self._stream is not None
        send_frame(self._stream, document, payload)
        reply, reply_payload = recv_frame(self._stream)
        error = reply.get("error")
        if error:
            if error.get("type") == "MissingArtifact":
                raise MissingArtifact(error.get("missing") or {})
            raise WorkerError(
                str(error.get("message")), type=str(error.get("type", "WorkerError"))
            )
        return reply, reply_payload

    def ping(self) -> dict:
        return self.request({"op": "ping"})[0]

    def status(self) -> dict:
        return self.request({"op": "status"})[0]

    def put_program(self, digest: str, payload: bytes) -> dict:
        return self.request({"op": "put_program", "digest": digest}, payload)[0]

    def put_yet(self, digest: str, payload: bytes) -> dict:
        return self.request({"op": "put_yet", "digest": digest}, payload)[0]

    def run_shard(
        self,
        program_digest: str,
        yet_ref: Mapping[str, Any],
        config_fields: Mapping[str, Any],
        trials: TrialRange,
    ) -> PartialResult:
        reply, payload = self.request(
            {
                "op": "run_shard",
                "program": program_digest,
                "yet": dict(yet_ref),
                "config": dict(config_fields),
                "trials": [trials.start, trials.stop],
            }
        )
        if payload is None:
            raise WorkerError(f"worker {self.address} answered run_shard without a payload")
        return PartialResult.from_bytes(payload)

    def shutdown(self) -> dict:
        return self.request({"op": "shutdown"})[0]


def probe_worker(address: str, timeout: float = 2.0) -> dict:
    """Reachability probe of one worker address (``are backends`` row).

    Never raises: an unreachable or misbehaving worker reports
    ``{"reachable": False, "error": ...}``.
    """
    try:
        with WorkerClient(address, timeout=timeout) as client:
            reply = client.ping()
        return {"reachable": True, "worker": reply.get("worker")}
    except Exception as exc:  # noqa: BLE001 - a probe must never raise
        return {"reachable": False, "error": str(exc)}


class FleetEngine(PlanScheduler):
    """Coordinate one analysis across a fleet of socket workers.

    A :class:`~repro.core.scheduler.PlanScheduler` whose executor is the
    fleet: :meth:`run` lowers the program and calls ``run_plan``, and
    :meth:`open` returns the work-stealing executor over the workers.

    Parameters
    ----------
    workers:
        Worker addresses (``"host:port"`` strings or ``(host, port)``
        pairs).  At least one is required.
    config:
        The engine config whose plan-relevant fields every worker executes
        under (shipped with each shard request) — and whose backend names
        the merged result.
    timeout:
        Per-request socket timeout; a request that exceeds it is retried
        once on a fresh connection before the worker is declared dead.
    """

    # Workers report no phase times back.
    records_phases = False

    def __init__(
        self,
        workers: Sequence[str | Tuple[str, int]],
        config: EngineConfig | None = None,
        timeout: float = 120.0,
    ) -> None:
        if not workers:
            raise ValueError("a fleet needs at least one worker address")
        super().__init__(config if config is not None else EngineConfig())
        self.name = self.config.backend
        self.timeout = float(timeout)
        self._clients = [WorkerClient(address, timeout=self.timeout) for address in workers]
        self._program: ReinsuranceProgram | None = None
        self._on_partial: Callable[[PartialResult], None] | None = None

    @property
    def worker_addresses(self) -> List[str]:
        return [client.address for client in self._clients]

    def close(self) -> None:
        for client in self._clients:
            client.close()

    def __enter__(self) -> "FleetEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def run(
        self,
        program: ReinsuranceProgram | Layer,
        source: YearEventTable | YetShardReader,
        n_shards: int = 0,
        on_partial: Callable[[PartialResult], None] | None = None,
    ) -> EngineResult:
        """Price ``program`` over ``source`` on the fleet; exact merge.

        ``source`` is an in-memory YET (shipped to each worker once,
        digest-cached there) or a :class:`~repro.yet.io.YetShardReader`
        whose store directory every worker can reach on a shared
        filesystem (workers mmap it independently and materialise only
        their own shards).  ``n_shards`` defaults to two shards per worker
        (work stealing needs more shards than workers to balance), or the
        config's ``trial_shards`` when that is larger.  ``on_partial`` is
        called on the calling thread after each block is accumulated — the
        hook the progress displays and the worker-kill drill use.
        """
        program = ReinsuranceProgram.wrap(program)
        count = n_shards or max(self.config.trial_shards, 2 * len(self._clients))
        self._program, self._on_partial = program, on_partial
        return self.run_plan(PlanBuilder.from_program(program, source, n_shards=count))

    def open(self, plan: ExecutionPlan, timer: PhaseTimer) -> "_FleetRun":
        return _FleetRun(self, plan, self._program, self._on_partial)


class _FleetRun(ShardRun):
    """One fleet run over one plan: the work-stealing executor.

    Holds the run's artifact references (program digest, YET reference,
    config fields), the program and YET bytes (serialised at most once, the
    first time a worker reports them missing) and the bookkeeping that
    becomes ``details["fleet"]``.  One condition guards the queue, the
    in-flight count and the counters.
    """

    def __init__(
        self,
        fleet: FleetEngine,
        plan: ExecutionPlan,
        program: ReinsuranceProgram,
        on_partial: Callable[[PartialResult], None] | None,
    ) -> None:
        super().__init__(None, {})
        self.clients = fleet._clients
        self.program = program
        self.on_partial = on_partial
        self.source = plan.yet
        if isinstance(self.source, YearEventTable):
            self.yet_ref = {"kind": InMemoryYetStore.kind, "digest": yet_digest(self.source)}
        elif isinstance(self.source, YetShardReader):
            self.yet_ref = {
                "kind": LocalDirYetStore.kind,
                "path": str(self.source.path.resolve()),
            }
        else:
            raise TypeError(
                "source must be a YearEventTable or a YetShardReader, got "
                f"{type(self.source).__name__}"
            )
        self.digest = program_digest(program)
        self.config_fields = encode_config(fleet.config)
        self._program_bytes: bytes | None = None
        self._yet_bytes: bytes | None = None
        self._cond = threading.Condition()
        self._queue: "deque[TrialRange]" = deque()
        self._in_flight = 0
        self._stopping = False
        self._threads: List[threading.Thread] = []
        self._done = {client.address: 0 for client in self.clients}
        self._dead: List[str] = []
        self._requeued = 0

    def map(self, shards: Sequence[TrialRange]):
        """Price the shards on the workers, yielding partials as they arrive."""
        arrived: "queue.SimpleQueue" = queue.SimpleQueue()
        self._queue.extend(shards)
        self._threads = [
            threading.Thread(
                target=self._drain,
                args=(client, arrived),
                name=f"fleet-{client.address}",
                daemon=True,
            )
            for client in self.clients
        ]
        for thread in self._threads:
            thread.start()
        running = len(self._threads)
        while running:
            item = arrived.get()
            if item is None:  # one coordinator thread finished
                running -= 1
            elif isinstance(item, BaseException):
                raise item
            else:
                yield item
                if self.on_partial is not None:
                    self.on_partial(item)
        workers = [client.address for client in self.clients]
        if self._queue:
            lost = sorted(self._queue, key=lambda trials: trials.start)
            raise FleetError(
                "fleet lost trial ranges "
                + ", ".join(f"[{t.start}, {t.stop})" for t in lost)
                + f": no surviving worker (workers: {', '.join(workers)})"
            )
        self.details["fleet"] = {
            "workers": workers,
            "shards_per_worker": dict(self._done),
            "n_shards": len(shards),
            "dead_workers": list(self._dead),
            "requeued_shards": self._requeued,
        }

    def close(self) -> None:
        with self._cond:
            self._stopping = True
            self._cond.notify_all()
        for thread in self._threads:
            thread.join()

    def _drain(self, client: WorkerClient, arrived: "queue.SimpleQueue") -> None:
        """One worker's coordinator thread: price queued shards until none remain.

        The thread leaves when the queue is empty and no shard is in flight
        (an in-flight shard may still be requeued by a dying worker), when
        its own worker is lost, or when the run stops.  Partials, then any
        exception, then ``None`` go to ``arrived``.
        """
        try:
            while True:
                with self._cond:
                    while not self._queue and self._in_flight and not self._stopping:
                        self._cond.wait()
                    if self._stopping or not self._queue:
                        return
                    trials = self._queue.popleft()
                    self._in_flight += 1
                partial = self._run_shard_with_retry(client, trials)
                with self._cond:
                    self._in_flight -= 1
                    self._cond.notify_all()
                    if partial is None:
                        self._dead.append(client.address)
                        self._queue.append(trials)
                        self._requeued += 1
                        return
                    self._done[client.address] += 1
                arrived.put(partial)
        except BaseException as exc:  # noqa: BLE001 - re-raised from map()
            with self._cond:
                self._stopping = True
                self._cond.notify_all()
            arrived.put(exc)
        finally:
            arrived.put(None)

    def _run_shard_with_retry(
        self, client: WorkerClient, trials: TrialRange
    ) -> PartialResult | None:
        """One shard on one worker: ship-on-missing, then timeout + one retry.

        ``None`` means a second transport failure lost the worker.  A
        :class:`WorkerError` (the worker is alive but rejected the request)
        propagates.
        """
        request = (self.digest, self.yet_ref, self.config_fields, trials)
        for attempt in (0, 1):
            try:
                try:
                    return client.run_shard(*request)
                except MissingArtifact as exc:
                    # Not a failure: ship what the worker asked for, resend.
                    self._ship(client, exc.missing)
                    return client.run_shard(*request)
            except (OSError, EOFError):
                if attempt == 1:
                    break
                try:
                    # A fresh connection forgets nothing worker-side (the
                    # caches are per-worker, not per-connection).
                    client.reconnect()
                except OSError:
                    break
        client.close()
        return None

    def _ship(self, client: WorkerClient, missing: Mapping[str, str]) -> None:
        if "program" in missing:
            with self._cond:
                if self._program_bytes is None:
                    self._program_bytes = pickle.dumps(self.program)
            client.put_program(self.digest, self._program_bytes)
        if "yet" in missing:
            if not isinstance(self.source, YearEventTable):
                raise WorkerError(
                    f"worker {client.address} reports the YET store {self.yet_ref} "
                    "missing, but it is a filesystem reference the coordinator "
                    "cannot ship — check the shared mount"
                )
            with self._cond:
                if self._yet_bytes is None:
                    self._yet_bytes = yet_to_bytes(self.source)
            client.put_yet(self.yet_ref["digest"], self._yet_bytes)
