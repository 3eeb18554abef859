"""Distributed fleet execution over the PartialResult algebra.

The scaling axis beyond one box: the fleet is one more executor under the
plan scheduler.  :class:`~repro.distributed.fleet.FleetEngine` lowers the
program and calls ``run_plan`` like every local backend; its executor ships
``(program digest, shard trial range, YET store reference)`` tuples to
worker processes over TCP, each worker prices its shard of the cached plan
on its configured backend, and the serialized
:class:`~repro.core.results.PartialResult` blocks stream back into the
scheduler's accumulator as they arrive.  Because disjoint trial-shard
merges are bit-identical to monolithic runs, the fleet's answer is exactly
the single-process answer — whatever the backend, the shard count, or the
completion order.

* :mod:`repro.distributed.protocol` — NDJSON control lines + length-framed
  binary payloads, and the config codec both sides agree on;
* :mod:`repro.distributed.worker` — ``are worker``: a warm, digest-keyed,
  bounded artifact/plan cache behind a threaded socket server;
* :mod:`repro.distributed.fleet` — the coordinator: a work-stealing shard
  queue, per-worker timeout + one retry, and a dead worker's shard requeued
  for the survivors, which wait for in-flight shards before leaving.

Entry points: :meth:`repro.core.engine.AggregateRiskEngine.run_distributed`,
the ``workers`` field of :class:`~repro.service.request.AnalysisRequest`,
and the ``are worker`` CLI command.
"""

from repro.distributed.fleet import FleetEngine, FleetError, WorkerClient
from repro.distributed.protocol import MissingArtifact, WorkerError
from repro.distributed.worker import FleetWorker, WorkerProcess

__all__ = [
    "FleetEngine",
    "FleetError",
    "FleetWorker",
    "MissingArtifact",
    "WorkerClient",
    "WorkerError",
    "WorkerProcess",
]
