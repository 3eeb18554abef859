"""Fleet conformance: distributed runs are bit-identical to monolithic runs.

The invariant carried over from the sharded-execution suite: shard merges
are pure column placement, so no amount of work stealing, retrying, or
requeueing may change a single bit of the merged result.
"""

from __future__ import annotations

import shutil
import sys
import threading

import numpy as np
import pytest

from repro.core.config import BACKEND_NAMES, EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.distributed import (
    FleetEngine,
    FleetError,
    FleetWorker,
    WorkerError,
    WorkerProcess,
)
from repro.service.request import AnalysisRequest
from repro.service.service import RiskService
from repro.yet.io import YetShardReader, save_yet_store


@pytest.mark.parametrize("backend", BACKEND_NAMES)
def test_bit_identical_to_monolithic_on_every_backend(tiny_workload, backend):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend=backend, n_workers=2)
    engine = AggregateRiskEngine(config)
    mono = engine.run(program, yet)
    with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
        fleet = engine.run_distributed(
            program, yet, workers=[w1.address, w2.address], n_shards=4
        )
    assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)
    assert fleet.backend == backend
    assert fleet.details["fleet"]["n_shards"] == 4
    assert fleet.details["fleet"]["dead_workers"] == []


def test_work_is_distributed_across_workers(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    engine = AggregateRiskEngine(config)
    with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
        fleet = engine.run_distributed(
            program, yet, workers=[w1.address, w2.address], n_shards=8
        )
        per_worker = fleet.details["fleet"]["shards_per_worker"]
        # Work stealing: both workers pull from the shared queue, so each
        # prices at least its first-popped shard and the counts sum exactly.
        assert set(per_worker) == {w1.address, w2.address}
        assert all(count >= 1 for count in per_worker.values())
        assert sum(per_worker.values()) == 8


def test_shard_accounting_under_thread_contention(tiny_workload):
    # More coordinator threads than cores, switching every few microseconds:
    # a lost update on the shared queue or counters breaks the tally.
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    mono = AggregateRiskEngine(config).run(program, yet)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
            with FleetEngine([w1.address, w2.address] * 2, config=config) as fleet:
                result = fleet.run(program, yet, n_shards=32)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(mono.ylt.losses, result.ylt.losses)
    details = result.details["fleet"]
    assert sum(details["shards_per_worker"].values()) == 32
    assert details["dead_workers"] == [] and details["requeued_shards"] == 0


def test_partials_stream_as_they_arrive(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    seen = []
    with FleetWorker(config=config) as worker:
        with FleetEngine([worker.address], config=config) as fleet:
            result = fleet.run(program, yet, n_shards=4, on_partial=seen.append)
    assert len(seen) == 4
    covered = sorted((p.trials.start, p.trials.stop) for p in seen)
    assert covered[0][0] == 0 and covered[-1][1] == yet.n_trials
    assert result.details["fleet"]["n_shards"] == 4


def test_local_dir_store_reference(tiny_workload, tmp_path):
    # Shared-filesystem topology: the YET travels by path, not by bytes —
    # each worker opens its own memory-mapped YetShardReader.
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    engine = AggregateRiskEngine(config)
    mono = engine.run(program, yet)
    store = save_yet_store(yet, tmp_path / "store")
    with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
        with YetShardReader(store) as reader:
            fleet = engine.run_distributed(
                program, reader, workers=[w1.address, w2.address], n_shards=4
            )
    assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)


def test_result_carries_the_scheduler_details(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    with FleetWorker(config=config) as worker:
        result = AggregateRiskEngine(config).run_distributed(
            program, yet, workers=[worker.address], n_shards=3
        )
    assert result.details["trial_shards"] == 3
    assert result.details["plan"]["trial_range"] == [0, yet.n_trials]
    assert result.details["fleet"]["shards_per_worker"] == {worker.address: 3}


def test_second_run_reuses_shipped_artifacts(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    with FleetWorker(config=config) as worker:
        with FleetEngine([worker.address], config=config) as fleet:
            first = fleet.run(program, yet, n_shards=2)
            second = fleet.run(program, yet, n_shards=2)
        assert np.array_equal(first.ylt.losses, second.ylt.losses)
        # Same digests, same shard ranges: the second run is answered from
        # the worker's warm caches without re-shipping program or YET.
        stats = worker.cache_stats()
        assert stats.hits >= 2


def test_empty_fleet_rejected():
    with pytest.raises(ValueError, match="at least one worker"):
        FleetEngine([])


def test_all_workers_dead_names_missing_ranges(tiny_workload):
    program, yet = tiny_workload.program, tiny_workload.yet
    config = EngineConfig(backend="vectorized")
    engine = AggregateRiskEngine(config)
    # Nothing listens on this port: every request fails, both attempts burn,
    # and the fleet must say which trial ranges were lost.
    with FleetWorker(config=config) as doomed:
        address = doomed.address
    with pytest.raises(FleetError, match="lost trial ranges"):
        engine.run_distributed(program, yet, workers=[address], n_shards=2, timeout=2.0)


class TestWorkerDeath:
    def test_killed_worker_shards_are_reassigned(self, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        config = EngineConfig(backend="vectorized")
        engine = AggregateRiskEngine(config)
        mono = engine.run(program, yet)
        with WorkerProcess(config=config) as survivor, WorkerProcess(
            config=config
        ) as victim:
            killed = []

            def kill_victim_once(partial):
                if not killed:
                    killed.append(partial)
                    victim.kill()

            fleet = engine.run_distributed(
                program,
                yet,
                workers=[survivor.address, victim.address],
                n_shards=8,
                timeout=15.0,
                on_partial=kill_victim_once,
            )
        assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)
        details = fleet.details["fleet"]
        assert sum(details["shards_per_worker"].values()) == 8
        # The victim may finish its last shard before the kill lands, so it
        # is not necessarily dead; the survivor never is.
        assert set(details["dead_workers"]) <= {victim.address}
        assert survivor.address not in details["dead_workers"]
        # A worker dies only inside a shard attempt, which requeues that shard.
        assert details["requeued_shards"] >= len(details["dead_workers"])


class _StalledWorker(FleetWorker):
    """A worker that accepts shard requests but answers none until released."""

    def __init__(self, release: threading.Event, **kwargs) -> None:
        super().__init__(**kwargs)
        self.release = release

    def _run_shard(self, document):
        self.release.wait()
        return super()._run_shard(document)


class TestFaultPaths:
    def test_stalled_worker_is_dropped_and_its_shard_requeued(self, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        config = EngineConfig(backend="vectorized")
        engine = AggregateRiskEngine(config)
        mono = engine.run(program, yet)
        release = threading.Event()
        with FleetWorker(config=config) as healthy, _StalledWorker(
            release, config=config
        ) as stalled:
            try:
                # The stalled worker's thread starts first and takes a shard;
                # both attempts time out and the healthy worker, waiting for
                # that in-flight shard, prices it once it is requeued.
                fleet = engine.run_distributed(
                    program,
                    yet,
                    workers=[stalled.address, healthy.address],
                    n_shards=4,
                    timeout=1.0,
                )
            finally:
                release.set()
        assert np.array_equal(mono.ylt.losses, fleet.ylt.losses)
        details = fleet.details["fleet"]
        assert details["dead_workers"] == [stalled.address]
        assert details["requeued_shards"] >= 1
        assert details["shards_per_worker"] == {stalled.address: 0, healthy.address: 4}

    # Raised from the executor, not left as a coordinator-thread traceback.
    @pytest.mark.filterwarnings("error::pytest.PytestUnhandledThreadExceptionWarning")
    def test_worker_error_reaches_the_caller(self, tiny_workload, tmp_path):
        program, yet = tiny_workload.program, tiny_workload.yet
        config = EngineConfig(backend="vectorized")
        engine = AggregateRiskEngine(config)
        store = save_yet_store(yet, tmp_path / "store")
        with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
            with YetShardReader(store) as reader:
                # The coordinator keeps its mapping; the workers find no store.
                shutil.rmtree(store)
                with pytest.raises(WorkerError, match="no YET store") as excinfo:
                    engine.run_distributed(
                        program,
                        reader,
                        workers=[w1.address, w2.address],
                        n_shards=4,
                        timeout=10.0,
                    )
        assert excinfo.value.type == "FileNotFoundError"


class TestServiceRoute:
    def test_request_with_workers_runs_distributed(self, tiny_workload):
        config = EngineConfig(backend="vectorized")
        with RiskService(config=config) as service:
            local = service.submit(AnalysisRequest(kind="run", program="tiny"))
            with FleetWorker(config=config) as w1, FleetWorker(config=config) as w2:
                response = service.submit(
                    AnalysisRequest(
                        kind="run",
                        program="tiny",
                        workers=(w1.address, w2.address),
                        shards=4,
                    )
                )
        assert np.array_equal(
            local.results[0].ylt.losses, response.results[0].ylt.losses
        )
        assert response.details["fleet"]["n_shards"] == 4

    def test_distributed_request_bypasses_the_result_cache(self, tiny_workload):
        config = EngineConfig(backend="vectorized")
        with RiskService(config=config, result_cache=True) as service:
            with FleetWorker(config=config) as worker:
                request = AnalysisRequest(
                    kind="run", program="tiny", workers=(worker.address,)
                )
                service.submit(request)
                again = service.submit(request)
        # Both passes executed on the fleet: the response always carries
        # live fleet details, never a cached block's.
        assert again.details["fleet"]["workers"] == [worker.address]
