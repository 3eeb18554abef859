"""The worker protocol, exercised against an in-process FleetWorker.

One live worker per module (session state is digest-keyed and append-only),
driven through real sockets by :class:`WorkerClient` — the same client the
fleet coordinator uses.
"""

from __future__ import annotations

import pickle
import re

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.distributed import FleetWorker, MissingArtifact, WorkerError
from repro.distributed.fleet import WorkerClient, probe_worker
from repro.distributed.protocol import encode_config
from repro.parallel.partitioner import TrialRange
from repro.service.digests import program_digest, yet_digest
from repro.yet.io import yet_to_bytes


CONFIG = EngineConfig(backend="vectorized")


@pytest.fixture(scope="module")
def worker():
    with FleetWorker(config=CONFIG, name="proto-test") as live:
        yield live


@pytest.fixture()
def client(worker):
    with WorkerClient(worker.address, timeout=30.0) as live:
        yield live


class TestControlOps:
    def test_ping(self, client):
        reply = client.ping()
        assert reply["ok"] is True
        assert reply["worker"] == "proto-test"

    def test_status_names_backend_and_caches(self, client):
        status = client.status()
        assert status["worker"] == "proto-test"
        assert status["backend"] == "vectorized"
        assert set(status["plan_cache"]) == {"entries", "hits", "misses"}

    def test_unknown_op_is_a_structured_error(self, client):
        with pytest.raises(WorkerError, match="unknown op"):
            client.request({"op": "frobnicate"})

    def test_errors_do_not_poison_the_connection(self, client):
        with pytest.raises(WorkerError):
            client.request({"op": "frobnicate"})
        assert client.ping()["ok"] is True

    def test_probe_worker_reachable(self, worker):
        report = probe_worker(worker.address)
        assert report == {"reachable": True, "worker": "proto-test"}

    def test_probe_worker_unreachable_never_raises(self):
        report = probe_worker("127.0.0.1:1", timeout=0.5)
        assert report["reachable"] is False
        assert report["error"]


class TestArtifactShipping:
    def test_put_program_digest_mismatch_rejected(self, client, tiny_workload):
        payload = pickle.dumps(tiny_workload.program)
        with pytest.raises(WorkerError, match="digest mismatch"):
            client.put_program("0" * 64, payload)

    def test_run_shard_before_shipping_names_what_is_missing(
        self, client, tiny_workload
    ):
        digest = program_digest(tiny_workload.program)
        ydigest = yet_digest(tiny_workload.yet)
        with pytest.raises(MissingArtifact) as excinfo:
            client.run_shard(
                digest,
                {"kind": "inline", "digest": ydigest},
                encode_config(CONFIG),
                TrialRange(0, 8),
            )
        missing = excinfo.value.missing
        assert missing.get("program") == digest
        assert missing.get("yet") == ydigest


class TestRunShard:
    def test_shard_matches_monolithic_columns(self, client, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        digest = program_digest(program)
        ydigest = yet_digest(yet)
        client.put_program(digest, pickle.dumps(program))
        client.put_yet(ydigest, yet_to_bytes(yet))

        partial = client.run_shard(
            digest,
            {"kind": "inline", "digest": ydigest},
            encode_config(CONFIG),
            TrialRange(16, 48),
        )
        mono = AggregateRiskEngine(CONFIG).run(program, yet)
        assert partial.trials == TrialRange(16, 48)
        assert np.array_equal(partial.losses, mono.ylt.losses[:, 16:48])
        assert partial.details["worker"] == "proto-test"

    def test_warm_digests_hit_the_plan_cache(self, client, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        digest = program_digest(program)
        ydigest = yet_digest(yet)
        client.put_program(digest, pickle.dumps(program))
        client.put_yet(ydigest, yet_to_bytes(yet))

        ref = {"kind": "inline", "digest": ydigest}
        first = client.run_shard(digest, ref, encode_config(CONFIG), TrialRange(0, 16))
        again = client.run_shard(digest, ref, encode_config(CONFIG), TrialRange(0, 16))
        assert first.details["plan_cache_hit"] is False
        assert again.details["plan_cache_hit"] is True
        assert np.array_equal(first.losses, again.losses)

    def test_out_of_range_shard_is_a_structured_error(self, client, tiny_workload):
        program, yet = tiny_workload.program, tiny_workload.yet
        digest = program_digest(program)
        ydigest = yet_digest(yet)
        client.put_program(digest, pickle.dumps(program))
        client.put_yet(ydigest, yet_to_bytes(yet))

        ref = {"kind": "inline", "digest": ydigest}
        beyond = TrialRange(yet.n_trials - 4, yet.n_trials + 4)
        with pytest.raises(WorkerError, match=rf"\[{beyond.start}, {beyond.stop}\)"):
            client.run_shard(digest, ref, encode_config(CONFIG), beyond)
        # The rejection leaves the connection serving.
        partial = client.run_shard(digest, ref, encode_config(CONFIG), TrialRange(0, 8))
        mono = AggregateRiskEngine(CONFIG).run(program, yet)
        assert np.array_equal(partial.losses, mono.ylt.losses[:, 0:8])

    def test_unknown_yet_ref_kind_rejected(self, client, tiny_workload):
        digest = program_digest(tiny_workload.program)
        client.put_program(digest, pickle.dumps(tiny_workload.program))
        with pytest.raises(WorkerError, match="kind"):
            client.run_shard(
                digest, {"kind": "carrier-pigeon"}, encode_config(CONFIG), TrialRange(0, 8)
            )


class TestShutdownAndStats:
    def test_stats_line_matches_the_serve_shape(self, worker):
        # Satellite contract: `are worker` prints the same stats-line shape
        # on shutdown that `are serve` does.
        line = worker.stats_line()
        assert re.fullmatch(
            r"served \d+ requests \| plan-cache: \d+/\d+ entries, "
            r"\d+ hits / \d+ misses \(\d+% hit rate\), \d+ evictions",
            line,
        ), line

    def test_shutdown_op_stops_the_worker(self):
        with FleetWorker(config=CONFIG) as live:
            with WorkerClient(live.address, timeout=10.0) as client:
                reply = client.shutdown()
            assert reply["stopping"] is True
            assert reply["stats"].startswith("served ")
            live.wait(timeout=10.0)
            assert not live.is_serving()
