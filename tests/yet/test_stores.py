"""YET store backends and concurrent shard readers.

Covers the pluggable get/put-by-key stores behind the distributed fleet's
YET references, the trial sources' shared bounds contract (the in-memory
table's ``trial_window`` must match :meth:`YetShardReader.trial_window` and
:meth:`YetShardReader.shard` character for character), and the
out-of-core claim that matters to a fleet: two *processes* can memory-map
the same store and price disjoint shards concurrently.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine
from repro.parallel.partitioner import TrialRange
from repro.workloads.generator import WorkloadGenerator
from repro.workloads.presets import tiny_spec
from repro.yet.io import YetShardReader, save_yet_store, yet_from_bytes, yet_to_bytes
from repro.yet.stores import InMemoryYetStore, LocalDirYetStore, resolve_yet_ref
from repro.yet.table import YearEventTable


def small_yet():
    return YearEventTable.from_trials(
        trials=[[1, 2], [4], [3, 2, 1], [], [2]], catalog_size=10
    )


# (TrialRange itself rejects negative or inverted ranges at construction,
# so only in-shape ranges beyond the table reach the bounds check.)
@pytest.mark.parametrize("start,stop", [(0, 6), (5, 6), (6, 6)], ids=str)
def test_bounds_contract_matches_the_reader(tmp_path, start, stop):
    # The in-memory table and the mmap reader are interchangeable trial
    # sources: both must reject a bad window with the *identical* message —
    # callers switch between them by topology, not by error handling.
    yet = small_yet()
    with pytest.raises(IndexError) as from_table:
        yet.trial_window(start, stop)
    with YetShardReader(save_yet_store(yet, tmp_path / "s")) as reader:
        with pytest.raises(IndexError) as from_window:
            reader.trial_window(start, stop)
        with pytest.raises(IndexError) as from_shard:
            reader.shard(TrialRange(start, stop))
    assert str(from_table.value) == str(from_window.value) == str(from_shard.value)
    assert f"0 <= start <= stop <= {yet.n_trials}" in str(from_table.value)


class TestLocalDirYetStore:
    def test_put_open_round_trip(self, tmp_path):
        store = LocalDirYetStore(tmp_path)
        yet = small_yet()
        store.put("tiny", yet)
        assert "tiny" in store
        with store.open("tiny") as reader:
            shard = reader.shard(TrialRange(0, yet.n_trials))
        assert np.array_equal(shard.event_ids, yet.event_ids)

    def test_put_is_idempotent_by_key(self, tmp_path):
        store = LocalDirYetStore(tmp_path)
        store.put("k", small_yet())
        store.put("k", small_yet())
        assert store.keys() == ["k"]

    def test_ref_resolves_to_a_reader(self, tmp_path):
        store = LocalDirYetStore(tmp_path)
        store.put("k", small_yet())
        ref = store.ref("k")
        assert ref["kind"] == "local_dir"
        with resolve_yet_ref(ref) as source:
            assert source.n_trials == small_yet().n_trials

    def test_missing_key_raises(self, tmp_path):
        store = LocalDirYetStore(tmp_path)
        with pytest.raises(KeyError):
            store.open("absent")

    @pytest.mark.parametrize("key", ["", "a/b", "a\\b", ".", "..", "a\x00b"])
    def test_hostile_keys_rejected(self, tmp_path, key):
        store = LocalDirYetStore(tmp_path)
        with pytest.raises(ValueError, match="key"):
            store.put(key, small_yet())


class TestInMemoryYetStore:
    def test_put_open_and_ref(self):
        store = InMemoryYetStore()
        yet = small_yet()
        store.put("d1", yet)
        assert "d1" in store and "d2" not in store
        ref = store.ref("d1")
        assert ref == {"kind": "inline", "digest": "d1"}
        source = store.open("d1")
        assert source.n_trials == yet.n_trials

    def test_bytes_round_trip(self):
        store = InMemoryYetStore()
        yet = small_yet()
        store.put_bytes("d1", yet_to_bytes(yet))
        decoded = yet_from_bytes(store.get_bytes("d1"))
        assert np.array_equal(decoded.event_ids, yet.event_ids)
        assert np.array_equal(decoded.trial_offsets, yet.trial_offsets)

    def test_unshipped_inline_ref_raises_keyerror(self):
        # The lookup failure the worker converts into MissingArtifact.
        with pytest.raises(KeyError):
            resolve_yet_ref({"kind": "inline", "digest": "nope"}, InMemoryYetStore())

    def test_unknown_ref_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            resolve_yet_ref({"kind": "ftp"})


def _price_shard_in_child(store_dir, start, stop, queue):
    """Spawn target: mmap the shared store, price one shard, return losses."""
    workload = WorkloadGenerator(tiny_spec()).generate()
    engine = AggregateRiskEngine(EngineConfig(backend="vectorized"))
    with YetShardReader(store_dir) as reader:
        shard = reader.shard(TrialRange(start, stop))
        result = engine.run(workload.program, shard)
    queue.put((start, stop, result.ylt.losses))


class TestConcurrentReaders:
    def test_two_processes_price_disjoint_shards_of_one_store(self, tmp_path):
        workload = WorkloadGenerator(tiny_spec()).generate()
        yet = workload.yet
        store = save_yet_store(yet, tmp_path / "shared")
        mono = AggregateRiskEngine(EngineConfig(backend="vectorized")).run(
            workload.program, yet
        )
        mid = yet.n_trials // 2
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        children = [
            ctx.Process(
                target=_price_shard_in_child, args=(str(store), lo, hi, queue)
            )
            for lo, hi in ((0, mid), (mid, yet.n_trials))
        ]
        for child in children:
            child.start()
        blocks = {}
        try:
            for _ in children:
                start, stop, losses = queue.get(timeout=120)
                blocks[(start, stop)] = losses
        finally:
            for child in children:
                child.join(timeout=30)
        assert set(blocks) == {(0, mid), (mid, yet.n_trials)}
        merged = np.hstack([blocks[(0, mid)], blocks[(mid, yet.n_trials)]])
        assert np.array_equal(merged, mono.ylt.losses)
