"""Tests for repro.yet.io (YET serialization)."""

import numpy as np
import pytest

from repro.yet.io import load_yet, save_yet
from repro.yet.table import YearEventTable


def make_yet(with_timestamps: bool = True) -> YearEventTable:
    return YearEventTable.from_trials(
        trials=[[1, 2], [3], [4, 5, 6]],
        catalog_size=50,
        timestamps=[[0.1, 0.6], [0.2], [0.3, 0.5, 0.9]] if with_timestamps else None,
    )


class TestRoundTrip:
    def test_roundtrip_with_timestamps(self, tmp_path):
        original = make_yet(True)
        path = save_yet(original, tmp_path / "yet_a")
        loaded = load_yet(path)
        assert loaded.n_trials == original.n_trials
        assert loaded.catalog_size == original.catalog_size
        np.testing.assert_array_equal(loaded.event_ids, original.event_ids)
        np.testing.assert_array_equal(loaded.trial_offsets, original.trial_offsets)
        np.testing.assert_allclose(loaded.timestamps, original.timestamps)

    def test_roundtrip_without_timestamps(self, tmp_path):
        original = make_yet(False)
        path = save_yet(original, tmp_path / "yet_b.npz")
        loaded = load_yet(path)
        assert loaded.timestamps is None
        np.testing.assert_array_equal(loaded.event_ids, original.event_ids)

    def test_extension_added_automatically(self, tmp_path):
        path = save_yet(make_yet(), tmp_path / "no_extension")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_load_by_basename_without_extension(self, tmp_path):
        save_yet(make_yet(), tmp_path / "named")
        loaded = load_yet(tmp_path / "named")
        assert loaded.n_trials == 3

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_yet(tmp_path / "does_not_exist.npz")

    def test_creates_parent_directories(self, tmp_path):
        path = save_yet(make_yet(), tmp_path / "nested" / "dir" / "yet")
        assert path.exists()


class TestYetStore:
    def test_store_roundtrip_through_shards(self, tmp_path):
        from repro.yet.io import YetShardReader, save_yet_store

        original = make_yet(True)
        store = save_yet_store(original, tmp_path / "store")
        with YetShardReader(store) as reader:
            assert reader.n_trials == original.n_trials
            assert reader.n_occurrences == original.n_occurrences
            assert reader.catalog_size == original.catalog_size
            whole = reader.shard(reader.shard_ranges(1)[0])
        np.testing.assert_array_equal(whole.event_ids, original.event_ids)
        np.testing.assert_array_equal(whole.trial_offsets, original.trial_offsets)
        np.testing.assert_allclose(whole.timestamps, original.timestamps)

    def test_shards_match_slice_trials(self, tmp_path):
        from repro.yet.io import YetShardReader, save_yet_store

        original = make_yet(False)
        store = save_yet_store(original, tmp_path / "store")
        with YetShardReader(store) as reader:
            for trials, shard in reader.iter_shards(2):
                expected = original.slice_trials(trials.start, trials.stop)
                np.testing.assert_array_equal(shard.event_ids, expected.event_ids)
                np.testing.assert_array_equal(
                    shard.trial_offsets, expected.trial_offsets
                )
                assert shard.timestamps is None

    def test_budget_shard_count(self, tmp_path):
        from repro.yet.io import YetShardReader, save_yet_store

        original = make_yet(True)
        store = save_yet_store(original, tmp_path / "store")
        with YetShardReader(store) as reader:
            assert reader.shard_count_for_budget(reader.event_bytes) == 1
            assert reader.shard_count_for_budget(reader.event_bytes // 2) == 2
            with pytest.raises(ValueError, match="positive"):
                reader.shard_count_for_budget(0)

    def test_closed_reader_rejects_access(self, tmp_path):
        from repro.yet.io import YetShardReader, save_yet_store
        from repro.parallel.partitioner import TrialRange

        store = save_yet_store(make_yet(True), tmp_path / "store")
        reader = YetShardReader(store)
        reader.close()
        with pytest.raises(ValueError, match="closed"):
            reader.shard(TrialRange(0, 1))

    def test_missing_store_raises(self, tmp_path):
        from repro.yet.io import YetShardReader

        with pytest.raises(FileNotFoundError, match="no YET store"):
            YetShardReader(tmp_path / "nowhere")

    def test_out_of_range_shard_rejected(self, tmp_path):
        from repro.yet.io import YetShardReader, save_yet_store
        from repro.parallel.partitioner import TrialRange

        store = save_yet_store(make_yet(True), tmp_path / "store")
        with YetShardReader(store) as reader:
            with pytest.raises(IndexError, match="outside"):
                reader.shard(TrialRange(0, reader.n_trials + 1))

    def test_shard_is_independent_of_the_mapping(self, tmp_path):
        """A materialised shard must survive close(): a real copy, not a view."""
        from repro.yet.io import YetShardReader, save_yet_store

        original = make_yet(True)
        store = save_yet_store(original, tmp_path / "store")
        reader = YetShardReader(store)
        trials = reader.shard_ranges(1)[0]
        shard = reader.shard(trials)
        assert not np.shares_memory(shard.event_ids, reader._event_ids)
        reader.close()
        np.testing.assert_array_equal(shard.event_ids, original.event_ids)

    def test_trial_window_matches_the_table(self, tmp_path):
        """The reader's window is the table's window, copied off the mapping."""
        from repro.yet.io import YetShardReader, save_yet_store

        original = make_yet(True)
        store = save_yet_store(original, tmp_path / "store")
        with YetShardReader(store) as reader:
            for start, stop in [(0, 3), (1, 2), (2, 3), (3, 3)]:
                ids, offsets = reader.trial_window(start, stop)
                expected_ids, expected_offsets = original.trial_window(start, stop)
                np.testing.assert_array_equal(ids, expected_ids)
                np.testing.assert_array_equal(offsets, expected_offsets)
                assert not np.shares_memory(ids, reader._event_ids)
            for start, stop in [(0, reader.n_trials + 1), (2, 1), (-1, 1)]:
                with pytest.raises(IndexError, match="outside") as from_reader:
                    reader.trial_window(start, stop)
                with pytest.raises(IndexError) as from_table:
                    original.trial_window(start, stop)
                assert str(from_reader.value) == str(from_table.value)

    def test_reader_pickles_as_its_store_path(self, tmp_path):
        """A reader crosses a process boundary as a path, not as columns."""
        import pickle

        from repro.yet.io import YetShardReader, save_yet_store

        original = make_yet(True)
        store = save_yet_store(original, tmp_path / "store")
        with YetShardReader(store) as reader:
            payload = pickle.dumps(reader)
        assert original.event_ids.tobytes() not in payload
        with pickle.loads(payload) as clone:
            assert clone.path == reader.path
            ids, _ = clone.trial_window(0, clone.n_trials)
        np.testing.assert_array_equal(ids, original.event_ids)

