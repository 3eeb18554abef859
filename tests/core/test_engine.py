"""Tests for the AggregateRiskEngine facade."""

import numpy as np
import pytest

from repro.core.chunked import ChunkedEngine
from repro.core.config import EngineConfig
from repro.core.engine import AggregateRiskEngine, available_backends
from repro.core.gpu_sim import GPUSimulatedEngine
from repro.core.multicore import MulticoreEngine
from repro.core.native_backend import NativeEngine
from repro.core.sequential import SequentialEngine
from repro.core.vectorized import VectorizedEngine
from repro.ylt.table import YearLossTable


class TestFacade:
    def test_available_backends(self):
        assert set(available_backends()) == {
            "sequential", "vectorized", "chunked", "multicore", "gpu", "native",
        }

    @pytest.mark.parametrize("backend,backend_cls", [
        ("sequential", SequentialEngine),
        ("vectorized", VectorizedEngine),
        ("chunked", ChunkedEngine),
        ("multicore", MulticoreEngine),
        ("gpu", GPUSimulatedEngine),
        ("native", NativeEngine),
    ])
    def test_backend_selection(self, backend, backend_cls):
        engine = AggregateRiskEngine(EngineConfig(backend=backend))
        assert engine.backend_name == backend
        assert isinstance(engine._backend, backend_cls)

    def test_default_backend_vectorized(self):
        assert AggregateRiskEngine().backend_name == "vectorized"

    def test_run_returns_result(self, tiny_workload):
        result = AggregateRiskEngine().run(tiny_workload.program, tiny_workload.yet)
        assert result.ylt.n_trials == tiny_workload.yet.n_trials
        assert "backend=vectorized" in result.summary()

    def test_year_loss_table_shortcut(self, tiny_workload):
        ylt = AggregateRiskEngine().year_loss_table(tiny_workload.program, tiny_workload.yet)
        assert isinstance(ylt, YearLossTable)

    def test_trials_per_second_positive(self, tiny_workload):
        result = AggregateRiskEngine().run(tiny_workload.program, tiny_workload.yet)
        assert result.trials_per_second > 0


class TestCompareBackends:
    def test_agreeing_backends_pass(self, tiny_workload):
        results = AggregateRiskEngine.compare_backends(
            tiny_workload.program,
            tiny_workload.yet,
            backends=("sequential", "vectorized", "chunked", "gpu"),
        )
        assert set(results) == {"sequential", "vectorized", "chunked", "gpu"}

    def test_results_actually_agree(self, tiny_workload):
        results = AggregateRiskEngine.compare_backends(
            tiny_workload.program, tiny_workload.yet, backends=("sequential", "vectorized")
        )
        np.testing.assert_allclose(
            results["sequential"].ylt.losses, results["vectorized"].ylt.losses, rtol=1e-9
        )

    def test_custom_base_config(self, tiny_workload):
        results = AggregateRiskEngine.compare_backends(
            tiny_workload.program,
            tiny_workload.yet,
            backends=("vectorized", "chunked"),
            base_config=EngineConfig(record_max_occurrence=False),
        )
        assert results["vectorized"].ylt.max_occurrence_losses is None

    def test_disagreement_detected(self, tiny_workload, monkeypatch):
        # Force the chunked backend to produce corrupted results and make sure
        # the comparison catches it.
        original_open = ChunkedEngine.open

        def corrupted_open(self, plan, timer):
            run = original_open(self, plan, timer)
            price = run.price

            def corrupted(trials):
                year, occ = price(trials)
                return year * 1.5, occ

            run.price = corrupted
            return run

        monkeypatch.setattr(ChunkedEngine, "open", corrupted_open)
        with pytest.raises(AssertionError, match="disagrees"):
            AggregateRiskEngine.compare_backends(
                tiny_workload.program, tiny_workload.yet, backends=("vectorized", "chunked")
            )


class TestRunMany:
    def test_single_program_matches_run(self, tiny_workload):
        engine = AggregateRiskEngine()
        batched = engine.run_many([tiny_workload.program], tiny_workload.yet)
        solo = engine.run(tiny_workload.program, tiny_workload.yet)
        assert len(batched) == 1
        np.testing.assert_array_equal(batched[0].ylt.losses, solo.ylt.losses)

    def test_accepts_bare_layer(self, tiny_workload):
        layer = tiny_workload.program.layers[0]
        results = AggregateRiskEngine().run_many([layer], tiny_workload.yet)
        assert results[0].ylt.n_layers == 1

    def test_empty_batch_rejected(self, tiny_workload):
        with pytest.raises(ValueError, match="at least one"):
            AggregateRiskEngine().run_many([], tiny_workload.yet)

    def test_batch_details_recorded(self, tiny_workload):
        program = tiny_workload.program
        results = AggregateRiskEngine().run_many([program, program], tiny_workload.yet)
        assert [r.details["batch"]["index"] for r in results] == [0, 1]
        assert all(
            r.details["batch"]["total_layers"] == 2 * program.n_layers for r in results
        )

    def test_run_many_on_sequential_backend(self, tiny_workload, tiny_reference_result):
        engine = AggregateRiskEngine(EngineConfig(backend="sequential"))
        results = engine.run_many([tiny_workload.program], tiny_workload.yet)
        np.testing.assert_allclose(
            results[0].ylt.losses, tiny_reference_result.ylt.losses, rtol=1e-9, atol=1e-6
        )


class TestFusedConfig:
    def test_fused_default_on(self):
        assert EngineConfig().fused_layers is True

    def test_details_report_fused_flag(self, tiny_workload):
        for fused in (True, False):
            result = AggregateRiskEngine(
                EngineConfig(backend="vectorized", fused_layers=fused)
            ).run(tiny_workload.program, tiny_workload.yet)
            assert result.details["fused_layers"] is fused
