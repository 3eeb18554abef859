"""Simulated-GPU backend.

The backend executes the aggregate analysis *functionally* — block by block,
with the same chunked kernel the optimised GPU implementation uses — and, for
every layer, asks the :class:`~repro.parallel.device.SimulatedGPU` cost model
how long the corresponding kernel launch would take on a Tesla-C2075-class
device.  The engine result therefore carries two times:

* ``wall_seconds`` — the measured wall-clock time of the NumPy execution on
  the host (useful for comparing against the other Python backends), and
* ``modeled_seconds`` — the modelled device time (the quantity compared
  against the paper's Figures 4, 5 and 6a).

``EngineConfig.threads_per_block`` determines how many trials form one
simulated CUDA block; ``EngineConfig.gpu_chunk_size`` is the number of events
staged per thread per chunk iteration; ``EngineConfig.gpu_optimised`` selects
the basic (global-memory) or optimised (shared-memory, chunked) kernel.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import EngineConfig
from repro.core.kernels import layer_trial_losses_per_layer
from repro.core.plan import ExecutionPlan
from repro.core.scheduler import PlanScheduler, ShardRun
from repro.parallel.device import KernelConfig, KernelEstimate, SimulatedGPU, WorkloadShape
from repro.parallel.partitioner import chunk_partition
from repro.utils.timing import PhaseTimer

__all__ = ["GPUSimulatedEngine"]


class GPUSimulatedEngine(PlanScheduler):
    """Functional execution on the simulated many-core device."""

    name = "gpu"

    def __init__(self, config: EngineConfig | None = None) -> None:
        super().__init__(config)
        self.device = SimulatedGPU(self.config.gpu_spec)

    def kernel_config(self) -> KernelConfig:
        """The kernel launch configuration implied by the engine config."""
        return KernelConfig(
            threads_per_block=self.config.threads_per_block,
            chunk_size=self.config.gpu_chunk_size,
            optimised=self.config.gpu_optimised,
        )

    def open(self, plan: ExecutionPlan, timer: PhaseTimer) -> ShardRun:
        """Price the plan block by simulated block, and model each layer's launch.

        One simulated CUDA block is ``threads_per_block`` trials x 1 row, as
        in the paper's per-layer kernel loop; per-trial results are
        trial-local, so the block decomposition never moves a bit.
        Synthetic plans (precomputed stack rows without source layers) are
        not supported by the device model.
        """
        if not plan.has_layers:
            raise ValueError(
                "backend 'gpu' has no stacked execution path; "
                "use one of the fused backends (vectorized, chunked, multicore, native)"
            )
        config = self.config
        threads = config.threads_per_block
        matrices = [layer.loss_matrix() for layer in plan.layers]
        terms = [layer.terms for layer in plan.layers]
        options = dict(
            use_shortcut=config.use_aggregate_shortcut,
            record_max_occurrence=config.record_max_occurrence,
            timer=timer,
            # The optimised kernel stages each block's events in chunks.
            chunk_events=threads * config.gpu_chunk_size if config.gpu_optimised else None,
        )

        def price(trials):
            losses = np.zeros((plan.n_rows, trials.size), dtype=np.float64)
            max_occ = np.zeros_like(losses) if config.record_max_occurrence else None
            for block in chunk_partition(trials.size, threads):
                event_ids, offsets = plan.yet.trial_window(
                    trials.start + block.start, trials.start + block.stop
                )
                block_losses, block_max = layer_trial_losses_per_layer(
                    matrices, event_ids, offsets, terms, **options
                )
                losses[:, block.start : block.stop] = block_losses
                if max_occ is not None:
                    max_occ[:, block.start : block.stop] = block_max
            return losses, max_occ

        kernel_config = self.kernel_config()
        events_per_trial = max(plan.yet.mean_events_per_trial, 1e-9)
        estimates = [
            self.device.estimate(
                WorkloadShape(plan.n_trials, events_per_trial, layer.n_elts), kernel_config
            )
            for layer in plan.layers
        ]
        details = {
            "threads_per_block": threads,
            "chunk_size": config.gpu_chunk_size,
            "optimised": config.gpu_optimised,
            "device": self.device.spec.name,
            "fused_layers": False,
        }
        return ShardRun(price, details, modeled=estimates)

    def estimate_only(self, shape: WorkloadShape) -> KernelEstimate:
        """Modelled kernel time for a workload shape without executing it."""
        return self.device.estimate(shape, self.kernel_config())
