"""Vectorized (whole-shard) backend.

By default (``EngineConfig.fused_layers``) each trial shard of the plan is
priced in one fused pass: every row's term-netted dense losses are stacked
into a single ``(n_rows, catalog_size)`` matrix, the shard's flattened
event-id window is gathered from it in one fancy-indexing operation, and the
layer terms are applied as broadcast expressions over the resulting
``(n_rows, n_events)`` matrix.  With ``fused_layers=False`` the backend
falls back to one kernel call per layer (re-gathering the window against
each layer's matrix separately).  Either way this is the "make the inner
loops disappear" translation of the paper's one-thread-per-trial data
parallelism to NumPy.  The shard loop around it is
:class:`~repro.core.scheduler.PlanScheduler`.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.core.kernels import layer_trial_losses_batch, layer_trial_losses_per_layer
from repro.core.plan import ExecutionPlan
from repro.core.scheduler import PlanScheduler, Price, ShardRun
from repro.utils.timing import PhaseTimer

__all__ = ["VectorizedEngine"]


class VectorizedEngine(PlanScheduler):
    """NumPy data-parallel backend operating on whole trial shards at once."""

    name = "vectorized"

    def _mode(self, plan: ExecutionPlan) -> Dict[str, Any]:
        """The run's path as its ``details``: fused unless the ablation is asked for."""
        return {"fused_layers": self.config.fused_layers or not plan.has_layers}

    def open(self, plan: ExecutionPlan, timer: PhaseTimer) -> ShardRun:
        details = self._mode(plan)
        price = self._numpy_pricer(
            plan, timer, details["fused_layers"], details.get("chunk_events")
        )
        return ShardRun(price, details)

    def _numpy_pricer(
        self,
        plan: ExecutionPlan,
        timer: PhaseTimer,
        fused: bool,
        chunk_events: int | None = None,
        stack: np.ndarray | None = None,
    ) -> Price:
        """Price trial ranges with the shared NumPy kernels.

        ``fused`` gathers every row from ``stack`` (the plan's stack by
        default) at once; otherwise each layer is priced by its own kernel
        call.  ``chunk_events`` streams either path through event chunks.
        """
        config = self.config
        options = dict(
            use_shortcut=config.use_aggregate_shortcut,
            record_max_occurrence=config.record_max_occurrence,
            timer=timer,
            chunk_events=chunk_events,
        )
        if fused:
            stack = plan.stack(timer) if stack is None else stack

            def price(trials):
                event_ids, offsets = plan.yet.trial_window(trials.start, trials.stop)
                return layer_trial_losses_batch(
                    (), event_ids, offsets, plan.terms,
                    stack=stack, row_map=plan.row_map, **options,
                )
        else:
            matrices = [layer.loss_matrix() for layer in plan.layers]
            terms = [layer.terms for layer in plan.layers]

            def price(trials):
                event_ids, offsets = plan.yet.trial_window(trials.start, trials.stop)
                return layer_trial_losses_per_layer(
                    matrices, event_ids, offsets, terms, **options
                )
        return price
