"""Chunked backend: the CPU analogue of the optimised GPU kernel.

The vectorized backend materialises an ``(n_rows, shard_events)`` gather
buffer; for the paper's full-scale workload (15 ELTs x 10^9 events) that is
120 GB — exactly the kind of working set the optimised GPU kernel avoids by
staging fixed-size chunks through shared memory.  This backend is the
vectorized pricer with ``EngineConfig.chunk_events`` applied: the flattened
event stream is processed in trial-aligned chunks of about that many
occurrences, bounding the temporary buffer to ``n_rows x chunk_events``
doubles.  Chunks are cut at trial boundaries only, so the streamed result is
bit-identical to the unchunked gather for any chunk size, and
``trial_shards`` composes with ``chunk_events`` — the shard bounds what is
resident, the chunk bounds what is gathered.

The fused streaming accumulation needs the telescoped aggregate shortcut;
the ``use_aggregate_shortcut=False`` ablation falls back to the per-layer
chunked loop (or, for synthetic stacks, to one unchunked cumulative pass).
"""

from __future__ import annotations

from typing import Any, Dict

from repro.core.plan import ExecutionPlan
from repro.core.vectorized import VectorizedEngine

__all__ = ["ChunkedEngine"]


class ChunkedEngine(VectorizedEngine):
    """NumPy backend streaming each trial shard through fixed-size event chunks."""

    name = "chunked"

    def _mode(self, plan: ExecutionPlan) -> Dict[str, Any]:
        # Programs fall back to the per-layer chunked loop without the
        # shortcut; a synthetic stack (no per-layer matrices to fall back
        # to) is priced by the fused kernel in one unchunked cumulative pass.
        config = self.config
        shortcut = config.use_aggregate_shortcut
        fused = not plan.has_layers or (config.fused_layers and shortcut)
        return {
            "chunk_events": config.chunk_events if (not fused or shortcut) else None,
            "fused_layers": fused,
        }
