"""Engine configuration.

One :class:`EngineConfig` object configures every backend; irrelevant fields
are simply ignored by backends that do not use them (e.g. ``threads_per_block``
only matters to the GPU backend).  Keeping a single configuration type makes
the benchmark sweeps trivial: change one field, re-run, compare.
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass, field, replace
from typing import Any

from repro.parallel.device import GPUSpec
from repro.parallel.scheduling import SchedulingPolicy

__all__ = [
    "EngineConfig",
    "ELT_REPRESENTATIONS",
    "BACKEND_NAMES",
    "DTYPE_NAMES",
    "SHARED_MEMORY_MODES",
]

#: Lookup-structure choices for the sequential backend (Section III-B ablation).
ELT_REPRESENTATIONS: tuple[str, ...] = ("direct", "sorted", "hashed")

#: Names of the available engine backends.
BACKEND_NAMES: tuple[str, ...] = (
    "sequential",
    "vectorized",
    "chunked",
    "multicore",
    "gpu",
    "native",
)

#: Loss-stack precisions of the native backend's fused gather path.
DTYPE_NAMES: tuple[str, ...] = ("float64", "float32")

#: Multicore transport of the plan's read-only arrays: ``"auto"`` publishes
#: them through shared memory whenever workers cannot inherit the parent's
#: address space (any start method except ``fork``), ``"on"``/``"off"`` force
#: the choice.
SHARED_MEMORY_MODES: tuple[str, ...] = ("auto", "on", "off")


def _default_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn`` (Windows)."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class EngineConfig:
    """Configuration shared by all engine backends.

    Attributes
    ----------
    backend:
        One of :data:`BACKEND_NAMES`.
    shared_memory:
        How the multicore plan scheduler transports the fused loss stack and
        the YET columns to its workers: ``"auto"`` (default) attaches them
        zero-copy through :class:`~repro.parallel.shared_memory.SharedArray`
        whenever workers cannot inherit the parent's memory (``spawn`` /
        ``forkserver``), ``"on"`` forces shared memory even under ``fork``,
        ``"off"`` forces the per-worker pickling transport (the benchmark
        baseline).  A single-worker run executes in-process — no transport
        exists, so every mode behaves like ``"off"`` there.
    elt_representation:
        ELT lookup structure used by the *sequential* backend: ``"direct"``
        (direct access table, the paper's choice), ``"sorted"`` (binary
        search) or ``"hashed"`` (open-addressing hash table).
    use_aggregate_shortcut:
        Apply the aggregate terms with the telescoped shortcut (True) or with
        the paper's full cumulative pass (False).  Both produce identical year
        losses; the flag exists for the ablation benchmark.
    fused_layers:
        Price all layers of the program through the fused multi-layer batch
        kernel (one stacked ``(n_layers, catalog_size)`` gather per YET pass)
        instead of looping over the layers one at a time.  Honoured by the
        vectorized, chunked, multicore and native backends; the sequential
        and gpu backends always use their per-layer reference paths.  Both
        paths produce identical year losses; disabling exists for the
        fused-vs-per-layer benchmark and conformance tests.
    record_max_occurrence:
        Record each trial's largest occurrence loss (needed for OEP curves);
        small extra cost.
    record_phases:
        Record the per-phase timing breakdown (Figure 6b); adds measurement
        overhead, so benchmarks of raw speed leave it off.
    trial_shards:
        Trial-shard count of the scheduler's shard loop: every plan is
        executed as this many disjoint trial shards, accumulating the
        per-shard :class:`~repro.core.results.PartialResult` blocks into the
        final result.  The merged output is **bit-identical** for every shard
        count (per-trial reductions are trial-local); sharding exists to
        bound the per-pass working set (the fused gather covers one shard's
        events instead of the whole YET) and to shape the run for
        distribution.  ``1`` (the default) is the monolithic single-shard
        loop; a plan carrying its own ``n_shards`` overrides this field.
    chunk_events:
        Flattened-event chunk size of the *chunked* backend (number of event
        occurrences staged per iteration; chunks are cut at trial
        boundaries, so any chunk size produces identical results).
    replication_block:
        Replications sampled and priced per fused pass by the
        replication-batched secondary-uncertainty engine
        (:meth:`~repro.uncertainty.analysis.SecondaryUncertaintyAnalysis.run_batched`).
        ``0`` prices all replications in one pass; a positive value streams
        blocks of that many replications so the working set (the sampled
        ``replication_block * n_layers`` stack rows) stays bounded — the
        replication analogue of ``chunk_events``.  Draws are per-replication
        child streams, so the block size never changes the results.
    n_workers:
        Worker processes of the *multicore* backend (the paper's "cores").
    scheduling:
        Static or dynamic trial-block scheduling for the multicore backend.
    oversubscription:
        Work items per worker under dynamic scheduling (the paper's "threads
        per core").
    start_method:
        Multiprocessing start method for the multicore backend; validated
        against :func:`multiprocessing.get_all_start_methods` at
        construction time so a typo fails here rather than deep inside the
        executor.  Defaults to ``"fork"`` where the platform offers it and
        ``"spawn"`` elsewhere (Windows).
    threads_per_block:
        CUDA-block size of the simulated *gpu* backend.
    gpu_chunk_size:
        Chunk size (events staged in shared memory per thread) of the
        optimised GPU kernel.
    gpu_optimised:
        Run the optimised (chunked, shared-memory) kernel rather than the
        basic kernel on the simulated GPU.
    gpu_spec:
        Hardware spec of the simulated device.
    dtype:
        Precision of the loss stack the *native* backend's fused gather
        reads: ``"float64"`` (default) is bit-identical to the vectorized
        backend; ``"float32"`` stores the stack in single precision —
        halving the random-gather bandwidth that dominates the runtime —
        while still widening every gathered value to double before terms
        and reductions, so results are bit-identical to the float64
        pipeline on the f32-quantised stack (≈1e-7 relative to the full-
        precision run).  Other backends always compute in float64 and
        ignore this field.
    native_threads:
        OpenMP thread count of the *native* backend's C kernel; ``0`` (the
        default) uses the OpenMP runtime default.  The kernel's
        (row, trial) cells are independent, so the thread count never
        changes the results.
    """

    backend: str = "vectorized"
    shared_memory: str = "auto"
    elt_representation: str = "direct"
    use_aggregate_shortcut: bool = True
    fused_layers: bool = True
    record_max_occurrence: bool = True
    record_phases: bool = False
    trial_shards: int = 1
    chunk_events: int = 8192
    replication_block: int = 0
    n_workers: int = 1
    scheduling: SchedulingPolicy = SchedulingPolicy.STATIC
    oversubscription: int = 1
    start_method: str = field(default_factory=_default_start_method)
    threads_per_block: int = 256
    gpu_chunk_size: int = 4
    gpu_optimised: bool = True
    gpu_spec: GPUSpec = field(default_factory=GPUSpec)
    dtype: str = "float64"
    native_threads: int = 0

    def __post_init__(self) -> None:
        if self.backend not in BACKEND_NAMES:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.shared_memory not in SHARED_MEMORY_MODES:
            raise ValueError(
                f"unknown shared_memory mode {self.shared_memory!r}; "
                f"expected one of {SHARED_MEMORY_MODES}"
            )
        if self.elt_representation not in ELT_REPRESENTATIONS:
            raise ValueError(
                f"unknown ELT representation {self.elt_representation!r}; "
                f"expected one of {ELT_REPRESENTATIONS}"
            )
        if self.trial_shards <= 0:
            raise ValueError(f"trial_shards must be positive, got {self.trial_shards}")
        if self.chunk_events <= 0:
            raise ValueError(f"chunk_events must be positive, got {self.chunk_events}")
        if self.replication_block < 0:
            raise ValueError(
                f"replication_block must be non-negative, got {self.replication_block}"
            )
        if self.n_workers <= 0:
            raise ValueError(f"n_workers must be positive, got {self.n_workers}")
        if self.oversubscription <= 0:
            raise ValueError(f"oversubscription must be positive, got {self.oversubscription}")
        available_start_methods = multiprocessing.get_all_start_methods()
        if self.start_method not in available_start_methods:
            raise ValueError(
                f"unknown start_method {self.start_method!r}; this platform "
                f"supports {tuple(available_start_methods)}"
            )
        if self.threads_per_block <= 0:
            raise ValueError(f"threads_per_block must be positive, got {self.threads_per_block}")
        if self.gpu_chunk_size <= 0:
            raise ValueError(f"gpu_chunk_size must be positive, got {self.gpu_chunk_size}")
        if self.dtype not in DTYPE_NAMES:
            raise ValueError(
                f"unknown dtype {self.dtype!r}; expected one of {DTYPE_NAMES}"
            )
        if self.native_threads < 0:
            raise ValueError(
                f"native_threads must be non-negative, got {self.native_threads}"
            )

    def with_backend(self, backend: str, **overrides: Any) -> "EngineConfig":
        """A copy of this config with a different backend (and optional overrides)."""
        return replace(self, backend=backend, **overrides)

    def replace(self, **overrides: Any) -> "EngineConfig":
        """A copy of this config with the given fields replaced."""
        return replace(self, **overrides)
