"""Simulated many-core (GPU) device model.

No CUDA hardware is available to this reproduction, so the GPU experiments
(Figures 4, 5a, 5b and the GPU bars of Figure 6a) are reproduced with an
explicit *device model*: the aggregate-analysis kernels are executed
functionally with NumPy (so the numerical results are exact), while their
execution time on a Tesla-C2075-class device is *estimated* with the
analytical cost model in this module.

The model is deliberately simple and fully documented; its purpose is to
capture the three effects the paper's GPU experiments demonstrate:

1. **Occupancy / latency hiding** — global-memory traffic is served at a rate
   per streaming multiprocessor (SM) equal to
   ``min(bandwidth_limit, active_warps * mlp / global_latency)``; too few
   resident threads leave the memory latency exposed (Fig. 4: "at least 128
   threads per block are required").
2. **Shared-memory staging (chunking)** — the optimised kernel stages blocks
   of ``chunk_size`` events through shared memory, which (a) removes the
   basic kernel's global-memory round-trips for the intermediate loss values
   and (b) increases the memory-level parallelism of the ELT gathers.  Each
   chunk iteration carries a fixed overhead, so very small chunks are slow
   (Fig. 5a, chunk 1 → 4 improvement).
3. **Shared-memory capacity** — a block requires
   ``threads_per_block * chunk_size * bytes_per_event_slot`` bytes of shared
   memory; demand beyond the per-SM capacity spills the intermediate accesses
   back to global memory (Fig. 5a, degradation beyond chunk size ~12).

All constants are exposed on :class:`GPUSpec` so that tests and ablation
benchmarks can perturb them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.utils.validation import ensure_positive

__all__ = [
    "GPUSpec",
    "KernelConfig",
    "WorkloadShape",
    "KernelEstimate",
    "KernelCostModel",
    "SimulatedGPU",
    "multi_gpu_estimate",
]


@dataclass(frozen=True)
class GPUSpec:
    """Hardware parameters of the simulated device (defaults: Tesla C2075)."""

    name: str = "Simulated Tesla C2075"
    n_sms: int = 14
    cores_per_sm: int = 32
    warp_size: int = 32
    clock_hz: float = 1.15e9
    global_bandwidth_bytes: float = 144.0e9
    #: Fraction of the peak bandwidth achievable with the engine's scattered
    #: access pattern (random gathers never reach the theoretical peak).
    bandwidth_efficiency: float = 0.60
    global_latency_cycles: float = 400.0
    shared_mem_per_sm_bytes: int = 48 * 1024
    constant_mem_bytes: int = 64 * 1024
    max_threads_per_sm: int = 1536
    max_blocks_per_sm: int = 8
    max_threads_per_block: int = 1024
    #: Bytes transferred per *random* global access (cache-line granularity).
    random_access_bytes: int = 128
    #: Bytes transferred per fully coalesced per-thread access.
    coalesced_access_bytes: int = 8
    #: Shared-memory accesses served per cycle per SM (no bank conflicts).
    shared_accesses_per_cycle: float = 32.0
    #: ALU operations per cycle per SM.
    alu_ops_per_cycle: float = 32.0
    #: Memory-level parallelism (outstanding global loads per warp) of the
    #: basic kernel; the optimised kernel reaches ``min(chunk_size, mlp_max)``.
    mlp_basic: float = 0.75
    mlp_max: float = 4.0
    #: Shared-memory bytes needed per staged event per thread (event id,
    #: intermediate loss values and padding).
    bytes_per_event_slot: int = 64
    #: Fixed overhead cycles per chunk iteration per thread (loop control,
    #: synchronisation, staging global -> shared).
    chunk_overhead_cycles: float = 300.0
    #: Kernel launch overhead in seconds.
    launch_overhead_s: float = 5.0e-5
    #: Global accesses per event for the basic kernel's intermediate values
    #: (lx_d / lox_d kept in global memory and re-read/re-written per step).
    basic_intermediate_accesses_per_event: float = 10.0
    #: Shared accesses per event for the optimised kernel's intermediates.
    optimised_intermediate_accesses_per_event: float = 10.0

    def __post_init__(self) -> None:
        for attr in ("n_sms", "cores_per_sm", "warp_size", "max_threads_per_sm",
                     "max_blocks_per_sm", "max_threads_per_block",
                     "shared_mem_per_sm_bytes"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive")
        ensure_positive(self.clock_hz, "clock_hz")
        ensure_positive(self.global_bandwidth_bytes, "global_bandwidth_bytes")
        ensure_positive(self.global_latency_cycles, "global_latency_cycles")

    @property
    def bandwidth_bytes_per_cycle_per_sm(self) -> float:
        """Usable global-memory bytes per clock cycle per SM."""
        return (
            self.global_bandwidth_bytes * self.bandwidth_efficiency / self.clock_hz / self.n_sms
        )


@dataclass(frozen=True)
class KernelConfig:
    """Launch configuration of an aggregate-analysis kernel."""

    threads_per_block: int = 256
    chunk_size: int = 4
    optimised: bool = True

    def __post_init__(self) -> None:
        if self.threads_per_block <= 0:
            raise ValueError("threads_per_block must be positive")
        if self.chunk_size <= 0:
            raise ValueError("chunk_size must be positive")


@dataclass(frozen=True)
class WorkloadShape:
    """Shape of an aggregate-analysis workload (one layer unless stated)."""

    n_trials: int
    events_per_trial: float
    n_elts: int
    n_layers: int = 1

    def __post_init__(self) -> None:
        if self.n_trials <= 0 or self.n_elts <= 0 or self.n_layers <= 0:
            raise ValueError("n_trials, n_elts and n_layers must be positive")
        if self.events_per_trial <= 0:
            raise ValueError("events_per_trial must be positive")

    @classmethod
    def of_program(cls, program, source) -> "WorkloadShape":
        """The shape of pricing ``program`` over a trial ``source``.

        ``source`` is anything with ``n_trials`` and ``mean_events_per_trial``
        (a YET or a shard reader); the means are clamped to valid values.
        """
        return cls(
            n_trials=source.n_trials,
            events_per_trial=max(source.mean_events_per_trial, 1e-9),
            n_elts=max(int(round(program.mean_elts_per_layer)), 1),
            n_layers=program.n_layers,
        )

    @property
    def total_events(self) -> float:
        """Event occurrences across all trials (one layer)."""
        return self.n_trials * self.events_per_trial

    @property
    def total_lookups(self) -> float:
        """ELT lookups across all trials and layers (the paper's 15-billion figure)."""
        return self.total_events * self.n_elts * self.n_layers


@dataclass(frozen=True)
class KernelEstimate:
    """Output of the cost model for one kernel launch."""

    seconds: float
    cycles_per_sm: float
    occupancy: float
    active_threads_per_sm: int
    blocks_per_sm: int
    n_blocks: int
    spill_fraction: float
    shared_bytes_per_block: int
    breakdown: Dict[str, float] = field(default_factory=dict)

    def summary(self) -> str:
        """One-line human-readable summary."""
        return (
            f"{self.seconds:.3f}s occupancy={self.occupancy:.2f} "
            f"blocks/SM={self.blocks_per_sm} spill={self.spill_fraction:.2f}"
        )


class KernelCostModel:
    """Analytical execution-time model of the aggregate-analysis kernels."""

    def __init__(self, spec: GPUSpec | None = None) -> None:
        self.spec = spec if spec is not None else GPUSpec()

    # ------------------------------------------------------------------ #
    # Residency / occupancy
    # ------------------------------------------------------------------ #
    def blocks_per_sm(self, config: KernelConfig) -> int:
        """Resident blocks per SM (limited by block slots and thread slots).

        The simulated device handles shared-memory over-subscription by
        *spilling* to global memory rather than by reducing residency, so the
        shared-memory demand does not limit the resident block count (see
        :meth:`spill_fraction`).
        """
        spec = self.spec
        by_threads = max(1, spec.max_threads_per_sm // config.threads_per_block)
        return int(min(spec.max_blocks_per_sm, by_threads))

    def active_threads_per_sm(self, config: KernelConfig) -> int:
        """Threads resident per SM for the given launch configuration."""
        return int(min(self.spec.max_threads_per_sm,
                       self.blocks_per_sm(config) * config.threads_per_block))

    def occupancy(self, config: KernelConfig) -> float:
        """Resident threads as a fraction of the SM's thread capacity."""
        return self.active_threads_per_sm(config) / self.spec.max_threads_per_sm

    def shared_bytes_per_block(self, config: KernelConfig) -> int:
        """Shared-memory demand of one block of the optimised kernel."""
        if not config.optimised:
            return 0
        return int(config.threads_per_block * config.chunk_size * self.spec.bytes_per_event_slot)

    def spill_fraction(self, config: KernelConfig) -> float:
        """Fraction of intermediate accesses spilling to global memory.

        Zero while one block's staging buffers fit into the SM's shared
        memory; beyond capacity the overflow fraction of accesses is served
        from global memory (Fig. 5a's rapid degradation past chunk ~12).
        """
        if not config.optimised:
            return 1.0  # basic kernel keeps intermediates in global memory
        demand = self.shared_bytes_per_block(config)
        capacity = self.spec.shared_mem_per_sm_bytes
        if demand <= capacity:
            return 0.0
        return 1.0 - capacity / demand

    # ------------------------------------------------------------------ #
    # Memory-system rates
    # ------------------------------------------------------------------ #
    def _global_rate_per_cycle(self, config: KernelConfig, bytes_per_access: float) -> float:
        """Global accesses served per cycle per SM (latency- or bandwidth-limited)."""
        spec = self.spec
        warps = self.active_threads_per_sm(config) / spec.warp_size
        if config.optimised:
            mlp = min(float(config.chunk_size), spec.mlp_max)
        else:
            mlp = spec.mlp_basic
        latency_limited = warps * mlp / spec.global_latency_cycles
        bandwidth_limited = spec.bandwidth_bytes_per_cycle_per_sm / bytes_per_access
        return max(1e-12, min(latency_limited, bandwidth_limited))

    # ------------------------------------------------------------------ #
    # Estimation
    # ------------------------------------------------------------------ #
    def estimate(self, shape: WorkloadShape, config: KernelConfig) -> KernelEstimate:
        """Estimate the kernel execution time for a workload.

        The workload is assumed to be distributed one thread per trial over
        ``ceil(n_trials / threads_per_block)`` blocks, scheduled over the
        device's SMs; the per-SM cycle count is computed from the per-SM share
        of the total work under throughput limits for global memory, shared
        memory and the ALUs, taking the maximum (perfect overlap assumption)
        plus the chunk-loop overhead.
        """
        spec = self.spec
        if config.threads_per_block > spec.max_threads_per_block:
            raise ValueError(
                f"threads_per_block {config.threads_per_block} exceeds the device "
                f"maximum {spec.max_threads_per_block}"
            )
        n_blocks = -(-shape.n_trials // config.threads_per_block)  # ceil

        # Per-SM share of the workload (trials are spread evenly over SMs).
        trials_per_sm = shape.n_trials / spec.n_sms
        events_per_sm = trials_per_sm * shape.events_per_trial
        layers = shape.n_layers

        spill = self.spill_fraction(config)

        # --- global-memory traffic ------------------------------------- #
        # Random ELT lookups: one per (event, ELT, layer).
        lookup_accesses = events_per_sm * shape.n_elts * layers
        # Event-id fetches: coalesced, one per (event, layer).
        fetch_accesses = events_per_sm * layers
        # Intermediate losses: global for the basic kernel, global only for
        # the spilled fraction of the optimised kernel.
        if config.optimised:
            intermediate_global = (
                spill * spec.optimised_intermediate_accesses_per_event * events_per_sm * layers
            )
            intermediate_shared = (
                (1.0 - spill) * spec.optimised_intermediate_accesses_per_event
                * events_per_sm * layers
            )
        else:
            intermediate_global = (
                spec.basic_intermediate_accesses_per_event * events_per_sm * layers
            )
            intermediate_shared = 0.0

        random_rate = self._global_rate_per_cycle(config, spec.random_access_bytes)
        coalesced_rate = self._global_rate_per_cycle(config, spec.coalesced_access_bytes)
        cycles_lookups = lookup_accesses / random_rate
        cycles_fetch = fetch_accesses / coalesced_rate
        cycles_intermediate_global = intermediate_global / random_rate
        cycles_global = cycles_lookups + cycles_fetch + cycles_intermediate_global

        # --- shared memory and ALU -------------------------------------- #
        cycles_shared = intermediate_shared / spec.shared_accesses_per_cycle
        alu_ops = (
            events_per_sm * shape.n_elts * layers * 4.0  # financial terms
            + events_per_sm * layers * 8.0               # occurrence + aggregate terms
        )
        cycles_alu = alu_ops / spec.alu_ops_per_cycle

        # --- chunk-loop overhead ----------------------------------------- #
        if config.optimised:
            chunks_per_trial = -(-shape.events_per_trial // config.chunk_size)
        else:
            chunks_per_trial = shape.events_per_trial  # event-at-a-time loop
        # The overhead is paid per chunk iteration per *warp of trials*
        # resident on the SM, serialised over the trial waves.
        waves = trials_per_sm / max(1.0, self.active_threads_per_sm(config))
        cycles_overhead = (
            chunks_per_trial * spec.chunk_overhead_cycles * max(1.0, waves) * layers
        )

        cycles_total = max(cycles_global, cycles_shared + cycles_alu) + cycles_overhead
        seconds = cycles_total / spec.clock_hz + spec.launch_overhead_s * layers

        breakdown = {
            "elt_lookup": cycles_lookups / spec.clock_hz,
            "event_fetch": cycles_fetch / spec.clock_hz,
            "intermediate_global": cycles_intermediate_global / spec.clock_hz,
            "shared": cycles_shared / spec.clock_hz,
            "alu": cycles_alu / spec.clock_hz,
            "chunk_overhead": cycles_overhead / spec.clock_hz,
        }
        return KernelEstimate(
            seconds=float(seconds),
            cycles_per_sm=float(cycles_total),
            occupancy=self.occupancy(config),
            active_threads_per_sm=self.active_threads_per_sm(config),
            blocks_per_sm=self.blocks_per_sm(config),
            n_blocks=int(n_blocks),
            spill_fraction=float(spill),
            shared_bytes_per_block=self.shared_bytes_per_block(config),
            breakdown=breakdown,
        )


def multi_gpu_estimate(
    model: "KernelCostModel",
    shape: WorkloadShape,
    config: KernelConfig,
    n_gpus: int,
    sync_overhead_s: float = 0.05,
) -> float:
    """Projected runtime when the trial range is split across ``n_gpus`` devices.

    Section IV: "If a complete portfolio analysis is required on a 1M trial
    basis then a multi-GPU hardware platform would likely be required."  The
    trial dimension is embarrassingly parallel, so the projection simply
    splits the trials evenly, runs the per-device estimate on the slice, and
    adds a fixed host-side synchronisation/merge overhead per device.
    """
    if n_gpus <= 0:
        raise ValueError(f"n_gpus must be positive, got {n_gpus}")
    trials_per_gpu = -(-shape.n_trials // n_gpus)  # ceil
    slice_shape = WorkloadShape(
        n_trials=trials_per_gpu,
        events_per_trial=shape.events_per_trial,
        n_elts=shape.n_elts,
        n_layers=shape.n_layers,
    )
    return model.estimate(slice_shape, config).seconds + sync_overhead_s * n_gpus


class SimulatedGPU:
    """A simulated GPU: a spec plus its cost model.

    The functional execution of the kernels (producing actual Year Loss
    Tables) is done by :mod:`repro.core.gpu_sim`; this class answers the
    "how long would this launch take on the device" question.
    """

    def __init__(self, spec: GPUSpec | None = None) -> None:
        self.spec = spec if spec is not None else GPUSpec()
        self.cost_model = KernelCostModel(self.spec)

    def estimate(self, shape: WorkloadShape, config: KernelConfig) -> KernelEstimate:
        """Estimate the execution time of one kernel launch."""
        return self.cost_model.estimate(shape, config)

    def max_threads_for_chunk(self, chunk_size: int) -> int:
        """Largest threads-per-block whose staging fits in shared memory.

        Rounded down to a multiple of the warp size; the paper notes that
        "with a chunk size of 4 the maximum number of threads that can be
        supported is 192", which this reproduces with the default
        ``bytes_per_event_slot`` of 64.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        limit = self.spec.shared_mem_per_sm_bytes // (chunk_size * self.spec.bytes_per_event_slot)
        limit = (limit // self.spec.warp_size) * self.spec.warp_size
        return int(min(max(limit, self.spec.warp_size), self.spec.max_threads_per_block))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SimulatedGPU(spec={self.spec.name!r})"
