"""Sequential reference backend.

A line-for-line transcription of the paper's basic algorithm (Section II-B,
lines 1–19) in pure Python: the outer loops iterate over layers and trials,
the inner loops over the trial's events and the layer's ELTs.  It is by far
the slowest backend — that is the point: it is the *correctness reference*
against which every optimised backend is checked, and the baseline the
speedup figures are measured from.

The backend also honours ``EngineConfig.elt_representation`` so the Section
III-B data-structure discussion (direct access table vs binary search vs
hashing) can be evaluated on the CPU.  It runs under the same shard loop as
the optimised backends, which keeps it a valid oracle for the sharded paths
too: a per-(layer, trial) result depends on nothing outside its trial.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.phases import (
    PHASE_ELT_LOOKUP,
    PHASE_EVENT_FETCH,
    PHASE_FINANCIAL_TERMS,
    PHASE_LAYER_TERMS,
)
from repro.core.plan import ExecutionPlan
from repro.core.scheduler import PlanScheduler, ShardRun
from repro.elt.direct_access import DirectAccessTable
from repro.elt.hashed_table import HashedEventLossTable
from repro.elt.sorted_table import SortedEventLossTable
from repro.elt.table import EventLossTable, LossLookup
from repro.utils.timing import PhaseTimer

__all__ = ["SequentialEngine", "build_lookup"]


def build_lookup(elt: EventLossTable, representation: str) -> LossLookup:
    """Build the configured lookup structure for one ELT."""
    if representation == "direct":
        return DirectAccessTable(elt)
    if representation == "sorted":
        return SortedEventLossTable(elt)
    if representation == "hashed":
        return HashedEventLossTable(elt)
    raise ValueError(f"unknown ELT representation {representation!r}")


class SequentialEngine(PlanScheduler):
    """Pure-Python reference implementation of the aggregate analysis."""

    name = "sequential"

    def open(self, plan: ExecutionPlan, timer: PhaseTimer) -> ShardRun:
        """Price the plan's source layers trial by trial.

        Synthetic plans (precomputed stack rows without source layers) have
        no pure-Python form here.
        """
        if not plan.has_layers:
            raise ValueError(
                "backend 'sequential' has no stacked execution path; "
                "use one of the fused backends (vectorized, chunked, multicore, native)"
            )
        config = self.config
        # Preprocessing stage: load the ELTs of every layer into the
        # configured lookup structures (the paper's "data is loaded into local
        # memory" step).  Built once, shared by every shard.
        layer_lookups: list[list[LossLookup]] = [
            [build_lookup(elt, config.elt_representation) for elt in layer.elts]
            for layer in plan.layers
        ]
        record_phases = config.record_phases

        def price(trials):
            losses = np.zeros((plan.n_rows, trials.size), dtype=np.float64)
            max_occ = (
                np.zeros((plan.n_rows, trials.size), dtype=np.float64)
                if config.record_max_occurrence
                else None
            )
            # The shard's window is read once; each trial's events are then
            # a slice of it between consecutive local offsets.
            with timer.phase(PHASE_EVENT_FETCH):
                event_ids, offsets = plan.yet.trial_window(trials.start, trials.stop)
            for layer_index, layer in enumerate(plan.layers):      # line 1: for all a in L
                lookups = layer_lookups[layer_index]
                elt_terms = [elt.terms for elt in layer.elts]
                terms = layer.terms
                for local in range(trials.size):                    # line 2: for all b in YET
                    year_loss, trial_max = self._analyse_trial(
                        event_ids[offsets[local] : offsets[local + 1]],
                        lookups, elt_terms, terms, timer, record_phases,
                    )
                    losses[layer_index, local] = year_loss
                    if max_occ is not None:
                        max_occ[layer_index, local] = trial_max
            return losses, max_occ

        return ShardRun(
            price,
            {"elt_representation": config.elt_representation, "fused_layers": False},
        )

    # ------------------------------------------------------------------ #
    # One (layer, trial) pair — the paper's lines 3-19
    # ------------------------------------------------------------------ #
    @staticmethod
    def _analyse_trial(
        events: np.ndarray,
        lookups: list[LossLookup],
        elt_terms: list,
        terms,
        timer: PhaseTimer,
        record_phases: bool,
    ) -> tuple[float, float]:
        """Year loss and maximum occurrence loss of one trial for one layer."""
        # --- event fetch (line 4: for all d in Et in b) ------------------- #
        if record_phases:
            t0 = time.perf_counter()
        event_list = [int(e) for e in events]
        if record_phases:
            timer.add(PHASE_EVENT_FETCH, time.perf_counter() - t0)

        # --- ELT lookups (lines 3-5) -------------------------------------- #
        if record_phases:
            t0 = time.perf_counter()
        raw_losses: list[list[float]] = []
        for lookup in lookups:                                         # line 3: for all c in ELTs
            raw_losses.append([lookup.lookup(event) for event in event_list])
        if record_phases:
            timer.add(PHASE_ELT_LOOKUP, time.perf_counter() - t0)

        # --- financial terms and combination (lines 6-9) ------------------- #
        if record_phases:
            t0 = time.perf_counter()
        combined = [0.0] * len(event_list)
        for elt_index, losses_for_elt in enumerate(raw_losses):
            ft = elt_terms[elt_index]
            for d, raw in enumerate(losses_for_elt):                   # lines 6-7
                combined[d] += ft.apply(raw)                           # lines 8-9
        if record_phases:
            timer.add(PHASE_FINANCIAL_TERMS, time.perf_counter() - t0)

        # --- layer terms (lines 10-19) ------------------------------------- #
        if record_phases:
            t0 = time.perf_counter()
        max_occurrence = 0.0
        cumulative = 0.0
        previous_net = 0.0
        year_loss = 0.0
        for loss in combined:
            occurrence = terms.apply_occurrence(loss)                  # lines 10-11
            if occurrence > max_occurrence:
                max_occurrence = occurrence
            cumulative += occurrence                                   # lines 12-13
            net = terms.apply_aggregate(cumulative)                    # lines 14-15
            year_loss += net - previous_net                            # lines 16-19
            previous_net = net
        if record_phases:
            timer.add(PHASE_LAYER_TERMS, time.perf_counter() - t0)
        return year_loss, max_occurrence
