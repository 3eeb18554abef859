"""Workload specification and generation.

The paper characterises an aggregate-analysis problem by four key parameters
(Section III-C.1): the number of events in a trial, the number of trials, the
average number of ELTs per layer and the number of layers — plus the catalog
size and the per-ELT record counts that drive memory behaviour.
:class:`WorkloadSpec` captures exactly these parameters;
:class:`WorkloadGenerator` turns a spec into a concrete, reproducible
:class:`AggregateWorkload` by running the full synthetic pipeline:

catalog -> exposure sets -> catastrophe model -> ELTs -> layers -> program,
and catalog -> YET simulator -> YET.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from repro.catalog.generator import CatalogGenerator
from repro.catalog.events import EventCatalog
from repro.elt.table import EventLossTable
from repro.exposure.generator import ExposureGenerator
from repro.exposure.geography import RegionGrid
from repro.financial.terms import FinancialTerms, LayerTerms
from repro.hazard.catmodel import CatastropheModel, CatModelSettings
from repro.parallel.device import WorkloadShape
from repro.portfolio.layer import Layer
from repro.portfolio.program import ReinsuranceProgram
from repro.utils.rng import SeedSequenceFactory
from repro.yet.simulator import YETSimulator
from repro.yet.table import YearEventTable

__all__ = ["WorkloadSpec", "AggregateWorkload", "WorkloadGenerator"]


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape parameters of a synthetic aggregate-analysis workload.

    Attributes
    ----------
    n_trials:
        Number of YET trials (``|T|``).
    events_per_trial:
        Events per trial (``|E_t|_av``); trials have exactly this length when
        ``fixed_trial_length`` is set, otherwise it is the Poisson mean.
    n_layers:
        Number of layers (``|L|``).
    elts_per_layer:
        ELTs covered by each layer (``|ELT|_av``).
    catalog_size:
        Size of the stochastic event catalog.
    buildings_per_exposure:
        Buildings per synthetic exposure set (controls ELT generation cost
        only; the engine never sees the buildings).
    n_regions:
        Geographic regions of the synthetic world (controls ELT sparsity).
    fixed_trial_length:
        Use exactly ``events_per_trial`` events in every trial (the paper's
        performance experiments fix the trial length).
    occurrence_retention_fraction / occurrence_limit_fraction /
    aggregate_retention_fraction / aggregate_limit_fraction:
        Layer terms expressed as fractions of the layer's mean trial
        ground-up loss, so that the terms bind meaningfully at any scale.
    elt_share:
        Ceding share embedded in each ELT's financial terms.
    seed:
        Root seed of the whole workload.
    """

    n_trials: int = 1000
    events_per_trial: int = 100
    n_layers: int = 1
    elts_per_layer: int = 15
    catalog_size: int = 20_000
    buildings_per_exposure: int = 100
    n_regions: int = 24
    fixed_trial_length: bool = True
    occurrence_retention_fraction: float = 0.05
    occurrence_limit_fraction: float = 0.4
    aggregate_retention_fraction: float = 0.1
    aggregate_limit_fraction: float = 2.0
    elt_share: float = 0.9
    seed: int = 1234

    def __post_init__(self) -> None:
        for attr in ("n_trials", "events_per_trial", "n_layers", "elts_per_layer",
                     "catalog_size", "buildings_per_exposure", "n_regions"):
            if getattr(self, attr) <= 0:
                raise ValueError(f"{attr} must be positive, got {getattr(self, attr)}")
        for attr in ("occurrence_retention_fraction", "occurrence_limit_fraction",
                     "aggregate_retention_fraction", "aggregate_limit_fraction",
                     "elt_share"):
            if getattr(self, attr) < 0:
                raise ValueError(f"{attr} must be non-negative, got {getattr(self, attr)}")

    @property
    def n_elts_total(self) -> int:
        """Total number of distinct ELTs the workload needs."""
        return self.n_layers * self.elts_per_layer

    @property
    def total_lookups(self) -> int:
        """Total ELT lookups the analysis performs (the paper's cost measure)."""
        return self.n_trials * self.events_per_trial * self.elts_per_layer * self.n_layers

    def shape(self) -> WorkloadShape:
        """The corresponding :class:`~repro.parallel.device.WorkloadShape`."""
        return WorkloadShape(
            n_trials=self.n_trials,
            events_per_trial=float(self.events_per_trial),
            n_elts=self.elts_per_layer,
            n_layers=self.n_layers,
        )

    def scaled(self, **overrides) -> "WorkloadSpec":
        """A copy of the spec with some parameters overridden."""
        return replace(self, **overrides)


@dataclass(frozen=True)
class AggregateWorkload:
    """A fully materialised workload: catalog + YET + program."""

    spec: WorkloadSpec
    catalog: EventCatalog
    yet: YearEventTable
    program: ReinsuranceProgram
    elts: Sequence[EventLossTable] = field(default_factory=tuple)

    @property
    def shape(self) -> WorkloadShape:
        """Shape of the workload as seen by the engine."""
        return WorkloadShape.of_program(self.program, self.yet)

    def summary(self) -> str:
        """One-line description used by benchmark output."""
        return (
            f"trials={self.yet.n_trials} events/trial={self.yet.mean_events_per_trial:.0f} "
            f"layers={self.program.n_layers} elts/layer={self.program.mean_elts_per_layer:.0f} "
            f"catalog={self.catalog.size}"
        )


class WorkloadGenerator:
    """Builds reproducible synthetic workloads from a :class:`WorkloadSpec`."""

    def __init__(self, spec: WorkloadSpec) -> None:
        self.spec = spec

    # ------------------------------------------------------------------ #
    # Pipeline stages
    # ------------------------------------------------------------------ #
    def build_catalog(self, seeds: SeedSequenceFactory) -> EventCatalog:
        """Stage 1: the stochastic event catalog."""
        spec = self.spec
        generator = CatalogGenerator(n_regions=spec.n_regions)
        return generator.generate_with_rate(
            spec.catalog_size,
            events_per_year=float(spec.events_per_trial),
            rng=seeds.rng("catalog"),
        )

    def build_elts(self, catalog: EventCatalog, seeds: SeedSequenceFactory) -> list[EventLossTable]:
        """Stage 2: exposure sets and the catastrophe model producing ELTs."""
        spec = self.spec
        grid = RegionGrid(n_lat=max(1, spec.n_regions // 8), n_lon=min(8, spec.n_regions))
        # The grid may hold fewer cells than n_regions when n_regions is not a
        # multiple of 8; clamp by rebuilding a 1 x n grid in that case.
        if grid.size != spec.n_regions:
            grid = RegionGrid(n_lat=1, n_lon=spec.n_regions)
        exposure_generator = ExposureGenerator(grid)
        portfolios = exposure_generator.generate_many(
            spec.n_elts_total,
            spec.buildings_per_exposure,
            rng=seeds.rng("exposure"),
        )
        model = CatastropheModel(
            catalog,
            n_regions=spec.n_regions,
            settings=CatModelSettings(loss_threshold=1.0),
        )
        terms = FinancialTerms(share=spec.elt_share)
        return model.generate_elts(portfolios, terms)

    def build_layers(self, elts: Sequence[EventLossTable],
                     seeds: SeedSequenceFactory,
                     catalog: EventCatalog) -> ReinsuranceProgram:
        """Stage 3: assemble layers with terms scaled to the loss level.

        The layer terms are expressed as fractions of the *expected trial
        ground-up loss*, computed with the catalog's occurrence probabilities
        (a trial event is far more likely to be one of the frequent small
        events than one of the rare large ones), so that retentions and
        limits bind meaningfully regardless of the workload scale.
        """
        spec = self.spec
        rng = seeds.rng("layers")
        probabilities = catalog.occurrence_probabilities()
        layers = []
        for layer_index in range(spec.n_layers):
            start = layer_index * spec.elts_per_layer
            layer_elts = list(elts[start : start + spec.elts_per_layer])
            expected_event_loss = float(
                sum(
                    float(probabilities[elt.event_ids] @ elt.losses) if elt.size else 0.0
                    for elt in layer_elts
                )
            )
            expected_trial_loss = max(expected_event_loss * spec.events_per_trial, 1.0)
            jitter = float(rng.uniform(0.8, 1.2))
            terms = LayerTerms(
                occurrence_retention=spec.occurrence_retention_fraction * expected_trial_loss * jitter,
                occurrence_limit=(
                    spec.occurrence_limit_fraction * expected_trial_loss * jitter
                    if np.isfinite(spec.occurrence_limit_fraction)
                    else float("inf")
                ),
                aggregate_retention=spec.aggregate_retention_fraction * expected_trial_loss * jitter,
                aggregate_limit=(
                    spec.aggregate_limit_fraction * expected_trial_loss * jitter
                    if np.isfinite(spec.aggregate_limit_fraction)
                    else float("inf")
                ),
            )
            layers.append(Layer(layer_elts, terms, name=f"layer-{layer_index:03d}"))
        return ReinsuranceProgram(layers, name="synthetic-program")

    def build_yet(self, catalog: EventCatalog, seeds: SeedSequenceFactory) -> YearEventTable:
        """Stage 4: the Year Event Table."""
        spec = self.spec
        simulator = YETSimulator(catalog)
        if spec.fixed_trial_length:
            return simulator.simulate_fixed_length(
                spec.n_trials, spec.events_per_trial, rng=seeds.rng("yet")
            )
        return simulator.simulate(spec.n_trials, rng=seeds.rng("yet"))

    # ------------------------------------------------------------------ #
    # Entry point
    # ------------------------------------------------------------------ #
    def generate(self) -> AggregateWorkload:
        """Run the full pipeline and return the materialised workload."""
        seeds = SeedSequenceFactory(self.spec.seed)
        catalog = self.build_catalog(seeds)
        elts = self.build_elts(catalog, seeds)
        program = self.build_layers(elts, seeds, catalog)
        yet = self.build_yet(catalog, seeds)
        return AggregateWorkload(
            spec=self.spec, catalog=catalog, yet=yet, program=program, elts=tuple(elts)
        )
