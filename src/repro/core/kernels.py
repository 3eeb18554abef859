"""Vectorised aggregate-analysis kernels.

These functions are the NumPy translation of the per-trial body of the
paper's basic algorithm (lines 3–19) operating on *all* trials of a Year
Event Table at once (or on a contiguous chunk of its flattened events).  They
are shared by the vectorized, chunked, multicore and simulated-GPU backends —
the backends differ only in *how* they partition the work, not in the maths.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.core.phases import (
    PHASE_ELT_LOOKUP,
    PHASE_EVENT_FETCH,
    PHASE_FINANCIAL_TERMS,
    PHASE_LAYER_TERMS,
)
from repro.elt.combined import LayerLossMatrix
from repro.financial.policies import (
    aggregate_terms_shortcut,
    aggregate_terms_shortcut_batch,
    apply_aggregate_terms_cumulative,
    apply_aggregate_terms_cumulative_batch,
    apply_financial_terms_matrix,
    apply_occurrence_terms,
    apply_occurrence_terms_batch,
    clip_aggregate_totals,
)
from repro.financial.terms import LayerTerms, LayerTermsVectors
from repro.utils.arrays import (
    segment_max,
    segment_max_2d,
    segment_sum_2d,
    validate_offsets,
)
from repro.utils.timing import PhaseTimer

__all__ = [
    "combined_event_losses",
    "layer_trial_losses",
    "layer_trial_losses_chunked",
    "build_layer_loss_stack",
    "layer_trial_losses_batch",
    "layer_trial_losses_per_layer",
    "replication_portfolio_losses",
]


def combined_event_losses(
    matrix: LayerLossMatrix,
    event_ids: np.ndarray,
    timer: PhaseTimer | None = None,
) -> np.ndarray:
    """Per-event losses combined across a layer's ELTs, net of financial terms.

    This covers lines 3–9 of the basic algorithm: gather every event's loss
    from every ELT (the random direct-access-table lookups), apply the per-ELT
    financial terms ``I`` and sum across ELTs.

    Parameters
    ----------
    matrix:
        The layer's dense loss matrix.
    event_ids:
        Flattened event ids (any number of trials' events concatenated).
    timer:
        Optional phase timer (``elt_lookup`` / ``financial_terms`` phases).
    """
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    with timer.phase(PHASE_ELT_LOOKUP):
        gathered = matrix.gather(event_ids)
    with timer.phase(PHASE_FINANCIAL_TERMS):
        net = apply_financial_terms_matrix(
            gathered, matrix.retentions, matrix.limits, matrix.shares, matrix.fx_rates
        )
        combined = net.sum(axis=0)
    return combined


def layer_trial_losses(
    matrix: LayerLossMatrix,
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    terms: LayerTerms,
    use_shortcut: bool = True,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Year losses (and optional per-trial maximum occurrence losses) of one layer.

    The full vectorised pipeline: event fetch -> ELT lookup -> financial terms
    -> occurrence terms -> aggregate terms, over every trial delimited by
    ``trial_offsets``.

    Returns
    -------
    (year_losses, max_occurrence_losses):
        ``year_losses`` has one entry per trial; ``max_occurrence_losses`` is
        ``None`` unless ``record_max_occurrence`` is set.
    """
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    with timer.phase(PHASE_EVENT_FETCH):
        # The YET is already resident; "fetching" is materialising the flat
        # event-id view the gathers will consume (a contiguous copy mirrors
        # the engine reading the trial's events from the in-memory table).
        ids = np.ascontiguousarray(event_ids, dtype=np.int64)

    combined = combined_event_losses(matrix, ids, timer)

    with timer.phase(PHASE_LAYER_TERMS):
        occurrence = apply_occurrence_terms(combined, terms)
        if use_shortcut:
            year_losses = aggregate_terms_shortcut(occurrence, trial_offsets, terms)
        else:
            year_losses = apply_aggregate_terms_cumulative(occurrence, trial_offsets, terms)
        max_occurrence = (
            segment_max(occurrence, trial_offsets) if record_max_occurrence else None
        )
    return year_losses, max_occurrence


def layer_trial_losses_per_layer(
    matrices: Sequence[LayerLossMatrix],
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    terms: Sequence[LayerTerms],
    use_shortcut: bool = True,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
    chunk_events: int | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Year losses of many layers, one kernel call per layer.

    The ``fused_layers=False`` ablation of :func:`layer_trial_losses_batch`
    (same outputs, same shapes): each layer re-gathers the events against
    its own dense matrix, through :func:`layer_trial_losses` or, with
    ``chunk_events``, :func:`layer_trial_losses_chunked`.
    """
    n_trials = len(trial_offsets) - 1
    losses = np.zeros((len(matrices), n_trials), dtype=np.float64)
    max_occurrence = (
        np.zeros((len(matrices), n_trials), dtype=np.float64)
        if record_max_occurrence
        else None
    )
    options = dict(
        use_shortcut=use_shortcut, record_max_occurrence=record_max_occurrence, timer=timer
    )
    for row, (matrix, layer_terms) in enumerate(zip(matrices, terms)):
        if chunk_events is None:
            year_losses, trial_max = layer_trial_losses(
                matrix, event_ids, trial_offsets, layer_terms, **options
            )
        else:
            year_losses, trial_max = layer_trial_losses_chunked(
                matrix, event_ids, trial_offsets, layer_terms, chunk_events, **options
            )
        losses[row] = year_losses
        if max_occurrence is not None and trial_max is not None:
            max_occurrence[row] = trial_max
    return losses, max_occurrence


def replication_portfolio_losses(year_losses: np.ndarray, n_layers: int) -> np.ndarray:
    """Per-replication portfolio year losses from fused replication rows.

    The replication-batched uncertainty engine prices ``R`` sampled program
    realisations as ``R * n_layers`` fused rows (replication-major).  This
    reduces that ``(R * n_layers, n_trials)`` year-loss matrix to the
    ``(R, n_trials)`` per-replication portfolio losses, summing each
    replication's layer block with exactly the reduction
    :meth:`~repro.ylt.table.YearLossTable.portfolio_losses` applies to a
    single program's YLT — so a batched replication reproduces the replay
    loop's portfolio losses bit for bit.
    """
    losses = np.asarray(year_losses, dtype=np.float64)
    if losses.ndim != 2:
        raise ValueError(f"year_losses must be 2-D, got shape {losses.shape}")
    if n_layers <= 0:
        raise ValueError(f"n_layers must be positive, got {n_layers}")
    if losses.shape[0] % n_layers:
        raise ValueError(
            f"{losses.shape[0]} fused rows do not divide into layers of {n_layers}"
        )
    n_replications = losses.shape[0] // n_layers
    # Reducing the middle axis of the (R, n_layers, n_trials) view adds the
    # layer rows sequentially per replication — the same accumulation order
    # as portfolio_losses' sum over axis 0 of each (n_layers, n_trials) block.
    losses = np.ascontiguousarray(losses)
    return losses.reshape(n_replications, n_layers, -1).sum(axis=1)


def build_layer_loss_stack(
    matrices: Sequence[LayerLossMatrix],
    timer: PhaseTimer | None = None,
) -> np.ndarray:
    """Stack every layer's term-netted dense losses into one matrix.

    Row ``i`` of the returned ``(n_layers, catalog_size)`` float64 matrix is
    layer ``i``'s per-catalog-entry loss net of its ELTs' financial terms,
    already combined across the layer's ELTs
    (:meth:`~repro.elt.combined.LayerLossMatrix.combined_net_losses`).  The
    financial terms depend only on the dense loss values, never on the trial,
    so applying them to the catalog axis once — instead of to every gathered
    occurrence, layer by layer — is what makes the fused multi-layer path
    cheap: the per-trial work left is a single ``(n_layers, n_events)``
    gather plus the layer terms.
    """
    if not matrices:
        raise ValueError("at least one layer loss matrix is required")
    catalog_sizes = {matrix.catalog_size for matrix in matrices}
    if len(catalog_sizes) != 1:
        raise ValueError(
            f"all layers must share one catalog size, got {sorted(catalog_sizes)}"
        )
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    catalog_size = catalog_sizes.pop()
    stack = np.empty((len(matrices), catalog_size), dtype=np.float64)
    with timer.phase(PHASE_FINANCIAL_TERMS):
        for row, matrix in enumerate(matrices):
            stack[row] = matrix.combined_net_losses()
    return stack


def layer_trial_losses_batch(
    matrices: Sequence[LayerLossMatrix],
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    terms: Sequence[LayerTerms] | LayerTermsVectors,
    use_shortcut: bool = True,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
    chunk_events: int | None = None,
    stack: np.ndarray | None = None,
    row_map: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Year losses of *all* layers in one fused pass over the YET.

    Instead of re-gathering the event-id array against each layer's dense
    loss matrix separately (the per-layer loop of :func:`layer_trial_losses`),
    the layers' term-netted dense losses are stacked into one
    ``(n_layers, catalog_size)`` matrix, the whole YET is gathered from it
    with a single fancy-indexing operation, and the occurrence/aggregate
    terms are applied as broadcast expressions over the resulting
    ``(n_layers, n_events)`` matrix.

    Parameters
    ----------
    matrices:
        One dense loss matrix per layer (ignored when ``stack`` is given).
    terms:
        Per-layer :class:`LayerTerms` (or an already-stacked
        :class:`LayerTermsVectors`).
    chunk_events:
        When given, the stream is processed in trial-aligned chunks of about
        this many event occurrences, so the working set stays bounded at
        roughly ``(n_layers, chunk_events)`` doubles plus the outputs (the
        fused analogue of :func:`layer_trial_losses_chunked`).  Chunks are
        cut at trial boundaries only — no trial ever straddles a chunk — so
        every per-trial reduction happens inside one chunk and the streamed
        result is *bit-identical* to the unchunked gather for any chunk size
        (a single trial larger than ``chunk_events`` is processed whole).
        Only the shortcut aggregate pass supports streaming
        (``use_shortcut=False`` with ``chunk_events`` raises).
    stack:
        Optional precomputed :func:`build_layer_loss_stack` result; pass it
        when the same layers are priced repeatedly (or when the stack is
        shared with worker processes).
    row_map:
        Optional ``(n_layers,)`` int array mapping each output row to a row
        of a *deduplicated* stack: when many layers share one term-netted
        loss row (candidate-term variants of the same exposure), the stack
        holds each distinct row once and ``row_map`` expands the gathered
        values back to per-layer rows before the layer terms are applied.
        The expansion copies identical floats, so results are bit-identical
        to gathering from the fully expanded stack.  Without ``row_map`` the
        stack must carry one row per layer.

    Returns
    -------
    (year_losses, max_occurrence_losses):
        ``year_losses`` has shape ``(n_layers, n_trials)``;
        ``max_occurrence_losses`` matches it, or is ``None`` unless
        ``record_max_occurrence`` is set.
    """
    timer = timer if timer is not None else PhaseTimer(enabled=False)
    vectors = terms if isinstance(terms, LayerTermsVectors) else LayerTermsVectors.from_terms(terms)
    if stack is None:
        stack = build_layer_loss_stack(matrices, timer)
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 2:
        raise ValueError(f"stack must be 2-D (n_layers, catalog_size), got shape {stack.shape}")
    if row_map is not None:
        row_map = np.ascontiguousarray(row_map, dtype=np.int64)
        if row_map.ndim != 1 or row_map.shape[0] != vectors.n_layers:
            raise ValueError(
                f"row_map must have one entry per layer ({vectors.n_layers}), "
                f"got shape {row_map.shape}"
            )
        if row_map.size and (row_map.min() < 0 or row_map.max() >= stack.shape[0]):
            raise IndexError("row_map indices out of range of the stack")
    elif stack.shape[0] != vectors.n_layers:
        raise ValueError(
            f"stack has {stack.shape[0]} layers but terms describe {vectors.n_layers}"
        )
    catalog_size = stack.shape[1]

    with timer.phase(PHASE_EVENT_FETCH):
        ids = np.ascontiguousarray(event_ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= catalog_size):
        raise IndexError("event ids out of range of the catalog")

    if chunk_events is not None:
        if chunk_events <= 0:
            raise ValueError(f"chunk_events must be positive, got {chunk_events}")
        if not use_shortcut:
            raise ValueError(
                "the cumulative aggregate pass needs whole trials in memory; "
                "chunk_events requires use_shortcut=True"
            )
        return _layer_trial_losses_batch_streamed(
            stack, ids, trial_offsets, vectors, int(chunk_events),
            record_max_occurrence, timer, row_map=row_map,
        )

    with timer.phase(PHASE_ELT_LOOKUP):
        combined = stack[:, ids]
        if row_map is not None:
            # Expand the deduplicated gather to one row per layer; the copy
            # reproduces the expanded-stack gather bit for bit.
            combined = combined[row_map]

    with timer.phase(PHASE_LAYER_TERMS):
        # The gather is a fresh scratch buffer, so the occurrence terms can
        # transform it in place — peak memory stays at one full-size matrix.
        occurrence = apply_occurrence_terms_batch(combined, vectors, out=combined)
        if use_shortcut:
            year_losses = aggregate_terms_shortcut_batch(occurrence, trial_offsets, vectors)
        else:
            year_losses = apply_aggregate_terms_cumulative_batch(
                occurrence, trial_offsets, vectors
            )
        max_occurrence = (
            segment_max_2d(occurrence, trial_offsets) if record_max_occurrence else None
        )
    return year_losses, max_occurrence


def _layer_trial_losses_batch_streamed(
    stack: np.ndarray,
    ids: np.ndarray,
    trial_offsets: np.ndarray,
    vectors: LayerTermsVectors,
    chunk_events: int,
    record_max_occurrence: bool,
    timer: PhaseTimer,
    row_map: np.ndarray | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Bounded-memory fused pass over trial-aligned event chunks.

    Each chunk is the longest run of *whole* trials whose events fit in
    ``chunk_events`` (always at least one trial, so an oversized trial is
    processed whole rather than split).  Because no trial straddles a chunk,
    every per-trial reduction happens entirely inside one chunk and the
    streamed result is bit-identical to the unchunked gather — the property
    that lets trial shards of the chunked backend merge exactly, regardless
    of where the shard (and hence the chunk grid) boundaries fall.
    """
    offsets = validate_offsets(np.asarray(trial_offsets), ids.shape[0])
    n_layers = vectors.n_layers
    n_trials = offsets.size - 1
    totals = np.zeros((n_layers, n_trials), dtype=np.float64)
    max_occurrence = (
        np.zeros((n_layers, n_trials), dtype=np.float64)
        if record_max_occurrence
        else None
    )

    t0 = 0
    while t0 < n_trials:
        # Furthest trial whose last event still fits in the chunk budget
        # (but at least one trial, to guarantee progress).
        t1 = int(np.searchsorted(offsets, offsets[t0] + chunk_events, side="right")) - 1
        t1 = min(max(t1, t0 + 1), n_trials)
        start, stop = int(offsets[t0]), int(offsets[t1])
        with timer.phase(PHASE_ELT_LOOKUP):
            gathered = stack[:, ids[start:stop]]
            if row_map is not None:
                gathered = gathered[row_map]
        with timer.phase(PHASE_LAYER_TERMS):
            occurrence = apply_occurrence_terms_batch(gathered, vectors, out=gathered)
            local = offsets[t0 : t1 + 1] - start
            totals[:, t0:t1] = segment_sum_2d(occurrence, local)
            if max_occurrence is not None:
                max_occurrence[:, t0:t1] = segment_max_2d(occurrence, local)
        t0 = t1

    with timer.phase(PHASE_LAYER_TERMS):
        year_losses = clip_aggregate_totals(totals, vectors)
    return year_losses, max_occurrence


def layer_trial_losses_chunked(
    matrix: LayerLossMatrix,
    event_ids: np.ndarray,
    trial_offsets: np.ndarray,
    terms: LayerTerms,
    chunk_events: int,
    use_shortcut: bool = True,
    record_max_occurrence: bool = True,
    timer: PhaseTimer | None = None,
) -> Tuple[np.ndarray, np.ndarray | None]:
    """Chunked variant of :func:`layer_trial_losses`.

    The flattened event stream is processed in chunks of ``chunk_events``
    occurrences so that the ``(n_elts, chunk_events)`` gather buffer — the
    working set — stays bounded regardless of the YET size.  This is the CPU
    analogue of the optimised GPU kernel's shared-memory staging: the combined
    per-event losses are accumulated into a single 1-D array and the layer
    terms are applied once at the end.
    """
    if chunk_events <= 0:
        raise ValueError(f"chunk_events must be positive, got {chunk_events}")
    timer = timer if timer is not None else PhaseTimer(enabled=False)

    with timer.phase(PHASE_EVENT_FETCH):
        ids = np.ascontiguousarray(event_ids, dtype=np.int64)
    total = ids.shape[0]
    combined = np.empty(total, dtype=np.float64)

    for start in range(0, total, int(chunk_events)):
        stop = min(start + int(chunk_events), total)
        chunk_ids = ids[start:stop]
        with timer.phase(PHASE_ELT_LOOKUP):
            gathered = matrix.gather(chunk_ids)
        with timer.phase(PHASE_FINANCIAL_TERMS):
            net = apply_financial_terms_matrix(
                gathered, matrix.retentions, matrix.limits, matrix.shares, matrix.fx_rates
            )
            combined[start:stop] = net.sum(axis=0)

    with timer.phase(PHASE_LAYER_TERMS):
        occurrence = apply_occurrence_terms(combined, terms)
        if use_shortcut:
            year_losses = aggregate_terms_shortcut(occurrence, trial_offsets, terms)
        else:
            year_losses = apply_aggregate_terms_cumulative(occurrence, trial_offsets, terms)
        max_occurrence = (
            segment_max(occurrence, trial_offsets) if record_max_occurrence else None
        )
    return year_losses, max_occurrence
