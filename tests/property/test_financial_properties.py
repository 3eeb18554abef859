"""Property-based tests of the financial-term kernels (hypothesis).

The invariants checked here are the contractual facts an actuary would state
about XL terms: monotonicity, boundedness by the limits, and the telescoping
equivalence of the paper's cumulative aggregate-term pass.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.financial.policies import (
    aggregate_terms_shortcut,
    apply_aggregate_terms_cumulative,
    apply_financial_terms,
    apply_occurrence_terms,
)
from repro.financial.terms import FinancialTerms, LayerTerms

losses_arrays = npst.arrays(
    dtype=np.float64,
    shape=st.integers(min_value=0, max_value=200),
    elements=st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False),
)

financial_terms = st.builds(
    FinancialTerms,
    retention=st.floats(min_value=0.0, max_value=1e6),
    limit=st.one_of(st.just(float("inf")), st.floats(min_value=1.0, max_value=1e8)),
    share=st.floats(min_value=0.0, max_value=1.0),
    fx_rate=st.floats(min_value=0.01, max_value=100.0),
)

layer_terms = st.builds(
    LayerTerms,
    occurrence_retention=st.floats(min_value=0.0, max_value=1e6),
    occurrence_limit=st.one_of(st.just(float("inf")), st.floats(min_value=1.0, max_value=1e8)),
    aggregate_retention=st.floats(min_value=0.0, max_value=1e7),
    aggregate_limit=st.one_of(st.just(float("inf")), st.floats(min_value=1.0, max_value=1e9)),
)


def offsets_for(values: np.ndarray, data) -> np.ndarray:
    """Draw a valid CSR offsets array for the given flattened values."""
    n = values.shape[0]
    n_cuts = data.draw(st.integers(min_value=0, max_value=5), label="n_cuts")
    cuts = sorted(data.draw(
        st.lists(st.integers(min_value=0, max_value=n), min_size=n_cuts, max_size=n_cuts),
        label="cuts",
    ))
    return np.array([0, *cuts, n], dtype=np.int64)


class TestFinancialTermsProperties:
    @given(losses=losses_arrays, terms=financial_terms)
    @settings(max_examples=150, deadline=None)
    def test_output_bounded_and_non_negative(self, losses, terms):
        net = apply_financial_terms(losses, terms)
        assert (net >= 0.0).all()
        # share * limit is the cap; 0 * inf is indeterminate, but a zero share
        # means the net loss is identically zero.
        cap = 0.0 if terms.share == 0.0 else terms.share * terms.limit
        assert (net <= cap + 1e-9).all()

    @given(losses=losses_arrays, terms=financial_terms)
    @settings(max_examples=150, deadline=None)
    def test_vectorised_matches_scalar(self, losses, terms):
        net = apply_financial_terms(losses, terms)
        expected = np.array([terms.apply(float(x)) for x in losses])
        np.testing.assert_allclose(net, expected, rtol=1e-12, atol=1e-9)

    @given(losses=losses_arrays, terms=financial_terms)
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_loss(self, losses, terms):
        net = apply_financial_terms(np.sort(losses), terms)
        assert (np.diff(net) >= -1e-9).all()


class TestLayerTermsProperties:
    @given(losses=losses_arrays, terms=layer_terms)
    @settings(max_examples=150, deadline=None)
    def test_occurrence_output_bounded(self, losses, terms):
        occurrence = apply_occurrence_terms(losses, terms)
        assert (occurrence >= 0.0).all()
        assert (occurrence <= terms.occurrence_limit + 1e-9).all()
        assert (occurrence <= losses + 1e-9).all()

    @given(data=st.data(), losses=losses_arrays, terms=layer_terms)
    @settings(max_examples=150, deadline=None)
    def test_shortcut_equals_cumulative_pass(self, data, losses, terms):
        """The telescoped shortcut equals the cumulative pass up to float64 error.

        Take trial t with n_t events.  Let S_t be the sum of |loss| over
        *every* event up to the end of trial t, R the aggregate retention,
        eps = 2**-52 and u = eps / 2 the unit roundoff.

        * The cumulative pass takes within-trial prefixes as differences of
          one global running sum.  Each of the trial's n_t additions rounds
          at the running sum's magnitude, at most S_t, so every prefix is
          off by at most (n_t + 1)·u·S_t.
        * Subtracting R rounds by at most u·(S_t + R); clipping is
          1-Lipschitz and adds nothing.
        * The clipped prefixes are non-decreasing, so the n_t differences
          sum in absolute value to at most S_t.  Differencing and summing
          them adds at most n_t·u·S_t.
        * The shortcut sums the trial alone (off by at most n_t·u·S_t) and
          subtracts R (off by at most u·(S_t + R)).

        Together, to first order in u::

            |shortcut_t - cumulative_t| <= (3·n_t + 3)·u·S_t + 2·u·R

        The test asserts 4·(n_t + 1)·eps·(S_t + R), more than twice that,
        which covers the second-order terms.  S_t must include the earlier
        trials: a 1.0 loss after 2e11 of earlier losses rounds by ~1e-5 in
        the cumulative pass, far beyond any trial-local bound.
        """
        offsets = offsets_for(losses, data)
        shortcut = aggregate_terms_shortcut(losses, offsets, terms)
        cumulative = apply_aggregate_terms_cumulative(losses, offsets, terms)
        n_events = np.diff(offsets)
        prefix = np.concatenate(([0.0], np.cumsum(np.abs(losses))))[offsets[1:]]
        eps = np.finfo(np.float64).eps
        bound = 4 * (n_events + 1) * eps * (prefix + terms.aggregate_retention)
        assert np.all(np.abs(shortcut - cumulative) <= bound)

    @given(data=st.data(), losses=losses_arrays, terms=layer_terms)
    @settings(max_examples=100, deadline=None)
    def test_year_loss_bounded_by_aggregate_limit(self, data, losses, terms):
        offsets = offsets_for(losses, data)
        year = aggregate_terms_shortcut(losses, offsets, terms)
        assert (year >= 0.0).all()
        assert (year <= terms.aggregate_limit + 1e-9).all()

    @given(losses=losses_arrays, terms=layer_terms)
    @settings(max_examples=100, deadline=None)
    def test_tighter_retention_never_increases_loss(self, losses, terms):
        looser = apply_occurrence_terms(losses, terms)
        tighter_terms = LayerTerms(
            occurrence_retention=terms.occurrence_retention * 2 + 1.0,
            occurrence_limit=terms.occurrence_limit,
            aggregate_retention=terms.aggregate_retention,
            aggregate_limit=terms.aggregate_limit,
        )
        tighter = apply_occurrence_terms(losses, tighter_terms)
        assert (tighter <= looser + 1e-9).all()
