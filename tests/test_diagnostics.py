import math
from fractions import Fraction

import numpy as np
import pytest

from weighted_ensemble import (
    BinPartition,
    Distribution,
    Ensemble,
    NaivePolicy,
    Observable,
    TraditionalPolicy,
    SourceSinkSpec,
    TransitionMatrix,
    select,
    source_sink_kernel,
)
from weighted_ensemble.diagnostics import (
    GSequence,
    backward,
    g_sequence,
    mutation_variance_term,
    run_checks,
    selection_variance_term,
)
from weighted_ensemble.experiment import ChainSetup, run_sweep_cell


@pytest.fixture
def f01():
    return Observable(np.array([0.0, 1.0]))


def expected_c_squared(beta: np.ndarray) -> np.ndarray:
    """E[C^2] under stochastic rounding with mean beta: floor^2 + (2 floor + 1) frac.
    The reference for `selection_variance_term`'s Var C = frac (1 - frac)."""
    beta = np.asarray(beta, dtype=float)
    low = np.floor(beta)
    return low**2 + (2.0 * low + 1.0) * (beta - low)


class TestGSequence:
    def test_horizon_zero_is_f(self, two_state, f01):
        g = g_sequence(two_state, f01, 0)
        assert np.array_equal(g.g[0], f01.values)

    def test_constant_f_stays_constant(self, two_state):
        g = g_sequence(two_state, Observable(np.ones(2)), 4)
        assert np.allclose(g.g, 1.0)
        assert np.allclose(g.local_var, 0.0)

    def test_two_state_hand_value(self, two_state, f01):
        g = g_sequence(two_state, f01, 1)
        assert np.allclose(g.g[0], [0.1, 0.8])

    def test_initial_expectation_matches_matrix_power(self, setup):
        n = 7
        g = g_sequence(setup.K, setup.f, n)
        nu0 = np.full(90, 1 / 90)
        exact = nu0 @ np.linalg.matrix_power(setup.K.to_dense(), n) @ setup.f.values
        assert abs(float(nu0 @ g.g[0]) - exact) <= 1e-12

    def test_local_var_nonnegative(self, setup):
        g = g_sequence(setup.K, setup.f, 10)
        assert g.local_var.min() >= 0.0

    def test_steps_match_apply_bit_for_bit(self, setup):
        # the recursions give the bits of K g written out: a gather, a
        # product and a row sum by a product with ones, one step at a time
        spec = SourceSinkSpec(setup.K, frozenset(range(80, 90)),
                              Distribution.point_mass(0, 90))
        for K in (setup.K, source_sink_kernel(spec)):
            n = 40
            seq = g_sequence(K, setup.f, n)
            g = np.empty((n + 1, K.n_states))
            g[n] = setup.f.values
            ones = np.ones(K.probs.shape[1])
            for p in range(n - 1, -1, -1):
                g[p] = (K.probs * g[p + 1][K.columns]) @ ones
            kg2 = np.array([(K.probs * (g[p + 1] ** 2)[K.columns]) @ ones
                            for p in range(n)])
            assert seq.g.tobytes() == g.tobytes()
            assert seq.local_var.tobytes() == np.maximum(kg2 - g[:n] ** 2, 0.0).tobytes()
            assert backward(K, setup.f, n).tobytes() == g.tobytes()


class TestMutationVarianceTerm:
    def test_identity_kernel_gives_zero(self, f01):
        K = TransitionMatrix.from_dense(np.eye(2))
        g = g_sequence(K, f01, 2)
        e = Ensemble(0, np.array([0, 1]), np.array([0.5, 0.5]))
        out = select(e, NaivePolicy())
        assert mutation_variance_term(out, g, 0) == 0.0

    def test_constant_f_gives_zero(self, two_state):
        g = g_sequence(two_state, Observable(np.ones(2)), 3)
        e = Ensemble(0, np.array([0, 1]), np.array([0.5, 0.5]))
        out = select(e, NaivePolicy())
        for p in range(3):
            assert mutation_variance_term(out, g, p) == 0.0

    def test_single_particle_hand_value(self, two_state, f01):
        # weight-1 particle at the first state, one step to go: 0.1 - 0.01
        g = g_sequence(two_state, f01, 1)
        e = Ensemble(0, np.array([0]), np.array([1.0]))
        out = select(e, NaivePolicy())
        assert mutation_variance_term(out, g, 0) == pytest.approx(0.09)

    def test_p_out_of_range(self, two_state, f01):
        g = g_sequence(two_state, f01, 1)
        e = Ensemble(0, np.array([0]), np.array([1.0]))
        out = select(e, NaivePolicy())
        with pytest.raises(ValueError):
            mutation_variance_term(out, g, 1)


class TestExpectedCSquared:
    def test_integer_beta(self):
        assert np.array_equal(expected_c_squared(np.array([0.0, 1.0, 3.0])), [0, 1, 9])

    def test_closed_form_matches_simulation(self):
        from weighted_ensemble.engine import stochastic_round

        beta = 1.7
        rng = np.random.default_rng(3)
        draws = stochastic_round(np.full(300_000, beta), rng.random(300_000)).astype(float)
        exact = float(expected_c_squared(np.array([beta]))[0])
        se = (draws**2).std(ddof=1) / np.sqrt(draws.size)
        assert abs((draws**2).mean() - exact) <= 4 * se

    def test_is_minimal_over_two_point_laws(self):
        # any integer law with mean beta has E[C^2] >= the stochastic-rounding value
        beta = 2.3
        base = float(expected_c_squared(np.array([beta]))[0])
        # law on {1, 4}: p*4 + (1-p)*1 = beta -> p = (beta-1)/3
        p = (beta - 1) / 3
        assert p * 16 + (1 - p) * 1 > base


class TestSelectionVarianceTerm:
    def test_naive_is_zero(self, two_state, f01):
        g = g_sequence(two_state, f01, 2)
        e = Ensemble(0, np.array([0, 1]), np.array([0.5, 0.5]))
        assert selection_variance_term(e, np.ones(2), g, 0) == 0.0

    def test_integer_betas_are_zero(self, two_state, f01):
        g = g_sequence(two_state, f01, 2)
        e = Ensemble(0, np.array([0, 1]), np.array([0.5, 0.5]))
        assert selection_variance_term(e, np.array([2.0, 3.0]), g, 1) == 0.0

    def test_half_beta_hand_value(self, f01):
        # one particle, w = 1, beta = 0.5, g_p = 1 -> E[C^2]/beta^2 - 1 = 1
        K = TransitionMatrix.from_dense(np.eye(2))
        g = g_sequence(K, Observable(np.array([1.0, 0.0])), 1)
        e = Ensemble(0, np.array([0]), np.array([1.0]))
        assert selection_variance_term(e, np.array([0.5]), g, 0) == pytest.approx(1.0)

    def test_zero_beta_is_an_error(self, two_state, f01):
        g = g_sequence(two_state, f01, 1)
        e = Ensemble(0, np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            selection_variance_term(e, np.array([0.0]), g, 0)

    def test_nonnegative_for_random_ensembles(self, setup):
        g = g_sequence(setup.K, setup.f, 5)
        rng = np.random.default_rng(0)
        for _ in range(20):
            m = rng.integers(1, 30)
            e = Ensemble(0, rng.integers(0, 90, m), rng.random(m) + 0.01)
            beta = rng.random(m) * 3 + 0.01
            assert selection_variance_term(e, beta, g, 2) >= 0.0

    @pytest.mark.parametrize("kind", ["integer", "below_one", "large"])
    def test_closed_form_against_exact_arithmetic(self, kind):
        """Against w^2 (E[C^2] - beta^2) / beta^2 g^2 in exact rationals of
        the same floats. Each term takes 6 roundings and the sum of n
        nonnegative terms n more, so (n + 6) eps bounds the relative error."""
        rng = np.random.default_rng(["integer", "below_one", "large"].index(kind))
        n = 40
        beta = {"integer": rng.integers(1, 9, n).astype(float),
                "below_one": rng.uniform(0.01, 1.0, n),
                "large": 1e6 + 0.5 + rng.uniform(-0.25, 0.25, n)}[kind]
        e = Ensemble(0, rng.integers(0, 5, n), rng.uniform(0.01, 1.0, n))
        gp = rng.normal(size=5)
        g = GSequence(g=np.array([gp, gp]), local_var=np.zeros((1, 5)))
        got = float(selection_variance_term(e, beta, g, 0)[0])

        def exact_term(w, b, x):
            w, b, x = Fraction(w), Fraction(b), Fraction(x)
            low = Fraction(math.floor(b))
            c2 = low**2 + (2 * low + 1) * (b - low)
            return w**2 * (c2 - b**2) / b**2 * x**2

        exact = sum(exact_term(*t) for t in zip(e.weights, beta, gp[e.states]))
        if kind == "integer":
            assert exact == 0 and got == 0.0
            return
        assert abs(Fraction(got) - exact) <= (n + 6) * Fraction(np.finfo(float).eps) * exact
        if kind == "large":  # where the form E[C^2] / beta^2 - 1 cancels
            old = float(np.sum(e.weights**2 * (expected_c_squared(beta) / beta**2 - 1.0)
                               * gp[e.states] ** 2))
            assert abs(Fraction(old) - exact) > 1e-6 * exact


class TestOptimalAllocation:
    def test_identical_particles_share_equally(self, two_state, f01, optimal_allocation):
        g = g_sequence(two_state, f01, 2)
        e = Ensemble(0, np.zeros(4, np.int64), np.full(4, 0.25))
        beta = optimal_allocation(e, g, 0, 8.0)
        assert np.allclose(beta, 2.0)

    def test_ratio_follows_local_standard_deviations(self, optimal_allocation):
        # two equal-weight particles with local std devs 0.3 and 0.1 -> (3, 1)
        g = GSequence(
            g=np.zeros((2, 2)),
            local_var=np.array([[0.09, 0.01]]),
        )
        e = Ensemble(0, np.array([0, 1]), np.array([0.5, 0.5]))
        beta = optimal_allocation(e, g, 0, 4.0)
        assert np.allclose(beta, [3.0, 1.0])

    def test_sums_to_total(self, setup, init150, optimal_allocation):
        g = g_sequence(setup.K, setup.f, 10)
        beta = optimal_allocation(init150, g, 3, 150.0)
        assert beta.sum() == pytest.approx(150.0)

    def test_zero_denominator_errors(self, two_state, optimal_allocation):
        g = g_sequence(two_state, Observable(np.ones(2)), 2)
        e = Ensemble(0, np.array([0]), np.array([1.0]))
        with pytest.raises(ValueError):
            optimal_allocation(e, g, 0, 4.0)

    def test_achieves_the_lagrange_minimum_value(self, setup, init150, optimal_allocation,
                                                 conditional_mutation_variance):
        g = g_sequence(setup.K, setup.f, 10)
        p = 4
        beta = optimal_allocation(init150, g, p, 150.0)
        achieved = conditional_mutation_variance(init150, beta, g, p)
        score = init150.weights * np.sqrt(g.local_var[p][init150.states])
        assert achieved == pytest.approx(score.sum() ** 2 / 150.0)

    def test_beats_uniform_per_bin_allocation(self, setup, init150, optimal_allocation,
                                              conditional_mutation_variance):
        # at p = n-1 the local variances differ across bins, so the optimal
        # allocation is strictly better than five children per bin
        n = 10
        g = g_sequence(setup.K, setup.f, n)
        p = n - 1
        from weighted_ensemble import TraditionalPolicy

        beta_trad = select(
            init150, TraditionalPolicy(setup.bins, 5.0),
            u=np.random.default_rng(0).random(150),
        ).mean_children
        beta_opt = optimal_allocation(init150, g, p, float(beta_trad.sum()))
        var_opt = conditional_mutation_variance(init150, beta_opt, g, p)
        var_trad = conditional_mutation_variance(init150, beta_trad, g, p)
        assert var_opt < var_trad


def checks(setup, policy, init, n, reps, seed):
    """run_checks on the cell of run_sweep_cell(..., doob=True) at horizon n."""
    [res] = run_sweep_cell(setup, init, policy, (n,), reps, seed, doob=True)
    return run_checks(res)


@pytest.fixture
def two_state_setup(two_state, f01):
    return ChainSetup(K=two_state, bins=BinPartition(np.arange(2)), f=f01)


class TestChecks:
    def test_unbiasedness_requires_reps(self, setup, init150):
        with pytest.raises(ValueError):
            checks(setup, NaivePolicy(), init150, 1, 10, 0)

    def test_unbiasedness_naive_small(self, two_state_setup, init_ensemble):
        init = init_ensemble(Distribution(np.array([0.5, 0.5])), 20)
        report, _ = checks(two_state_setup, NaivePolicy(), init, 3, 500, 1)
        assert report.passed and report.check == "unbiasedness"

    def test_doob_identity_horizon_zero_is_exact(self, two_state_setup, init_ensemble):
        init = init_ensemble(Distribution(np.array([0.5, 0.5])), 10)
        _, report = checks(two_state_setup, NaivePolicy(), init, 0, 200, 2)
        assert report.passed and report.check == "doob_identity"
        assert report.value == pytest.approx(report.reference)

    def test_doob_identity_single_walker(self, two_state_setup, init_ensemble):
        init = init_ensemble(Distribution.point_mass(0, 2), 1)
        _, report = checks(two_state_setup, NaivePolicy(), init, 4, 2000, 3)
        assert report.passed

    def test_doob_identity_traditional_policy(self, two_state_setup, init_ensemble):
        init = init_ensemble(Distribution(np.array([0.5, 0.5])), 10)
        policy = TraditionalPolicy(two_state_setup.bins, 5.0)
        _, report = checks(two_state_setup, policy, init, 4, 2000, 4)
        assert report.passed
