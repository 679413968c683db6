import numpy as np
import pytest

from weighted_ensemble import (
    BinPartition,
    Observable,
    TransitionMatrix,
    build_coarse_exact,
    build_coarse_mc,
    build_coarse_model,
    compute_v,
    stationary,
)


class TestBuildCoarseExact:
    def test_one_state_per_bin_is_identity_coarsening(self, two_state):
        bins = BinPartition(np.arange(2))
        f = Observable(np.array([0.3, -1.2]))
        P, u = build_coarse_exact(two_state, bins, f)
        assert np.allclose(P.to_dense(), two_state.to_dense())
        assert np.allclose(u, f.values)

    def test_constant_f_gives_constant_u(self, setup):
        f = Observable(np.full(90, 2.5))
        _, u = build_coarse_exact(setup.K, setup.bins, f)
        assert np.allclose(u, 2.5)

    def test_single_bin_collapses_to_one(self, two_state):
        bins = BinPartition(np.zeros(2, np.int64))
        f = Observable(np.array([0.0, 1.0]))
        P, u = build_coarse_exact(two_state, bins, f)
        assert np.allclose(P.to_dense(), [[1.0]])
        assert np.allclose(u, [0.5])

    def test_three_well_u_is_bin_fraction_inside_support(self, model30):
        # f = indicator of states 28..33; bins 10 and 11 lie fully inside
        assert model30.u[9] == 1.0 and model30.u[10] == 1.0
        assert model30.u[8] == 0.0
        assert np.allclose(np.delete(model30.u, [9, 10]), 0.0)


class TestBuildCoarseMC:
    def test_matches_exact_builder_within_ci(self, two_state):
        bins = BinPartition(np.arange(2))
        f = Observable(np.array([0.0, 1.0]))
        P, u = build_coarse_exact(two_state, bins, f)
        total = 1_000_000
        Pm, um = build_coarse_mc(
            two_state, bins, f, total,
            np.random.default_rng(0),
        )
        visits = total / 2  # stratified: half the budget starts in each bin
        ci = 3 * np.sqrt(np.maximum(P.to_dense() * (1 - P.to_dense()), 1e-12) / visits)
        assert np.all(np.abs(Pm.to_dense() - P.to_dense()) <= ci)
        assert np.allclose(um, u)  # u is deterministic given stratified starts

    def test_permutation_kernel_exact_after_one_sample_per_state(self):
        K = TransitionMatrix.from_dense(np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=float))
        bins = BinPartition(np.arange(3))
        P, _ = build_coarse_mc(
            K, bins, Observable(np.zeros(3)), 3,
            np.random.default_rng(0),
        )
        assert np.allclose(P.to_dense(), K.to_dense())

    def test_indicator_of_bin_gives_unit_u(self, setup):
        f = Observable.indicator(setup.bins.states_in(4), 90)
        _, u = build_coarse_mc(
            setup.K, setup.bins, f, 9000,
            np.random.default_rng(1),
        )
        expected = np.zeros(30)
        expected[4] = 1.0
        assert np.allclose(u, expected)

    def test_budget_below_bin_count_errors(self, setup):
        with pytest.raises(ValueError):
            build_coarse_mc(
                setup.K, setup.bins, setup.f, 10,
                np.random.default_rng(0),
            )

    def test_least_budget_starts_a_step_in_every_bin(self):
        # the bins' first states are 0, 1 and 4: a budget below the state
        # count starts one step from each of its first states, so 5 reaches
        # every bin and 4 leaves bin 3 unsampled
        K = TransitionMatrix.from_dense(np.full((6, 6), 1 / 6))
        bins = BinPartition(np.array([0, 1, 0, 1, 2, 2]))
        f = Observable(np.zeros(6))
        P, _ = build_coarse_mc(K, bins, f, 5, np.random.default_rng(0))
        assert np.allclose(P.to_dense().sum(axis=1), 1.0)
        with pytest.raises(ValueError, match="samples every bin is 5"):
            build_coarse_mc(K, bins, f, 4, np.random.default_rng(0))

    def test_error_rate_scales_with_budget(self, setup):
        exact, _ = build_coarse_exact(setup.K, setup.bins, setup.f)
        errs = []
        for total in (10_000, 1_000_000):
            Pm, _ = build_coarse_mc(
                setup.K, setup.bins, setup.f, total,
                np.random.default_rng(2),
            )
            errs.append(np.abs(Pm.to_dense() - exact.to_dense()).max())
        # 100x more samples should shrink the error roughly 10x; allow slack
        assert errs[1] < errs[0] / 3


class TestComputeV:
    def test_constant_u_gives_zero(self, two_state):
        v = compute_v(two_state, np.full(2, 3.0), 5)
        assert np.allclose(v, 0.0)

    def test_last_generation_hand_value(self, two_state):
        # v_{n-1} = P u^2 - (P u)^2 with u = (0, 1)
        v = compute_v(two_state, np.array([0.0, 1.0]), 1)
        assert np.allclose(v[0], [0.1 - 0.01, 0.8 - 0.64])

    def test_requires_horizon_at_least_one(self, two_state):
        with pytest.raises(ValueError):
            compute_v(two_state, np.zeros(2), 0)

    def test_matches_fine_scale_quantity_with_trivial_binning(self, setup):
        n = 6
        bins = BinPartition(np.arange(90))
        P, u = build_coarse_exact(setup.K, bins, setup.f)
        v = compute_v(P, u, n)
        K = setup.K.to_dense()
        g = np.empty((n + 1, 90))
        g[n] = setup.f.values
        for p in range(n - 1, -1, -1):
            g[p] = K @ g[p + 1]
        for p in range(n):
            exact = K @ (g[p + 1] ** 2) - g[p] ** 2
            assert np.abs(v[p] - np.maximum(exact, 0.0)).max() <= 1e-10

    def test_bit_identical_to_vector_recursion(self, model30):
        # w_k = P^k u forward, then v[p] = P w_{n-p-1}^2 - w_{n-p}^2, clamped,
        # with the kernel's own product
        P, u = model30.P, model30.u
        for n in (1, 5, 30):
            w = [u]
            for _ in range(n):
                w.append(P.apply(w[-1]))
            ref = np.array([P.apply(w[n - p - 1] ** 2) - w[n - p] ** 2
                            for p in range(n)])
            assert np.array_equal(compute_v(model30.P, u, n), np.maximum(ref, 0.0))

    def test_shorter_horizon_is_the_tail_of_a_longer_one(self, model30):
        # the runner reads horizon n's table as the last n rows of the model's
        table = compute_v(model30.P, model30.u, 30)
        for n in range(1, 31):
            assert np.array_equal(compute_v(model30.P, model30.u, n), table[30 - n:])

    def test_nonnegative_on_benchmark_model(self, model30):
        assert model30.v.shape == (30, 30)
        assert model30.v.min() >= 0.0


class TestCoarseStationary:
    def test_two_state(self, two_state):
        mu = stationary(two_state)
        assert np.allclose(mu.weights, [2 / 3, 1 / 3], atol=1e-12)

    def test_doubly_stochastic_is_uniform(self):
        P = TransitionMatrix.from_dense(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert np.allclose(stationary(P).weights, [0.5, 0.5])

    def test_benchmark_mu_is_fixed_point(self, model30):
        mu = model30.mu.weights
        assert np.abs(mu @ model30.P.to_dense() - mu).max() <= 1e-12
        assert mu.sum() == pytest.approx(1.0)


def test_build_coarse_model_bundles_everything(setup):
    model = build_coarse_model(setup.K, setup.bins, setup.f, horizon=5)
    assert model.n_bins == 30
    assert model.v.shape == (5, 30)
