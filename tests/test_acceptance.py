"""End-to-end acceptance checks on the 90-state three-well benchmark.

Each test prints a single machine-readable PASS/FAIL line. Expected values
marked "frozen" were computed once by independent linear-algebra oracles
(dense matrix powers, stationary solves, absorbing-chain solves) and are
hard-coded so regressions are caught exactly.
"""
import math

import numpy as np
import pytest

from weighted_ensemble import (
    AdaptivePolicy,
    BinPartition,
    Distribution,
    Ensemble,
    NaivePolicy,
    Observable,
    RngStream,
    SourceSinkSpec,
    TransitionMatrix,
    direct_mfpt,
    hitting_probability,
    run_we,
    source_sink_kernel,
    stationary,
    stochastic_round,
)
from weighted_ensemble import cli
from weighted_ensemble.coarse import compute_v
from weighted_ensemble.diagnostics import (
    doob_terms,
    g_sequence,
    run_checks,
)
from weighted_ensemble.experiment import make_policy, run_sweep_cell

# frozen oracle values for the three-well chain (lag 4, bins of width 3,
# f = indicator of states 28..33, N = 150 particles, floor 1)
PI_F = 2.103011022441123e-05  # pi(f) from the exact stationary solve
EXACT_ETA0_KN_F = {
    0: 0.0002870710157080816,
    1: 0.0002906213896649607,
    5: 0.00012600364146848864,
    30: 2.109219076968996e-05,
}  # eta_0 K^n f from the deterministic initial ensemble, dense matrix powers
MFPT_ORACLE = 1523054.6002034727  # E[tau_{81..90}] from state 1, linear solve
PI_SINK = 6.565733733541416e-07  # pi(F) of the source-sink chain
# not a relaxation horizon: the exact target of a horizon-500 run,
# eta_0 K^500 1_F, is 1.43 pi(F), so test_07 does not bound the bias
HILL_HORIZON = 500

SEED = 0
Z_MAX = 4.0


def report(num: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num:02d} {name}: {status}  {detail}".rstrip())


def exact_naive_std(setup, init: Ensemble, n: int) -> float:
    """Exact std of the naive eta_n(f) in closed form.

    Naive walkers are independent chains from the fixed initial ensemble, so
    Var(eta_n f) = sum_i w_i^2 [K^n f^2 - (K^n f)^2](x_i).
    """
    Kn = np.linalg.matrix_power(setup.K.to_dense(), n)
    mean_per_state = Kn @ setup.f.values
    var_per_state = Kn @ (setup.f.values**2) - mean_per_state**2
    return float(np.sqrt(init.weights**2 @ var_per_state[init.states]))


def std_from_variance_terms(acc: np.ndarray) -> tuple[float, float]:
    """sqrt(mean(acc)) with its delta-method standard error."""
    mean = float(acc.mean())
    se = float(acc.std(ddof=1) / np.sqrt(acc.size))
    return float(np.sqrt(mean)), se / (2 * np.sqrt(mean))


@pytest.fixture(scope="module")
def short_cells(setup, model30, init150):
    """(mode, n) -> SweepResult at 2000 replicates for n in {1, 5}."""
    return {
        (mode, res.n): res
        for mode in ("adaptive", "traditional", "naive")
        for res in run_sweep_cell(
            setup, init150, make_policy(mode, setup.bins, 150, v=model30.v), (1, 5),
            reps=2000, seed=SEED,
        )
    }


@pytest.fixture(scope="module")
def sweep30(setup, model30, init150):
    """mode -> SweepResult at n = 30, 1000 replicates each, with each
    replicate's accumulated Doob terms."""
    return {
        mode: run_sweep_cell(
            setup, init150, make_policy(mode, setup.bins, 150, v=model30.v), (30,),
            reps=1000, seed=SEED, doob=True,
        )[0]
        for mode in ("adaptive", "traditional", "naive")
    }


@pytest.fixture(scope="module")
def hill_estimate(setup, source_sink_cell):
    """The SweepResult of eta_n(1_F) at the hill horizon, 1000 replicates, on
    the three-well chain that restarts at state 1 on entering 81..90."""
    rho = Distribution.point_mass(0, 90)
    spec = SourceSinkSpec(setup.K, frozenset(range(80, 90)), rho)
    return source_sink_cell(spec, setup.bins, "adaptive", HILL_HORIZON, 1000, SEED, 150)


def test_01_unbiasedness(short_cells):
    details = []
    worst = 0.0
    for (mode, n), res in short_cells.items():
        assert res.exact == pytest.approx(EXACT_ETA0_KN_F[n], rel=1e-12)
        z = (res.mean - res.exact) / res.std_err
        worst = max(worst, abs(z))
        details.append(f"{mode}/n={n}: z={z:+.2f}")
    passed = worst <= Z_MAX
    report(1, "unbiasedness", passed, "; ".join(details))
    assert passed


def test_02_stationary_convergence(sweep30):
    res = sweep30["adaptive"]
    z = (res.mean - PI_F) / res.std_err
    passed = abs(z) <= Z_MAX
    report(
        2, "stationary convergence", passed,
        f"mean={res.mean:.4e} pi(f)={PI_F:.4e} z={z:+.2f}",
    )
    assert passed


def test_03_variance_ordering(setup, init150, sweep30):
    """std(adaptive) < std(traditional) < std(naive) for eta_30(f), each gap
    wider than 3 standard errors.

    At n = 30 the naive and traditional estimators carry their variance in
    rare heavy-weight hits of the observable's support, so the sample stds of
    1000 replicates do not measure it (they are printed, not gated on). The
    gate uses estimators that are unbiased for the variance instead:

    - naive: the exact std in closed form;
    - adaptive and traditional: sqrt of the mean accumulated exact
      conditional variance of the `sweep30` replicates (their Doob terms,
      observed as they ran), with a delta-method standard error.

    False-alarm rate (the ordering holds but the gate fails), sized on the
    traditional per-replicate term X >= 0 of seed-0 replicates 0..24999: mean
    mu = 1.49e-8 (std 1.22e-4), median 0.09 mu, CV 3-16 in blocks of 1000.
    The adaptive term (CV 0.8) and the exact naive std barely move. The gate
    can fail in two ways, both through X:

    - too few hits: at sample CVs up to 10 the first gap closes only if
      mean(X) <= 0.12 mu. With Y = min(X, 5 mu) <= X, E[Y] = 0.48 mu and
      E[Y^2] = 1.3 mu^2, the lower-tail bound for a mean of non-negative
      terms, P(mean(Y) <= E[Y] - t) <= exp(-n t^2 / (2 E[Y^2])), puts this
      below 1e-18 at n = 1000 (untruncated, at the per-replicate CV of 6:
      exp(-n (0.86 mu)^2 / (2 * 37 mu^2)) = 4e-5);
    - one dominant hit: a single X above 740-2400 mu (depending on the rest
      of the sample) makes the delta-method SE about half the estimate and
      closes the first gap (the second needs about 4700 mu). The largest of
      the 25000 replicates reached 661 mu. Hill fits of the top 8-40 order
      statistics (tail index 1.6-1.9) put this at 0.3-3% per 1000-replicate
      draw.

    All 25 blocks of 1000 pass. The false-alarm rate is thus about 1-3% per
    independent seed, nearly all of it a single dominant traditional
    replicate; if new random streams make this test fail, look for one
    before suspecting bias.
    """
    n = 30
    stds = {"naive": exact_naive_std(setup, init150, n)}
    ses = {}
    for mode in ("adaptive", "traditional"):
        stds[mode], ses[mode] = std_from_variance_terms(sweep30[mode].variance)
    gap_at = stds["traditional"] - stds["adaptive"]
    gap_tn = stds["naive"] - stds["traditional"]
    need_at = 3 * np.hypot(ses["adaptive"], ses["traditional"])
    need_tn = 3 * ses["traditional"]  # the naive std is exact
    passed = gap_at > need_at and gap_tn > need_tn
    sample = {m: sweep30[m].std for m in sweep30}
    report(
        3, "variance ordering", passed,
        f"std adaptive={stds['adaptive']:.2e} traditional={stds['traditional']:.2e} "
        f"naive(exact)={stds['naive']:.2e}; gaps {gap_at:.2e}>{need_at:.2e}? "
        f"{gap_tn:.2e}>{need_tn:.2e}? "
        f"sample stds (not gated) adaptive={sample['adaptive']:.2e} "
        f"traditional={sample['traditional']:.2e} naive={sample['naive']:.2e}",
    )
    assert passed


def test_03_supplement_ordering_with_powered_estimators(setup, init150, model30):
    """Independent replication of test_03 on fresh randomness.

    Same estimators as test_03 (exact naive std; sqrt of the mean accumulated
    exact conditional variance for the other two modes), on the replicates of
    seed SEED + 1: 1000 adaptive and 3000 traditional, the larger count
    because the traditional term is the heavy-tailed one.
    """
    n = 30
    naive_std = exact_naive_std(setup, init150, n)

    def variance(mode, reps):
        return run_sweep_cell(
            setup, init150, make_policy(mode, setup.bins, 150, v=model30.v), (n,), reps,
            SEED + 1, doob=True,
        )[0].variance

    adapt_std, se_a = std_from_variance_terms(variance("adaptive", 1000))
    trad_std, se_t = std_from_variance_terms(variance("traditional", 3000))
    print(
        f"\nstd estimates: adaptive={adapt_std:.3e} (se {se_a:.1e}) < "
        f"traditional={trad_std:.3e} (se {se_t:.1e}) < exact naive={naive_std:.3e}"
    )
    assert adapt_std + 3 * se_a < trad_std - 3 * se_t
    assert trad_std + 3 * se_t < naive_std


def test_04_doob_identity(setup, model30, init150):
    policy = AdaptivePolicy(setup.bins, 150.0, 1.0, model30.v)
    # a run to n = 5 reads the rows of the horizon-5 table
    rows = model30.v[[policy.row(p, 5) for p in range(5)]]
    assert np.array_equal(rows, compute_v(model30.P, model30.u, 5))
    [res] = run_sweep_cell(setup, init150, policy, (5,), 5000, SEED, doob=True)
    _, rep = run_checks(res)
    report(
        4, "second-moment identity", rep.passed,
        f"E[M_n^2]={rep.value:.4e} rhs={rep.reference:.4e} z={rep.z:+.2f}",
    )
    assert rep.passed


def test_05_optimal_allocation_grid_search(two_state, optimal_allocation,
                                           conditional_mutation_variance):
    f = Observable(np.array([0.0, 1.0]))
    g = g_sequence(two_state, f, 2)
    e = Ensemble(0, np.array([0, 0, 1]), np.array([0.2, 0.3, 0.5]))
    N = 3.0
    beta_opt = optimal_allocation(e, g, 0, N)
    best = conditional_mutation_variance(e, beta_opt, g, 0)
    # brute force over the simplex sum(beta) = 3 with grid step 0.01
    step = 0.01
    b1 = np.arange(step, N, step)
    b2 = np.arange(step, N, step)
    B1, B2 = np.meshgrid(b1, b2, indexing="ij")
    B3 = N - B1 - B2
    ok = B3 >= step / 2
    terms = e.weights**2 * g.local_var[0][e.states]
    grid = np.where(
        ok, terms[0] / B1 + terms[1] / B2 + terms[2] / np.maximum(B3, step / 2),
        np.inf,
    )
    margin = best - grid.min()
    passed = margin <= 1e-10
    report(
        5, "allocation optimality", passed,
        f"formula={best:.10e} grid min={grid.min():.10e}",
    )
    assert passed


def test_06_variance_proxy_nonnegativity(model30):
    # recompute the proxy table without clamping to observe raw roundoff
    P, u, n = model30.P.to_dense(), model30.u, 30
    w = [u]
    for _ in range(n):
        w.append(P @ w[-1])
    raw_min = min(
        float((P @ (w[n - p - 1] ** 2) - w[n - p] ** 2).min()) for p in range(n)
    )
    passed = raw_min >= -1e-10 and model30.v.min() >= 0.0
    report(6, "proxy nonnegativity", passed, f"pre-clamp min={raw_min:.2e}")
    assert passed


def test_07_hill_relation(two_state, hill_estimate, general_hill_average):
    # two-state spec: both exact routes give mean first-passage time 10
    rho2 = Distribution.point_mass(0, 2)
    pi2 = stationary(source_sink_kernel(SourceSinkSpec(two_state, frozenset({1}), rho2)))
    hill2 = general_hill_average(pi2, Observable(np.ones(2)), {1})
    direct2 = direct_mfpt(two_state, rho2, [1])
    exact_ok = abs(hill2 - 10.0) <= 1e-10 and abs(direct2 - 10.0) <= 1e-10

    # three-state symmetric spec: hitting probability is exactly 1/2
    K3 = TransitionMatrix.from_dense(
        np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]])
    )
    rho3 = Distribution.point_mass(1, 3)
    pi3 = stationary(source_sink_kernel(SourceSinkSpec(K3, frozenset({0, 2}), rho3)))
    hit_ok = abs(hitting_probability(pi3, [0], [2]) - 0.5) <= 1e-10

    # three-well spec: replicate mean of eta_n(1_F) against the exact pi(F)
    est = hill_estimate
    z = (est.mean - PI_SINK) / est.std_err
    we_ok = abs(z) <= Z_MAX
    passed = exact_ok and hit_ok and we_ok
    report(
        7, "first-passage identities", passed,
        f"mfpt(2-state)={direct2:.12f}; WE z={z:+.2f} "
        f"mfpt={1 / est.mean:.3e} oracle={MFPT_ORACLE:.3e}",
    )
    assert passed


def test_08_degeneracies(setup, init150, dense_cdf):
    # (a) naive mode is bit-identical to plain independent chain simulation;
    # its eta adds the same terms in another order than fsum, so it agrees
    # within 150 eps sum|terms|, which bounds any order of adding 150 terms
    n = 10
    stream = RngStream(SEED, replicate=0)
    rec = run_we(setup.K, setup.f, NaivePolicy(), init150, n, SEED, [0])
    cum = dense_cdf(setup.K.to_dense())
    states = init150.states.copy()
    terms = [init150.weights * setup.f.values[states]]
    for p in range(n):
        u = stream.at(p, "mutate").random(states.size)
        states = (u[:, None] >= cum[states]).sum(axis=1)
        terms.append(init150.weights * setup.f.values[states])
    bound = 150 * np.finfo(float).eps
    naive_ok = np.array_equal(rec.final.states, states) and all(
        abs(eta - math.fsum(t)) <= bound * math.fsum(abs(t))
        for eta, t in zip(rec.eta_f[0], terms)
    )

    # (b) f constant: both conditional variance terms vanish every generation
    # (all mean children counts are the integer 1 under the naive policy)
    ones = Observable(np.ones(90))
    g = g_sequence(setup.K, ones, n)
    observe, mut, sel = doob_terms(g)
    run_we(setup.K, ones, NaivePolicy(), init150, n, SEED, [0],
           observe=observe)
    # the selection term is exactly zero (integer mean children counts); the
    # mutation term is zero up to the 1e-12 row-sum roundoff of K applied to
    # the constant vector, squared weights included
    const_ok = bool(np.all(mut <= 1e-15) and np.all(sel == 0.0))
    assert g.local_var.max() <= 1e-15

    # (c) stochastic rounding at integer means is deterministic
    rng = np.random.default_rng(1)
    round_ok = all(
        np.all(stochastic_round(np.full(200, float(b)), rng.random(200)) == b)
        for b in (0, 1, 2, 7)
    )
    passed = naive_ok and const_ok and round_ok
    report(
        8, "degeneracy checks", passed,
        f"naive bit-identical={naive_ok} constant-f terms zero={const_ok} "
        f"integer rounding deterministic={round_ok}",
    )
    assert passed


def test_09_no_extinction(short_cells, sweep30, hill_estimate):
    total = sum(res.extinct_count for res in short_cells.values())
    total += sum(res.extinct_count for res in sweep30.values())
    total += hill_estimate.extinct_count
    runs = 2000 * 6 + 1000 * 3 + 1000
    passed = total == 0
    report(9, "no extinction", passed, f"{total} extinct of {runs} runs")
    assert passed


def test_10_determinism(tmp_path):
    cfg = tmp_path / "config"
    cfg.write_text("mode = adaptive\nhorizons = 30\nreps = 1000\nseed = 0\n")
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg), "--out", str(a)]) == 0
    assert cli.main(["run", "--config", str(cfg), "--out", str(b)]) == 0
    mismatched = [
        p.name for p in sorted(a.iterdir())
        if p.read_bytes() != (b / p.name).read_bytes()
    ]
    passed = not mismatched
    report(10, "byte-identical reruns", passed, f"mismatched files: {mismatched}")
    assert passed
