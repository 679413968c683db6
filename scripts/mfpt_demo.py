#!/usr/bin/env python3
"""Mean first-passage time on the three-well chain via the source-sink
stationary identity, compared against the exact absorbing-chain solve.

The chain is modified so that entering the sink F = {81..90} restarts the
walk at the source (state 1); the stationary mass of F then satisfies
E[tau_F] = 1/pi(F), estimated here by weighted-ensemble sampling.

    python scripts/mfpt_demo.py --reps 1000 --horizon 500 --seed 0
"""
import argparse
import sys

import numpy as np

from weighted_ensemble import (
    AdaptivePolicy,
    Distribution,
    RngStream,
    SourceSinkSpec,
    direct_mfpt,
    source_sink_kernel,
    stationary,
    we_hill_mfpt,
)
from weighted_ensemble.config import ExperimentConfig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=1000)
    parser.add_argument("--horizon", type=int, default=500)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--particles", type=int, default=150)
    args = parser.parse_args()

    setup = ExperimentConfig().build_setup()  # the 90-state benchmark
    rho = Distribution.point_mass(0, 90)
    sink = list(range(80, 90))
    spec = SourceSinkSpec(setup.K, frozenset(sink), rho)

    oracle = direct_mfpt(setup.K, rho, sink)
    pi = stationary(source_sink_kernel(spec))
    pi_f = float(pi.weights[sink].sum())

    policy = AdaptivePolicy(setup.bins, float(args.particles), 1.0)
    est = we_hill_mfpt(
        spec, setup.bins, policy, args.horizon, args.reps, RngStream(args.seed),
        args.particles,
    )
    z = (est.eta_mean - pi_f) / est.eta_se
    print(f"pi(F) estimate : {est.eta_mean:.4e} +- {est.eta_se:.1e} (z={z:+.2f})")
    print(f"pi(F) exact    : {pi_f:.4e}")
    print(f"MFPT estimate  : {est.mfpt:.4e}  (lag-4 steps: x4 -> {4*est.mfpt:.4e})")
    print(f"MFPT oracle    : {oracle:.4e}")
    print(f"replicates with eta=0: {est.invalid_replicates}/{args.reps}")
    return 0 if np.isfinite(est.mfpt) else 2


if __name__ == "__main__":
    sys.exit(main())
