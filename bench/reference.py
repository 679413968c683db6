"""Fixed reference task that measures how fast the host runs right now.

Usage: python3 bench/reference.py

It imports numpy and runs a small weighted-ensemble loop on the 90-state
three-well chain (per-bin resampling, then an inverse-CDF mutation step) for
a fixed number of generations from a fixed seed, so its work never changes.
It imports nothing from the package, so a change to the program cannot move
its time. ``run.py`` times it, in a fresh process, before and after every
round and scales the round's times by how fast the host ran it (README.md,
"Host-speed correction").
"""
import numpy as np

GENERATIONS = 400
N_STATES = 90
N_PARTICLES = 150
BIN_WIDTH = 3


def lag4_cdf() -> np.ndarray:
    """Row-wise CDFs of Q^4 for the three-well birth-death chain Q."""
    i = np.arange(1, N_STATES + 1)
    drift = np.sin(6.0 * np.pi * i / N_STATES)
    up, down = 0.4 + drift / 5.0, 0.4 - drift / 5.0
    up[-1] = down[0] = 0.0
    q = np.diag(1.0 - up - down) + np.diag(up[:-1], 1) + np.diag(down[1:], -1)
    return np.cumsum(np.linalg.matrix_power(q, 4), axis=1)


def main() -> float:
    rng = np.random.default_rng(12345)
    cdf = lag4_cdf()
    x = np.arange(N_PARTICLES) % N_STATES
    w = np.full(N_PARTICLES, 1.0 / N_PARTICLES)
    total = 0.0
    for _ in range(GENERATIONS):
        bins = x // BIN_WIDTH
        mass = np.bincount(bins, weights=w, minlength=N_STATES // BIN_WIDTH)
        occupied = np.flatnonzero(mass > 0).tolist()
        per_bin = max(1, N_PARTICLES // len(occupied))
        xs, ws = [], []
        for r in occupied:
            members = np.flatnonzero(bins == r)
            picks = rng.choice(members, size=per_bin, p=w[members] / mass[r])
            xs.append(x[picks])
            ws.append(np.full(per_bin, mass[r] / per_bin))
        x, w = np.concatenate(xs), np.concatenate(ws)
        u = rng.random(x.size)
        x = np.minimum((cdf[x] < u[:, None]).sum(axis=1), N_STATES - 1)
        total += float(w @ (x < N_STATES // 3))
    return total


if __name__ == "__main__":
    main()
