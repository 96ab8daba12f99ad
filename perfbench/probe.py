"""A fixed load that measures how fast the host runs the narrow workloads' kind of work.

    python3 perfbench/probe.py

Takes nothing from lipbound, so no change to the program moves it.  Like
a narrow-workload operation, it starts a fresh interpreter, imports numpy
and scipy.linalg, and then spends its time in many small numpy calls on
64-wide vectors: a fixed number of power-iteration steps on fixed Gram
matrices.  That kind of work slows down and speeds up with the host by up
to a third within minutes, far more than BLAS-bound work does; `run.py`
times this script just before each timed operation of a narrow workload
and scales the operation's times by the ratio.  It prints nothing.
"""

import numpy as np
import scipy.linalg  # noqa: F401  (loaded, as the program loads it)

WIDTH = 64
MATRICES = 10
REPEATS = 20
STEPS = 200


def main() -> None:
    rng = np.random.default_rng(0)
    weights = [rng.standard_normal((WIDTH, WIDTH)) / 8.0 for _ in range(MATRICES)]
    for _ in range(REPEATS):
        for w in weights:
            gram = w.T @ w
            v = np.ones(WIDTH) / np.sqrt(WIDTH)
            for _ in range(STEPS):
                u = gram @ v
                sigma = float(v @ u)
                norm_u = float(np.linalg.norm(u))
                float(np.linalg.norm(u - sigma * v))
                v = u / norm_u


if __name__ == "__main__":
    main()
