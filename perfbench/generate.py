"""Input generators for the benchmark workloads.

Built only from public package functions (``generate_sim2``,
``simulate_garch``, ``GarchParams``).  Each generator is a pure function
of its seed and returns the panel values together with the true
covariance path, so the benchmark can score the fit it gets back while
the program itself only ever sees the CSV file.
"""

from __future__ import annotations

import numpy as np

from scgarch import GarchParams, Sim2Config, generate_sim2, simulate_garch

# |off-diagonal| bound of the fixed unit-lower-triangular mixing matrix.
T_OFFDIAG_MAX = 0.8
# Interior GARCH(1,1) parameters, away from the stationarity edge
# alpha + beta = 1.  alpha is large enough that the residuals of every
# ordering stay heteroscedastic: with alpha near 0.05, mixtures of the
# series fit at the alpha = 0 boundary, and those slow fits made one
# bic_p4 op take 6.8 to 11 s depending on the panel.
ALPHA_RANGE = (0.15, 0.25)
BETA_RANGE = (0.60, 0.70)


def sim2_panel(n: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The paper's sine-covariance design (p = 3): values (n, 3), truth (n, 3, 3)."""
    data = generate_sim2(Sim2Config(n=n, seed=seed))
    return data.panel.values, data.truth.sigmas


def mixing_matrix(p: int) -> np.ndarray:
    """The fixed unit-lower-triangular T: off-diagonals alternate in sign
    and shrink with lag, all within ``T_OFFDIAG_MAX`` in absolute value."""
    j, k = np.tril_indices(p, -1)
    t = np.eye(p)
    t[j, k] = T_OFFDIAG_MAX * (-1.0) ** (j + k) / (j - k)
    return t


def garch_panel(n: int, p: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """GARCH(1,1) innovations mixed by a fixed unit-lower-triangular T.

    T is the same for every seed.  Each innovation series has unit
    unconditional variance and interior (alpha, beta) drawn from the seed;
    the panel is ``y_t = inv(T) eps_t``, so the true covariance path is
    ``inv(T) D_t inv(T)'``.
    """
    tinv = np.linalg.inv(mixing_matrix(p))
    rng = np.random.default_rng(seed)
    eps = np.empty((n, p))
    d = np.empty((n, p))
    for j in range(p):
        alpha = rng.uniform(*ALPHA_RANGE)
        beta = rng.uniform(*BETA_RANGE)
        params = GarchParams(1.0 - alpha - beta, alpha, beta)
        eps[:, j], d[:, j] = simulate_garch(params, n, seed=int(rng.integers(2**32)))
    values = eps @ tinv.T
    truth = np.einsum("ik,tk,jk->tij", tinv, d, tinv)
    return values, 0.5 * (truth + truth.transpose(0, 2, 1))
