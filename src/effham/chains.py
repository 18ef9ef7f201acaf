"""Jump-chain utilities: generators, stationary measures, averaged coefficients.

The switching rates at a frozen position define a generator matrix Q on the
chemical states.  Fast-switching limits replace the raw coefficients by
averages against the stationary measure of Q, and the detailed-balance test
decides whether the model can transport at all.
"""

from __future__ import annotations

import numpy as np

from .model import ContinuousModel, DiscreteModel, SwitchingRateMatrix, \
    _strongly_connected, negative_rates
from .fields import grid_points, sampling_resolution


class ReducibleChainError(RuntimeError):
    """The switching generator has no unique positive stationary measure."""


def generator_at(rates: SwitchingRateMatrix, y) -> np.ndarray:
    """Generator matrix Q with Q_ij = r_ij(y) off the diagonal, zero row sums."""
    R = rates.rates_at(y)
    negative = negative_rates(R)
    if np.any(negative):
        i, j = np.argwhere(negative)[0]
        raise ValueError(f"negative switching rate r[{i+1}][{j+1}]({y}) = {R[i, j]}")
    return _generator_from_rates(np.clip(R, 0.0, None))


def _generator_from_rates(R: np.ndarray) -> np.ndarray:
    Q = np.array(R, dtype=float)
    np.fill_diagonal(Q, 0.0)
    # diagonal as the negated row sum of the same floats: rows sum to 0 exactly
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def stationary_measure(Q: np.ndarray) -> np.ndarray:
    """Unique probability vector mu with mu^T Q = 0 for an irreducible Q.

    Solved densely: Q^T with its last row replaced by ones, right-hand side
    e_J.  J is small, so this is exact and simple.
    """
    Q = np.asarray(Q, dtype=float)
    J = Q.shape[0]
    if J == 1:
        return np.ones(1)
    off = np.array(Q)
    np.fill_diagonal(off, 0.0)
    if not _strongly_connected(off):
        raise ReducibleChainError(
            "switching generator is reducible; no unique stationary measure")
    A = Q.T.copy()
    A[-1, :] = 1.0
    rhs = np.zeros(J)
    rhs[-1] = 1.0
    mu = np.linalg.solve(A, rhs)
    scale = max(np.max(np.abs(Q)), 1.0)
    residual = float(np.max(np.abs(mu @ Q)))
    if np.any(mu <= 0) or residual > 1e-12 * scale:
        raise ReducibleChainError(
            f"stationary solve failed (min mu = {mu.min():.3e}, "
            f"residual = {residual:.3e})")
    return mu


def detailed_balance_report(model: ContinuousModel,
                            sample_grid: int = 256) -> tuple:
    """Check r_ij(x) e^{-2 psi^i(x)} = r_ji(x) e^{-2 psi^j(x)} on a lattice.

    Returns (holds, max_violation).  `holds` means the worst absolute
    imbalance stays below 1e-10 relative to the scale of the compared terms.
    """
    if model.J == 1:
        return True, 0.0
    n = max(sample_grid, sampling_resolution(
        list(model.potentials) + model.rates.iter_fields()))
    pts = grid_points(model.dim, n, model.period)
    weights = [np.exp(-2.0 * psi.values(pts)) for psi in model.potentials]
    worst = 0.0
    scale = 0.0
    for i in range(model.J):
        for j in range(i + 1, model.J):
            fij = model.rates.entries[i][j]
            fji = model.rates.entries[j][i]
            rij = fij.values(pts) if fij is not None else np.zeros(len(pts))
            rji = fji.values(pts) if fji is not None else np.zeros(len(pts))
            lhs = rij * weights[i]
            rhs = rji * weights[j]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            scale = max(scale, float(np.max(np.abs(lhs))),
                        float(np.max(np.abs(rhs))))
    holds = worst <= 1e-10 * max(scale, 1.0)
    return holds, worst


def averaged_drift(model: ContinuousModel, y) -> np.ndarray:
    """Stationary-average drift Fbar(y) = sum_i mu_y(i) grad psi^i(y)."""
    mu = stationary_measure(generator_at(model.rates, y))
    grads = np.stack([psi.gradient(y) for psi in model.potentials])
    return mu @ grads


def averaged_hop_rates(model: DiscreteModel, k: int) -> tuple:
    """Stationary-average hop rates (rbar_plus(k), rbar_minus(k)), both > 0."""
    mu = stationary_measure(_generator_from_rates(model.switching_at(k)))
    rp = float(mu @ model.hop_rates_plus[:, k])
    rm = float(mu @ model.hop_rates_minus[:, k])
    return rp, rm
