"""Jump-chain utilities: generators, stationary measures, averaged coefficients.

The switching rates at a frozen position define a generator matrix Q on the
chemical states.  Fast-switching limits replace the raw coefficients by
averages against the stationary measure of Q, and the detailed-balance test
decides whether the model can transport at all.

Every stationary measure comes from one kernel, `stationary_measures`, which
takes the rates at many points stacked as (n, J, J) and returns all n laws
from one stacked solve, with a mask of the points whose chain is irreducible
and whose solve passes the positivity and residual test.  The regime-II
assembly, the coercivity bounds and `validate` all call it on whole lattices;
`stationary_measure`, `generator_at`, `averaged_drift` and
`averaged_hop_rates` are its one-point cases.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .fields import grid_points, sampling_resolution

if TYPE_CHECKING:
    from .model import ContinuousModel, DiscreteModel, SwitchingRateMatrix


class ReducibleChainError(RuntimeError):
    """The switching generator has no unique positive stationary measure."""


def negative_rates(values) -> np.ndarray:
    """Mask of sampled rates that are negative beyond round-off.

    A rate field that touches zero evaluates to about -1e-16 there, so the
    cut is -1e-12 * max(1, max |r|), not 0.
    """
    r = np.asarray(values, dtype=float)
    return r < -1e-12 * max(1.0, float(np.max(np.abs(r), initial=0.0)))


def negative_samples(R) -> list:
    """(i, j, k) for every rate r_ij sampled negative beyond round-off in the
    (n, J, J) stack R, with k its most negative sample."""
    J = R.shape[1]
    return [(i, j, int(np.argmin(R[:, i, j]))) for i, j in np.ndindex(J, J)
            if i != j and np.any(negative_rates(R[:, i, j]))]


def irreducible(adjacency) -> np.ndarray:
    """Strong connectivity of each digraph in a (..., J, J) boolean stack.

    Reachability by repeated boolean squaring of (A or I): after
    ceil(log2 J) squarings every path of length < J is covered.
    """
    adjacency = np.asarray(adjacency, dtype=bool)
    reach = adjacency | np.eye(adjacency.shape[-1], dtype=bool)
    for _ in range(max(reach.shape[-1] - 1, 0).bit_length()):
        reach = reach @ reach
    return reach.all(axis=(-2, -1))


def state_average(mu: np.ndarray, per_state) -> np.ndarray:
    """sum_j mu[:, j] * per_state[j], added in state order.

    The fixed elementwise order makes each row independent of how many rows
    are averaged together (a BLAS product would not be)."""
    mu = np.asarray(mu, dtype=float)
    shape = (len(mu),) + (1,) * (np.ndim(per_state[0]) - 1)
    total = mu[:, 0].reshape(shape) * per_state[0]
    for j in range(1, mu.shape[1]):
        total = total + mu[:, j].reshape(shape) * per_state[j]
    return total


def stationary_measures(R) -> tuple:
    """Stationary laws of n switching chains from one stacked solve.

    `R` stacks the rates as (n, J, J); the diagonal is ignored and negative
    entries (round-off of rates that touch zero) count as zero.  Returns
    (mu, ok): mu[k] solves mu^T Q_k = 0, sum(mu) = 1 for the generator Q_k
    of R[k] (Q_k^T with its last row replaced by ones, right-hand side e_J),
    and ok[k] is True where that chain is irreducible, mu[k] > 0 and the
    residual |mu^T Q_k| stays below 1e-12 max(1, max |Q_k|).  Rows where ok
    is False hold no measure.
    """
    R = np.asarray(R, dtype=float)
    n, J, _ = R.shape
    if J == 1:
        return np.ones((n, 1)), np.ones(n, dtype=bool)
    Q = np.clip(R, 0.0, None)
    Q[:, range(J), range(J)] = 0.0
    connected = irreducible(Q > 0)
    # diagonal as the negated row sum of the same floats: rows sum to 0 exactly
    Q[:, range(J), range(J)] = -Q.sum(axis=2)
    A = Q.transpose(0, 2, 1).copy()
    A[:, -1, :] = 1.0
    A[~connected] = np.eye(J)          # keeps the stack nonsingular
    rhs = np.zeros((n, J, 1))
    rhs[:, -1] = 1.0
    try:
        mu = np.linalg.solve(A, rhs)[..., 0]
    except np.linalg.LinAlgError:      # a singular point: solve one by one
        mu = np.full((n, J), np.nan)
        for k in range(n):
            try:
                mu[k] = np.linalg.solve(A[k], rhs[k])[:, 0]
            except np.linalg.LinAlgError:
                pass
    residual = np.max(np.abs(state_average(mu, Q.transpose(1, 0, 2))), axis=1)
    scale = np.maximum(np.max(np.abs(Q), axis=(1, 2)), 1.0)
    ok = connected & np.all(mu > 0, axis=1) & (residual <= 1e-12 * scale)
    return mu, ok


def _measures_or_raise(R: np.ndarray, where) -> np.ndarray:
    """`stationary_measures` of R; raises at the first failing point, named
    by `where(k)`."""
    mu, ok = stationary_measures(R)
    if not np.all(ok):
        k = int(np.argmin(ok))
        raise ReducibleChainError(
            f"switching chain at {where(k)} is reducible or its stationary "
            "solve fails; no unique positive stationary measure")
    return mu


def point_label(y) -> str:
    """`y=(0.125, 0.5)`: a lattice point as it appears in messages."""
    return "y=(" + ", ".join(f"{c:.6g}" for c in np.atleast_1d(y)) + ")"


def switching_measures(rates: SwitchingRateMatrix, points) -> np.ndarray:
    """(n, J) stationary laws of the switching chain at an (n, d) array of
    points.  Raises ValueError for a rate sampled negative beyond round-off
    and ReducibleChainError at the first point without a unique law."""
    pts = np.asarray(points, dtype=float).reshape(len(points), -1)
    R = rates.values(pts)
    for i, j, k in negative_samples(R):
        raise ValueError(f"negative switching rate r[{i+1}][{j+1}] = "
                         f"{R[k, i, j]} at {point_label(pts[k])}")
    return _measures_or_raise(R, lambda k: point_label(pts[k]))


def hop_averages(model: DiscreteModel, sites=None) -> tuple:
    """Stationary-average hop rates (rbar_plus, rbar_minus) at every site
    (or at the listed `sites`), one array each."""
    sites = np.arange(model.ell) if sites is None else np.asarray(sites)
    R = np.moveaxis(model.switching[:, :, sites], -1, 0)
    mu = _measures_or_raise(R, lambda k: f"site k={sites[k]}")
    return (state_average(mu, model.hop_rates_plus[:, sites]),
            state_average(mu, model.hop_rates_minus[:, sites]))


# ---------------------------------------------------------------------------
# one-point cases of the kernel
# ---------------------------------------------------------------------------

def generator_at(rates: SwitchingRateMatrix, y) -> np.ndarray:
    """Generator matrix Q with Q_ij = r_ij(y) off the diagonal, zero row sums."""
    R = rates.rates_at(y)
    negative = negative_rates(R)
    if np.any(negative):
        i, j = np.argwhere(negative)[0]
        raise ValueError(f"negative switching rate r[{i+1}][{j+1}]({y}) = {R[i, j]}")
    Q = np.clip(R, 0.0, None)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


def stationary_measure(Q: np.ndarray) -> np.ndarray:
    """Unique probability vector mu with mu^T Q = 0 for an irreducible Q:
    `stationary_measures` on one point, so bit for bit a row of any batch."""
    Q = np.asarray(Q, dtype=float)
    return _measures_or_raise(Q[None], lambda k: "this point")[0]


def averaged_drift(model: ContinuousModel, y) -> np.ndarray:
    """Stationary-average drift Fbar(y) = sum_i mu_y(i) grad psi^i(y)."""
    pts = np.atleast_1d(np.asarray(y, dtype=float))[None]
    mu = switching_measures(model.rates, pts)
    return state_average(mu, [psi.gradients(pts) for psi in model.potentials])[0]


def averaged_hop_rates(model: DiscreteModel, k: int) -> tuple:
    """Stationary-average hop rates (rbar_plus(k), rbar_minus(k)), both > 0."""
    rp, rm = hop_averages(model, [k])
    return float(rp[0]), float(rm[0])


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
    R = model.rates.values(pts)
    worst = 0.0
    scale = 0.0
    for i in range(model.J):
        for j in range(i + 1, model.J):
            lhs = R[:, i, j] * weights[i]
            rhs = R[:, j, i] * weights[j]
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
            scale = max(scale, float(np.max(np.abs(lhs))),
                        float(np.max(np.abs(rhs))))
    holds = worst <= 1e-10 * max(scale, 1.0)
    return holds, worst
