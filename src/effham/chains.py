"""Jump-chain utilities: generators, stationary measures, averaged coefficients.

The switching rates at a frozen position define a generator matrix Q on the
chemical states.  Fast-switching limits replace the raw coefficients by
averages against the stationary measure of Q, and the detailed-balance test
decides whether the model can transport at all.

Every stationary measure comes from one kernel, `stationary_measures`, which
takes the rates at many points stacked as (n, J, J) and returns all n laws
from one stacked solve, with a mask of the points whose chain is irreducible
and whose solve passes the positivity and residual test.  The regime-II
weight builders (once per build) and `validate` call it on whole lattices;
`stationary_measure`, `generator_at`, `averaged_drift` and
`averaged_hop_rates` are its one-point cases.  The switching-rate rule has
one home, `_switching_findings`, which `validate` and the builders call.
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
    """Mask of rate-field samples below the cut -1e-12 * max(1, max |r|).

    The rule: a given rate is negative below 0, a field sample below this
    cut.  `SwitchingRateMatrix.values` snaps evaluation round-off to 0; the
    cut stays for a field that touches zero only up to the rounding of its
    coefficients (computed in floating point, or written with fewer digits).
    """
    r = np.asarray(values, dtype=float)
    return r < -1e-12 * max(1.0, float(np.max(np.abs(r), initial=0.0)))


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


def _switching_findings(R, label, sampled: bool, laws: bool = False) -> list:
    """(kind, location, detail) of every breach of the switching-rate rule
    by the rates R (n, J, J) at n points, point k named `label(k)`:
    "negative_rate" once per rate r_ij, at its most negative point, below 0
    for given numbers and below the cut of `negative_rates` when `sampled`;
    "reducible_coupling" when the positive entries of the sup over the
    points do not connect every state; and, with `laws` and a connected
    coupling, "reducible_switching" at each point without a unique positive
    stationary law.  `validate` reports these, the builders raise the first.
    """
    R = np.asarray(R, dtype=float)
    found = []
    for i, j in np.ndindex(R.shape[1:]):
        r = R[:, i, j]
        if i != j and np.any(negative_rates(r) if sampled else r < 0):
            k = int(np.argmin(r))
            found.append(("negative_rate", f"r[{i+1}][{j+1}], {label(k)}",
                          f"negative switching rate {r[k]:.3e}"))
    if not irreducible(np.max(R, axis=0) > 0):
        found.append(("reducible_coupling", "sup-matrix of switching rates",
                      "switching chain is reducible: its positive-entry "
                      "digraph is not strongly connected"))
    elif laws:
        _, ok = stationary_measures(R)
        found += [("reducible_switching", label(k),
                   "switching chain is reducible here (or its stationary "
                   "solve fails), so regime II has no averaged coefficients")
                  for k in np.flatnonzero(~ok)]
    return found


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


def _raise_negative(R: np.ndarray, label, sampled: bool) -> None:
    """Raise the first negative-rate finding of the rates R as a ValueError."""
    for kind, location, detail in _switching_findings(R, label, sampled):
        if kind == "negative_rate":
            raise ValueError(f"{detail} at {location}")


# ---------------------------------------------------------------------------
# one-point cases of the kernel
# ---------------------------------------------------------------------------

def generator_at(rates: SwitchingRateMatrix, y) -> np.ndarray:
    """Generator matrix Q with Q_ij = r_ij(y) off the diagonal, zero row sums."""
    R = rates.rates_at(y)
    _raise_negative(R[None], lambda k: point_label(y), sampled=True)
    Q = np.clip(R, 0.0, None)          # its diagonal is zero
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
    R = model.rates.values(pts)
    _raise_negative(R, lambda _: point_label(pts[0]), sampled=True)
    mu = _measures_or_raise(R, lambda _: point_label(pts[0]))
    return state_average(mu, [psi.gradients(pts) for psi in model.potentials])[0]


def averaged_hop_rates(model: DiscreteModel, k: int) -> tuple:
    """Stationary-average hop rates (rbar_plus(k), rbar_minus(k)), both > 0."""
    R = model.switching[None, :, :, k]
    _raise_negative(R, lambda _: f"k={k}", sampled=False)
    mu = _measures_or_raise(R, lambda _: f"site k={k}")
    return tuple(float(state_average(mu, rates[:, [k]])[0])
                 for rates in (model.hop_rates_plus, model.hop_rates_minus))


def detailed_balance_report(model: ContinuousModel) -> tuple:
    """Check r_ij(x) e^{-2 psi^i(x)} = r_ji(x) e^{-2 psi^j(x)} on a lattice
    of max(256, `sampling_resolution`) points per axis.

    Returns (holds, max_violation).  `holds` means the worst absolute
    imbalance stays below 1e-10 relative to the scale of the compared terms.
    """
    n = max(256, sampling_resolution(
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
