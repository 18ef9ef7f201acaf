"""Cell-problem operators as Metzler matrices and their principal eigenpairs.

Every cell operator is one `TiltedGenerator`: per-state hop weights, a
switching block and the neighbor tables, all free of the momentum.
`cell_operator` fills it from one of four weight builders (continuous/discrete
x plain/averaged switching) once per model; `TiltedGenerator.at(p)` tilts the
hops by e^{+-p_a h} and returns a dense matrix with nonnegative off-diagonal
entries whose principal eigenvalue is the effective Hamiltonian at momentum p.
The continuous operators are discretized with an exponentially fitted
(locally tilted generator) scheme:

* hop weights are exp(-2 * half-step potential increment) / (2 h^2), so every
  off-diagonal entry is positive regardless of the drift strength,
* the momentum enters only through factors e^{+-p_a h} on the hops, exactly as
  in the discrete model, so rows sum to zero at p = 0 and the eigenvalue of a
  constant-coefficient operator is a cosh-type expression converging to the
  continuum value at second order,
* under pointwise detailed balance the matrix at -p is the adjoint of the
  matrix at +p in the weighted inner product exp(-2 psi^i(y_k)), so the
  spectrum (and hence the Hamiltonian) is symmetric to solver precision, not
  merely to discretization order.

Eigenpairs come with Collatz-Wielandt certificates: for any positive vector w,
min_i (Mw)_i/w_i and max_i (Mw)_i/w_i sandwich the principal eigenvalue, and
iteration stops only once that sandwich is tighter than the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .chains import averaged_hop_rates, generator_at, stationary_measure
from .fields import grid_points
from .model import (ContinuousModel, DiscreteModel, Model, _strongly_connected,
                    negative_rates)

_EPS = np.finfo(float).eps


class PecletError(ValueError):
    """Grid too coarse for the drift field; carries the minimal admissible N."""

    def __init__(self, message: str, minimal_n: int):
        super().__init__(message)
        self.minimal_n = minimal_n


class ConvergenceError(RuntimeError):
    """Eigensolver hit the iteration cap; the best certificate is attached."""

    def __init__(self, message: str, certificate: "EigenCertificate"):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class AssembledOperator:
    """Dense Metzler matrix for one cell problem, with index bookkeeping."""

    matrix: np.ndarray
    kind: str            # "discrete_I" | "discrete_II" | "continuous_I" | "continuous_II"
    n_space: int         # grid points (N**d) or torus sites (ell)
    n_states: int        # chemical states carried by the matrix rows (1 if averaged out)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        M = np.asarray(self.matrix, dtype=float)
        n = self.n_space * self.n_states
        if M.shape != (n, n):
            raise ValueError(f"matrix shape {M.shape} does not match {n} rows")
        object.__setattr__(self, "matrix", M)

    @property
    def shape(self):
        return self.matrix.shape

    def row_state(self, row: int) -> tuple:
        """Map a matrix row to its (space index, chemical state)."""
        return row % self.n_space, row // self.n_space

    def row_index(self, space: int, state: int = 0) -> int:
        return state * self.n_space + space

    def dump(self, path) -> None:
        """Coordinate-triplet text dump (row, col, value) of nonzero entries."""
        M = self.matrix
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("# row col value\n")
            rows, cols = np.nonzero(M)
            for r, c in zip(rows, cols):
                fh.write(f"{r} {c} {M[r, c]:.17g}\n")


@dataclass(frozen=True)
class EigenCertificate:
    """Principal eigenpair plus the Collatz-Wielandt sandwich that proves it."""

    eigenvalue: float
    eigenvector: np.ndarray      # strictly positive, max component 1
    residual: float              # ||M g - lambda g||_inf
    cw_lower: float
    cw_upper: float
    iterations: int

    @property
    def cw_gap(self) -> float:
        return self.cw_upper - self.cw_lower

    def __post_init__(self):
        g = np.asarray(self.eigenvector, dtype=float)
        if np.any(g <= 0):
            raise ValueError("certificate eigenvector must be strictly positive")
        g.setflags(write=False)
        object.__setattr__(self, "eigenvector", g)


# ---------------------------------------------------------------------------
# the tilted-generator operator
# ---------------------------------------------------------------------------

def _as_momentum(p, dim: int) -> np.ndarray:
    vec = np.atleast_1d(np.asarray(p, dtype=float))
    if vec.shape != (dim,):
        raise ValueError(f"momentum {p!r} does not match model dimension {dim}")
    return vec


def _neighbor_tables(N: int, dim: int):
    """Flat index arrays of the +1 and -1 neighbor along each axis."""
    idx = np.arange(N ** dim).reshape((N,) * dim)
    ups = [np.roll(idx, -1, axis=a).ravel() for a in range(dim)]
    downs = [np.roll(idx, +1, axis=a).ravel() for a in range(dim)]
    return ups, downs


def _peclet_guard(max_drift: float, h: float, period: float, N: int,
                  context: str) -> None:
    if max_drift * h > 1.0:
        n_min = int(math.ceil(max_drift * period)) + 1
        raise PecletError(
            f"{context}: grid with N={N} does not resolve drift "
            f"(max |p - drift| = {max_drift:.3g}); need N >= {n_min}", n_min)


class TiltedGenerator:
    """Cell operator with the momentum factored out.

    Row (i, y) of the operator at momentum p hops to y +- h e_a with weight
    up[i, a, y] e^{+p_a h} / down[i, a, y] e^{-p_a h} and switches to (j, y)
    at rate switching[i, j, y].  Its diagonal is minus the sum of the untilted
    weights and rates, so rows sum to zero at p = 0.  The structural checks
    run once, here; `at` only applies the tilt and, when a drift field is
    given, the Peclet guard.
    """

    def __init__(self, kind: str, up: np.ndarray, down: np.ndarray,
                 switching: Optional[np.ndarray], neighbours: tuple, h: float,
                 drift: Optional[np.ndarray], metadata: dict):
        self.kind = kind
        self.up = up                  # (J, d, n) weights towards the +1 neighbor
        self.down = down              # (J, d, n) weights towards the -1 neighbor
        self.ups, self.downs = neighbours
        self.h = h
        self.drift = drift            # (K, n, d) for the Peclet bound, or None
        self.metadata = metadata
        context = f"assemble_{kind}"
        if not (np.all(up > 0) and np.all(down > 0)):
            raise ValueError(f"{context}: hop weights must be positive")
        J, _, n = up.shape
        if switching is not None:
            for i in range(J):
                for j in range(J):
                    if i != j and np.any(negative_rates(switching[i, j])):
                        raise ValueError(f"{context}: negative switching rate "
                                         f"sampled in r[{i+1}][{j+1}]")
            # rates touching zero round to -1e-16
            switching = np.clip(switching, 0.0, None)
            switching[range(J), range(J)] = 0.0
            # each layer is a cycle of positive hops, so the operator is
            # irreducible exactly when the switching digraph is
            if not _strongly_connected(np.max(switching, axis=2)):
                raise ValueError(f"{context}: switching rates leave the "
                                 "operator reducible")
        self.switching = switching    # (J, J, n) with zero diagonal, or None
        diagonal = np.zeros((J, n))
        for a in range(up.shape[1]):
            diagonal -= up[:, a] + down[:, a]
        if switching is not None:
            for j in range(J):
                diagonal -= switching[:, j]
        self.diagonal = diagonal

    def at(self, p) -> AssembledOperator:
        """The dense Metzler matrix at momentum p."""
        J, dim, n = self.up.shape
        pvec = _as_momentum(p, dim)
        if self.drift is not None:
            _peclet_guard(float(np.max(np.abs(pvec - self.drift))), self.h,
                          self.metadata["period"], self.metadata["N"],
                          f"assemble_{self.kind}")
        M = np.zeros((J * n, J * n))
        space = np.arange(n)
        for i in range(J):
            rows = i * n + space
            for a in range(dim):
                M[rows, i * n + self.ups[a]] += (
                    self.up[i, a] * math.exp(pvec[a] * self.h))
                M[rows, i * n + self.downs[a]] += (
                    self.down[i, a] * math.exp(-pvec[a] * self.h))
            if self.switching is not None:
                for j in range(J):
                    if j != i:
                        M[rows, j * n + space] += self.switching[i, j]
        M[np.diag_indices(J * n)] += self.diagonal.ravel()
        return AssembledOperator(M, self.kind, n, J,
                                 {**self.metadata, "p": tuple(pvec)})


def cell_operator(model: Model, regime: str, *, N: int = 128,
                  gamma: float = 1.0) -> TiltedGenerator:
    """The momentum-free cell operator of `model` in `regime` ("I" or "II")."""
    if isinstance(model, ContinuousModel):
        if regime == "I":
            return _continuous_I(model, N)
        return _continuous_II(model, N)
    if isinstance(model, DiscreteModel):
        if regime == "I":
            return _discrete_I(model, gamma)
        return _discrete_II(model)
    raise TypeError(f"not a model: {type(model)!r}")


def assemble_discrete_I(model: DiscreteModel, p: float,
                        gamma: float = 1.0) -> AssembledOperator:
    """Hop + switching operator on (ell * J) states, hop weights tilted by e^{+-p}.

    `gamma` scales the switching block; gamma -> infinity is the fast-switching
    regime whose limit is `assemble_discrete_II`.
    """
    return cell_operator(model, "I", gamma=gamma).at(p)


def assemble_discrete_II(model: DiscreteModel, p: float) -> AssembledOperator:
    """Averaged hop operator on ell sites, rates rbar_+-(k) from the stationary
    measure of the switching chain at each site."""
    return cell_operator(model, "II").at(p)


def assemble_continuous_I(model: ContinuousModel, p, N: int) -> AssembledOperator:
    """Tilted-generator discretization of the J-state cell operator on N**d points."""
    return cell_operator(model, "I", N=N).at(p)


def assemble_continuous_II(model: ContinuousModel, p, N: int) -> AssembledOperator:
    """Averaged scalar cell operator: drift is the stationary-measure average of
    the potential gradients; hop weights use mu-weighted potential increments so
    the J=1 / equal-potentials / constant-rates cases reduce exactly."""
    return cell_operator(model, "II", N=N).at(p)


# ---------------------------------------------------------------------------
# per-model weight builders
# ---------------------------------------------------------------------------

def _discrete_I(model: DiscreteModel, gamma: float) -> TiltedGenerator:
    return TiltedGenerator(
        "discrete_I", model.hop_rates_plus[:, None, :],
        model.hop_rates_minus[:, None, :], gamma * model.switching,
        _neighbor_tables(model.ell, 1), 1.0, None,
        {"ell": model.ell, "J": model.J, "gamma": gamma, "regime": "I"})


def _discrete_II(model: DiscreteModel) -> TiltedGenerator:
    rates = np.array([averaged_hop_rates(model, k) for k in range(model.ell)])
    return TiltedGenerator(
        "discrete_II", rates[None, None, :, 0], rates[None, None, :, 1], None,
        _neighbor_tables(model.ell, 1), 1.0, None,
        {"ell": model.ell, "J": model.J, "regime": "II"})


def _continuous_grid(model: ContinuousModel, N: int):
    if N < 3:
        raise ValueError("continuous assembly needs N >= 3")
    return model.period / N, grid_points(model.dim, N, model.period)


def _shifted(pts: np.ndarray, axis: int, offset: float) -> np.ndarray:
    out = pts.copy()
    out[:, axis] += offset
    return out


def _continuous_metadata(model: ContinuousModel, N: int, regime: str) -> dict:
    return {"N": N, "dim": model.dim, "J": model.J, "period": model.period,
            "regime": regime}


def _continuous_I(model: ContinuousModel, N: int) -> TiltedGenerator:
    dim, J = model.dim, model.J
    h, pts = _continuous_grid(model, N)
    fac = 1.0 / (2.0 * h * h)
    ups, downs = _neighbor_tables(N, dim)
    up = np.empty((J, dim, N ** dim))
    down = np.empty_like(up)
    for i, psi in enumerate(model.potentials):
        vals = psi.periodic_values(pts)
        for a in range(dim):
            mids = psi.periodic_values(_shifted(pts, a, 0.5 * h))
            # half-step increments: periodic part by evaluation, affine part
            # analytically so the torus seam carries the same local tilt
            tilt = float(psi.slope[a]) * 0.5 * h
            up[i, a] = fac * np.exp(-2.0 * ((mids - vals) + tilt))
            down[i, a] = fac * np.exp(-2.0 * ((mids[downs[a]] - vals) - tilt))
    switching = np.zeros((J, J, N ** dim))
    for i in range(J):
        for j in range(J):
            entry = model.rates.entries[i][j]
            if i != j and entry is not None:
                switching[i, j] = entry.values(pts)
    drift = np.stack([psi.gradients(pts) for psi in model.potentials])
    return TiltedGenerator("continuous_I", up, down, switching, (ups, downs),
                           h, drift, _continuous_metadata(model, N, "I"))


def _continuous_II(model: ContinuousModel, N: int) -> TiltedGenerator:
    dim, J = model.dim, model.J
    h, pts = _continuous_grid(model, N)

    def mu_at(points: np.ndarray) -> np.ndarray:
        out = np.empty((len(points), J))
        for r, y in enumerate(points):
            out[r] = stationary_measure(generator_at(model.rates, y))
        return out

    grads = np.stack([psi.gradients(pts) for psi in model.potentials])  # (J, ng, d)
    bbar = np.einsum("gj,jga->ga", mu_at(pts), grads)

    fac = 1.0 / (2.0 * h * h)
    ups, downs = _neighbor_tables(N, dim)
    up = np.empty((1, dim, N ** dim))
    down = np.empty_like(up)
    vals = np.stack([psi.periodic_values(pts) for psi in model.potentials])  # (J, ng)
    slopes = np.stack([psi.slope for psi in model.potentials])               # (J, d)
    for a in range(dim):
        mid_pts = _shifted(pts, a, 0.5 * h)
        mids = np.stack([psi.periodic_values(mid_pts) for psi in model.potentials])
        mu_q1 = mu_at(_shifted(pts, a, 0.25 * h))   # increment y -> y + h/2
        mu_q3 = mu_at(_shifted(pts, a, 0.75 * h))   # increment y + h/2 -> y + h
        tilt = slopes[:, a][:, None] * 0.5 * h                               # (J, 1)
        inc_up = np.einsum("gj,jg->g", mu_q1, (mids - vals) + tilt)
        inc_dn_src = np.einsum("gj,jg->g", mu_q3, (mids - vals[:, ups[a]]) - tilt)
        up[0, a] = fac * np.exp(-2.0 * inc_up)
        down[0, a] = fac * np.exp(-2.0 * inc_dn_src[downs[a]])
    return TiltedGenerator("continuous_II", up, down, None, (ups, downs), h,
                           bbar[None], _continuous_metadata(model, N, "II"))


# ---------------------------------------------------------------------------
# principal eigenpair with Collatz-Wielandt certificate
# ---------------------------------------------------------------------------

def collatz_wielandt_bounds(M, g: np.ndarray) -> tuple:
    """(min_i (Mg)_i/g_i, max_i (Mg)_i/g_i); a sandwich for the principal
    eigenvalue of a Metzler irreducible M, valid for any positive g."""
    M = M.matrix if isinstance(M, AssembledOperator) else np.asarray(M, dtype=float)
    g = np.asarray(g, dtype=float)
    if np.any(g <= 0):
        raise ValueError("Collatz-Wielandt bounds need a strictly positive vector")
    ratios = (M @ g) / g
    return float(np.min(ratios)), float(np.max(ratios))


def principal_eigenpair(M, tol: float = 1e-10,
                        max_iter: int = 10 ** 6) -> EigenCertificate:
    """Principal eigenpair of a Metzler irreducible matrix.

    Shifts by alpha = 1 + max |M_ii| so the matrix is nonnegative and primitive,
    then runs power iteration from the all-ones vector.  When the shift makes
    plain power iteration too slow (stiff continuous operators), it switches to
    inverse iteration with sigma just above the current Collatz-Wielandt upper
    bound; (sigma I - M) is then a nonsingular M-matrix, so the solve preserves
    positivity and every iterate still carries a valid sandwich.  Terminates
    when the sandwich width is below tol * (1 + |lambda|) (with a floor at the
    round-off level of the shifted matrix).
    """
    A = M.matrix if isinstance(M, AssembledOperator) else np.asarray(M, dtype=float)
    n = A.shape[0]
    if n == 1:
        lam = float(A[0, 0])
        return EigenCertificate(lam, np.ones(1), 0.0, lam, lam, 0)

    alpha = 1.0 + float(np.max(np.abs(np.diag(A))))
    w = np.ones(n)
    lower, upper = -np.inf, np.inf
    iters = 0
    power_budget = 40

    def bounds_from(vec):
        z = A @ vec + alpha * vec
        ratios = z / vec
        return z, float(np.min(ratios)) - alpha, float(np.max(ratios)) - alpha

    def threshold(lo, up):
        lam_est = 0.5 * (lo + up)
        return max(tol * (1.0 + abs(lam_est)), 4.0 * _EPS * (alpha + abs(lam_est)))

    while True:
        z, lo, up = bounds_from(w)
        lower, upper = max(lower, lo), min(upper, up)
        iters += 1
        if upper - lower <= threshold(lower, upper):
            break
        if iters >= max_iter:
            lam = 0.5 * (lower + upper)
            g = w / np.max(w)
            cert = EigenCertificate(lam, g, float(np.max(np.abs(A @ g - lam * g))),
                                    lower, upper, iters)
            raise ConvergenceError(
                f"no convergence after {iters} iterations "
                f"(CW gap {upper - lower:.3e})", cert)
        if iters < power_budget:
            w = z / np.max(z)
            continue
        # inverse-iteration step: sigma strictly above the principal eigenvalue
        gap = upper - lower
        sigma = upper + max(gap, 16.0 * _EPS * (alpha + abs(upper)))
        shifted = -A.copy()
        shifted[np.diag_indices(n)] += sigma
        try:
            x = np.linalg.solve(shifted, w)
        except np.linalg.LinAlgError:
            x = None
        if x is None or np.any(x <= 0):
            # singular or positivity lost to round-off: relax sigma, take a
            # plain power step to restore a safely positive iterate
            power_budget = iters + 4
            w = z / np.max(z)
            continue
        w = x / np.max(x)

    lam = 0.5 * (lower + upper)
    g = w / np.max(w)
    residual = float(np.max(np.abs(A @ g - lam * g)))
    return EigenCertificate(lam, g, residual, lower, upper, iters)
