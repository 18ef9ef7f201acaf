"""Cell-problem operators as Metzler matrices and their principal eigenpairs.

Every cell operator is one `TiltedGenerator`: per-state hop weights and a
switching block, all free of the momentum.  `cell_operator` fills it from one
of four weight builders (continuous/discrete x plain/averaged switching) once
per model; `TiltedGenerator.at(p)` tilts the hops by e^{+-p_a h} and returns
an `AssembledOperator`, a matrix with nonnegative off-diagonal entries whose
principal eigenvalue is the effective Hamiltonian at momentum p.  Each grid
slice along the first axis couples only to its two neighbor slices, so the
operator is stored as periodic block-tridiagonal blocks: one dense block per
slice (switching and hops along the other axes) and two diagonal couplings;
the dense matrix is built only on request.
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
iteration stops only once that sandwich is tighter than the tolerance, or
raises once it stops shrinking.  The solver works on the slice blocks:
products slice by slice, and inverse steps by block cyclic reduction, which
costs O(n b^2) for blocks of size b instead of a dense O(n^3) LU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .chains import averaged_hop_rates, generator_at, stationary_measure
from .fields import grid_points
from .model import (ContinuousModel, DiscreteModel, Model, _strongly_connected,
                    negative_rates)

_EPS = np.finfo(float).eps
# blocks up to this size are eliminated elementwise, larger ones by LAPACK
# (timed on the elimination alone: the crossover lies between b=6 and b=12)
_ELEMENTWISE_BLOCK = 8
# iterations without a narrower CW gap before the solver gives up
_STALL_ITERATIONS = 32


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


def _slice_layout(values: np.ndarray, m: int) -> np.ndarray:
    """(J, n) state-major values -> (m, b): m slices along the first grid
    axis, each ordered by (state, remaining grid coordinates)."""
    return values.reshape(len(values), m, -1).transpose(1, 0, 2).reshape(m, -1)


@dataclass(frozen=True)
class AssembledOperator:
    """Metzler matrix of one cell problem, stored as periodic block-tridiagonal
    slices along the first grid axis, with index bookkeeping.

    Slice k holds the unknowns whose first grid coordinate is k, ordered by
    (state, remaining grid coordinates); `index[k, l]` is the state-major row
    of its l-th unknown.  Row l of slice k couples to its own slice through
    `blocks[k]` and to the same unknown of slice k+1 / k-1 (mod m) with weight
    `up[k, l]` / `down[k, l]`.  `matrix` scatters these entries into the dense
    state-major matrix, on demand.
    """

    blocks: np.ndarray   # (m, b, b)
    up: np.ndarray       # (m, b)
    down: np.ndarray     # (m, b)
    kind: str            # "discrete_I" | "discrete_II" | "continuous_I" | "continuous_II"
    n_space: int         # grid points (N**d) or torus sites (ell)
    n_states: int        # chemical states carried by the matrix rows (1 if averaged out)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        m, b, _ = self.blocks.shape
        if (self.up.shape != (m, b) or self.down.shape != (m, b)
                or self.blocks.shape != (m, b, b) or self.n_space % m
                or m * b != self.n_space * self.n_states):
            raise ValueError(f"{m} slices of {b} unknowns do not match "
                             f"{self.n_space} x {self.n_states} rows")

    @property
    def shape(self):
        n = self.n_space * self.n_states
        return (n, n)

    @property
    def index(self) -> np.ndarray:
        """(m, b) state-major row of every slice-local unknown."""
        rows = np.arange(self.n_space * self.n_states)
        return _slice_layout(rows.reshape(self.n_states, -1), len(self.blocks))

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense state-major matrix (built on first use)."""
        idx = self.index
        M = np.zeros(self.shape)
        M[idx, np.roll(idx, -1, axis=0)] += self.up
        M[idx, np.roll(idx, 1, axis=0)] += self.down
        M[idx[:, :, None], idx[:, None, :]] += self.blocks
        return M

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
    fallbacks: int = 0           # power steps taken after failed inverse steps

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
    weights and rates, so rows sum to zero at p = 0.  `side` is the number of
    grid points (or sites) per axis.  The structural checks and the
    momentum-free part of the slice blocks are done once, here; `at` only
    applies the tilt and, when a drift field is given, the Peclet guard.
    """

    def __init__(self, kind: str, up: np.ndarray, down: np.ndarray,
                 switching: Optional[np.ndarray], side: int, h: float,
                 drift: Optional[np.ndarray], metadata: dict):
        self.kind = kind
        self.up = up                  # (J, d, n) weights towards the +1 neighbor
        self.down = down              # (J, d, n) weights towards the -1 neighbor
        self.h = h
        self.drift = drift            # (K, n, d) for the Peclet bound, or None
        self.metadata = metadata
        context = f"assemble_{kind}"
        if not (np.all(up > 0) and np.all(down > 0)):
            raise ValueError(f"{context}: hop weights must be positive")
        J, dim, n = up.shape
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
        diagonal = np.zeros((J, n))
        for a in range(dim):
            diagonal -= up[:, a] + down[:, a]
        if switching is not None:
            for j in range(J):
                diagonal -= switching[:, j]

        # slice k of the grid holds points k*R .. (k+1)*R - 1; point y of
        # state i is unknown local[i, y] of slice slice_of[y]
        R = n // side
        self._slice_of = np.arange(n) // R
        self._local = np.arange(J)[:, None] * R + np.arange(n) % R
        fixed = np.zeros((side, J * R, J * R))
        if switching is not None:
            fixed[self._slice_of, self._local[:, None], self._local] = switching
        fixed[self._slice_of, self._local, self._local] = diagonal
        self._fixed = fixed
        ups, downs = _neighbor_tables(side, dim)
        # hops along axes >= 1 stay inside a slice
        self._in_slice = [(a, self._local[:, ups[a]], self._local[:, downs[a]])
                          for a in range(1, dim)]

    def at(self, p) -> AssembledOperator:
        """The Metzler operator at momentum p, as slice blocks."""
        J, dim, n = self.up.shape
        pvec = _as_momentum(p, dim)
        if self.drift is not None:
            _peclet_guard(float(np.max(np.abs(pvec - self.drift))), self.h,
                          self.metadata["period"], self.metadata["N"],
                          f"assemble_{self.kind}")
        grow = [math.exp(pa * self.h) for pa in pvec]
        shrink = [math.exp(-pa * self.h) for pa in pvec]
        blocks = self._fixed.copy()
        for a, up_cols, down_cols in self._in_slice:
            blocks[self._slice_of, self._local, up_cols] = self.up[:, a] * grow[a]
            blocks[self._slice_of, self._local, down_cols] = (
                self.down[:, a] * shrink[a])
        m = len(blocks)
        return AssembledOperator(blocks, _slice_layout(self.up[:, 0] * grow[0], m),
                                 _slice_layout(self.down[:, 0] * shrink[0], m),
                                 self.kind, n, J,
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
        model.ell, 1.0, None,
        {"ell": model.ell, "J": model.J, "gamma": gamma, "regime": "I"})


def _discrete_II(model: DiscreteModel) -> TiltedGenerator:
    rates = np.array([averaged_hop_rates(model, k) for k in range(model.ell)])
    return TiltedGenerator(
        "discrete_II", rates[None, None, :, 0], rates[None, None, :, 1], None,
        model.ell, 1.0, None,
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
    return TiltedGenerator("continuous_I", up, down, switching, N, h, drift,
                           _continuous_metadata(model, N, "I"))


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
    return TiltedGenerator("continuous_II", up, down, None, N, h, bbar[None],
                           _continuous_metadata(model, N, "II"))


# ---------------------------------------------------------------------------
# principal eigenpair with Collatz-Wielandt certificate
# ---------------------------------------------------------------------------

def _slices(M) -> tuple:
    """(A, B, C, index) of M: diagonal blocks (m, b, b), up and down couplings
    (m, b) and the state-major row of every unknown.  A raw matrix is one
    dense block without couplings."""
    if isinstance(M, AssembledOperator):
        return M.blocks, M.up, M.down, M.index
    A = np.asarray(M, dtype=float)
    zero = np.zeros((1, len(A)))
    return A[None], zero, zero, np.arange(len(A))[None]


def _apply(A, B, C, x: np.ndarray) -> np.ndarray:
    """z_k = A_k x_k + B_k x_{k+1} + C_k x_{k-1}, slices mod m."""
    ring = np.concatenate((x[-1:], x, x[:1]))
    return (A @ x[..., None])[..., 0] + B * ring[2:] + C * ring[:-2]


def _block_solve(D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """X_k = D_k^{-1} R_k for every k.

    Every D_k here is a nonsingular M-matrix, whose pivots stay positive
    without pivoting, so small blocks are eliminated (Gauss-Jordan) with array
    operations over k; larger ones go to LAPACK.
    """
    b = D.shape[-1]
    if b > _ELEMENTWISE_BLOCK:
        return np.linalg.solve(D, R)
    aug = np.concatenate([D, R], axis=2)
    for c in range(b):
        pivot_row = aug[:, c] / aug[:, c, c, None]
        aug -= aug[:, :, c, None] * pivot_row[:, None]
        aug[:, c] = pivot_row
    return aug[:, :, b:]


def _cyclic_solve(D, U, L, f: np.ndarray) -> np.ndarray:
    """Solve D_k x_k + U_k x_{k+1} + L_k x_{k-1} = f_k (k mod m) by block
    cyclic reduction (Buzbee, Golub & Nielson 1970).

    The odd slices are eliminated and the kept even slices form a periodic
    block-tridiagonal system of ceil(m/2) slices; when m is odd the last kept
    slice stays coupled to slice 0 directly.  Schur complements of a
    nonsingular M-matrix are M-matrices, so no elimination needs pivoting.
    One slice (a raw matrix, or the last level) is solved by a dense LU, its
    couplings folded into its block.
    """
    m, b = f.shape
    if m == 1:
        return np.linalg.solve(D + U + L, f[..., None])[..., 0]
    # odd slice j' = 2j+1 lies between kept slices j and j+1 (mod the kept
    # count); with m odd, kept slice 0 has no eliminated slice below it
    n_odd, lo = m // 2, m % 2
    # X_j = D_{2j+1}^{-1} [L_{2j+1} | U_{2j+1} | f_{2j+1}]
    X = _block_solve(D[1::2], np.concatenate(
        [L[1::2], U[1::2], f[1::2, :, None]], axis=2))
    Y = U[::2][:n_odd] @ X
    Z = L[::2][lo:] @ np.concatenate([X[-1:], X])[lo:lo + n_odd]
    D2, U2, L2, f2 = D[::2].copy(), U[::2].copy(), L[::2].copy(), f[::2].copy()
    D2[:n_odd] -= Y[..., :b]
    D2[lo:] -= Z[..., b:2 * b]
    U2[:n_odd] = -Y[..., b:2 * b]
    L2[lo:] = -Z[..., :b]
    f2[:n_odd] -= Y[..., 2 * b]
    f2[lo:] -= Z[..., 2 * b]
    kept = _cyclic_solve(D2, U2, L2, f2)
    x = np.empty_like(f)
    x[::2] = kept
    neighbours = np.concatenate([kept, np.concatenate([kept[1:], kept[:1]])],
                                axis=1)[:n_odd]
    x[1::2] = X[..., 2 * b] - (X[..., :2 * b] @ neighbours[..., None])[..., 0]
    return x


def _positive_vector(g, n: int, what: str) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"{what} of shape {g.shape} does not match {n} rows")
    if not np.all((g > 0) & (g < np.inf)):
        raise ValueError(f"{what} must be strictly positive and finite")
    return g


def collatz_wielandt_bounds(M, g: np.ndarray) -> tuple:
    """(min_i (Mg)_i/g_i, max_i (Mg)_i/g_i); a sandwich for the principal
    eigenvalue of a Metzler irreducible M, valid for any positive g."""
    A, B, C, index = _slices(M)
    x = _positive_vector(g, index.size, "Collatz-Wielandt vector")[index]
    ratios = _apply(A, B, C, x) / x
    return float(np.min(ratios)), float(np.max(ratios))


def principal_eigenpair(M, tol: float = 1e-10, max_iter: int = 10 ** 6,
                        start: Optional[np.ndarray] = None) -> EigenCertificate:
    """Principal eigenpair of a Metzler irreducible matrix (an ndarray or an
    `AssembledOperator`).

    Runs inverse iteration from `start` (a strictly positive state-major
    vector, e.g. the eigenvector of a nearby operator) or from the all-ones
    vector, with sigma just above the current Collatz-Wielandt upper bound:
    (sigma I - M) is then a nonsingular M-matrix, so the solve preserves
    positivity and every iterate still carries a valid sandwich.  When an
    inverse step is singular or loses positivity to round-off, the solver
    takes 4 power steps with the shift alpha = 1 + max |M_ii| (which makes
    the matrix nonnegative and primitive) and returns to inverse steps; the
    certificate counts them as `fallbacks`.  Terminates when the sandwich
    width is below tol * (1 + |lambda|) (with a floor at the round-off level
    of the shifted matrix); raises `ConvergenceError` after `max_iter`
    iterations, or once the width has not shrunk for `_STALL_ITERATIONS`
    iterations in a row.

    An operator is iterated on its slice blocks: products and inverse steps
    (block cyclic reduction) never form the dense matrix.  A raw matrix is a
    single slice, iterated with a dense product and a dense LU.
    """
    A, B, C, index = _slices(M)
    m, b = B.shape
    if start is not None:
        start = _positive_vector(start, m * b, "start vector")
    if m * b == 1:
        lam = float(A[0, 0, 0] + B[0, 0] + C[0, 0])
        return EigenCertificate(lam, np.ones(1), 0.0, lam, lam, 0)

    alpha = 1.0 + float(np.max(np.abs(np.diagonal(A, axis1=1, axis2=2))))
    U, L = -B[..., None] * np.eye(b), -C[..., None] * np.eye(b)
    diag = (slice(None), range(b), range(b))
    w = np.ones((m, b)) if start is None else start[index] / np.max(start)
    lower, upper = -np.inf, np.inf
    best_gap, since_best = np.inf, 0
    iters = fallbacks = power_until = 0

    def bounds_from(vec):
        z = _apply(A, B, C, vec) + alpha * vec
        ratios = z / vec
        return z, float(ratios.min()) - alpha, float(ratios.max()) - alpha

    def threshold(lo, up):
        lam_est = 0.5 * (lo + up)
        return max(tol * (1.0 + abs(lam_est)), 4.0 * _EPS * (alpha + abs(lam_est)))

    def certificate(lam):
        g = w / np.max(w)
        residual = float(np.max(np.abs(_apply(A, B, C, g) - lam * g)))
        state_major = np.empty(m * b)
        state_major[index] = g
        return EigenCertificate(lam, state_major, residual, lower, upper, iters,
                                fallbacks)

    while True:
        z, lo, up = bounds_from(w)
        lower, upper = max(lower, lo), min(upper, up)
        iters += 1
        gap, limit = upper - lower, threshold(lower, upper)
        if gap <= limit:
            break
        if gap < best_gap:
            best_gap, since_best = gap, 0
        else:
            since_best += 1
        if since_best >= _STALL_ITERATIONS:
            raise ConvergenceError(
                f"CW gap stalled at {gap:.3e} above threshold {limit:.3e}",
                certificate(0.5 * (lower + upper)))
        if iters >= max_iter:
            raise ConvergenceError(
                f"no convergence after {iters} iterations "
                f"(CW gap {gap:.3e})", certificate(0.5 * (lower + upper)))
        if iters < power_until:
            fallbacks += 1
            w = z / np.max(z)
            continue
        # inverse-iteration step: sigma strictly above the principal eigenvalue
        sigma = upper + max(gap, 16.0 * _EPS * (alpha + abs(upper)))
        shifted = -A
        shifted[diag] += sigma
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                x = _cyclic_solve(shifted, U, L, w)
        except np.linalg.LinAlgError:
            x = None
        if x is None or not np.all((x > 0) & (x < np.inf)):
            # singular or positivity lost to round-off: plain power steps
            # restore a safely positive iterate
            power_until = iters + 4
            fallbacks += 1
            w = z / np.max(z)
            continue
        w = x / np.max(x)

    return certificate(0.5 * (lower + upper))
