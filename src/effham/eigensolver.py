"""Cell-problem operators as Metzler matrices and their principal eigenpairs.

Every cell operator is one `TiltedGenerator`: per-state hop weights and a
switching block, all free of the momentum.  `cell_operator` fills it once per
model from one weight builder per model kind.  Regime II is regime I
averaged: the same per-state increments (continuous) or hop rates (discrete),
averaged against the stationary law of the switching chain, with no
switching block; the regime is the model's own, `model.regime`.
`TiltedGenerator.at(p)` tilts the hops by e^{+-p_a h} and returns an
`AssembledOperator`, a matrix with nonnegative off-diagonal entries whose
principal eigenvalue is the effective Hamiltonian at momentum p.  Each grid
slice along the first axis couples only to its two neighbor slices, so the
operator is stored as periodic block-tridiagonal blocks: one dense block per
slice (switching and hops along the other axes) and two diagonal couplings;
no library path forms the dense matrix.  `AssembledOperator.T` is the
transpose in the same layout; at p = 0 its principal eigenvector is the
stationary law of the cell process.
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
raises once it stops shrinking.  Each inverse step shifts to the middle of
the sandwich: a solution of either sign moves one end of it past the
middle, and a singular or mixed-sign step is retried above the sandwich,
where every later step of that solve stays.
The solver works on the slice blocks: products slice by slice, and inverse
steps by block cyclic reduction, which costs O(n b^2) for blocks of size b
instead of a dense O(n^3) LU; slices of one unknown (b = 1) reduce and
multiply as plain vectors with the same arithmetic, and it ends at one dense
LU of at most 64 unknowns, filled through cells computed once per base shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple, Optional, Union

import numpy as np

from .chains import (_measures_or_raise, _switching_findings, point_label,
                     state_average)
from .fields import Frozen, freeze, grid_points, read_only
from .model import ContinuousModel, DiscreteModel, Model

_EPS = np.finfo(float).eps
# blocks up to this size are eliminated elementwise, larger ones by LAPACK
# (timed on the elimination alone: the crossover lies between b=6 and b=12)
_ELEMENTWISE_BLOCK = 8
# cyclic reduction stops once a level has at most this many unknowns and
# solves them by one dense LU (timed on 1-D N=256 sweeps, J=2: 32 was within
# 5 %, 128 about 10 % slower)
_DENSE_BASE = 64
# an inverse step that failed k times in a row is retried 2**k times this
# fraction of the CW gap above the CW upper bound, where sigma I - M is a
# nonsingular M-matrix and a positive solution is certain up to round-off
_SHIFT_FRACTION = 1.0 / 16.0
# iterations without a narrower CW gap, and in all, before the solver gives up
_STALL_ITERATIONS = 32
_MAX_ITERATIONS = 10 ** 6


class PecletError(ValueError):
    """Grid too coarse for the drift field; carries the minimal admissible N."""

    def __init__(self, message: str, minimal_n: int):
        super().__init__(message)
        self.minimal_n = minimal_n


class ConvergenceError(RuntimeError):
    """CW gap stalled or iteration cap hit; the best certificate is attached."""

    def __init__(self, message: str, certificate: "EigenCertificate"):
        super().__init__(message)
        self.certificate = certificate

    def __reduce__(self):
        # unpickled with its certificate, as a worker's child sends it back
        return type(self), (*self.args, self.certificate)


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
    `up[k, l]` / `down[k, l]`.
    """

    blocks: np.ndarray   # (m, b, b)
    up: np.ndarray       # (m, b)
    down: np.ndarray     # (m, b)
    n_space: int         # grid points (N**d) or torus sites (ell)
    n_states: int        # chemical states carried by the matrix rows (1 if averaged out)

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

    @property
    def T(self) -> "AssembledOperator":
        """The transpose in the same slice layout: blocks transposed per
        slice, and slice k's coupling to k+1 (k-1) is slice k+1's coupling
        down (slice k-1's coupling up)."""
        # contiguous blocks keep the stacked products on BLAS
        blocks = np.ascontiguousarray(self.blocks.transpose(0, 2, 1))
        return AssembledOperator(blocks, np.roll(self.down, -1, axis=0),
                                 np.roll(self.up, 1, axis=0), self.n_space,
                                 self.n_states)


@dataclass(frozen=True)
class EigenCertificate(Frozen):
    """Principal eigenpair plus the Collatz-Wielandt sandwich that proves it."""

    eigenvalue: float
    eigenvector: np.ndarray      # strictly positive, max component 1
    residual: float              # ||M g - lambda g||_inf
    cw_lower: float
    cw_upper: float
    iterations: int
    fallbacks: int = 0           # failed inverse steps, retried at a wider shift

    @property
    def cw_gap(self) -> float:
        return self.cw_upper - self.cw_lower

    def __post_init__(self):
        g = freeze(self, "eigenvector")
        _positive_vector(g, g.size, "certificate eigenvector")


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
    grid points (or sites) per axis and `period` the cell length along each
    axis, so the grid step is h = period / side.  The hop-weight check, the
    momentum-free part of the slice blocks, the first-axis hop weights in
    slice order and the drift's range are done once, here (the builders
    check the rates); `at` applies the tilt and any Peclet guard.
    """

    def __init__(self, kind: str, up: np.ndarray, down: np.ndarray,
                 switching: Optional[np.ndarray], side: int, period: float,
                 drift: Optional[np.ndarray]):
        self.kind = kind
        self.up = up                  # (J, d, n) weights towards the +1 neighbor
        self.down = down              # (J, d, n) weights towards the -1 neighbor
        self.side, self.period, self.h = side, period, period / side
        self.drift = drift            # (K, n, d) for the Peclet bound, or None
        if not (np.all(up > 0) and np.all(down > 0)):
            raise ValueError(f"assemble_{kind}: hop weights must be positive")
        J, dim, n = up.shape
        # max |p - drift| is reached at a per-axis minimum or maximum of the
        # drift: (2, d), or None
        self._drift_range = None if drift is None else np.stack(
            [drift.min(axis=(0, 1)), drift.max(axis=(0, 1))])
        # untilted couplings to the next and previous slice, (side, J * R)
        self._up_slices = _slice_layout(up[:, 0], side)
        self._down_slices = _slice_layout(down[:, 0], side)
        diagonal = np.zeros((J, n))
        for a in range(dim):
            diagonal -= up[:, a] + down[:, a]
        if switching is not None:
            # a sample between the cut of `chains.negative_rates` and 0 is a
            # zero rate, and the diagonal is ignored
            switching = np.clip(switching, 0.0, None)
            switching[range(J), range(J)] = 0.0
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
        if self._drift_range is not None:
            _peclet_guard(float(np.max(np.abs(pvec - self._drift_range))),
                          self.h, self.period, self.side, f"assemble_{self.kind}")
        grow = [math.exp(pa * self.h) for pa in pvec]
        shrink = [math.exp(-pa * self.h) for pa in pvec]
        blocks = self._fixed.copy()
        for a, up_cols, down_cols in self._in_slice:
            blocks[self._slice_of, self._local, up_cols] = self.up[:, a] * grow[a]
            blocks[self._slice_of, self._local, down_cols] = (
                self.down[:, a] * shrink[a])
        return AssembledOperator(blocks, self._up_slices * grow[0],
                                 self._down_slices * shrink[0], n, J)


def cell_operator(model: Model, *, N: int = 128) -> TiltedGenerator:
    """The momentum-free cell operator of `model` in its own regime.  Regime
    II, the limit of `model.scaled_switching` as gamma -> infinity, has no
    switching block."""
    if isinstance(model, ContinuousModel):
        return _continuous(model, N)
    if isinstance(model, DiscreteModel):
        return _discrete(model)
    raise TypeError(f"not a model: {type(model)!r}")


def assemble_discrete_I(model: DiscreteModel, p: float) -> AssembledOperator:
    """Hop + switching operator on (ell * J) states, hop weights tilted by e^{+-p}."""
    return cell_operator(replace(model, regime="I")).at(p)


def assemble_discrete_II(model: DiscreteModel, p: float) -> AssembledOperator:
    """Averaged hop operator on ell sites, rates rbar_+-(k) from the stationary
    measure of the switching chain at each site."""
    return cell_operator(replace(model, regime="II")).at(p)


def assemble_continuous_I(model: ContinuousModel, p, N: int) -> AssembledOperator:
    """Tilted-generator discretization of the J-state cell operator on N**d points."""
    return cell_operator(replace(model, regime="I"), N=N).at(p)


def assemble_continuous_II(model: ContinuousModel, p, N: int) -> AssembledOperator:
    """Averaged scalar cell operator: drift is the stationary-measure average of
    the potential gradients; hop weights use mu-weighted potential increments so
    the J=1 / equal-potentials / constant-rates cases reduce exactly."""
    return cell_operator(replace(model, regime="II"), N=N).at(p)


# ---------------------------------------------------------------------------
# per-model weight builders
# ---------------------------------------------------------------------------

def _check_rates(kind: str, R: np.ndarray, label, sampled: bool) -> None:
    """Raise the first `chains._switching_findings` of the rates R (n, J, J)
    that `assemble_<kind>` reads.  Each state's hops form a cycle, so the
    regime-I operator is irreducible exactly when the switching coupling is."""
    for _, location, detail in _switching_findings(R, label, sampled):
        raise ValueError(f"assemble_{kind}: {detail} at {location}")


def _discrete(model: DiscreteModel) -> TiltedGenerator:
    """Hop rates of each state; regime II averages them at every site."""
    regime, R = model.regime, np.moveaxis(model.switching, -1, 0)
    _check_rates(f"discrete_{regime}", R, lambda k: f"k={k}", sampled=False)
    up, down = model.hop_rates_plus, model.hop_rates_minus
    if regime == "I":
        switching = model.switching
    else:
        mu = _measures_or_raise(R, lambda k: f"site k={k}")   # checked
        up, down = state_average(mu, up)[None], state_average(mu, down)[None]
        switching = None
    return TiltedGenerator(f"discrete_{regime}", up[:, None], down[:, None],
                           switching, model.ell, model.ell, None)


def _continuous(model: ContinuousModel, N: int) -> TiltedGenerator:
    """Hop weights of `_fitted_hops`: one row per state in regime I, one
    row of increments averaged against the switching laws in regime II.
    The rates are read, checked and (regime II) solved for their laws once,
    on the grid stacked with its quarter points y + h/4 and y + 3h/4 per
    axis."""
    if N < 3:
        raise ValueError("continuous assembly needs N >= 3")
    regime, dim, h = model.regime, model.dim, model.period / N
    pts = grid_points(dim, N, model.period)
    unit = np.eye(dim)
    stack = pts if regime == "I" else np.concatenate(
        [pts] + [pts + q * h * unit[a] for a in range(dim) for q in (0.25, 0.75)])
    drift = np.stack([psi.gradients(pts) for psi in model.potentials])  # (J, n, d)
    R = model.rates.values(stack)
    _check_rates(f"continuous_{regime}", R, lambda k: point_label(stack[k]),
                 sampled=True)
    if regime == "I":
        switching, laws = np.moveaxis(R, 0, -1), None
    else:
        # rates checked above; laws[0] on the grid, laws[1 + 2a] and
        # laws[2 + 2a] at its quarter points along axis a
        laws = _measures_or_raise(R, lambda k: point_label(stack[k]))
        laws = laws.reshape(1 + 2 * dim, len(pts), -1)
        drift = state_average(laws[0], drift)[None]
        switching = None
    up, down = _fitted_hops(model, N, laws)
    return TiltedGenerator(f"continuous_{regime}", up, down, switching, N,
                           model.period, drift)


def _fitted_hops(model: ContinuousModel, N: int, laws=None) -> tuple:
    """Exponentially fitted hop weights exp(-2 * half-step increment) /
    (2 h^2) towards y + h e_a and y - h e_a on the N**d grid, (J, d, N**d)
    each; with regime-II `laws` (1 + 2d, N**d, J), the increments y -> y +-
    h/2 are first averaged against the laws at their quarter points y +- h/4
    (laws[1 + 2a] and laws[2 + 2a] along axis a), to one row.  The regime-I
    rows are also the hop rates of the Monte Carlo walk."""
    dim, h = model.dim, model.period / N
    pts = grid_points(dim, N, model.period)
    unit = np.eye(dim)
    fac = 1.0 / (2.0 * h * h)
    _, downs = _neighbor_tables(N, dim)
    vals = np.stack([psi.periodic_values(pts) for psi in model.potentials])
    slopes = np.stack([psi.slope for psi in model.potentials])        # (J, d)
    rows = model.J if laws is None else 1
    up = np.empty((rows, dim, N ** dim))
    down = np.empty_like(up)
    for a in range(dim):
        mid_pts = pts + 0.5 * h * unit[a]
        mids = np.stack([psi.periodic_values(mid_pts) for psi in model.potentials])
        # half-step increments: periodic part by evaluation, affine part
        # analytically so the torus seam carries the same local tilt
        tilt = slopes[:, a, None] * 0.5 * h
        inc_up = (mids - vals) + tilt
        inc_down = (mids[:, downs[a]] - vals) - tilt
        if laws is not None:
            # y - h/4 is the 3/4 point of the step up from y - h
            inc_up = state_average(laws[1 + 2 * a], inc_up)
            inc_down = state_average(laws[2 + 2 * a][downs[a]], inc_down)
        up[:, a] = fac * np.exp(-2.0 * inc_up)
        down[:, a] = fac * np.exp(-2.0 * inc_down)
    return up, down


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
    """z_k = A_k x_k + B_k x_{k+1} + C_k x_{k-1}, slices mod m.  Slices of
    one unknown multiply as plain vectors: a 1 x 1 product is one exact
    multiply."""
    ring = np.concatenate((x[-1:], x, x[:1]))
    if x.shape[-1] == 1:
        Ax = A.reshape(x.shape) * x
    else:
        Ax = (A @ x[..., None])[..., 0]
    return Ax + B * ring[2:] + C * ring[:-2]


def _block_solve(D: np.ndarray, R: np.ndarray) -> np.ndarray:
    """X_k = D_k^{-1} R_k for every k.

    Small blocks are eliminated (Gauss-Jordan) without pivoting, with array
    operations over k; larger ones go to LAPACK.  For a shift above the
    principal eigenvalue every D_k is a nonsingular M-matrix, whose pivots
    stay positive; below it a pivot may vanish or change sign, and the
    solver rejects the resulting non-finite or mixed-sign solution.
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


@lru_cache(maxsize=8)
def _identity(b: int) -> np.ndarray:
    """The read-only b x b identity; one per slice width b, for the few
    widths in use."""
    return read_only(np.eye(b))


def _dense(C: np.ndarray) -> np.ndarray:
    """Diagonal couplings (m, b) expanded to blocks (m, b, b); blocks and
    one-unknown couplings (m,) are returned as they are."""
    return C[..., None] * _identity(C.shape[-1]) if C.ndim == 2 else C


@lru_cache(maxsize=None)
def _base_cells(m: int, b: int) -> tuple:
    """Flat cells of the dense (m b) x (m b) matrix of a periodic system of
    m >= 2 slices of b unknowns: where D_k, U_k and L_k go, each as (m, b, b)
    in the blocks' own order.  Read-only, computed once per base shape."""
    k, r, c = np.ix_(np.arange(m), np.arange(b), np.arange(b))
    row = (k * b + r) * (m * b)
    return tuple(read_only(row + ((k + shift) % m) * b + c, np.intp)
                 for shift in (0, 1, -1))


def _coupled(C: np.ndarray, X: np.ndarray) -> np.ndarray:
    """C_k X_k for coupling blocks (m, b, b), or for diagonal couplings (m, b)
    and one-unknown couplings (m,) as row scalings (the same products: the
    dropped terms are exact zeros)."""
    return C @ X if C.ndim == 3 else C[..., None] * X


def _cyclic_solve(D, U, L, f: np.ndarray) -> np.ndarray:
    """Solve D_k x_k + U_k x_{k+1} + L_k x_{k-1} = f_k (k mod m) by block
    cyclic reduction (Buzbee, Golub & Nielson 1970).

    The couplings U, L are blocks (m, b, b) or, as at the first level of an
    operator, diagonals (m, b).  The odd slices are eliminated and the kept
    even slices form a periodic block-tridiagonal system of ceil(m/2)
    slices, whose couplings are dense; when m is odd the last kept slice
    stays coupled to slice 0 directly.  Slices of one unknown (b = 1:
    regime II in 1-D, every single-state model) are reduced as plain
    vectors, and the levels below them take and return D, U, L, f and x of
    shape (m,): one stacked divide for the odd slices and vector updates
    for the kept ones do the arithmetic of (m, 1, 1) blocks, so the
    solution is the block path's bit for bit.  The eliminations do not pivot:
    Schur complements of a nonsingular M-matrix (a shift above the
    principal eigenvalue) are M-matrices, and below it the caller checks
    the solution's sign and finiteness instead.  The
    recursion ends at one slice (a raw matrix, or the last level of a 2-D
    grid) or at most `_DENSE_BASE` unknowns, solved by one pivoted dense
    LU, so a 1-D grid of 256 points takes 2 to 4 reduction levels (b = 1 to
    3), not 8.  One slice is its block plus both couplings, summed left to
    right; m >= 2 slices are scattered into the zero matrix through the flat
    cells of `_base_cells`, computed once per (m, b) and read-only, in the
    order D, U, L, so at m = 2 (and m = 1) the couplings that share a block
    add up.  Either way the matrix is the one a fancy-index scatter built
    per call, bit for bit.
    """
    shape, m = f.shape, len(f)
    b = f.size // m   # 1 for a vector level
    if m == 1 or m * b <= _DENSE_BASE:
        if m == 1:
            system = (D.reshape(b, b) + _dense(U).reshape(b, b)
                      + _dense(L).reshape(b, b))
        else:
            # at m = 2 the couplings to k+1 and k-1 share a block, U first
            on, above, below = _base_cells(m, b)
            system = np.zeros(m * b * m * b)
            system[on] = D.reshape(m, b, b)
            system[above] += _dense(U).reshape(m, b, b)
            system[below] += _dense(L).reshape(m, b, b)
        return np.linalg.solve(system.reshape(m * b, m * b),
                               f.reshape(m * b)).reshape(shape)
    # odd slice j' = 2j+1 lies between kept slices j and j+1 (mod the kept
    # count); with m odd, kept slice 0 has no eliminated slice below it
    n_odd, lo = m // 2, m % 2
    # X_j = D_{2j+1}^{-1} [L_{2j+1} | U_{2j+1} | f_{2j+1}], and the columns
    # of X that multiply x_{j}, x_{j+1} and 1
    if b == 1:
        D, U, L, f = (a.reshape(m) for a in (D, U, L, f))
        X = np.concatenate([L[1::2, None], U[1::2, None], f[1::2, None]],
                           axis=1) / D[1::2, None]
        lower, upper, rhs = 0, 1, 2
    else:
        X = _block_solve(D[1::2], np.concatenate(
            [_dense(L[1::2]), _dense(U[1::2]), f[1::2, :, None]], axis=2))
        lower, upper, rhs = slice(0, b), slice(b, 2 * b), 2 * b
    Y = _coupled(U[::2][:n_odd], X)
    Z = _coupled(L[::2][lo:], np.concatenate([X[-1:], X])[lo:lo + n_odd])
    D2, f2 = D[::2].copy(), f[::2].copy()
    D2[:n_odd] -= Y[..., lower]
    D2[lo:] -= Z[..., upper]
    U2 = np.concatenate([-Y[..., upper], _dense(U[::2][n_odd:])])
    L2 = np.concatenate([_dense(L[:lo]), -Z[..., lower]])
    f2[:n_odd] -= Y[..., rhs]
    f2[lo:] -= Z[..., rhs]
    kept = _cyclic_solve(D2, U2, L2, f2).reshape(-1, b)
    # back-substitution by the block path's stacked product, for b = 1 too
    X = X.reshape(n_odd, b, 2 * b + 1)
    x = np.empty((m, b))
    x[::2] = kept
    neighbours = np.concatenate([kept, np.concatenate([kept[1:], kept[:1]])],
                                axis=1)[:n_odd]
    x[1::2] = X[..., 2 * b] - (X[..., :2 * b] @ neighbours[..., None])[..., 0]
    return x.reshape(shape)


def _shifted_solve(A, B, C, sigma: float, f: np.ndarray) -> np.ndarray:
    """Solve (sigma I - M) x = f for M in slices (A, B, C), f and x in slice
    layout.  With sigma above the principal eigenvalue of M, sigma I - M is
    a nonsingular M-matrix and a positive f gives a positive x; with sigma
    below it, x may have either sign, or be non-finite where an unpivoted
    elimination in `_cyclic_solve` meets a zero pivot."""
    m, b, _ = A.shape
    # C order, so the block diagonals are a strided view of the copy
    shifted = np.negative(A, order="C")
    shifted.reshape(m, b * b)[:, ::b + 1] += sigma
    return _cyclic_solve(shifted, -B, -C, f)


def _positive_vector(g, n: int, what: str) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if g.shape != (n,):
        raise ValueError(f"{what} of shape {g.shape} does not match {n} rows")
    if not np.all((g > 0) & (g < np.inf)):
        raise ValueError(f"{what} must be strictly positive and finite")
    return g


def _bracket(A, B, C, w: np.ndarray) -> tuple:
    """(Mw, min, max) of (Mw)_i / w_i for M in slices (A, B, C): the product
    and the CW sandwich."""
    z = _apply(A, B, C, w)
    ratios = z / w
    return z, float(np.min(ratios)), float(np.max(ratios))


def collatz_wielandt_bounds(M, g: np.ndarray) -> tuple:
    """(min_i (Mg)_i/g_i, max_i (Mg)_i/g_i); a sandwich for the principal
    eigenvalue of a Metzler irreducible M, valid for any positive g."""
    A, B, C, index = _slices(M)
    return _bracket(A, B, C, _positive_vector(
        g, index.size, "Collatz-Wielandt vector")[index])[1:]


class _Start(NamedTuple):
    """A first iterate w of M (slice layout, max exactly 1) with its product
    Mw and CW bracket, so the solve that starts from it forms neither again."""

    w: np.ndarray
    product: np.ndarray
    lower: float
    upper: float

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def _bracketed_start(M, g: Optional[np.ndarray] = None) -> _Start:
    """The start of a solve of M from g (a strictly positive state-major
    vector) or from the all-ones vector."""
    A, B, C, index = _slices(M)
    if g is None:
        w = np.ones(index.shape)
    else:
        g = _positive_vector(g, index.size, "start vector")
        w = g[index] / np.max(g)
    return _Start(w, *_bracket(A, B, C, w))


def principal_eigenpair(M, tol: float = 1e-10,
                        start: Union[np.ndarray, _Start, None] = None
                        ) -> EigenCertificate:
    """Principal eigenpair of a Metzler irreducible matrix (an ndarray or an
    `AssembledOperator`).

    Runs inverse iteration from `start` (a strictly positive state-major
    vector, e.g. the eigenvector of a nearby operator) or from the all-ones
    vector, with sigma at the middle of the current Collatz-Wielandt
    bracket, so a step bisects the bracket on top of inverse iteration's
    own convergence.  A solution x of (sigma I - M) x = w > 0 of one sign
    is a new iterate either way: x > 0 gives Mx < sigma x, so its CW upper
    bound lies below sigma; x < 0 gives M(-x) > sigma (-x), so -x is the
    iterate and its lower bound lies above sigma.  Each bound of a
    certificate is a CW bound of a positive iterate, formed from that
    iterate's own product, so no accuracy of a solve below the eigenvalue
    is assumed.
    Each iterate costs one product Mw, which gives both its bracket and, at
    the end, the certificate's residual.  Inverse steps are the only step
    kind: one that is singular, non-finite or of mixed sign keeps the
    iterate and its bracket and is retried above the upper bound, by
    2**k `_SHIFT_FRACTION` = 2**k / 16 of the CW gap after k failures in a
    row, where (sigma I - M) is a nonsingular M-matrix (a far shift makes a
    positive near-power step); failures count in the certificate's
    `fallbacks`.  After a solve's first failure every later step shifts
    above the upper bound by that rule (a sixteenth of the gap once a step
    has succeeded), not back to the middle, where its steps had failed.
    Terminates when the sandwich width is below tol * (1 + |lambda|) (with a
    floor at the round-off level of the shifted matrix); raises
    `ConvergenceError` after `_MAX_ITERATIONS` iterations, or once the width
    has not shrunk for `_STALL_ITERATIONS` iterations in a row (naming the
    failed steps when every one of those failed).

    An operator is iterated on its slice blocks: products and inverse steps
    (block cyclic reduction, on plain vectors when a slice holds one
    unknown, ending at one dense LU of at most `_DENSE_BASE` = 64 unknowns)
    never form the whole dense matrix.  A raw matrix is a single slice,
    iterated with a dense product and a dense LU.
    `hamiltonian._solve_chain` passes a `_Start` from `_bracketed_start`,
    whose bracket it has already formed to choose the start.
    """
    A, B, C, index = _slices(M)
    m, b = B.shape
    if not isinstance(start, _Start):
        start = _bracketed_start(M, start)
    w, z, lower, upper = start

    alpha = 1.0 + float(np.max(np.abs(np.diagonal(A, axis1=1, axis2=2))))
    best_gap, since_best = np.inf, 0
    iters = fallbacks = failed_in_row = 0

    def certificate(lam):
        # w has max exactly 1 and z = Mw: the residual of g = w / max(w)
        residual = float(np.max(np.abs(z - lam * w)))
        state_major = np.empty(m * b)
        state_major[index] = w
        return EigenCertificate(lam, state_major, residual, lower, upper, iters,
                                fallbacks)

    while True:
        iters += 1
        lam, gap = 0.5 * (lower + upper), upper - lower
        limit = max(tol * (1.0 + abs(lam)), 4.0 * _EPS * (alpha + abs(lam)))
        if gap <= limit:
            return certificate(lam)
        if gap < best_gap:
            best_gap, since_best = gap, 0
        else:
            since_best += 1
        if since_best >= _STALL_ITERATIONS:
            if failed_in_row >= since_best:
                reason = (f"{failed_in_row} inverse steps failed in a row, the "
                          f"last at a shift {distance:.3e} above the CW upper "
                          f"bound (CW gap {gap:.3e})")
            else:
                reason = f"CW gap stalled at {gap:.3e} above threshold {limit:.3e}"
            raise ConvergenceError(reason, certificate(lam))
        if iters >= _MAX_ITERATIONS:
            raise ConvergenceError(f"no convergence after {iters} iterations "
                                   f"(CW gap {gap:.3e})", certificate(lam))
        if fallbacks:
            # once a step has failed, every later one shifts above the
            # principal eigenvalue, twice as far per failure in a row
            distance = 2.0 ** failed_in_row * max(
                gap * _SHIFT_FRACTION, 16.0 * _EPS * (alpha + abs(upper)))
            sigma = upper + distance
        else:
            sigma = lam
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                x = _shifted_solve(A, B, C, sigma, w)
        except np.linalg.LinAlgError:
            x = None
        if x is not None and x[0, 0] < 0:
            # sigma below the eigenvalue: -x > 0 and M(-x) > sigma (-x)
            x = -x
        if x is None or not np.all((x > 0) & (x < np.inf)):
            # singular, non-finite or of mixed sign: keep w and its
            # bracket, retry above the upper bound
            failed_in_row += 1
            fallbacks += 1
            continue
        failed_in_row = 0
        w = x / np.max(x)
        z, lo, up = _bracket(A, B, C, w)
        lower, upper = max(lower, lo), min(upper, up)
