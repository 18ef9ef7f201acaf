"""Effective-Hamiltonian tables, transport quantities and structural diagnostics.

The Hamiltonian H(p) is the principal eigenvalue of the cell operator at
momentum p.  From a sampled table this module derives the macroscopic velocity
DH(0), the Lagrangian L(v) = sup_p [p v - H(p)] (Legendre-Fenchel transform on
the grid with parabolic refinement), action integrals of piecewise-linear
paths, and the checks that every valid model must pass: H(0) = 0, midpoint
convexity, symmetry under detailed balance, and the coercivity lower bounds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from .chains import averaged_hop_rates
from .eigensolver import EigenCertificate, cell_operator, principal_eigenpair
from .fields import grid_points, sampling_resolution
from .model import ContinuousModel, DiscreteModel, Model

log = logging.getLogger(__name__)


def hamiltonian_at(model: Model, p, regime: Optional[str] = None, *,
                   N: int = 128, tol: float = 1e-10, gamma: float = 1.0,
                   max_iter: int = 10 ** 6) -> tuple:
    """H(p) with its eigen certificate.  Deterministic given (model, p, N, tol)."""
    op = cell_operator(model, regime or model.regime, N=N, gamma=gamma)
    cert = principal_eigenpair(op.at(p), tol=tol, max_iter=max_iter)
    return cert.eigenvalue, cert


@dataclass(frozen=True)
class HamiltonianTable:
    """Sampled map p -> H(p) with one solver certificate per sample."""

    p_grid: np.ndarray
    values: np.ndarray
    certificates: tuple           # EigenCertificate or None per sample
    provenance: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)   # sample index -> message

    def __post_init__(self):
        p = np.asarray(self.p_grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if p.ndim != 1 or p.shape != v.shape:
            raise ValueError("p grid and values must be matching 1-d arrays")
        if np.any(np.diff(p) <= 0):
            raise ValueError("p grid must be strictly increasing")
        for arr in (p, v):
            arr.setflags(write=False)
        object.__setattr__(self, "p_grid", p)
        object.__setattr__(self, "values", v)

    def value_at(self, p: float) -> float:
        hits = np.nonzero(np.isclose(self.p_grid, p, rtol=0.0, atol=1e-12))[0]
        if len(hits) != 1:
            raise KeyError(f"momentum {p} not in table grid")
        return float(self.values[hits[0]])

    def to_csv(self, path) -> None:
        """Fixed column order: p,H,residual,cw_gap."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("p,H,residual,cw_gap\n")
            for k, p in enumerate(self.p_grid):
                cert = self.certificates[k]
                if cert is None:
                    fh.write(f"{p:.17g},nan,nan,nan\n")
                else:
                    fh.write(f"{p:.17g},{self.values[k]:.17g},"
                             f"{cert.residual:.17g},{cert.cw_gap:.17g}\n")


def _outward(count: int, origin: int):
    """(sample, inner neighbour) pairs of a chain that starts at `origin`
    (neighbour None) and walks outward to both ends of `count` samples."""
    yield origin, None
    for k in range(origin + 1, count):
        yield k, k - 1
    for k in range(origin - 1, -1, -1):
        yield k, k + 1


def sweep(model: Model, p_min: float, p_max: float, count: int,
          regime: Optional[str] = None, *, N: int = 128, tol: float = 1e-10,
          gamma: float = 1.0, max_iter: int = 10 ** 6,
          axis: int = 0) -> HamiltonianTable:
    """Tabulate H over a uniform momentum grid; p = 0 is always included.

    The cell operator is built once and every sample tilts it.  The solve
    at p = 0 starts from the all-ones vector; the others march outward from
    it, each starting from the eigenvector of its inner neighbour (the tilt
    moves the eigenvector analytically, so a few inverse steps suffice).  A
    value therefore equals `hamiltonian_at(p)` within the certificate, not
    bit for bit.  Failures are recorded per sample (value NaN), and the
    sample beyond a failure starts cold; the table is still returned.  If
    the operator cannot be built, every sample records that error.  For
    continuous models with dim > 1 the sweep runs along the momentum line
    t -> t * e_axis.
    """
    if count < 3:
        raise ValueError("sweep needs at least 3 samples")
    if not p_max > p_min:
        raise ValueError("empty momentum range")
    regime = regime or model.regime
    grid = np.linspace(p_min, p_max, count)
    if not np.any(np.isclose(grid, 0.0, atol=1e-12)):
        log.warning("momentum grid does not contain 0; augmenting")
        grid = np.sort(np.append(grid, 0.0))
    grid[np.isclose(grid, 0.0, atol=1e-12)] = 0.0

    dim = model.dim if isinstance(model, ContinuousModel) else 1
    if not 0 <= axis < dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")

    def momentum_of(t: float):
        if dim == 1:
            return float(t)
        vec = np.zeros(dim)
        vec[axis] = t
        return vec

    values = np.full(len(grid), np.nan)
    certs: List[Optional[EigenCertificate]] = [None] * len(grid)
    failures = {}
    try:
        op = cell_operator(model, regime, N=N, gamma=gamma)
    except Exception as exc:   # recorded against every sample
        failures = dict.fromkeys(range(len(grid)), f"{type(exc).__name__}: {exc}")
    else:
        for k, inner in _outward(len(grid), int(np.flatnonzero(grid == 0.0)[0])):
            prev = None if inner is None else certs[inner]
            try:
                certs[k] = principal_eigenpair(
                    op.at(momentum_of(float(grid[k]))), tol=tol,
                    max_iter=max_iter,
                    start=None if prev is None else prev.eigenvector)
            except Exception as exc:   # recorded per sample
                failures[k] = f"{type(exc).__name__}: {exc}"
            else:
                values[k] = certs[k].eigenvalue
    return HamiltonianTable(grid, values, tuple(certs),
                            provenance={"regime": regime, "N": N, "tol": tol,
                                        "gamma": gamma, "axis": axis,
                                        "kind": type(model).__name__},
                            failures=failures)


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------

def velocity(table: HamiltonianTable) -> tuple:
    """DH(0) by central differences at the two smallest grid offsets, with one
    Richardson level.  Returns (velocity, error estimate)."""
    p = table.p_grid
    pos = p[p > 0]
    if len(pos) < 2:
        raise ValueError("grid too coarse around 0 for a velocity estimate")
    delta = float(pos.min())
    for off in (delta, -delta, 2 * delta, -2 * delta):
        if not np.any(np.isclose(p, off, rtol=0.0, atol=1e-12)):
            raise ValueError(f"grid is missing the symmetric offset {off}")
    d1 = (table.value_at(delta) - table.value_at(-delta)) / (2 * delta)
    d2 = (table.value_at(2 * delta) - table.value_at(-2 * delta)) / (4 * delta)
    refined = (4.0 * d1 - d2) / 3.0
    return refined, abs(d1 - d2)


def velocity_of_model(model: Model, regime: Optional[str] = None, *,
                      delta: float = 1e-3, N: int = 128, tol: float = 1e-10,
                      gamma: float = 1.0) -> tuple:
    """DH(0) from a dedicated five-point stencil at +-delta, +-2 delta,
    solved as the chain 0 -> +-delta -> +-2 delta: each solve starts from the
    eigenvector of its inner neighbour, as in `sweep`."""
    grid = np.array([-2 * delta, -delta, 0.0, delta, 2 * delta])
    op = cell_operator(model, regime or model.regime, N=N, gamma=gamma)
    certs = [None] * len(grid)
    for k, inner in _outward(len(grid), 2):
        certs[k] = principal_eigenpair(
            op.at(float(grid[k])), tol=tol,
            start=None if inner is None else certs[inner].eigenvector)
    values = np.array([c.eigenvalue for c in certs])
    table = HamiltonianTable(grid, values, tuple(certs),
                             provenance={"regime": regime or model.regime,
                                         "N": N, "tol": tol, "delta": delta})
    return velocity(table)


# ---------------------------------------------------------------------------
# Legendre transform and path rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianTable:
    """Sampled Lagrangian with the maximizing momenta and edge flags."""

    v_grid: np.ndarray
    values: np.ndarray
    pstar: np.ndarray
    boundary: np.ndarray   # True where the argmax sat on the p-grid edge

    def __post_init__(self):
        for name in ("v_grid", "values", "pstar"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        b = np.asarray(self.boundary, dtype=bool)
        b.setflags(write=False)
        object.__setattr__(self, "boundary", b)

    def to_csv(self, path) -> None:
        """Fixed column order: v,L,pstar,boundary_flag."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("v,L,pstar,boundary_flag\n")
            for v, L, ps, bf in zip(self.v_grid, self.values, self.pstar,
                                    self.boundary):
                fh.write(f"{v:.17g},{L:.17g},{ps:.17g},{int(bf)}\n")


def _parabola_max(ps, qs):
    """Vertex of the parabola through three points; falls back to the middle
    sample when the fit is not strictly concave."""
    A = np.array([[ps[0] ** 2, ps[0], 1.0],
                  [ps[1] ** 2, ps[1], 1.0],
                  [ps[2] ** 2, ps[2], 1.0]])
    a, b, c = np.linalg.solve(A, qs)
    if not a < 0:
        return ps[1], qs[1]
    pv = -b / (2 * a)
    pv = min(max(pv, ps[0]), ps[2])
    return pv, a * pv ** 2 + b * pv + c


def legendre(table: HamiltonianTable, v_grid: Sequence[float]) -> LagrangianTable:
    """L(v) = max_p [p v - H(p)] over the table grid, refined parabolically
    around the discrete argmax.  Edge maxima are flagged, not extrapolated."""
    if table.failures:
        raise ValueError("table has failed samples; cannot transform")
    p = table.p_grid
    H = table.values
    v_arr = np.asarray(v_grid, dtype=float)
    Ls = np.empty(len(v_arr))
    stars = np.empty(len(v_arr))
    flags = np.zeros(len(v_arr), dtype=bool)
    for idx, v in enumerate(v_arr):
        q = p * v - H
        k = int(np.argmax(q))
        if k == 0 or k == len(p) - 1:
            flags[idx] = True
            stars[idx] = p[k]
            Ls[idx] = q[k]
        else:
            stars[idx], Ls[idx] = _parabola_max(p[k - 1:k + 2], q[k - 1:k + 2])
    return LagrangianTable(v_arr, Ls, stars, flags)


def path_rate(times: Sequence[float], positions: Sequence[float],
              lagrangian: LagrangianTable, initial_rate: float = 0.0) -> float:
    """Action integral of a piecewise-linear path: initial rate plus
    sum over segments of duration * L(segment velocity)."""
    t = np.asarray(times, dtype=float)
    x = np.asarray(positions, dtype=float)
    if t.ndim != 1 or t.shape != x.shape or len(t) < 2:
        raise ValueError("need matching 1-d time and position knots")
    if np.any(np.diff(t) <= 0):
        raise ValueError("knot times must be strictly increasing")
    v_nodes = lagrangian.v_grid
    total = float(initial_rate)
    for seg in range(len(t) - 1):
        dt = t[seg + 1] - t[seg]
        v = (x[seg + 1] - x[seg]) / dt
        if v < v_nodes[0] or v > v_nodes[-1]:
            raise ValueError(f"segment velocity {v} outside the Lagrangian grid")
        j = int(np.searchsorted(v_nodes, v))
        j = max(1, min(j, len(v_nodes) - 1))
        if lagrangian.boundary[j - 1] or lagrangian.boundary[j]:
            raise ValueError(
                f"Lagrangian at segment velocity {v} is boundary-flagged "
                "(only a lower bound; rate unresolved)")
        w = (v - v_nodes[j - 1]) / (v_nodes[j] - v_nodes[j - 1])
        L = (1 - w) * lagrangian.values[j - 1] + w * lagrangian.values[j]
        total += dt * L
    return total


# ---------------------------------------------------------------------------
# structural diagnostics
# ---------------------------------------------------------------------------

def convexity_report(table: HamiltonianTable) -> tuple:
    """Worst violation of 3-point convexity: max over interior samples of
    H(p_mid) - chord value, and the momentum where it occurs."""
    p, H = table.p_grid, table.values
    worst = -np.inf
    where = p[0]
    for k in range(1, len(p) - 1):
        w = (p[k + 1] - p[k]) / (p[k + 1] - p[k - 1])
        chord = w * H[k - 1] + (1 - w) * H[k + 1]
        viol = H[k] - chord
        if viol > worst:
            worst, where = viol, p[k]
    return float(worst), float(where)


def symmetry_check(table: HamiltonianTable) -> float:
    """max |H(p) - H(-p)| over matched symmetric pairs in the grid."""
    p, H = table.p_grid, table.values
    worst = 0.0
    for k, pk in enumerate(p):
        if pk <= 0:
            continue
        hits = np.nonzero(np.isclose(p, -pk, rtol=0.0, atol=1e-12))[0]
        if len(hits) == 1:
            worst = max(worst, abs(H[k] - H[hits[0]]))
    return float(worst)


class CoercivityResult(NamedTuple):
    passed: bool
    min_margin: float     # min over samples of H(p) - lower_bound(p)


def coercivity_check(table: HamiltonianTable, model: Model) -> CoercivityResult:
    """Check the growth bounds at every sample.

    Continuous: H(p) >= |p|^2/4 - sup |grad psi|^2 (the averaged drift of the
    fast-switching regime is a convex combination of the same gradients, so
    the bound covers both regimes).  Discrete: H(p) >= min over (site, state)
    of [r_+ (e^p - 1) + r_- (e^{-p} - 1)]; switching drops out because at the
    minimum of any test vector the exchange terms are nonnegative.
    """
    p, H = table.p_grid, table.values
    regime = table.provenance.get("regime", model.regime)
    if isinstance(model, ContinuousModel):
        n = sampling_resolution(list(model.potentials))
        pts = grid_points(model.dim, n, model.period)
        sup_grad2 = max(float(np.max(np.sum(psi.gradients(pts) ** 2, axis=1)))
                        for psi in model.potentials)
        bound = 0.25 * p ** 2 - sup_grad2
    elif isinstance(model, DiscreteModel):
        if regime == "II":
            rates = np.array([averaged_hop_rates(model, k)
                              for k in range(model.ell)])
            rp, rm = rates[:, 0], rates[:, 1]
        else:
            rp = model.hop_rates_plus.ravel()
            rm = model.hop_rates_minus.ravel()
        bound = np.array([np.min(rp * (math.exp(pk) - 1.0)
                                 + rm * (math.exp(-pk) - 1.0)) for pk in p])
    else:
        raise TypeError(f"not a model: {type(model)!r}")
    margins = H - bound
    slack = 1e-9 * (1.0 + np.abs(H))
    return CoercivityResult(bool(np.all(margins >= -slack)),
                            float(np.min(margins)))
