"""Effective-Hamiltonian tables, transport quantities and structural diagnostics.

The Hamiltonian H(p) is the principal eigenvalue of the cell operator at
momentum p.  `sweep` samples it on a grid as two warm-started chains of
solves from p = 0, one per sign of p.  The macroscopic velocity DH(0)
comes from one left eigenvector at p = 0 (`velocity_of_model`, any
dimension).  From a sampled table this
module derives the Lagrangian L(v) = sup_p [p v - H(p)] (Legendre-Fenchel
transform on the grid with parabolic refinement), action integrals of
piecewise-linear paths, and the checks that every valid model must pass:
H(0) = 0, midpoint convexity, symmetry under detailed balance, and the
coercivity lower bounds.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

from . import workers
from .eigensolver import (EigenCertificate, _bracketed_start, _shifted_solve,
                          cell_operator, principal_eigenpair)
from .fields import Frozen, freeze, grid_points, sampling_resolution
from .model import ContinuousModel, DiscreteModel, Model

log = logging.getLogger(__name__)

# certified samples of a chain that an extrapolated start is built from
_EXTRAPOLATION_SAMPLES = 5
# a sweep solves its two sides of p = 0 in two processes when (samples on
# its shorter side) x (operator unknowns) reaches this.  On 2 cores, one
# BLAS thread (medians of 40 alternating runs, N = 256, tol 1e-9), one
# process -> two: J = 2 regime I (512 unknowns), 2,048: 17.2 -> 18.9 ms,
# 4,096: 16.1 -> 19.1 ms, 8,192: 34.5 -> 31.9 ms, 12,288: 60.3 -> 43.5 ms,
# 15,360: 71.6 -> 46.5 ms; J = 3 regime II (256 unknowns), 2,560:
# 16.5 -> 19.2 ms, 7,680: 32.9 -> 31.8 ms.  A fork and join costs a few
# ms: the fork, the pickled certificates and both processes' copy-on-write
# faults.
_FORK_WORK = 8192


def hamiltonian_at(model: Model, p, *, N: int = 128,
                   tol: float = 1e-10) -> tuple:
    """H(p) with its eigen certificate.  Deterministic given (model, p, N, tol)."""
    op = cell_operator(model, N=N)
    cert = principal_eigenpair(op.at(p), tol=tol)
    return cert.eigenvalue, cert


@dataclass(frozen=True)
class HamiltonianTable(Frozen):
    """Sampled map p -> H(p) with one solver certificate per sample."""

    p_grid: np.ndarray
    values: np.ndarray
    certificates: tuple           # EigenCertificate or None per sample
    provenance: dict = field(default_factory=dict)
    failures: dict = field(default_factory=dict)   # sample index -> message
    starts: tuple = ()            # start label per sample (see `_solve_chain`)

    def __post_init__(self):
        p = freeze(self, "p_grid")
        v = freeze(self, "values")
        if p.ndim != 1 or p.shape != v.shape:
            raise ValueError("p grid and values must be matching 1-d arrays")
        if np.any(np.diff(p) <= 0):
            raise ValueError("p grid must be strictly increasing")
        if len(self.certificates) != len(p) or len(self.starts) not in (0, len(p)):
            raise ValueError("certificates and starts must hold one entry "
                             "per sample")
        if not set(self.failures) <= set(range(len(p))):
            raise ValueError("failures must be keyed by sample index")

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


def _extrapolate(momenta: Sequence[float], logs: Sequence[np.ndarray],
                 p: float) -> np.ndarray:
    """exp of the Lagrange polynomial through the points (momenta[j], logs[j])
    evaluated at p, with max component 1.  The weights come from the actual
    momenta, so the nodes need not be evenly spaced."""
    weights = [math.prod((p - other) / (node - other)
                         for i, other in enumerate(momenta) if i != j)
               for j, node in enumerate(momenta)]
    # the (1 x K)(K x n) product np.tensordot(weights, logs, axes=1) forms
    log_g = np.dot(np.reshape(weights, (1, -1)), logs)[0]
    return np.exp(log_g - np.max(log_g))


def _solve_chain(at, momenta: np.ndarray, tol: float) -> tuple:
    """Solve `principal_eigenpair(at(momenta[k]))` for k = 0, 1, ... in turn,
    `momenta[0]` being p = 0.  Returns (certificates, start labels,
    failures): a failed sample has certificate None and its exception as a
    "Type: message" text in `failures`, keyed by k.

    The sample at p = 0 starts cold (from the all-ones vector).  Sample k
    extends its chain: the certified samples k - 1, k - 2, ... back towards
    p = 0, up to `_EXTRAPOLATION_SAMPLES` of them, stopping at a failed one.
    An empty chain starts cold; a chain of one sample starts from its
    eigenvector (the "neighbour" start).  A longer chain also offers the
    extrapolated start: the Lagrange polynomial in p through the chain's
    log-eigenvectors, evaluated at the new momentum.  The principal
    eigenvector is analytic in p, so this start is close; but the
    polynomial can overshoot on a rough operator, so the solve starts from
    whichever of the two has the tighter Collatz-Wielandt bracket on the
    new operator, the neighbour on a tie; the solve takes that bracket with
    its start (`eigensolver._bracketed_start`) instead of forming it again.
    Any positive start gives a valid bracket, so the choice moves the
    iteration count only.  Labels: "cold", "neighbour" or
    "extrapolated:<k>" with k the number of samples used; a sample whose
    operator could not be built keeps "cold".
    """
    count = len(momenta)
    certs: List[Optional[EigenCertificate]] = [None] * count
    logs: List[Optional[np.ndarray]] = [None] * count
    starts = ["cold"] * count
    failures = {}
    for k in range(count):
        chain = []
        j = k - 1
        while (j >= 0 and len(chain) < _EXTRAPOLATION_SAMPLES
               and certs[j] is not None):
            chain.append(j)
            j -= 1
        try:
            op = at(float(momenta[k]))
            start = None
            if chain:
                start = _bracketed_start(op, certs[k - 1].eigenvector)
                starts[k] = "neighbour"
            if len(chain) > 1:
                guess = _extrapolate([momenta[j] for j in chain],
                                     [logs[j] for j in chain], momenta[k])
                if np.all(guess > 0):
                    offered = _bracketed_start(op, guess)
                    if offered.gap < start.gap:
                        start, starts[k] = offered, f"extrapolated:{len(chain)}"
            certs[k] = principal_eigenpair(op, tol=tol, start=start)
        except Exception as exc:   # recorded per sample
            failures[k] = f"{type(exc).__name__}: {exc}"
        else:
            logs[k] = np.log(certs[k].eigenvector)
    return certs, starts, failures


def sweep(model: Model, p_min: float, p_max: float, count: int, *,
          N: int = 128, tol: float = 1e-10, axis: int = 0) -> HamiltonianTable:
    """Tabulate H over a uniform momentum grid; p = 0 is always included.

    The cell operator is built once and every sample tilts it.  The table
    is two chains from p = 0 (`_solve_chain`), one down to `p_min` and one
    up to `p_max`.  Each starts with a cold solve at p = 0, which takes one
    iteration (the all-ones vector is the eigenvector there), and each
    later sample starts from the eigenvector of its inner neighbour or from
    the log-polynomial extrapolation through the last eigenvectors of its
    chain, whichever has the tighter Collatz-Wielandt bracket (the tilt
    moves the eigenvector analytically, so one or two inverse steps usually
    suffice).  `starts` records which start each sample took.  A value
    therefore equals `hamiltonian_at(p)` within the certificate, not bit
    for bit.  Failures are recorded per sample (value NaN), and the sample
    beyond a failure starts cold; the table is still returned.  If the
    operator cannot be built, every sample records that error.  For
    continuous models with dim > 1 the sweep runs along the momentum line
    t -> t * e_axis.

    Neither chain reads the other, so they may run anywhere.  When (samples
    on the shorter side of p = 0) x (operator unknowns) reaches
    `_FORK_WORK`, they run through `workers.run`, which forks a child for
    p >= 0 while this process walks p <= 0 (both run here where it does
    not fork: one core, Python 3.12 and later); smaller sweeps run both
    here.  The table is the same bits either way.
    """
    if count < 3:
        raise ValueError("sweep needs at least 3 samples")
    if not p_max > p_min:
        raise ValueError("empty momentum range")
    grid = np.linspace(p_min, p_max, count)
    if not np.any(np.isclose(grid, 0.0, atol=1e-12)):
        log.warning("momentum grid does not contain 0; augmenting")
        grid = np.sort(np.append(grid, 0.0))
    grid[np.isclose(grid, 0.0, atol=1e-12)] = 0.0

    dim = model.dim if isinstance(model, ContinuousModel) else 1
    if not 0 <= axis < dim:
        raise ValueError(f"axis {axis} out of range for dimension {dim}")

    def at(t: float):
        if dim == 1:
            return op.at(float(t))
        vec = np.zeros(dim)
        vec[axis] = t
        return op.at(vec)

    try:
        op = cell_operator(model, N=N)
    except Exception as exc:   # recorded against every sample
        certs, starts = [None] * len(grid), ["cold"] * len(grid)
        failures = dict.fromkeys(range(len(grid)), f"{type(exc).__name__}: {exc}")
    else:
        origin = int(np.flatnonzero(grid == 0.0)[0])
        chains = [functools.partial(_solve_chain, at, grid[origin::-1], tol),
                  functools.partial(_solve_chain, at, grid[origin:], tol)]
        shorter = min(origin, len(grid) - 1 - origin)
        unknowns = op.up.shape[0] * op.up.shape[-1]     # states x points
        if shorter * unknowns >= _FORK_WORK:
            below, above = workers.run(chains)
        else:
            below, above = (chain() for chain in chains)
        certs = below[0][::-1] + above[0][1:]
        starts = below[1][::-1] + above[1][1:]
        # in the order origin, p > 0, p < 0
        failures = {**{origin + k: text for k, text in above[2].items()},
                    **{origin - k: text for k, text in below[2].items()}}
    values = np.array([np.nan if c is None else c.eigenvalue for c in certs])
    return HamiltonianTable(grid, values, tuple(certs),
                            provenance={"regime": model.regime, "N": N,
                                        "tol": tol, "axis": axis,
                                        "kind": type(model).__name__},
                            failures=failures, starts=tuple(starts))


# ---------------------------------------------------------------------------
# velocity
# ---------------------------------------------------------------------------

def velocity_of_model(model: Model, *, N: int = 128,
                      tol: float = 1e-10) -> tuple:
    """DH(0) from one left eigenvector, with an error estimate.

    Only the hop tilts depend on p, so M_a'(0) 1 = f_a = h (up_a - down_a),
    and first-order perturbation gives DH(0)_a = u f_a / sum u for the
    stationary law u of M(0), one solve of M(0)^T.  With kappa the larger
    end of u's Collatz-Wielandt bracket (the exact eigenvalue is 0) and chi
    the corrector of M chi = f_a - v_a, the error is at most
    kappa (max chi - min chi) / 2, plus 2n ulps of u |f_a| / sum u for the
    rounding of the two n-term sums.  Returns (v, err): floats for a
    1-D model, (d,) arrays for d > 1.  A failed solve raises.

    A continuous model in regime I starts the solve from its Gibbs weights
    e^{-2 psi_i} on the cell grid, the stationary law of each state's hops
    alone when its potential is untilted; regime II (whose rows average the
    states out) and discrete models start from the all-ones vector.
    """
    gen = cell_operator(model, N=N)
    dim = gen.up.shape[1]
    op = gen.at(np.zeros(dim))
    start = None
    if isinstance(model, ContinuousModel) and model.regime == "I":
        pts = grid_points(model.dim, N, model.period)
        log_gibbs = -2.0 * np.concatenate([psi.periodic_values(pts)
                                           for psi in model.potentials])
        # max 1, floored so that no weight underflows to zero
        start = np.exp(np.maximum(log_gibbs - np.max(log_gibbs), -700.0))
    cert = principal_eigenpair(op.T, tol=tol, start=start)
    u = cert.eigenvector
    f = gen.h * np.moveaxis(gen.up - gen.down, 1, 0).reshape(dim, -1)
    v = f @ u / u.sum()
    # (sigma I - M(0)) chi = f_a - v_a has the corrector's spread, up to
    # O(sigma), for any sigma just above the eigenvalue
    sigma = cert.cw_upper + max(cert.cw_gap, 1e-14)
    spread = np.array([np.ptp(_shifted_solve(op.blocks, op.up, op.down, sigma,
                                             (fa - va)[op.index]))
                       for fa, va in zip(f, v)])
    kappa = max(abs(cert.cw_lower), abs(cert.cw_upper))
    ulp = np.finfo(float).eps
    err = kappa * spread / 2 + 2 * len(u) * ulp * (np.abs(f) @ u) / u.sum()
    if dim == 1:
        return float(v[0]), float(err[0])
    return v, err


# ---------------------------------------------------------------------------
# Legendre transform and path rates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagrangianTable(Frozen):
    """Sampled Lagrangian with the maximizing momenta and edge flags."""

    v_grid: np.ndarray
    values: np.ndarray
    pstar: np.ndarray
    boundary: np.ndarray   # True where the argmax sat on the p-grid edge

    def __post_init__(self):
        for name in ("v_grid", "values", "pstar"):
            freeze(self, name)
        freeze(self, "boundary", bool)
        if np.any(np.diff(self.v_grid) <= 0):
            raise ValueError("v grid must be strictly increasing")

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
    if len(v_nodes) < 2:
        raise ValueError("need a Lagrangian sampled at two velocities or more")
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
    of [r_+ (e^p - 1) + r_- (e^{-p} - 1)], with the hop rates of the model's
    cell operator (in regime II the averaged ones, one state); switching
    drops out because at the minimum of any test vector the exchange terms
    are nonnegative.
    """
    p, H = table.p_grid, table.values
    if isinstance(model, ContinuousModel):
        n = sampling_resolution(list(model.potentials))
        pts = grid_points(model.dim, n, model.period)
        sup_grad2 = max(float(np.max(np.sum(psi.gradients(pts) ** 2, axis=1)))
                        for psi in model.potentials)
        bound = 0.25 * p ** 2 - sup_grad2
    elif isinstance(model, DiscreteModel):
        op = cell_operator(model)
        rp, rm = op.up.ravel(), op.down.ravel()
        bound = np.array([np.min(rp * (math.exp(pk) - 1.0)
                                 + rm * (math.exp(-pk) - 1.0)) for pk in p])
    else:
        raise TypeError(f"not a model: {type(model)!r}")
    margins = H - bound
    slack = 1e-9 * (1.0 + np.abs(H))
    return CoercivityResult(bool(np.all(margins >= -slack)),
                            float(np.min(margins)))
