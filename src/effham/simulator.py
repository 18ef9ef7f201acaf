"""Trajectory sampling for the switching processes at finite scale.

Continuous model: Euler-Maruyama on the lifted line for the spatial part,
with chemical switches simulated by thinning against a global rate bound, so
jump times are exact in law and carry no O(dt) bias.  Discrete model: exact
competing-clock simulation on the lifted lattice.  Positions live on the
universal cover so displacement and empirical velocity are well defined.

All paths of a batch step together as numpy arrays, with drift and rates
from the `PeriodicScalarField` evaluators; each continuous path keeps its own
thinning clock.  Each path reads its own Philox streams (one per kind of
draw, keyed by base seed and trajectory index) in fixed-size blocks, so
`simulate_*` with `traj_index=k` reproduces path k of a batch (to round-off
where a field's BLAS-backed Fourier sum rounds differently with the number
of points).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .fields import grid_points, sampling_resolution
from .model import ContinuousModel, DiscreteModel, Model

DT_FACTOR = 200.0   # default Euler-Maruyama step dt = eps / DT_FACTOR
_BLOCK = 64         # draws per path and kind read from its stream at once
_RECORDS = 256      # strided records per continuous path (plus switches)
_KINDS = ("standard_normal", "standard_exponential", "random")


def trajectory_rng(base_seed: int, index: int = 0) -> np.random.Generator:
    """Philox stream for one trajectory, derived from (base seed, index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(base_seed), int(index)))))


class _Draws:
    """One kind of draw (a `Generator` method name in `_KINDS`) for a batch's
    paths, read in blocks of `_BLOCK` per path.

    Kind j of path k reads its own Philox stream, seeded by child j of the
    seed sequence of `trajectory_rng(seed, k)`, so a path's draws depend
    neither on the other paths in the batch nor on the block size.
    """

    def __init__(self, kind: str, seed: int, indices: Sequence[int]):
        child = (_KINDS.index(kind),)
        self._draw = [getattr(np.random.Generator(np.random.Philox(
            np.random.SeedSequence((int(seed), int(k)), spawn_key=child))), kind)
            for k in indices]
        self._block = np.empty((len(self._draw), _BLOCK))
        self._used = np.full(len(self._draw), _BLOCK)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """One draw for each path in `rows` (positions in the batch)."""
        spent = rows[self._used[rows] == _BLOCK]
        for r in spent:
            self._block[r] = self._draw[r](_BLOCK)
        self._used[spent] = 0
        out = self._block[rows, self._used[rows]]
        self._used[rows] += 1
        return out


@dataclass(frozen=True)
class Trajectory:
    """One lifted sample path of (X_t, I_t)."""

    seed: int
    scale: float            # epsilon (continuous) or n (discrete)
    times: np.ndarray
    positions: np.ndarray   # lifted (unwrapped) spatial states
    states: np.ndarray      # chemical indices, constant between jump records
    kind: str               # "continuous" | "discrete"

    def __post_init__(self):
        for name, dtype in (("times", float), ("positions", float),
                            ("states", int)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if len(self.times) < 2 or self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0 and have >= 2 records")

    @property
    def empirical_velocity(self) -> float:
        return float((self.positions[-1] - self.positions[0])
                     / (self.times[-1] - self.times[0]))

    @property
    def switch_count(self) -> int:
        return int(np.sum(np.diff(self.states) != 0))

    def to_csv(self, path) -> None:
        """Fixed column order: t,x_lifted,i."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,x_lifted,i\n")
            for t, x, i in zip(self.times, self.positions, self.states):
                fh.write(f"{t:.17g},{x:.17g},{i}\n")


class _Records:
    """(t, x, i) records of a batch's paths, added in time order.

    Records are kept in the chunks they were added in (states in the
    narrowest integer type that holds J - 1) and split by path at the end
    one field at a time, so that at most one field is held twice.
    """

    def __init__(self, paths: int, J: int):
        self._rows: list = []
        self._fields: tuple = ([], [], [])      # t, x, i chunks
        self._state_type = np.min_scalar_type(J - 1)
        self._counts = np.zeros(paths, dtype=np.intp)
        self._last = np.full(paths, -math.inf)

    def add(self, rows: np.ndarray, t, x, i) -> None:
        if len(rows):
            self._rows.append(rows)
            for chunks, value in zip(self._fields, (
                    t, x, np.asarray(i, dtype=self._state_type))):
                chunks.append(value)
            self._counts[rows] += 1
            self._last[rows] = t

    def end(self, rows: np.ndarray, T: float, x: np.ndarray,
            i: np.ndarray) -> None:
        """Close the paths `rows` at T, unless their last record is at T."""
        new = self._last[rows] != T
        self.add(rows[new], T, x[new], i[new])

    def trajectories(self, *, seed: int, scale: float,
                     kind: str) -> List[Trajectory]:
        ends = np.cumsum(self._counts)
        per_path = []
        for chunks, dtype in zip(self._fields, (float, float, int)):
            column = np.empty(ends[-1], dtype=dtype)
            fill = ends - self._counts
            chunks.reverse()
            for rows in self._rows:
                column[fill[rows]] = chunks.pop()
                fill[rows] += 1
            per_path.append([part.copy() for part in np.split(column, ends[:-1])])
        return [Trajectory(seed=seed, scale=scale, times=tk, positions=xk,
                           states=ik, kind=kind)
                for tk, xk, ik in zip(*per_path)]


# ---------------------------------------------------------------------------
# continuous model: Euler-Maruyama + thinning
# ---------------------------------------------------------------------------

def _switching_rates(model: ContinuousModel, y: np.ndarray,
                     state: np.ndarray) -> np.ndarray:
    """(len(y), J) rates r_ij(y) out of each point's state i, clipped at 0."""
    rates = np.zeros((len(y), model.J))
    for i, row in enumerate(model.rates.entries):
        on = state == i
        for j, entry in enumerate(row):
            if j != i and entry is not None and on.any():
                rates[on, j] = entry.values(y[on])
    return np.maximum(rates, 0.0)


def max_total_switching_rate(model: ContinuousModel) -> float:
    """sup over (y, i) of sum_j r_ij(y), from a resolving sample lattice."""
    fields = model.rates.iter_fields()
    if not fields:
        return 0.0
    pts = grid_points(model.dim, sampling_resolution(fields), model.period)
    return max(float(np.max(np.sum(_switching_rates(
        model, pts, np.full(len(pts), i)), axis=1))) for i in range(model.J))


def _continuous_paths(model: ContinuousModel, eps: float, T: float,
                      dt: Optional[float], seed: int, indices: Sequence[int],
                      *, gamma: float = 1.0, i0: int = 0,
                      freeze_position: bool = False) -> List[Trajectory]:
    """The paths `indices` of `seed`, all advanced together."""
    if model.dim != 1:
        raise NotImplementedError("trajectory sampling is implemented for d = 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if dt is None:
        dt = eps / DT_FACTOR
    if dt > eps / 10.0 or dt <= 0:
        raise ValueError(f"dt = {dt} must lie in (0, eps/10] to resolve the "
                         "fast variable")
    if not 0 <= i0 < model.J:
        raise ValueError(f"initial state {i0} out of range")
    paths = len(indices)
    normal, exponential, uniform = (_Draws(kind, seed, indices) for kind in _KINDS)
    rate_scale = gamma / eps
    # 1% headroom: the lattice max can sit slightly below the continuum sup
    lam = 1.01 * rate_scale * max_total_switching_rate(model)
    stride = max(1, math.ceil(T / dt) // _RECORDS)
    sqrt_eps = math.sqrt(eps)

    live = np.arange(paths)     # batch positions of the running paths
    t, x = np.zeros(paths), np.zeros(paths)
    state = np.full(paths, i0)
    steps = np.zeros(paths, dtype=int)
    records = _Records(paths, model.J)
    records.add(live, 0.0, 0.0, i0)
    candidate = exponential(live) / lam if lam > 0 else np.full(paths, math.inf)

    while live.size:
        target = np.minimum(np.minimum(t + dt, candidate), T)
        if not freeze_position:
            step = target - t
            grad = np.empty(live.size)
            for i, psi in enumerate(model.potentials):
                on = state == i
                grad[on] = psi.gradients(x[on] / eps)[:, 0]
            x += sqrt_eps * np.sqrt(step) * normal(live) - grad * step
        t = target
        steps += 1
        rec = steps % stride == 0
        records.add(live[rec], t[rec], x[rec], state[rec])

        hit = np.flatnonzero(t >= candidate)
        if hit.size:
            cum = np.cumsum(rate_scale * _switching_rates(model, x[hit] / eps,
                                                          state[hit]), axis=1)
            total = cum[:, -1]
            if np.any(total > lam * (1 + 1e-12)):
                raise RuntimeError("thinning bound violated; rate field "
                                   "sampling resolution too low")
            accept = uniform(live[hit]) < total / lam
            jump = hit[accept]
            if jump.size:
                u = uniform(live[jump]) * total[accept]
                state[jump] = np.sum(cum[accept] <= u[:, None], axis=1)
                records.add(live[jump], t[jump], x[jump], state[jump])
            candidate[hit] = t[hit] + exponential(live[hit]) / lam
        done = t >= T
        if done.any():
            records.end(live[done], T, x[done], state[done])
            live, t, x, state, steps, candidate = (
                a[~done] for a in (live, t, x, state, steps, candidate))

    del normal, exponential, uniform    # free the streams before the split
    return records.trajectories(seed=seed, scale=eps, kind="continuous")


def simulate_continuous(model: ContinuousModel, eps: float, T: float,
                        dt: Optional[float] = None, seed: int = 0, *,
                        gamma: float = 1.0, i0: int = 0, traj_index: int = 0,
                        freeze_position: bool = False) -> Trajectory:
    """One lifted path of the diffusion with switching, exact jump times.

    dt defaults to eps/DT_FACTOR and must satisfy dt <= eps/10 so the fast
    variable x/eps is resolved.  `freeze_position` pins x at 0 (spatial
    dynamics off) so switching statistics can be tested against the exact
    rates.
    """
    return _continuous_paths(model, eps, T, dt, seed, [traj_index], gamma=gamma,
                             i0=i0, freeze_position=freeze_position)[0]


# ---------------------------------------------------------------------------
# discrete model: exact competing clocks
# ---------------------------------------------------------------------------

def _discrete_paths(model: DiscreteModel, n: int, T: float, seed: int,
                    indices: Sequence[int], *, gamma: float = 1.0,
                    i0: int = 0) -> List[Trajectory]:
    """The paths `indices` of `seed`, one event per live path per array step."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= i0 < model.J:
        raise ValueError(f"initial state {i0} out of range")
    paths = len(indices)
    exponential, uniform = (_Draws(kind, seed, indices) for kind in _KINDS[1:])
    J = model.J
    switching = np.where(np.eye(J, dtype=bool)[:, :, None], 0.0, model.switching)
    # cumulative event rates (J, ell, 2 + J): hop up, hop down, switch to j
    cum_rates = np.cumsum(np.concatenate(
        [n * model.hop_rates_plus[..., None], n * model.hop_rates_minus[..., None],
         n * gamma * np.moveaxis(switching, 1, 2)], axis=2), axis=2)
    hop = np.r_[1, -1, np.zeros(J, dtype=int)]

    live = np.arange(paths)     # batch positions of the running paths
    t = np.zeros(paths)
    m = np.zeros(paths, dtype=int)      # lifted integer position; x = m / n
    state = np.full(paths, i0)
    records = _Records(paths, model.J)
    records.add(live, 0.0, 0.0, i0)
    while live.size:
        cum = cum_rates[state, m % model.ell]
        t = t + exponential(live) / cum[:, -1]
        done = t >= T
        if done.any():
            records.end(live[done], T, m[done] / n, state[done])
            live, t, m, state, cum = (
                a[~done] for a in (live, t, m, state, cum))
        u = uniform(live) * cum[:, -1]
        event = np.sum(cum <= u[:, None], axis=1)
        m = m + hop[event]
        state = np.where(event >= 2, event - 2, state)
        records.add(live, t, m / n, state)

    del exponential, uniform    # free the streams before the split
    return records.trajectories(seed=seed, scale=float(n), kind="discrete")


def simulate_discrete(model: DiscreteModel, n: int, T: float, seed: int = 0, *,
                      gamma: float = 1.0, i0: int = 0,
                      traj_index: int = 0) -> Trajectory:
    """Exact event-driven path: hop rates n r_+-, switching rates n gamma r_ij."""
    return _discrete_paths(model, n, T, seed, [traj_index], gamma=gamma,
                           i0=i0)[0]


# ---------------------------------------------------------------------------
# batches and the concentration experiment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrajectoryBatch:
    """Independent paths with their empirical-velocity summary."""

    trajectories: tuple
    velocities: np.ndarray
    mean: float
    sd: float
    se: float

    @classmethod
    def from_trajectories(cls, trajs: Sequence[Trajectory]) -> "TrajectoryBatch":
        vels = np.array([tr.empirical_velocity for tr in trajs])
        sd = float(np.std(vels, ddof=1)) if len(vels) > 1 else 0.0
        return cls(tuple(trajs), vels, float(np.mean(vels)), sd,
                   sd / math.sqrt(len(vels)) if len(vels) > 1 else 0.0)


def batch_continuous(model: ContinuousModel, eps: float, T: float, paths: int,
                     base_seed: int, dt: Optional[float] = None, *,
                     gamma: float = 1.0, i0: int = 0) -> TrajectoryBatch:
    return TrajectoryBatch.from_trajectories(_continuous_paths(
        model, eps, T, dt, base_seed, range(paths), gamma=gamma, i0=i0))


def batch_discrete(model: DiscreteModel, n: int, T: float, paths: int,
                   base_seed: int, *, gamma: float = 1.0,
                   i0: int = 0) -> TrajectoryBatch:
    return TrajectoryBatch.from_trajectories(_discrete_paths(
        model, n, T, base_seed, range(paths), gamma=gamma, i0=i0))


@dataclass(frozen=True)
class ScaleResult:
    scale: float
    mean_v: float
    sd: float
    se: float
    predicted_v: float
    verdict: bool           # |mean - predicted| <= 3 se


@dataclass(frozen=True)
class ConcentrationReport:
    rows: tuple
    sd_monotone: bool       # spread shrinks as the scale parameter refines

    @property
    def all_pass(self) -> bool:
        return all(r.verdict for r in self.rows) and self.sd_monotone

    def to_csv(self, path) -> None:
        """Fixed column order: epsilon,mean_v,sd,se,predicted_v,verdict."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("epsilon,mean_v,sd,se,predicted_v,verdict\n")
            for r in self.rows:
                fh.write(f"{r.scale:.17g},{r.mean_v:.17g},{r.sd:.17g},"
                         f"{r.se:.17g},{r.predicted_v:.17g},"
                         f"{'pass' if r.verdict else 'fail'}\n")


def concentration_experiment(model: Model, scales: Sequence[float], T: float,
                             paths: int, base_seed: int,
                             predicted_v: Optional[float] = None, *,
                             dt_factor: float = DT_FACTOR, gamma: float = 1.0,
                             solver_n: int = 128,
                             solver_tol: float = 1e-10) -> ConcentrationReport:
    """Empirical-velocity concentration against the eigenvalue prediction.

    Scales are epsilon values (continuous, decreasing) or lattice refinements n
    (discrete, increasing).  Per scale the verdict is |mean - DH(0)| <= 3 SE;
    across scales the sample SD must shrink as the limit is approached.
    """
    scales = list(scales)
    if len(scales) == 0:
        raise ValueError("need at least one scale")
    continuous = isinstance(model, ContinuousModel)
    refining = np.diff(scales) < 0 if continuous else np.diff(scales) > 0
    if len(scales) > 1 and not np.all(refining):
        raise ValueError("scales must refine monotonically")
    if predicted_v is None:
        from .hamiltonian import velocity_of_model
        predicted_v, _ = velocity_of_model(model, N=solver_n, tol=solver_tol,
                                           gamma=gamma)
    rows: List[ScaleResult] = []
    for scale in scales:
        if continuous:
            batch = batch_continuous(model, float(scale), T, paths, base_seed,
                                     dt=float(scale) / dt_factor, gamma=gamma)
        else:
            batch = batch_discrete(model, int(scale), T, paths, base_seed,
                                   gamma=gamma)
        verdict = abs(batch.mean - predicted_v) <= 3.0 * batch.se
        rows.append(ScaleResult(float(scale), batch.mean, batch.sd, batch.se,
                                float(predicted_v), bool(verdict)))
        del batch   # free this scale's paths before the next scale runs
    sds = [r.sd for r in rows]
    sd_monotone = all(sds[k + 1] <= sds[k] * (1 + 1e-9)
                      for k in range(len(sds) - 1))
    return ConcentrationReport(tuple(rows), sd_monotone)
