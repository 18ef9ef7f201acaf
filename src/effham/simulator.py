"""Trajectory sampling for the switching processes at finite scale.

Continuous model: Euler-Maruyama on the lifted line for the spatial part,
with chemical switches simulated by thinning against a global rate bound, so
jump times are exact in law and carry no O(dt) bias.  Discrete model: exact
competing-clock simulation on the lifted lattice.  Positions live on the
universal cover so displacement and empirical velocity are well defined.

All paths of a batch step together as numpy arrays, in lockstep: every live
path has taken the same number of array steps.  So the record stride is one
scalar test, and a draw that every live path takes at every step (the
Euler-Maruyama normal; the discrete model's exponential and uniform) is one
column of a per-kind block of `_BLOCK` draws per live path, refilled every
`_BLOCK` steps and compacted when paths finish.  Each continuous path keeps
its own thinning clock, and its clock, accept and choice draws are read per
path, since only the paths with a candidate in the step take them.  Drift
and switching rates come from state-indexed Fourier tables, padded with zero
modes so that each path runs the same elementwise sums as its
`PeriodicScalarField`; a path's drift columns change only when it jumps.

Each path reads its own Philox streams (one per kind of draw, keyed by base
seed and trajectory index) in blocks of `_BLOCK`, so `simulate_*` with
`traj_index=k` reproduces path k of a batch bit for bit, whatever the batch
and the block size.  A concentration experiment builds the streams once and
rewinds them to their initial states for each scale, since every scale reads
the same (seed, k) streams.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .fields import _ordered_sum, grid_points, sampling_resolution
from .model import ContinuousModel, DiscreteModel, Model

DT_FACTOR = 200.0   # default Euler-Maruyama step dt = eps / DT_FACTOR
_BLOCK = 64         # draws per path and kind read from its stream at once
_RECORDS = 256      # strided records per continuous path (plus switches)
_KINDS = ("standard_normal", "standard_exponential", "random")


def trajectory_rng(base_seed: int, index: int = 0) -> np.random.Generator:
    """Philox stream for one trajectory, derived from (base seed, index)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence((int(base_seed), int(index)))))


class _Streams:
    """The Philox streams of a batch's paths, one per kind of draw (a
    `Generator` method name in `_KINDS`).

    Kind j of path k reads its own stream, seeded by child j of the seed
    sequence of `trajectory_rng(seed, k)`, so a path's draws depend neither
    on the other paths in the batch nor on the block size.  A kind's streams
    are built on first use.  `rewind` restores each built stream's initial
    state, so batches that read the same paths reuse them: a restore costs
    about 3 us, building a stream about 40 us.  Seeded streams start alike
    (counter 0, empty buffer) and differ only in their key, so the keys and
    one initial state are all that is kept to restore them.
    """

    def __init__(self, seed: int, indices: Sequence[int]):
        self.seed = int(seed)
        self.indices = [int(k) for k in indices]
        self._built: dict = {}      # kind -> (generators, (paths, 2) keys)
        self._start: Optional[dict] = None

    def draws(self, kind: str) -> list:
        """Per path, the bound `Generator` method that draws `kind`."""
        if kind not in self._built:
            child = (_KINDS.index(kind),)
            gens = [np.random.Generator(np.random.Philox(np.random.SeedSequence(
                (self.seed, k), spawn_key=child))) for k in self.indices]
            states = [g.bit_generator.state for g in gens]
            self._built[kind] = (gens, np.array([s["state"]["key"]
                                                 for s in states]))
            if self._start is None and states:
                self._start = states[0]
        return [getattr(g, kind) for g in self._built[kind][0]]

    def rewind(self) -> None:
        """Put every built stream back at its first draw."""
        for gens, keys in self._built.values():
            for g, key in zip(gens, keys):
                g.bit_generator.state = {
                    **self._start, "state": {**self._start["state"], "key": key}}


class _Draws:
    """One kind of draw for any subset of a batch's paths, read from each
    path's stream in blocks of `_BLOCK`."""

    def __init__(self, draws: list):
        self._draw = draws
        self._size = _BLOCK
        self._block = np.empty((len(draws), self._size))
        self._used = np.full(len(draws), self._size)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """One draw for each path in `rows` (distinct positions in the batch)."""
        used = self._used[rows]
        spent = used == self._size
        if spent.any():
            for r in rows[spent]:
                self._draw[r](out=self._block[r])
            used[spent] = 0
        self._used[rows] = used + 1
        return self._block[rows, used]


class _Lockstep:
    """One kind of draw for every live path at once, valid while each live
    path takes one draw per call: then all of them have used the same number
    of their stream's draws, and a call returns one row of a (_BLOCK, live)
    block that is refilled every `_BLOCK` calls."""

    def __init__(self, draws: list):
        self._draw = draws
        self._rows = np.arange(len(draws))    # batch positions of the live paths
        self._size = _BLOCK
        self._block = None
        self._next = self._size

    def __call__(self) -> np.ndarray:
        if self._next == self._size:
            block = np.empty((len(self._rows), self._size))
            for out, r in zip(block, self._rows):
                self._draw[r](out=out)
            self._block = block.T.copy()    # each call's row contiguous
            self._next = 0
        self._next += 1
        return self._block[self._next - 1]

    def keep(self, mask: np.ndarray) -> None:
        """Drop the paths where `mask` is False (they have finished)."""
        self._rows = self._rows[mask]
        if self._next < self._size:
            self._block = self._block[:, mask]


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

    Records are kept in the chunks they were added in (states copied into
    the narrowest integer type that holds J - 1; times and positions as
    given, so callers must not change those arrays in place afterwards) and
    split by path at the end one field at a time, so that at most one field
    is held twice.  With `n`, positions are added as int32 sites m of the
    1/n lattice and become m / n at the split.
    """

    def __init__(self, paths: int, J: int, n: Optional[int] = None):
        self._rows: list = []
        self._fields: tuple = ([], [], [])      # t, x, i chunks
        # per field: the type it is gathered in, and its per-path array
        self._columns = (
            (float, lambda part: part.astype(float)),
            (float, lambda part: part.astype(float)) if n is None
            else (np.int32, lambda part: part / n),
            (np.min_scalar_type(J - 1), lambda part: part.astype(int)))
        self._counts = np.zeros(paths, dtype=np.intp)
        self._last = np.full(paths, -math.inf)

    def add(self, rows: np.ndarray, t, x, i) -> None:
        if len(rows):
            self._rows.append(rows)
            for chunks, value in zip(self._fields, (
                    t, x, np.array(i, dtype=self._columns[2][0]))):
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
        for chunks, (kept, path_array) in zip(self._fields, self._columns):
            column = np.empty(ends[-1], dtype=kept)
            fill = ends - self._counts
            chunks.reverse()
            for rows in self._rows:
                column[fill[rows]] = chunks.pop()
                fill[rows] += 1
            per_path.append([path_array(column[a:b])
                             for a, b in zip(ends - self._counts, ends)])
        return [Trajectory(seed=seed, scale=scale, times=tk, positions=xk,
                           states=ik, kind=kind)
                for tk, xk, ik in zip(*per_path)]


# ---------------------------------------------------------------------------
# continuous model: Euler-Maruyama + thinning
# ---------------------------------------------------------------------------

def _fourier_table(fields: Sequence) -> np.ndarray:
    """(3, m, len(fields)) angular wave numbers and cos and sin amplitudes of
    1-d fields (None: no field), each padded with zero modes to the longest.

    A zero mode adds 0.0 to a point's sum, so a column evaluates in the
    operations of its field's own sums, bit for bit."""
    if any(f is not None and f.dim != 1 for f in fields):
        raise NotImplementedError("trajectory sampling is implemented for d = 1")
    m = max((len(f.modes[1]) for f in fields if f is not None), default=1)
    table = np.zeros((3, m, len(fields)))
    for col, f in enumerate(fields):
        if f is not None:
            omegas, cos_amps, sin_amps = f.modes
            table[:, :len(cos_amps), col] = (omegas[0, :, 0], cos_amps[:, 0],
                                             sin_amps[:, 0])
    return table


def _rate_table(model: ContinuousModel) -> np.ndarray:
    """(3, m, J, J) table of the rate fields r_ij (zero on the diagonal)."""
    J, entries = model.J, model.rates.entries
    table = _fourier_table([entries[i][j] if i != j else None
                            for i in range(J) for j in range(J)])
    return table.reshape(3, -1, J, J)


def _switching_rates(table: np.ndarray, y: np.ndarray,
                     state: np.ndarray) -> np.ndarray:
    """(len(y), J) rates r_ij(y) out of each point's state i, clipped at 0,
    from the (3, m, J, J) rate table."""
    omegas, cos_amps, sin_amps = table[:, :, state]
    phase = omegas * y[:, None]
    return np.maximum(_ordered_sum(cos_amps * np.cos(phase)
                                   + sin_amps * np.sin(phase)), 0.0)


def _drift(columns: np.ndarray, slope: np.ndarray, y: np.ndarray) -> np.ndarray:
    """grad psi(y) per path from its (3, m, paths) potential table columns
    and slopes: the sums of `PeriodicScalarField.gradients`."""
    omegas, cos_amps, sin_amps = columns
    phase = omegas * y
    return slope + _ordered_sum(omegas * (sin_amps * np.cos(phase)
                                          - cos_amps * np.sin(phase)))


def max_total_switching_rate(model: ContinuousModel) -> float:
    """sup over (y, i) of sum_j r_ij(y), from a resolving sample lattice."""
    fields = model.rates.iter_fields()
    if not fields:
        return 0.0
    table = _rate_table(model)
    y = grid_points(model.dim, sampling_resolution(fields), model.period)[:, 0]
    return max(float(np.max(np.sum(_switching_rates(
        table, y, np.full(len(y), i)), axis=1))) for i in range(model.J))


def _continuous_paths(model: ContinuousModel, eps: float, T: float,
                      dt: Optional[float], streams: _Streams, *,
                      gamma: float = 1.0, i0: int = 0,
                      freeze_position: bool = False) -> List[Trajectory]:
    """The paths of `streams`, advanced together from their streams' start."""
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
    paths = len(streams.indices)
    streams.rewind()
    normal = None if freeze_position else _Lockstep(streams.draws(_KINDS[0]))
    exponential, uniform = (_Draws(streams.draws(kind)) for kind in _KINDS[1:])
    rate_scale = gamma / eps
    # 1% headroom: the lattice max can sit slightly below the continuum sup
    lam = 1.01 * rate_scale * max_total_switching_rate(model)
    stride = max(1, math.ceil(T / dt) // _RECORDS)
    sqrt_eps = math.sqrt(eps)
    rates = _rate_table(model)
    potentials = _fourier_table(model.potentials)
    slopes = np.array([psi.slope[0] for psi in model.potentials])

    live = np.arange(paths)     # batch positions of the running paths
    t, x = np.zeros(paths), np.zeros(paths)
    state = np.full(paths, i0)
    columns, slope = potentials[:, :, state], slopes[state]
    records = _Records(paths, model.J)
    records.add(live, 0.0, 0.0, i0)
    candidate = exponential(live) / lam if lam > 0 else np.full(paths, math.inf)

    steps = 0                   # array steps taken, the same for every live path
    while live.size:
        target = np.minimum(np.minimum(t + dt, candidate), T)
        if normal is not None:
            step = target - t
            x = x + (sqrt_eps * np.sqrt(step) * normal()
                     - _drift(columns, slope, x / eps) * step)
        t = target
        steps += 1
        if steps % stride == 0:
            records.add(live, t, x, state)

        hit = (t >= candidate).nonzero()[0]
        if hit.size:
            cum = (rate_scale * _switching_rates(rates, x[hit] / eps,
                                                 state[hit])).cumsum(axis=1)
            total = cum[:, -1]
            if (total > lam * (1 + 1e-12)).any():
                raise RuntimeError("thinning bound violated; rate field "
                                   "sampling resolution too low")
            accept = uniform(live[hit]) < total / lam
            jump = hit[accept]
            if jump.size:
                u = uniform(live[jump]) * total[accept]
                new = (cum[accept] <= u[:, None]).sum(axis=1)
                state[jump] = new
                records.add(live[jump], t[jump], x[jump], new)
                columns[:, :, jump] = potentials[:, :, new]
                slope[jump] = slopes[new]
            candidate[hit] = t[hit] + exponential(live[hit]) / lam
        done = t >= T
        if done.any():
            records.end(live[done], T, x[done], state[done])
            keep = ~done
            live, t, x, state, candidate, slope = (
                a[keep] for a in (live, t, x, state, candidate, slope))
            columns = columns[:, :, keep]
            if normal is not None:
                normal.keep(keep)

    del normal, exponential, uniform    # free the blocks before the split
    return records.trajectories(seed=streams.seed, scale=eps, kind="continuous")


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
    return _continuous_paths(model, eps, T, dt, _Streams(seed, [traj_index]),
                             gamma=gamma, i0=i0,
                             freeze_position=freeze_position)[0]


# ---------------------------------------------------------------------------
# discrete model: exact competing clocks
# ---------------------------------------------------------------------------

def _discrete_paths(model: DiscreteModel, n: int, T: float, streams: _Streams,
                    *, gamma: float = 1.0, i0: int = 0) -> List[Trajectory]:
    """The paths of `streams` from their streams' start, one event per live
    path per array step."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0 <= i0 < model.J:
        raise ValueError(f"initial state {i0} out of range")
    paths = len(streams.indices)
    streams.rewind()
    exponential, uniform = (_Lockstep(streams.draws(kind)) for kind in _KINDS[1:])
    J = model.J
    switching = np.where(np.eye(J, dtype=bool)[:, :, None], 0.0, model.switching)
    # cumulative event rates (J, ell, 2 + J): hop up, hop down, switch to j
    cum_rates = np.cumsum(np.concatenate(
        [n * model.hop_rates_plus[..., None], n * model.hop_rates_minus[..., None],
         n * gamma * np.moveaxis(switching, 1, 2)], axis=2), axis=2)
    hop = np.r_[1, -1, np.zeros(J, dtype=int)].astype(np.int32)

    live = np.arange(paths)     # batch positions of the running paths
    t = np.zeros(paths)
    m = np.zeros(paths, dtype=np.int32)     # lifted integer position; x = m / n
    state = np.full(paths, i0)
    records = _Records(paths, model.J, n)
    records.add(live, 0.0, 0.0, i0)
    while live.size:
        cum = cum_rates[state, m % model.ell]
        t = t + exponential() / cum[:, -1]
        done = t >= T
        if done.any():
            records.end(live[done], T, m[done], state[done])
            keep = ~done
            live, t, m, state, cum = (a[keep] for a in (live, t, m, state, cum))
            exponential.keep(keep)
            uniform.keep(keep)
        u = uniform() * cum[:, -1]
        event = (cum <= u[:, None]).sum(axis=1)
        m = m + hop[event]
        state = np.where(event >= 2, event - 2, state)
        records.add(live, t, m, state)

    del exponential, uniform    # free the blocks before the split
    return records.trajectories(seed=streams.seed, scale=float(n),
                                kind="discrete")


def simulate_discrete(model: DiscreteModel, n: int, T: float, seed: int = 0, *,
                      gamma: float = 1.0, i0: int = 0,
                      traj_index: int = 0) -> Trajectory:
    """Exact event-driven path: hop rates n r_+-, switching rates n gamma r_ij."""
    return _discrete_paths(model, n, T, _Streams(seed, [traj_index]),
                           gamma=gamma, i0=i0)[0]


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
        model, eps, T, dt, _Streams(base_seed, range(paths)), gamma=gamma,
        i0=i0))


def batch_discrete(model: DiscreteModel, n: int, T: float, paths: int,
                   base_seed: int, *, gamma: float = 1.0,
                   i0: int = 0) -> TrajectoryBatch:
    return TrajectoryBatch.from_trajectories(_discrete_paths(
        model, n, T, _Streams(base_seed, range(paths)), gamma=gamma, i0=i0))


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
    Every scale reads the same (seed, k) streams, built once here and
    rewound for each scale, so a row equals the `batch_*` run of its scale.
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
    streams = _Streams(base_seed, range(paths))
    rows: List[ScaleResult] = []
    for scale in scales:
        if continuous:
            trajs = _continuous_paths(model, float(scale), T,
                                      float(scale) / dt_factor, streams,
                                      gamma=gamma)
        else:
            trajs = _discrete_paths(model, int(scale), T, streams, gamma=gamma)
        batch = TrajectoryBatch.from_trajectories(trajs)
        del trajs
        verdict = abs(batch.mean - predicted_v) <= 3.0 * batch.se
        rows.append(ScaleResult(float(scale), batch.mean, batch.sd, batch.se,
                                float(predicted_v), bool(verdict)))
        del batch   # free this scale's paths before the next scale runs
    sds = [r.sd for r in rows]
    sd_monotone = all(sds[k + 1] <= sds[k] * (1 + 1e-9)
                      for k in range(len(sds) - 1))
    return ConcentrationReport(tuple(rows), sd_monotone)
