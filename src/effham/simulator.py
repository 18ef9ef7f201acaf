"""Trajectory sampling for the switching processes at finite scale.

Continuous model: Euler-Maruyama on the lifted line for the spatial part,
with chemical switches simulated by thinning against a global rate bound, so
jump times are exact in law and carry no O(dt) bias.  Discrete model: exact
competing-clock simulation on the lifted lattice.  Positions live on the
universal cover so displacement and empirical velocity are well defined.

A run steps its rows together as numpy arrays, in lockstep.  A row is one
(scale, path) pair: a concentration experiment runs all of its scales in one
run, a batch or a single path runs one scale.  A scale's constants (eps,
dt, sqrt(eps), the switching scale and the thinning bound; the discrete
event rates) are per-row arrays built by the same scalar expressions as a
run of that scale alone, so every row's floats are those of its own batch,
bit for bit.  Every live row has taken the same number of array steps.  So
the record stride is one scalar test, and a draw that every live row takes
at every step (the Euler-Maruyama normal; the discrete model's exponential
and uniform) is one column of a per-kind block of `_BLOCK` draws per path,
which all rows of the path read; the block is refilled every `_BLOCK` steps
and compacted when all rows of a path have finished.  Each continuous row
keeps its own thinning clock, and its clock, accept and choice draws come
from a per-path log of the path's stream, read with a cursor per row, since
only the rows with a candidate in the step take them.  Drift and switching
rates come from state-indexed Fourier tables, padded with zero modes so that
each row runs the same elementwise sums as its `PeriodicScalarField`; a
row's drift columns change only when it jumps.

Each path reads its own Philox streams (one per kind of draw, keyed by base
seed and trajectory index) once per run, in blocks of `_BLOCK`, whatever the
number of scales.  So `simulate_*` with `traj_index=k` reproduces path k of a
batch bit for bit, whatever the batch and the block size, and each row of a
concentration experiment equals the `batch_*` run of its scale.  A run
returns each row's end position; (t, x, i) records and `Trajectory` objects
are built only for `simulate_*` and `batch_*`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .fields import _ordered_sum, grid_points, sampling_resolution
from .model import ContinuousModel, DiscreteModel, Model

DT_FACTOR = 200.0   # default Euler-Maruyama step dt = eps / DT_FACTOR
_BLOCK = 64         # draws per path and kind read from its stream at once
_RECORDS = 256      # strided records per continuous path (plus switches)
_KINDS = ("standard_normal", "standard_exponential", "random")


class _Streams:
    """The Philox streams of a run's paths, one per kind of draw (a
    `Generator` method name in `_KINDS`).

    Kind j of path k reads its own stream, seeded by child j of
    `SeedSequence((seed, k))`, so a path's draws depend neither on the other
    paths in the run nor on the block size.  A stepper builds each kind's
    streams once (about 40 us a stream) and reads each of them once,
    whatever the number of scales it runs.
    """

    def __init__(self, seed: int, indices: Sequence[int]):
        self.seed = int(seed)
        self.indices = [int(k) for k in indices]

    def draws(self, kind: str) -> list:
        """Per path, the bound `Generator` method that draws `kind`."""
        child = (_KINDS.index(kind),)
        return [getattr(np.random.Generator(np.random.Philox(
            np.random.SeedSequence((self.seed, k), spawn_key=child))), kind)
            for k in self.indices]


class _Draws:
    """One kind of draw for any subset of a run's rows, each row reading its
    path's stream at its own pace (row s * paths + k reads path k).

    A path's draws are logged in blocks of `_BLOCK`, drawn when one of its
    rows reaches the end of the log, and every row keeps a cursor into its
    path's log: rows of different scales read the same draws, and each
    stream is read once.  A refill first drops the draws that every row of
    the path has read, so a run of one scale keeps one block per path.
    """

    def __init__(self, draws: list, scales: int):
        self._draw = draws
        self._path = np.tile(np.arange(len(draws)), scales)   # path of each row
        self._size = _BLOCK
        self._log = np.empty((len(draws), self._size))
        self._base = np.zeros(len(draws), dtype=np.intp)    # draw in column 0
        self._filled = np.zeros(len(draws), dtype=np.intp)  # draws taken
        self._cursor = np.zeros(len(self._path), dtype=np.intp)

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        """One draw for each row in `rows` (distinct row numbers)."""
        path, cursor = self._path[rows], self._cursor[rows]
        spent = (cursor == self._filled[path]).nonzero()[0]
        for p, end in zip(path[spent].tolist(), cursor[spent].tolist()):
            if self._filled[p] == end:      # no other row of p refilled it
                self._refill(p)
        self._cursor[rows] = cursor + 1
        return self._log[path, cursor - self._base[path]]

    def _refill(self, p: int) -> None:
        read = int(self._cursor[p::len(self._draw)].min())  # by every row of p
        kept = self._filled[p] - read
        start = read - self._base[p]
        self._log[p, :kept] = self._log[p, start:start + kept]
        self._base[p] = read
        if kept + self._size > self._log.shape[1]:
            log = np.empty((len(self._draw), 2 * self._log.shape[1]))
            log[:, :self._log.shape[1]] = self._log
            self._log = log
        self._draw[p](out=self._log[p, kept:kept + self._size])
        self._filled[p] += self._size


class _Lockstep:
    """One kind of draw for every live row at once, valid while each live
    row takes one draw per call: then every row has used the same number of
    its path's draws, and a call returns one row of a (_BLOCK, live paths)
    block, refilled every `_BLOCK` calls, read at each row's path column
    (row s * paths + k reads path k)."""

    def __init__(self, draws: list, scales: int):
        self._draw = draws
        self._paths = np.arange(len(draws))   # stream position of each column
        self._column = np.tile(self._paths, scales)   # column of each live row
        self._size = _BLOCK
        self._block = None
        self._next = self._size

    def __call__(self) -> np.ndarray:
        if self._next == self._size:
            block = np.empty((len(self._paths), self._size))
            for out, p in zip(block, self._paths):
                self._draw[p](out=out)
            self._block = block.T.copy()    # each call's row contiguous
            self._next = 0
        self._next += 1
        return self._block[self._next - 1, self._column]

    def keep(self, mask: np.ndarray) -> None:
        """Drop the rows where `mask` is False (they have finished), and the
        column of every path that has no row left."""
        self._column = self._column[mask]
        alive = np.zeros(len(self._paths), dtype=bool)
        alive[self._column] = True
        if not alive.all():
            self._paths = self._paths[alive]
            if self._next < self._size:
                self._block = self._block[:, alive]
            self._column = (np.cumsum(alive) - 1)[self._column]


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
    """(t, x, i) records of a run's paths, logged in time order as chunks
    (rows, t, x, i) and split by path at the end.  With `n`, positions are
    lattice sites m of the 1/n lattice and become m / n at the split.
    """

    def __init__(self, paths: int, n: Optional[int] = None):
        self._log: list = []
        self._n = n
        self._last = np.full(paths, -math.inf)

    def add(self, rows: np.ndarray, t, x, i) -> None:
        # `i` is copied: the continuous stepper changes its states in place
        self._log.append(np.broadcast_arrays(rows, t, x, np.array(i)))
        self._last[rows] = t

    def end(self, rows: np.ndarray, T: float, x: np.ndarray,
            i: np.ndarray) -> None:
        """Close the paths `rows` at T, unless their last record is at T."""
        new = self._last[rows] != T
        self.add(rows[new], T, x[new], i[new])

    def trajectories(self, *, seed: int, scale: float,
                     kind: str) -> List[Trajectory]:
        rows, t, x, i = (np.concatenate(chunks) for chunks in zip(*self._log))
        order = np.argsort(rows, kind="stable")
        cuts = np.cumsum(np.bincount(rows, minlength=len(self._last)))[:-1]
        t, x, i = (np.split(column[order], cuts) for column in (t, x, i))
        if self._n is not None:
            x = [xk / self._n for xk in x]
        return [Trajectory(seed=seed, scale=scale, times=tk, positions=xk,
                           states=ik, kind=kind)
                for tk, xk, ik in zip(t, x, i)]


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


def _continuous_scale(eps: float,
                      dt: Optional[float]) -> Tuple[float, float]:
    """(eps, dt) of a continuous run: dt defaults to eps/DT_FACTOR and must
    satisfy dt <= eps/10 so the fast variable x/eps is resolved."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps = {eps} must be positive and finite")
    if dt is None:
        dt = eps / DT_FACTOR
    if not 0 < dt <= eps / 10.0:
        raise ValueError(f"dt = {dt} must lie in (0, eps/10] to resolve the "
                         "fast variable")
    return eps, dt


def _lattice_scale(n) -> int:
    """The lattice refinement n of a discrete run, a positive integer."""
    if not (float(n).is_integer() and n >= 1):
        raise ValueError(f"n = {n} must be a positive integer")
    return int(n)


def _check_run(model: Model, T: float, gamma: float, i0: int) -> None:
    if not 0 < T < math.inf:
        raise ValueError(f"T = {T} must be positive and finite")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma = {gamma} must be positive and finite")
    if not 0 <= i0 < model.J:
        raise ValueError(f"initial state {i0} out of range")


def _continuous_paths(model: ContinuousModel,
                      scales: Sequence[Tuple[float, float]], T: float,
                      streams: _Streams, *, gamma: float = 1.0, i0: int = 0,
                      freeze_position: bool = False,
                      records: Optional[_Records] = None) -> np.ndarray:
    """End positions (len(scales), paths) of the paths of `streams` at each
    (eps, dt) of `scales`, as `_continuous_scale` returns them, advanced
    together as (scale, path) rows.

    `records`, for a run of one scale, collects every row's (t, x, i)
    records, row k being path k.
    """
    if model.dim != 1:
        raise NotImplementedError("trajectory sampling is implemented for d = 1")
    _check_run(model, T, gamma, i0)
    paths = len(streams.indices)
    normal = None if freeze_position else _Lockstep(
        streams.draws(_KINDS[0]), len(scales))
    exponential, uniform = (_Draws(streams.draws(kind), len(scales))
                            for kind in _KINDS[1:])
    # per row, the scalars of a run of its scale alone; the thinning bound
    # has 1% headroom: the lattice max can sit slightly below the continuum sup
    max_rate = max_total_switching_rate(model)
    eps, dt, sqrt_eps, rate_scale, lam = (
        np.repeat(column, paths) for column in zip(*(
            (e, d, math.sqrt(e), gamma / e, 1.01 * (gamma / e) * max_rate)
            for e, d in scales)))
    rates = _rate_table(model)
    potentials = _fourier_table(model.potentials)
    slopes = np.array([psi.slope[0] for psi in model.potentials])

    live = np.arange(len(scales) * paths)   # row numbers of the running rows
    t, x, ends = np.zeros(len(live)), np.zeros(len(live)), np.empty(len(live))
    state = np.full(len(live), i0)
    columns, slope = potentials[:, :, state], slopes[state]
    if records is not None:
        stride = max(1, math.ceil(T / scales[0][1]) // _RECORDS)
        records.add(live, 0.0, 0.0, i0)
    candidate = np.full(len(live), math.inf)
    clocked = (lam > 0).nonzero()[0]
    candidate[clocked] = exponential(clocked) / lam[clocked]

    steps = 0                   # array steps taken, the same for every live row
    while live.size:
        target = np.minimum(np.minimum(t + dt, candidate), T)
        if normal is not None:
            step = target - t
            x = x + (sqrt_eps * np.sqrt(step) * normal()
                     - _drift(columns, slope, x / eps) * step)
        t = target
        steps += 1
        if records is not None and steps % stride == 0:
            records.add(live, t, x, state)

        hit = (t >= candidate).nonzero()[0]
        if hit.size:
            cum = (rate_scale[hit, None] * _switching_rates(
                rates, x[hit] / eps[hit], state[hit])).cumsum(axis=1)
            total, bound = cum[:, -1], lam[hit]
            if (total > bound * (1 + 1e-12)).any():
                raise RuntimeError("thinning bound violated; rate field "
                                   "sampling resolution too low")
            accept = uniform(live[hit]) < total / bound
            jump = hit[accept]
            if jump.size:
                u = uniform(live[jump]) * total[accept]
                new = (cum[accept] <= u[:, None]).sum(axis=1)
                state[jump] = new
                if records is not None:
                    records.add(live[jump], t[jump], x[jump], new)
                columns[:, :, jump] = potentials[:, :, new]
                slope[jump] = slopes[new]
            candidate[hit] = t[hit] + exponential(live[hit]) / bound
        done = t >= T
        if done.any():
            ends[live[done]] = x[done]
            if records is not None:
                records.end(live[done], T, x[done], state[done])
            keep = ~done
            live, t, x, state, candidate, slope, eps, dt, sqrt_eps, \
                rate_scale, lam = (a[keep] for a in (
                    live, t, x, state, candidate, slope, eps, dt, sqrt_eps,
                    rate_scale, lam))
            columns = columns[:, :, keep]
            if normal is not None:
                normal.keep(keep)
    return ends.reshape(len(scales), paths)


def _continuous_trajectories(model: ContinuousModel, eps: float, T: float,
                             dt: Optional[float], streams: _Streams,
                             **options) -> List[Trajectory]:
    """The paths of `streams` at one scale, with their records."""
    records = _Records(len(streams.indices))
    _continuous_paths(model, [_continuous_scale(eps, dt)], T, streams,
                      records=records, **options)
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
    return _continuous_trajectories(
        model, eps, T, dt, _Streams(seed, [traj_index]), gamma=gamma, i0=i0,
        freeze_position=freeze_position)[0]


# ---------------------------------------------------------------------------
# discrete model: exact competing clocks
# ---------------------------------------------------------------------------

def _discrete_paths(model: DiscreteModel, ns: Sequence[int], T: float,
                    streams: _Streams, *, gamma: float = 1.0, i0: int = 0,
                    records: Optional[_Records] = None) -> np.ndarray:
    """End positions (len(ns), paths) of the paths of `streams` at each
    lattice refinement of `ns` (positive integers), advanced together as
    (n, path) rows, one event per live row per array step.

    `records`, for a run of one n, collects every row's (t, site, i)
    records, row k being path k.
    """
    _check_run(model, T, gamma, i0)
    paths = len(streams.indices)
    exponential, uniform = (_Lockstep(streams.draws(kind), len(ns))
                            for kind in _KINDS[1:])
    J = model.J
    switching = np.where(np.eye(J, dtype=bool)[:, :, None], 0.0, model.switching)
    # per n, cumulative event rates (J, ell, 2 + J): hop up, hop down, switch to j
    cum_rates = np.stack([np.cumsum(np.concatenate(
        [n * model.hop_rates_plus[..., None], n * model.hop_rates_minus[..., None],
         n * gamma * np.moveaxis(switching, 1, 2)], axis=2), axis=2) for n in ns])
    hop = np.r_[1, -1, np.zeros(J, dtype=int)].astype(np.int32)

    live = np.arange(len(ns) * paths)   # row numbers of the running rows
    scale = np.repeat(np.arange(len(ns)), paths)
    t = np.zeros(len(live))
    m = np.zeros(len(live), dtype=np.int32)     # lifted integer position; x = m / n
    ends = np.empty(len(live), dtype=np.int32)  # end site of each row
    state = np.full(len(live), i0)
    if records is not None:
        records.add(live, 0.0, 0.0, i0)
    while live.size:
        cum = cum_rates[scale, state, m % model.ell]
        t = t + exponential() / cum[:, -1]
        done = t >= T
        if done.any():
            ends[live[done]] = m[done]
            if records is not None:
                records.end(live[done], T, m[done], state[done])
            keep = ~done
            live, scale, t, m, state, cum = (
                a[keep] for a in (live, scale, t, m, state, cum))
            exponential.keep(keep)
            uniform.keep(keep)
        u = uniform() * cum[:, -1]
        event = (cum <= u[:, None]).sum(axis=1)
        m = m + hop[event]
        state = np.where(event >= 2, event - 2, state)
        if records is not None:
            records.add(live, t, m, state)
    return ends.reshape(len(ns), paths) / np.array(ns)[:, None]


def _discrete_trajectories(model: DiscreteModel, n: int, T: float,
                           streams: _Streams, **options) -> List[Trajectory]:
    """The paths of `streams` at one lattice refinement, with their records."""
    n = _lattice_scale(n)
    records = _Records(len(streams.indices), n)
    _discrete_paths(model, [n], T, streams, records=records, **options)
    return records.trajectories(seed=streams.seed, scale=float(n),
                                kind="discrete")


def simulate_discrete(model: DiscreteModel, n: int, T: float, seed: int = 0, *,
                      gamma: float = 1.0, i0: int = 0,
                      traj_index: int = 0) -> Trajectory:
    """Exact event-driven path: hop rates n r_+-, switching rates n gamma r_ij."""
    return _discrete_trajectories(model, n, T, _Streams(seed, [traj_index]),
                                  gamma=gamma, i0=i0)[0]


# ---------------------------------------------------------------------------
# batches and the concentration experiment
# ---------------------------------------------------------------------------

def _velocity_summary(vels: np.ndarray) -> Tuple[float, float, float]:
    """(mean, sample SD, SE) of empirical velocities."""
    sd = float(np.std(vels, ddof=1)) if len(vels) > 1 else 0.0
    return (float(np.mean(vels)), sd,
            sd / math.sqrt(len(vels)) if len(vels) > 1 else 0.0)


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
        return cls(tuple(trajs), vels, *_velocity_summary(vels))


def batch_continuous(model: ContinuousModel, eps: float, T: float, paths: int,
                     base_seed: int, dt: Optional[float] = None, *,
                     gamma: float = 1.0, i0: int = 0) -> TrajectoryBatch:
    return TrajectoryBatch.from_trajectories(_continuous_trajectories(
        model, eps, T, dt, _Streams(base_seed, range(paths)), gamma=gamma,
        i0=i0))


def batch_discrete(model: DiscreteModel, n: int, T: float, paths: int,
                   base_seed: int, *, gamma: float = 1.0,
                   i0: int = 0) -> TrajectoryBatch:
    return TrajectoryBatch.from_trajectories(_discrete_trajectories(
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


def experiment_scales(model: Model, scales: Sequence[float],
                      dt_factor: float = DT_FACTOR) -> list:
    """The runs of a concentration experiment: (eps, eps/dt_factor) per
    scale of a continuous model, the lattice refinement n per scale of a
    discrete one.

    Raises ValueError unless there is a scale, every eps is positive and
    finite with a step that resolves the fast variable, every n is a
    positive integer, and the scales refine monotonically (eps decreasing,
    n increasing).
    """
    scales = list(scales)
    if len(scales) == 0:
        raise ValueError("need at least one scale")
    continuous = isinstance(model, ContinuousModel)
    runs = ([_continuous_scale(float(s), float(s) / dt_factor) for s in scales]
            if continuous else [_lattice_scale(s) for s in scales])
    refining = np.diff(scales) < 0 if continuous else np.diff(scales) > 0
    if len(scales) > 1 and not np.all(refining):
        raise ValueError("scales must refine monotonically")
    return runs


def concentration_experiment(model: Model, scales: Sequence[float], T: float,
                             paths: int, base_seed: int,
                             predicted_v: Optional[float] = None, *,
                             dt_factor: float = DT_FACTOR, gamma: float = 1.0,
                             solver_n: int = 128) -> ConcentrationReport:
    """Empirical-velocity concentration against the eigenvalue prediction.

    Scales are epsilon values (continuous, decreasing) or lattice refinements n
    (discrete, increasing), checked by `experiment_scales`.  Per scale the
    verdict is |mean - DH(0)| <= 3 SE; across scales the sample SD must
    shrink as the limit is approached.  All scales run as one array of
    (scale, path) rows that reads each (seed, k) stream once, and keeps only
    end positions; each row equals the `batch_*` run of its scale.
    """
    scales = list(scales)
    runs = experiment_scales(model, scales, dt_factor)
    if predicted_v is None:
        from .hamiltonian import velocity_of_model
        predicted_v, _ = velocity_of_model(model, N=solver_n, gamma=gamma)
    stepper = (_continuous_paths if isinstance(model, ContinuousModel)
               else _discrete_paths)
    ends = stepper(model, runs, T, _Streams(base_seed, range(paths)),
                   gamma=gamma)
    rows: List[ScaleResult] = []
    for scale, x in zip(scales, ends):
        mean, sd, se = _velocity_summary(x / T)
        verdict = abs(mean - predicted_v) <= 3.0 * se
        rows.append(ScaleResult(float(scale), mean, sd, se,
                                float(predicted_v), bool(verdict)))
    sds = [r.sd for r in rows]
    sd_monotone = all(sds[k + 1] <= sds[k] * (1 + 1e-9)
                      for k in range(len(sds) - 1))
    return ConcentrationReport(tuple(rows), sd_monotone)
