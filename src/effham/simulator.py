"""Trajectory sampling for the switching processes at finite scale.

Every path is an exact Markov-chain walk (Gillespie, J. Phys. Chem. 81,
1977) on the sites m of a lifted lattice, run by one stepper over three
tables: hop rates up and down (J, ell) and switching rates (J, J, ell).  A
discrete model walks on its own sites at its own rates.  A continuous model
walks on the exponentially fitted lattice of its cell operator (Wang,
Peskin & Elston, J. Theor. Biol. 221, 2003): N sites per period, spacing
h = L/N, hop rates `eigensolver._fitted_hops` (the regime-I weights of
`cell_operator(model, N=N)`, bit for bit) and switching rates r_ij on the
grid, clipped at 0.  So the walk's velocity times h is
`velocity_of_model(model, N=N)`: the walk has no time step and no step
bias, only the lattice's O(h^2).  At the fast step ds (dt/eps, 1/dt_factor
in an experiment, 1/DT_FACTOR by default) N = ceil(L/sqrt(ds)), so that
h^2 is about ds and a path makes about 1/ds events per unit fast time, at
least 3 and raised to the Peclet minimum of the solver's guard.  Positions
live on the universal cover, so displacement and empirical velocity are
well defined.  The stepper runs regime I, a continuous model in d = 1; a
model in regime II, or a continuous one in d > 1, raises
NotImplementedError before any stream is built.

Paths run in scale-free fast variables.  A continuous path at scale eps is
X_t = eps Y_{t/eps}, where Y diffuses in the potential psi_i and switches at
r_ij(Y); the walk runs y = m h in the fast time s = t/eps, read at x = eps
m h.  A discrete path at refinement n is the n = 1 walk on sites m, read at
x = m/n, t = s/n.  So a scale is a horizon of the fast process: T/eps or
n T.  The stepper takes the increasing horizons of its run and steps one
row per path until its last horizon; a row's site at a horizon is its site
after the last event before it.  A concentration experiment thus costs the
work of its finest scale, and its scales are horizons of one sample of
paths, not independent samples.

The rows of a run are numpy arrays stepped together, one event per row and
array step; rows drop out when they pass their last horizon, and a step
tests horizons and drop-outs only when some row reaches a horizon.  Every
draw is an addressed uniform of a Philox stream.  Paths 64 g to 64 g + 63
share group g's stream, keyed by (seed, g) for seed and path index in
[0, 2**64).  A row reads `_SLOTS` = 2 per array step, its clock and its
event choice: slot c of array step t of path k is element (2 t + c) 64 + k mod 64
of its group's stream, read `_BLOCK` steps at a time.  So every draw is a
function of (seed, path, step, slot), whatever the other paths of the run
and the block size: each row of a concentration experiment equals the
one-scale experiment of its scale, and `simulate_*` with `traj_index=k`
ends where path k of an experiment does whenever its lattice is the
experiment's (for a continuous model, the same N).  (t, x, i) records and
`Trajectory` objects are built only for `simulate_*`, one path at a time,
and close at exactly T: a discrete path records every event, a continuous
one about `_RECORDS` strided events and every switch.  An experiment keeps
each path's end at each horizon.

A concentration experiment splits its paths into k = min(cores, paths)
contiguous shards, with cores the size of the process's affinity mask
(`workers._cores`).  `workers.run` forks a child for each shard but the
first, which this process steps, and the shards' ends join in path order.
A shard keeps its paths' indices, and a path's draws depend on nothing but
(seed, path, step, slot), so each path's ends are its one-process ends bit
for bit and the report does not depend on k.  The experiment runs in
process wherever `workers.run` does not fork (one core, no `os.fork` or
`os.sched_getaffinity`, Python 3.12 and later) and with one path.  The
prediction (`velocity_of_model`) runs before the fork; `simulate_*` runs
in one process.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import workers
from .eigensolver import PecletError, _fitted_hops, _peclet_guard
from .fields import Frozen, freeze, grid_points
from .model import ContinuousModel, DiscreteModel, Model

DT_FACTOR = 200.0   # default fast step ds = dt/eps = 1/DT_FACTOR
_GROUP = 64         # consecutive paths that share one stream
_BLOCK = 16         # array steps of draws read from each stream at once
_SLOTS = 2          # draws per row and array step: its clock, its event
_RECORDS = 256      # strided records per continuous path (plus switches)
_KIND = 1           # counter word of the uniform streams, fixed with the seeds


def _stream(seed: int, group: int):
    """The `Generator.random` of the paths of `group` g, 64 g to 64 g + 63:
    Philox keyed by (seed, g), its counter from (0, 0, 0, `_KIND`).
    Distinct keys give independent streams (Salmon et al., SC 2011).  The
    words go in as uint64 arrays: numpy reads a list that holds a word
    >= 2**63 through float64."""
    return np.random.Generator(np.random.Philox(
        key=np.array([seed, group], dtype=np.uint64),
        counter=np.array([0, 0, 0, _KIND], dtype=np.uint64))).random


class _Streams:
    """The seed and path indices of a run, Philox key words: integers in
    [0, 2**64), never a float truncated (`TypeError`) or a value wrapped
    (`ValueError`), and at least one path (`ValueError`).  Path k reads the
    stream of group k // `_GROUP` at lane k % `_GROUP`; the run lays its
    `groups` side by side, so that path p of the run is column
    `columns[p]` of every step's draws."""

    def __init__(self, seed: int, indices: Sequence[int]):
        self.seed, *self.indices = words = [operator.index(word)
                                            for word in (seed, *indices)]
        if not self.indices:
            raise ValueError("a run needs at least one path, got none")
        bad = [word for word in words if not 0 <= word < 2**64]
        if bad:
            raise ValueError("a seed or trajectory index must be a "
                             f"non-negative integer below 2**64, got {bad[0]}")
        groups, lanes = np.divmod(np.array(self.indices, dtype=np.uint64),
                                  _GROUP)
        groups, rank = np.unique(groups, return_inverse=True)
        self.groups = groups.tolist()
        self.columns = rank * _GROUP + lanes.astype(np.intp)


class _StepDraws:
    """The uniforms of a run's paths, `_SLOTS` per array step: slot c of
    step t of path k is element (t `_SLOTS` + c) `_GROUP` + k % `_GROUP` of
    its group's `_stream`.  A refill reads the next `_BLOCK` steps of every
    group's stream, one (`_BLOCK`, `_SLOTS`, `_GROUP`) block per group, and
    lays them side by side, so that a step's slot is one row of the run's
    columns.  So a path's draws depend neither on the other paths in the
    run nor on the block size.  A run builds each stream once and reads it
    once, whatever the number of scales it runs."""

    def __init__(self, streams: _Streams):
        self._draw = [_stream(streams.seed, g) for g in streams.groups]
        groups = len(self._draw)
        self._fill = np.empty((groups, _BLOCK, _SLOTS, _GROUP))
        self._block = np.empty((_BLOCK, _SLOTS, groups * _GROUP))
        # the block by (step, slot, group, lane): a view of the same memory
        self._lanes = self._block.reshape(_BLOCK, _SLOTS, groups, _GROUP)
        self._end = 0           # the block holds steps [_end - _BLOCK, _end)

    def __call__(self, step: int, columns: np.ndarray) -> np.ndarray:
        """The slots (`_SLOTS`, rows) of array step `step` for each row at
        `columns`; the steps read never decrease."""
        while step >= self._end:
            for draw, block in zip(self._draw, self._fill):
                draw(out=block)
            np.copyto(self._lanes, self._fill.transpose(1, 2, 0, 3))
            self._end += len(self._block)
        return self._block[step % len(self._block)].take(columns, axis=1)


@dataclass(frozen=True)
class Trajectory(Frozen):
    """One lifted sample path of (X_t, I_t)."""

    seed: int
    scale: float            # epsilon (continuous) or n (discrete)
    times: np.ndarray
    positions: np.ndarray   # lifted (unwrapped) spatial states
    states: np.ndarray      # chemical indices, constant between jump records
    kind: str               # "continuous" | "discrete"

    def __post_init__(self):
        freeze(self, "times")
        freeze(self, "positions")
        freeze(self, "states", int)
        if len(self.times) < 2 or self.times[0] != 0.0:
            raise ValueError("trajectory must start at t = 0 and have >= 2 records")

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
    """(t, x, i) records of a one-path run at one scale.  The stepper logs
    its fast (s, m, i) at the start and after every event, for the rows
    `paths` it names (the run's one path, or none); the log keeps every
    `stride`-th of them and every switch.  `trajectory` maps s to t with
    `time` and m to x with `place`, and closes the path at exactly T."""

    def __init__(self, T: float, time, place, stride: int = 1):
        self._log: list = []
        self._T, self._time, self._place = T, time, place
        self._stride, self._count = stride, 0
        self._last, self._state = -math.inf, None

    def add(self, paths: np.ndarray, s, m, i) -> None:
        if len(paths):
            if self._count % self._stride == 0 or i[0] != self._state:
                self._keep(s, m, i)
            self._count += 1

    def _keep(self, s, m, i) -> None:
        self._log.append((s, m, i))
        self._last, self._state = s, i[0]

    def end(self, paths: np.ndarray, horizon: float, m: np.ndarray,
            i: np.ndarray) -> None:
        """Close `paths` at `horizon`, unless their last record is there."""
        if len(paths) and self._last != horizon:
            self._keep(horizon, m, i)

    def trajectory(self, *, seed: int, scale: float, kind: str) -> Trajectory:
        s, m, i = (np.hstack(column) for column in zip(*self._log))
        t = self._time(s)
        t[-1] = self._T             # the last record is the path's close
        return Trajectory(seed=seed, scale=scale, times=t,
                          positions=self._place(m), states=i, kind=kind)


# ---------------------------------------------------------------------------
# the lattice walk
# ---------------------------------------------------------------------------

class _Lattice(NamedTuple):
    """The tables of a walk: hop rates (J, ell) to site m + 1 (`up`) and
    m - 1 (`down`) and switching rates (J, J, ell) at site m mod ell, and
    the spacing h of the sites in the fast variable (1 for a discrete
    model)."""

    up: np.ndarray
    down: np.ndarray
    switching: np.ndarray
    h: float


def _check_steppable(model: Model) -> None:
    """Raise NotImplementedError unless the paths of `model` can be
    walked: the stepper runs the regime-I process, a continuous one in
    d = 1 (a regime-II model's paths would be those of regime I)."""
    if isinstance(model, ContinuousModel) and model.dim != 1:
        raise NotImplementedError("trajectory sampling is implemented for "
                                  f"d = 1, got d = {model.dim}")
    if model.regime != "I":
        raise NotImplementedError("trajectory sampling is implemented for "
                                  f"regime I, got regime {model.regime}")


def _walk_sites(model: ContinuousModel, ds: float) -> int:
    """Sites N per period of a continuous walk at fast step ds:
    ceil(L/sqrt(ds)), so that h^2 is about ds, at least 3 (the operator's
    minimum), and raised to the minimal N that `PecletError` names while
    the solver's guard at p = 0 rejects the drift on the grid of N.  The
    ceiling forgives a relative 1e-9, so that ds = dt/eps, an ulp off
    1/dt_factor, gives the N of 1/dt_factor (dt_factor 121 at eps 0.0378:
    N = 11, not 12)."""
    N = max(3, math.ceil(model.period / math.sqrt(ds) * (1 - 1e-9)))
    while True:
        pts = grid_points(1, N, model.period)
        drift = max(float(np.max(np.abs(psi.gradients(pts))))
                    for psi in model.potentials)
        try:
            _peclet_guard(drift, model.period / N, model.period, N, "walk")
        except PecletError as error:
            N = error.minimal_n
            continue
        return N


def _lattice(model: Model, ds: Optional[float] = None) -> _Lattice:
    """The tables that the paths of `model` walk on, after
    `_check_steppable`: a discrete model's own arrays, or a continuous
    model's fitted lattice of `_walk_sites(model, ds)` sites per period."""
    _check_steppable(model)
    if isinstance(model, DiscreteModel):
        return _Lattice(model.hop_rates_plus, model.hop_rates_minus,
                        model.switching, 1.0)
    N = _walk_sites(model, ds)
    up, down = _fitted_hops(model, N)
    rates = model.rates.values(grid_points(1, N, model.period))
    return _Lattice(up[:, 0], down[:, 0],
                    np.moveaxis(np.maximum(rates, 0.0), 0, -1),
                    model.period / N)


def _fast_step(eps: float, dt: Optional[float]) -> float:
    """The fast step ds = dt/eps of a continuous run at scale eps.  dt
    defaults to eps/DT_FACTOR (ds = 1/DT_FACTOR) and must satisfy
    dt <= eps/10 so the fast variable x/eps is resolved."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps = {eps} must be positive and finite")
    if dt is None:
        return 1.0 / DT_FACTOR
    if not 0 < dt <= eps / 10.0:
        raise ValueError(f"dt = {dt} must lie in (0, eps/10] to resolve the "
                         "fast variable")
    return dt / eps


def _lattice_scale(n) -> int:
    """The lattice refinement n of a discrete run, a positive integer no
    larger than the largest float; a bool is not one."""
    if isinstance(n, (bool, np.bool_)) or not (
            1 <= n <= sys.float_info.max and n % 1 == 0):
        raise ValueError(f"n = {n} must be a positive integer")
    return int(n)


def _check_run(lattice: _Lattice, horizons: Sequence[float],
               i0: int) -> np.ndarray:
    """`horizons` as an array, after checking the run's arguments."""
    horizons = np.asarray(horizons, dtype=float)
    if not (horizons.size and 0 < horizons[0] and horizons[-1] < math.inf
            and np.all(np.diff(horizons) > 0)):
        raise ValueError(f"horizons {horizons.tolist()} (T/eps or n T) must "
                         "be positive, finite and increasing")
    if not 0 <= i0 < len(lattice.up):
        raise ValueError(f"initial state {i0} out of range")
    return horizons


def _discrete_paths(lattice: _Lattice, horizons: Sequence[float],
                    streams: _Streams, *, i0: int = 0,
                    records: Optional[_Records] = None) -> np.ndarray:
    """Sites m (len(horizons), paths) of the paths of `streams` at each
    fast horizon of `horizons` (increasing), each path walked once on
    `lattice` from site 0 in state i0, one event per row per array step.
    `records` collects every path's (s, m, i) records."""
    horizons = _check_run(lattice, horizons, i0)
    ahead = np.append(horizons, math.inf)
    paths = len(streams.indices)
    uniform = _StepDraws(streams)
    J, ell = lattice.up.shape
    width = 2 + J
    switching = np.where(np.eye(J, dtype=bool)[:, :, None], 0.0,
                         lattice.switching)
    # cumulative event rates of cell c = i ell + k (state i at site k) in
    # column c: hop up, hop down, switch to j
    cum_rates = np.ascontiguousarray(np.cumsum(np.concatenate(
        [lattice.up[..., None], lattice.down[..., None],
         np.moveaxis(switching, 1, 2)], axis=2), axis=2).reshape(-1, width).T)
    # event e moves a row by hop[e] and from cell c to follow[c width + e]
    hop = np.r_[1, -1, np.zeros(J, dtype=int)].astype(np.int32)
    i, k = np.divmod(np.arange(J * ell), ell)
    follow = np.stack([i * ell + (k + 1) % ell, i * ell + (k - 1) % ell]
                      + [j * ell + k for j in range(J)],
                      axis=1).ravel()

    live = streams.columns      # the draws' columns of the running rows
    s = np.zeros(paths)
    m = np.zeros(paths, dtype=np.int32)     # lifted integer position
    cell = np.full(paths, i0 * ell)
    due = np.zeros(paths, dtype=np.intp)    # index of each row's next horizon
    first = horizons[0]         # the earliest horizon a running row is due at
    ends = np.empty((len(horizons), len(streams.groups) * _GROUP),
                    dtype=np.int32)
    if records is not None:
        records.add(live, 0.0, 0, cell // ell)
    t = 0                       # array steps taken, the same for every row
    while live.size:
        clock, choice = uniform(t, live)
        cum = cum_rates.take(cell, axis=1)
        s = s - np.log1p(-clock) / cum[-1]
        if s.max() >= first:    # some clock passes a horizon
            passed = (ahead[due] <= s).nonzero()[0]
            while passed.size:  # sites at the horizons this clock passes
                ends[due[passed], live[passed]] = m[passed]
                due[passed] += 1
                passed = passed[ahead[due[passed]] <= s[passed]]
            running = due < len(horizons)
            if not running.all():
                if records is not None:
                    records.end(live[~running], horizons[-1], m[~running],
                                cell[~running] // ell)
                live, s, m, cell, due, choice = (a[running] for a in (
                    live, s, m, cell, due, choice))
                cum = cum[:, running]
            if live.size:
                first = ahead[due].min()
        event = (cum <= choice * cum[-1]).sum(axis=0)
        m = m + hop.take(event)
        cell = follow.take(cell * width + event)
        if records is not None:
            records.add(live, s, m, cell // ell)
        t += 1
    return ends[:, streams.columns]


def simulate_continuous(model: ContinuousModel, eps: float, T: float,
                        dt: Optional[float] = None, seed: int = 0, *,
                        i0: int = 0, traj_index: int = 0) -> Trajectory:
    """One lifted path of the diffusion with switching, walked exactly on
    the fitted lattice of `_walk_sites` sites per period at the fast step
    ds = dt/eps, read at x = eps m h.

    dt defaults to eps/DT_FACTOR and must satisfy dt <= eps/10 so the fast
    variable x/eps is resolved.
    """
    streams = _Streams(seed, [traj_index])
    ds = _fast_step(eps, dt)
    lattice = _lattice(model, ds)
    records = _Records(T, lambda s: eps * s, lambda m: eps * (lattice.h * m),
                       stride=max(1, math.ceil(T / eps / ds) // _RECORDS))
    _discrete_paths(lattice, [T / eps], streams, i0=i0, records=records)
    return records.trajectory(seed=streams.seed, scale=eps, kind="continuous")


def simulate_discrete(model: DiscreteModel, n: int, T: float, seed: int = 0, *,
                      i0: int = 0, traj_index: int = 0) -> Trajectory:
    """Exact event-driven path: hop rates n r_+-, switching rates n r_ij."""
    streams = _Streams(seed, [traj_index])
    n = _lattice_scale(n)
    lattice = _lattice(model)
    records = _Records(T, lambda a: a / n, lambda a: a / n)
    _discrete_paths(lattice, [n * T], streams, i0=i0, records=records)
    return records.trajectory(seed=streams.seed, scale=float(n),
                              kind="discrete")


# ---------------------------------------------------------------------------
# the concentration experiment
# ---------------------------------------------------------------------------

def _velocity_summary(vels: np.ndarray) -> Tuple[float, float, float]:
    """(mean, sample SD, SE) of empirical velocities."""
    sd = float(np.std(vels, ddof=1)) if len(vels) > 1 else 0.0
    return (float(np.mean(vels)), sd,
            sd / math.sqrt(len(vels)) if len(vels) > 1 else 0.0)


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
    """The scales of a concentration experiment, checked: each eps of a
    continuous model as a float, each lattice refinement n of a discrete
    one as an int.

    Raises ValueError unless there is a scale, every eps is positive and
    finite with a step eps/dt_factor that resolves the fast variable, every
    n is a positive integer, and the scales refine monotonically (eps
    decreasing, n increasing); NotImplementedError for a model whose paths
    the steppers cannot run: one in regime II, or a continuous one with
    d > 1 (`_check_steppable`).
    """
    scales = list(scales)
    if len(scales) == 0:
        raise ValueError("need at least one scale")
    _check_steppable(model)
    continuous = isinstance(model, ContinuousModel)
    if continuous:
        for eps in scales:
            _fast_step(float(eps), float(eps) / dt_factor)
    refining = np.diff(scales) < 0 if continuous else np.diff(scales) > 0
    if len(scales) > 1 and not np.all(refining):
        raise ValueError("scales must refine monotonically")
    return ([float(eps) for eps in scales] if continuous
            else [_lattice_scale(n) for n in scales])


def _sharded(run, streams: _Streams) -> np.ndarray:
    """`run(streams)`, a stepper's ends (horizons, paths), computed in
    k = min(`workers._cores()`, paths) contiguous shards that keep their
    paths' indices, by `workers.run`: a forked child steps each shard but
    the first, which this process steps, and the ends join in path order."""
    indices = streams.indices
    k = min(workers._cores(), len(indices))
    cuts = [len(indices) * j // k for j in range(k + 1)]
    shards = [_Streams(streams.seed, indices[a:b])
              for a, b in zip(cuts, cuts[1:])]
    return np.concatenate(workers.run([functools.partial(run, shard)
                                       for shard in shards]), axis=1)


def concentration_experiment(model: Model, scales: Sequence[float], T: float,
                             paths: int, base_seed: int,
                             predicted_v: Optional[float] = None, *,
                             dt_factor: float = DT_FACTOR,
                             solver_n: int = 128) -> ConcentrationReport:
    """Empirical-velocity concentration against the eigenvalue prediction.

    Scales are epsilon values (continuous, decreasing) or lattice refinements n
    (discrete, increasing), checked by `experiment_scales`.  Per scale the
    verdict is |mean - DH(0)| <= 3 SE; across scales the sample SD must
    shrink as the limit is approached.  Every scale reads the same paths:
    each path runs once in the fast variables, in steps ds = 1/dt_factor,
    and scale eps (or n) is its end at the horizon T/eps (or n T).  So the
    scales are horizons of one sample of paths, not independent samples,
    and each row equals the one-scale experiment of its scale.

    The paths run in contiguous shards, one per core the process may use
    (at most one per path): a forked child steps each shard but the first,
    which this process steps.  Each shard keeps its paths' indices and so
    their streams, so every path's ends, and the report, are those of one
    process, bit for bit.  A child's exception is raised here with its type
    and message; every child is killed and reaped before any exception
    leaves.  With one path, and wherever `workers.run` does not fork (one
    core, no `os.fork` or `os.sched_getaffinity`, Python 3.12 and later),
    the experiment runs in process.
    The prediction runs before the fork.
    """
    scales = experiment_scales(model, scales, dt_factor)
    streams = _Streams(base_seed, range(paths))
    if predicted_v is None:
        from .hamiltonian import velocity_of_model
        predicted_v, _ = velocity_of_model(model, N=solver_n)
    continuous = isinstance(model, ContinuousModel)
    lattice = _lattice(model, 1.0 / dt_factor)
    horizons = [T / scale if continuous else scale * T for scale in scales]
    sites = _sharded(lambda shard: _discrete_paths(lattice, horizons, shard),
                     streams)
    column = np.array(scales)[:, None]
    x = column * (lattice.h * sites) if continuous else sites / column
    rows: List[ScaleResult] = []
    for scale, xs in zip(scales, x):
        mean, sd, se = _velocity_summary(xs / T)
        verdict = abs(mean - predicted_v) <= 3.0 * se
        rows.append(ScaleResult(float(scale), mean, sd, se,
                                float(predicted_v), bool(verdict)))
    sds = [r.sd for r in rows]
    sd_monotone = all(sds[k + 1] <= sds[k] * (1 + 1e-9)
                      for k in range(len(sds) - 1))
    return ConcentrationReport(tuple(rows), sd_monotone)
