"""Trajectory sampling for the switching processes at finite scale.

Continuous model: Euler-Maruyama on the lifted line for the spatial part,
with chemical switches simulated by thinning against a global rate bound, so
jump times are exact in law and carry no O(dt) bias.  Discrete model: exact
competing-clock simulation on the lifted lattice.  Positions live on the
universal cover so displacement and empirical velocity are well defined.
Both steppers run regime I, the continuous one in d = 1; a model in regime
II, or a continuous one in d > 1, raises NotImplementedError before any
stream is built.

Paths are stepped in scale-free fast variables.  A continuous path at scale
eps is X_t = eps Y_{t/eps}, where dY = -psi_i'(Y) ds + dW_s switches at
r_ij(Y): a stepper runs y = x/eps in the fast time s = t/eps with one fast
step ds = dt/eps (1/dt_factor in an experiment, 1/DT_FACTOR by default),
drift psi_i'(y) and the thinning bound 1.01 max_i sum_j r_ij.
A discrete path at refinement n is the n = 1 walk on sites m, read at
x = m/n, t = s/n.  So a scale is a horizon of the fast process: T/eps or
n T.  A stepper takes the increasing horizons of its run and steps one row
per path until its last horizon; when a row's step passes an earlier
horizon, the row writes its end there with a partial step from the step's
start and the step's own normal, which is the last step a run to that
horizon alone would take.  A concentration experiment thus costs the work
of its finest scale, and its scales are horizons of one sample of paths,
not independent samples.

The rows of a run are numpy arrays stepped together, one array step per
row at a time; rows drop out when they pass their last horizon, and a step
tests horizons and drop-outs only when some row reaches a horizon.  Every
draw is an addressed element of a Philox stream.  Paths 64 g to 64 g + 63
share group g's streams, keyed by (seed, g) for seed and path index in
[0, 2**64), one per kind of draw (normals, uniforms) with the kind in the
counter.  A stepper reads `per` slots of a kind per row and array step:
slot c of array step t of path k is element (t per + c) 64 + k mod 64 of
its group's stream, read `_BLOCK` steps at a time.  A continuous row reads
one normal and two uniforms at each step t >= 1: the normal moves it, and
when the step reaches its candidate jump time the first uniform u thins
(a jump to the state count(cum <= u lam) unless u lam >= the total rate)
and the second gives the next gap -log1p(-u')/lam; step 0 gives the first
gaps.  A discrete row reads its clock and its event choice at each step.
So every draw is a function of (seed, path, kind, step, slot), whatever
the other paths of the run and the block size: each row of a
concentration experiment equals the one-scale experiment of its scale, and
`simulate_*` with `traj_index=k` ends where path k of an experiment does
whenever its fast step dt/eps equals the experiment's 1/dt_factor in
floating point.  Each row's drift is `fields.fourier_gradients` of its
state's column of the potentials' `stack_modes`, gathered again only when
the row jumps, and its switching rates are `SwitchingRateMatrix.rates_out_of`
its state, clipped at 0: the sums and the round-off rule of the fields and
of `values`.  (t, x, i) records and `Trajectory` objects are built only for
`simulate_*`, one path at a time, and close at exactly T; an experiment
keeps each path's end at each horizon.

A concentration experiment splits its paths into k = min(cores, paths)
contiguous shards, with cores the size of the process's affinity mask
(`workers._cores`).  `workers.run` forks a child for each shard but the
first, which this process steps, and the shards' ends join in path order.
A shard keeps its paths' indices, and a path's draws depend on nothing but
(seed, path, kind, step, slot), so each path's ends are its one-process ends
bit for bit and the report does not depend on k.  The experiment runs in
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
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import workers
from .fields import (Frozen, fourier_gradients, freeze, grid_points,
                     sampling_resolution, stack_modes)
from .model import ContinuousModel, DiscreteModel, Model

DT_FACTOR = 200.0   # default Euler-Maruyama step dt = eps / DT_FACTOR
_GROUP = 64         # consecutive paths that share one stream per kind of draw
_BLOCK = 16         # array steps of draws read from each stream at once
_RECORDS = 256      # strided records per continuous path (plus switches)
_KINDS = ("standard_normal", "random")   # kind j of draw: Generator methods


def _stream(seed: int, group: int, kind: str):
    """The bound `Generator` method that draws `kind` (j in `_KINDS`) for
    the paths of `group` g, 64 g to 64 g + 63: Philox keyed by (seed, g),
    its counter from (0, 0, 0, j).  Distinct keys give independent streams
    (Salmon et al., SC 2011).  The words go in as uint64 arrays: numpy
    reads a list that holds a word >= 2**63 through float64."""
    return getattr(np.random.Generator(np.random.Philox(
        key=np.array([seed, group], dtype=np.uint64),
        counter=np.array([0, 0, 0, _KINDS.index(kind)], dtype=np.uint64))),
        kind)


class _Streams:
    """The seed and path indices of a run, Philox key words: integers in
    [0, 2**64), never a float truncated (`TypeError`) or a value wrapped
    (`ValueError`), and at least one path (`ValueError`).  Path k reads the
    streams of group k // `_GROUP` at lane k % `_GROUP`; the run lays its
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
    """One kind of draw for a run's paths, `per` slots per array step: slot
    c of step t of path k is element (t per + c) `_GROUP` + k % `_GROUP` of
    its group's `_stream`.  A refill reads the next `_BLOCK` steps of every
    group's stream, one (`_BLOCK`, per, `_GROUP`) block per group, and lays
    them side by side, so that a step's slot is one row of the run's
    columns.  So a path's draws depend neither on the other paths in the
    run nor on the block size.  A stepper builds each kind's streams once
    and reads each of them once, whatever the number of scales it runs."""

    def __init__(self, streams: _Streams, kind: str, per: int):
        self._draw = [_stream(streams.seed, g, kind) for g in streams.groups]
        groups = len(self._draw)
        self._fill = np.empty((groups, _BLOCK, per, _GROUP))
        self._block = np.empty((_BLOCK, per, groups * _GROUP))
        # the block by (step, slot, group, lane): a view of the same memory
        self._lanes = self._block.reshape(_BLOCK, per, groups, _GROUP)
        self._end = 0           # the block holds steps [_end - _BLOCK, _end)

    def __call__(self, step: int, slot: int,
                 columns: np.ndarray) -> np.ndarray:
        """Slot `slot` of array step `step` for each row at `columns`; the
        steps read never decrease."""
        while step >= self._end:
            for draw, block in zip(self._draw, self._fill):
                draw(out=block)
            np.copyto(self._lanes, self._fill.transpose(1, 2, 0, 3))
            self._end += len(self._block)
        return self._block[step % len(self._block), slot].take(columns)


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
    them in its fast variables (s, y, i), in time order, each for the rows
    `paths` it names (the run's one path, or none); `trajectory` maps s and
    y to t and x with `slow` and closes the path at exactly T."""

    def __init__(self, T: float, slow):
        self._log: list = []
        self._T, self._slow = T, slow
        self._last = -math.inf

    def add(self, paths: np.ndarray, s, y, i) -> None:
        if len(paths):
            # `i` is copied: the continuous stepper changes its states in place
            self._log.append((s, y, np.array(i)))
            self._last = s

    def end(self, paths: np.ndarray, horizon: float, y: np.ndarray,
            i: np.ndarray) -> None:
        """Close `paths` at `horizon`, unless their last record is there."""
        if self._last != horizon:
            self.add(paths, horizon, y, i)

    def trajectory(self, *, seed: int, scale: float, kind: str) -> Trajectory:
        s, y, i = (np.hstack(column) for column in zip(*self._log))
        t = self._slow(s)
        t[-1] = self._T             # the last record is the path's close
        return Trajectory(seed=seed, scale=scale, times=t,
                          positions=self._slow(y), states=i, kind=kind)


# ---------------------------------------------------------------------------
# continuous model: Euler-Maruyama + thinning
# ---------------------------------------------------------------------------

def max_total_switching_rate(model: ContinuousModel) -> float:
    """max over (y, i) of sum_j r_ij(y), rates clipped at 0 as the stepper
    clips them, on the lattice of `sampling_resolution`: a sample of the
    sup, which may lie above it between the lattice points."""
    pts = grid_points(model.dim, sampling_resolution(model.rates.iter_fields()),
                      model.period)
    return float(np.max(np.sum(np.maximum(model.rates.values(pts), 0.0),
                               axis=2)))


def _check_steppable(model: Model) -> None:
    """Raise NotImplementedError unless the paths of `model` can be
    stepped: the steppers run the regime-I process, a continuous one in
    d = 1 (a regime-II model's paths would be those of regime I)."""
    if isinstance(model, ContinuousModel) and model.dim != 1:
        raise NotImplementedError("trajectory sampling is implemented for "
                                  f"d = 1, got d = {model.dim}")
    if model.regime != "I":
        raise NotImplementedError("trajectory sampling is implemented for "
                                  f"regime I, got regime {model.regime}")


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
    larger than the largest float."""
    if not (1 <= n <= sys.float_info.max and n % 1 == 0):
        raise ValueError(f"n = {n} must be a positive integer")
    return int(n)


def _check_run(model: Model, horizons: Sequence[float], i0: int) -> np.ndarray:
    """`horizons` as an array, after checking the run's model and arguments."""
    _check_steppable(model)
    horizons = np.asarray(horizons, dtype=float)
    if not (horizons.size and 0 < horizons[0] and horizons[-1] < math.inf
            and np.all(np.diff(horizons) > 0)):
        raise ValueError(f"horizons {horizons.tolist()} (T/eps or n T) must "
                         "be positive, finite and increasing")
    if not 0 <= i0 < model.J:
        raise ValueError(f"initial state {i0} out of range")
    return horizons


def _continuous_paths(model: ContinuousModel, horizons: Sequence[float],
                      ds: float, streams: _Streams, *, i0: int = 0,
                      records: Optional[_Records] = None) -> np.ndarray:
    """Fast positions y = x/eps (len(horizons), paths) of the paths of
    `streams` at each fast horizon T/eps of `horizons` (increasing), each
    path stepped once in fast steps ds = dt/eps; a step that passes a
    horizon short of the last writes the end there by a partial step.
    `records` collects every path's (s, y, i) records."""
    horizons = _check_run(model, horizons, i0)
    last, ahead = horizons[-1], np.append(horizons, math.inf)
    paths = len(streams.indices)
    normal = _StepDraws(streams, "standard_normal", 1)
    uniform = _StepDraws(streams, "random", 2)  # thinning, then the next gap
    # the thinning bound has 1% headroom: the lattice max can sit slightly
    # below the continuum sup
    lam = 1.01 * max_total_switching_rate(model)
    potentials = stack_modes(model.potentials)
    slopes = np.array([psi.slope[0] for psi in model.potentials])

    live = streams.columns      # the draws' columns of the running rows
    s, y = np.zeros(paths), np.zeros(paths)
    due = np.zeros(paths, dtype=np.intp)    # index of each row's next horizon
    first = horizons[0]         # the earliest horizon a running row is due at
    ends = np.empty((len(horizons), len(streams.groups) * _GROUP))
    state = np.full(paths, i0)
    columns, slope = potentials[..., state], slopes[state]
    if records is not None:
        stride = max(1, math.ceil(last / ds) // _RECORDS)
        records.add(live, 0.0, 0.0, i0)
    candidate = (-np.log1p(-uniform(0, 1, live)) / lam if lam > 0
                 else np.full(paths, math.inf))

    t = 0                       # array steps taken, the same for every row
    while live.size:
        t += 1
        target = np.minimum(s + ds, candidate)
        z = normal(t, 0, live)
        drift = slope + fourier_gradients(columns, y[None])[0]
        # a row passes a horizon, stops at the last one and drops out only
        # on a step whose targets reach the earliest horizon still due
        reached = target.max() >= first
        if reached:
            target = np.minimum(target, last)
            passed = (ahead[due] <= target).nonzero()[0]
            while passed.size:  # ends at the horizons this step reaches
                h = due[passed]
                step = horizons[h] - s[passed]
                ends[h, live[passed]] = y[passed] + (
                    np.sqrt(step) * z[passed] - drift[passed] * step)
                due[passed] += 1
                passed = passed[ahead[due[passed]] <= target[passed]]
        step = target - s
        y = y + (np.sqrt(step) * z - drift * step)
        s = target
        if records is not None and t % stride == 0:
            records.add(live, s, y, state)

        hit = (s >= candidate).nonzero()[0]
        if hit.size:
            rows = live[hit]
            cum = np.maximum(model.rates.rates_out_of(
                state[hit], y[hit][None]), 0.0).cumsum(axis=1)
            total = cum[:, -1]
            if total.max() > lam * (1 + 1e-12):
                raise RuntimeError("thinning bound violated; rate field "
                                   "sampling resolution too low")
            # one uniform accepts and chooses: state j with chance r_j/lam
            u = uniform(t, 0, rows) * lam
            accept = u < total
            jump = hit[accept]
            if jump.size:
                new = (cum[accept] <= u[accept, None]).sum(axis=1)
                state[jump] = new
                if records is not None:
                    records.add(rows[accept], s[jump], y[jump], new)
                columns[..., jump] = potentials[..., new]
                slope[jump] = slopes[new]
            candidate[hit] = s[hit] - np.log1p(-uniform(t, 1, rows)) / lam
        if reached:
            running = due < len(horizons)
            if not running.all():
                if records is not None:
                    records.end(live[~running], last, y[~running],
                                state[~running])
                live, s, y, due, state, candidate, slope = (
                    a[running] for a in (live, s, y, due, state, candidate,
                                         slope))
                columns = columns[..., running]
            if live.size:
                first = ahead[due].min()
    return ends[:, streams.columns]


def simulate_continuous(model: ContinuousModel, eps: float, T: float,
                        dt: Optional[float] = None, seed: int = 0, *,
                        i0: int = 0, traj_index: int = 0) -> Trajectory:
    """One lifted path of the diffusion with switching, exact jump times.

    dt defaults to eps/DT_FACTOR and must satisfy dt <= eps/10 so the fast
    variable x/eps is resolved.
    """
    streams = _Streams(seed, [traj_index])
    ds = _fast_step(eps, dt)
    records = _Records(T, lambda a: eps * a)
    _continuous_paths(model, [T / eps], ds, streams, i0=i0, records=records)
    return records.trajectory(seed=streams.seed, scale=eps, kind="continuous")


# ---------------------------------------------------------------------------
# discrete model: exact competing clocks
# ---------------------------------------------------------------------------

def _discrete_paths(model: DiscreteModel, horizons: Sequence[float],
                    streams: _Streams, *, i0: int = 0,
                    records: Optional[_Records] = None) -> np.ndarray:
    """Sites m (len(horizons), paths) of the paths of `streams` at each
    fast horizon n T of `horizons` (increasing), each path run once in the
    fast time s = n t at the event rates of n = 1, one event per row per
    array step.  `records` collects every path's (s, m, i) records."""
    horizons = _check_run(model, horizons, i0)
    ahead = np.append(horizons, math.inf)
    paths = len(streams.indices)
    # each running row reads its clock (slot 0), then its event choice
    uniform = _StepDraws(streams, "random", 2)
    J = model.J
    switching = np.where(np.eye(J, dtype=bool)[:, :, None], 0.0, model.switching)
    # cumulative event rates (J, ell, 2 + J): hop up, hop down, switch to j
    cum_rates = np.cumsum(np.concatenate(
        [model.hop_rates_plus[..., None], model.hop_rates_minus[..., None],
         np.moveaxis(switching, 1, 2)], axis=2), axis=2)
    hop = np.r_[1, -1, np.zeros(J, dtype=int)].astype(np.int32)

    live = streams.columns      # the draws' columns of the running rows
    s = np.zeros(paths)
    m = np.zeros(paths, dtype=np.int32)     # lifted integer position
    due = np.zeros(paths, dtype=np.intp)    # index of each row's next horizon
    first = horizons[0]         # the earliest horizon a running row is due at
    ends = np.empty((len(horizons), len(streams.groups) * _GROUP),
                    dtype=np.int32)
    state = np.full(paths, i0)
    if records is not None:
        records.add(live, 0.0, 0.0, i0)
    t = 0                       # array steps taken, the same for every row
    while live.size:
        cum = cum_rates[state, m % model.ell]
        s = s - np.log1p(-uniform(t, 0, live)) / cum[:, -1]
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
                                state[~running])
                live, s, m, due, state, cum = (a[running] for a in (
                    live, s, m, due, state, cum))
            if live.size:
                first = ahead[due].min()
        u = uniform(t, 1, live) * cum[:, -1]
        event = (cum <= u[:, None]).sum(axis=1)
        m = m + hop[event]
        state = np.where(event >= 2, event - 2, state)
        if records is not None:
            records.add(live, s, m, state)
        t += 1
    return ends[:, streams.columns]


def simulate_discrete(model: DiscreteModel, n: int, T: float, seed: int = 0, *,
                      i0: int = 0, traj_index: int = 0) -> Trajectory:
    """Exact event-driven path: hop rates n r_+-, switching rates n r_ij."""
    streams = _Streams(seed, [traj_index])
    n = _lattice_scale(n)
    records = _Records(T, lambda a: a / n)
    _discrete_paths(model, [n * T], streams, i0=i0, records=records)
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
    column = np.array(scales)[:, None]
    if isinstance(model, ContinuousModel):
        x = column * _sharded(lambda shard: _continuous_paths(
            model, [T / eps for eps in scales], 1.0 / dt_factor, shard),
            streams)
    else:
        x = _sharded(lambda shard: _discrete_paths(
            model, [n * T for n in scales], shard), streams) / column
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
