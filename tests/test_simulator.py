"""Trajectory sampling: exactness oracles and statistical self-consistency."""

import hashlib
import itertools
import json
import math
import os
import signal
import sys
import time

import numpy as np
import pytest

from effham import hamiltonian, simulator, workers
from effham.eigensolver import PecletError, cell_operator
from effham.fields import PeriodicScalarField
from effham.cli import main
from effham.hamiltonian import velocity_of_model
from effham.model import (ContinuousModel, DiscreteModel, SwitchingRateMatrix,
                          scaled_switching)
from effham.presets import (constant_drift, detailed_balance_pair,
                            discrete_asymmetric, discrete_two_state,
                            tilted_cosine, two_state_flashing)
from effham.simulator import (concentration_experiment, simulate_continuous,
                              simulate_discrete)

from conftest import (open_fds, random_continuous_model, random_discrete_model,
                      record_forks, two_dim_model)


def const_field(c):
    return PeriodicScalarField(dim=1, fourier_coeffs=(((0,), float(c), 0.0),))


def two_state_constant_rates(c12, c21, psi_amp=0.0):
    psi = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), psi_amp, 0.0),)) \
        if psi_amp else PeriodicScalarField(dim=1)
    rates = SwitchingRateMatrix(J=2, entries=((None, const_field(c12)),
                                              (const_field(c21), None)))
    return ContinuousModel(dim=1, J=2, potentials=(psi, psi), rates=rates)


def walk(model, horizons, streams, ds=1 / 200, **options):
    """Sites of the paths of `streams` at `horizons`: the stepper on the
    lattice of `model` at fast step ds."""
    return simulator._discrete_paths(simulator._lattice(model, ds), horizons,
                                     streams, **options)


def test_reproducibility_bit_exact():
    m = two_state_flashing()
    a = simulate_continuous(m, 0.1, 0.5, seed=42, traj_index=3)
    b = simulate_continuous(m, 0.1, 0.5, seed=42, traj_index=3)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.times, b.times)
    np.testing.assert_array_equal(a.states, b.states)
    c = simulate_continuous(m, 0.1, 0.5, seed=42, traj_index=4)
    assert not np.array_equal(a.positions, c.positions)


def six_mode_flashing():
    """two_state_flashing with 6-mode potentials: field sums over many modes."""
    base = two_state_flashing()
    rng = np.random.default_rng(6)
    pots = tuple(PeriodicScalarField(dim=1, fourier_coeffs=tuple(
        ((k,), *(rng.uniform(-0.5, 0.5, size=2) / k)) for k in range(1, 7)))
        for _ in range(2))
    return ContinuousModel(dim=1, J=2, potentials=pots, rates=base.rates)


def test_batch_membership_does_not_change_a_path():
    """Path k of a many-path run ends where the same path simulated alone
    ends, also for potentials with many modes."""
    paths = 5
    streams = simulator._Streams(42, range(paths))
    runs = [0.1 * (simulator._lattice(m(), 1 / 200).h
                   * walk(m(), [0.5 / 0.1], streams)[0])
            for m in (two_state_flashing, six_mode_flashing)]
    runs.append(walk(discrete_two_state(), [32.0], streams)[0] / 32)
    for k in (0, paths - 1):
        alone = [simulate_continuous(m(), 0.1, 0.5, seed=42, traj_index=k)
                 for m in (two_state_flashing, six_mode_flashing)]
        alone.append(simulate_discrete(discrete_two_state(), 32, 1.0, seed=42,
                                       traj_index=k))
        for ends, single in zip(runs, alone):
            assert ends[k] == single.positions[-1]


def test_block_size_does_not_change_a_path(monkeypatch):
    """Every draw is addressed by (path, step, slot), so the number of
    steps a refill reads is a memory setting only, for every draw: the
    clocks and choices of a continuous and of a discrete walk.  The records of paths 0 and 5 simulated
    alone and the ends of a six-path run are the same bits with either
    block."""
    runs = []
    streams = simulator._Streams(8, range(6))
    for block in (simulator._BLOCK, 5):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        singles = [simulate_continuous(two_state_flashing(), 0.1, 0.3,
                                       seed=8, traj_index=k) for k in (0, 5)]
        singles += [simulate_discrete(discrete_two_state(), 16, 1.0, seed=8,
                                      traj_index=k) for k in (0, 5)]
        ends = [walk(two_state_flashing(), [2.0, 3.0], streams),
                walk(discrete_two_state(), [8.0, 16.0], streams)]
        runs.append((singles, ends))
    for a, b in zip(*(singles for singles, _ in runs)):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.states, b.states)
    for a, b in zip(*(ends for _, ends in runs)):
        assert a.tobytes() == b.tobytes()


def test_concentration_rows_equal_independent_batches(monkeypatch):
    """An experiment runs each path once in the fast variables and reads
    every scale at its horizon; every row still equals a fresh one-scale
    experiment of its scale, bit for bit, also with switching scaled by
    gamma != 1; and, calling the stepper from i0 = 1, the first and last
    paths end at every horizon where `simulate_*` with their index ends.
    The scales end at different steps, and the paths drop out at different
    steps; with a block of 5 the draw blocks refill many times within a
    run."""
    gamma, seed, dt_factor = 1.7, 31, 150.0
    cases = ((scaled_switching(two_state_flashing(), gamma),
              [0.1, 0.07, 0.05], 0.3, 6),
             (scaled_switching(discrete_two_state(), gamma), [16, 32, 64],
              1.0, 8))
    # simulate_continuous walks at ds = dt/eps, the experiment at
    # 1/dt_factor: the same N sites per period
    assert all((s / dt_factor) / s == 1.0 / dt_factor for s in cases[0][1])
    for block, (model, scales, T, paths) in itertools.product(
            (simulator._BLOCK, 5), cases):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        report = concentration_experiment(model, scales, T, paths, seed,
                                          predicted_v=0.0, dt_factor=dt_factor)
        for row, scale in zip(report.rows, scales):
            assert row == concentration_experiment(
                model, [scale], T, paths, seed, predicted_v=0.0,
                dt_factor=dt_factor).rows[0]
        streams = simulator._Streams(seed, range(paths))
        if isinstance(model, ContinuousModel):
            lattice = simulator._lattice(model, 1.0 / dt_factor)
            ends = np.array(scales)[:, None] * (lattice.h * walk(
                model, [T / s for s in scales], streams, 1.0 / dt_factor,
                i0=1))
            alone = [[simulate_continuous(model, s, T, s / dt_factor, seed,
                                          i0=1, traj_index=k)
                      for k in (0, paths - 1)] for s in scales]
        else:
            ends = walk(model, [n * T for n in scales], streams,
                        i0=1) / np.array(scales)[:, None]
            alone = [[simulate_discrete(model, s, T, seed, i0=1, traj_index=k)
                      for k in (0, paths - 1)] for s in scales]
        for x, singles in zip(ends, alone):
            assert [x[0], x[-1]] == [tr.positions[-1] for tr in singles]


def test_experiment_does_only_its_finest_scales_work(monkeypatch):
    """Every scale reads the same paths at its own horizon, so an experiment
    draws as many row events as a one-scale experiment of its finest
    scale: the coarser scales cost no steps of their own.  One shard, so
    that every row is stepped in this process."""
    set_cores(monkeypatch, 1)
    rows = []
    draw = simulator._StepDraws.__call__
    monkeypatch.setattr(simulator._StepDraws, "__call__",
                        lambda self, step, columns: (
                            rows.append(len(columns))
                            or draw(self, step, columns)))
    model, T, paths, seed = two_state_flashing(), 0.3, 6, 4
    concentration_experiment(model, [0.1, 0.05], T, paths, seed,
                             predicted_v=0.0)
    experiment = sum(rows)
    rows.clear()
    concentration_experiment(model, [0.05], T, paths, seed, predicted_v=0.0)
    assert experiment == sum(rows) > 0


def test_concentration_builds_no_paths_and_reads_each_stream_once(monkeypatch):
    """The experiment keeps end positions only: it builds no `Trajectory`
    and no `_Records`, and it builds one Philox per group of 64 paths,
    keyed by (seed, group) with the uniforms' word in its counter, for a
    continuous and a discrete model, whatever the number of scales: three
    groups for 2 * 64 + 3 paths.  One shard, so that every stream is built
    in this process."""
    set_cores(monkeypatch, 1)

    def refuse(*args, **kwargs):
        raise AssertionError("the experiment built a per-path object")

    monkeypatch.setattr(simulator, "Trajectory", refuse)
    monkeypatch.setattr(simulator, "_Records", refuse)
    built = []
    philox = np.random.Philox

    def counted(*, key, counter):
        built.append((int(counter[3]), tuple(int(w) for w in key)))
        return philox(key=key, counter=counter)

    monkeypatch.setattr(np.random, "Philox", counted)
    paths = 2 * 64 + 3
    cases = ((two_state_flashing(), [0.2, 0.1, 0.05], 0.2),
             (discrete_two_state(), [8, 16, 32], 0.5))
    for model, scales, T in cases:
        built.clear()
        concentration_experiment(model, scales, T, paths, 5, predicted_v=0.0)
        assert sorted(built) == [(1, (5, g)) for g in range(3)]


def set_cores(monkeypatch, cores):
    """Make the experiment split its paths into `cores` shards at most."""
    monkeypatch.setattr(workers, "_cores", lambda: cores)


@pytest.mark.parametrize("paths", [1, 2, 7, 2 * 64 + 3])
def test_shards_equal_one_process(monkeypatch, paths):
    """Split across 2 or 3 forked shards (unequal ones for 7 paths; for
    2 * 64 + 3 paths the cuts fall inside groups of 64, whose streams both
    sides then read), every path's ends at every scale equal its
    one-process ends bit for bit, for a continuous and a discrete model,
    from i0 = 0 and 1; so the experiment's report is the same with one
    shard and with two."""
    forked = record_forks(monkeypatch)
    seed = 2**64 - 3
    cases = ((scaled_switching(two_state_flashing(), 1.7), [0.1, 0.07, 0.05],
              0.3), (discrete_two_state(), [8, 16, 32], 0.5))
    for model, scales, T in cases:
        horizons = ([T / eps for eps in scales]
                    if isinstance(model, ContinuousModel)
                    else [n * T for n in scales])

        def run(streams, i0):
            return walk(model, horizons, streams, i0=i0)
        streams = simulator._Streams(seed, range(paths))
        for i0, cores in itertools.product((0, 1), (2, 3)):
            alone = run(streams, i0)
            set_cores(monkeypatch, cores)
            forked.clear()
            ends = simulator._sharded(lambda shard: run(shard, i0), streams)
            assert len(forked) == min(cores, paths) - 1
            assert (ends.dtype, ends.shape) == (alone.dtype, alone.shape)
            assert ends.tobytes() == alone.tobytes()
        reports = []
        for cores in (1, 2):
            set_cores(monkeypatch, cores)
            reports.append(concentration_experiment(model, scales, T, paths,
                                                    seed, predicted_v=0.0))
        assert reports[0] == reports[1]


class ShardError(Exception):
    """An exception type of the tests' own, raised in a child's shard."""


def test_a_childs_exception_is_raised_in_the_parent(monkeypatch):
    """An exception in a child's shard is raised again in the parent with
    its type and message; one that does not pickle comes back as a
    RuntimeError that names it.  No pipe is left open."""
    class Unpicklable(Exception):
        pass

    fds, parent, stepper = open_fds(), os.getpid(), simulator._discrete_paths
    set_cores(monkeypatch, 3)
    for error in (RuntimeError, ShardError, Unpicklable):
        def failing(lattice, horizons, streams, **options):
            if os.getpid() != parent:
                raise error("the walk failed in the shard from path "
                            f"{streams.indices[0]}")
            return stepper(lattice, horizons, streams, **options)

        monkeypatch.setattr(simulator, "_discrete_paths", failing)
        with pytest.raises(Exception) as info:
            concentration_experiment(discrete_two_state(), [8], 0.5, 6, 1,
                                     predicted_v=0.0)
        message = "the walk failed in the shard from path 2"
        if error is Unpicklable:
            assert type(info.value) is RuntimeError
            assert str(info.value) == f"Unpicklable: {message}"
        else:
            assert type(info.value) is error
            assert str(info.value) == message
    assert open_fds() == fds


class Interrupt(BaseException):
    """What a signal handler raises, as a command's time limit does."""


def test_an_interrupted_parent_kills_and_reaps_its_children(monkeypatch):
    """A BaseException that a signal handler raises during the parent's own
    shard leaves the experiment only after every child is killed and
    reaped, long before the child's shard would end, and no pipe is left
    open."""
    fds, forked = open_fds(), record_forks(monkeypatch)
    parent, stepper = os.getpid(), simulator._discrete_paths

    def slow(*args, **options):
        time.sleep(10 if os.getpid() == parent else 60)
        return stepper(*args, **options)

    def on_alarm(signum, frame):
        raise Interrupt

    monkeypatch.setattr(simulator, "_discrete_paths", slow)
    set_cores(monkeypatch, 2)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(Interrupt):
            concentration_experiment(two_state_flashing(), [0.1], 0.2, 4, 1,
                                     predicted_v=0.0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 5
    assert len(forked) == 1
    with pytest.raises(ProcessLookupError):     # killed and reaped
        os.kill(forked[0], 0)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert open_fds() == fds


def test_simulate_writes_the_same_summary_in_shards(tmp_path, monkeypatch):
    """`effham simulate` writes a byte-identical `summary.csv` with one
    shard and with two, for a continuous and a discrete preset."""
    forked = record_forks(monkeypatch)
    for preset, scales in (("two_state_flashing", [0.2, 0.1]),
                           ("discrete_two_state", [8, 16])):
        cfg = tmp_path / f"{preset}.json"
        cfg.write_text(json.dumps({"simulate": {
            "scales": scales, "T": 0.5, "paths": 9, "seed": 77}}))
        summaries = []
        for cores in (1, 2):
            set_cores(monkeypatch, cores)
            forked.clear()
            out = tmp_path / f"{preset}-{cores}"
            assert main(["simulate", "--preset", preset, "--config", str(cfg),
                         "--out", str(out)]) == 0
            assert len(forked) == cores - 1
            summaries.append((out / "summary.csv").read_bytes())
        assert summaries[0] == summaries[1]


def test_the_experiment_forks_only_where_it_may(monkeypatch):
    """The shard count is the affinity mask's size; it is 1, and the
    experiment forks nothing, with one core, without `os.fork` or
    `os.sched_getaffinity`, and on Python 3.12 and later."""
    with monkeypatch.context() as m:
        m.setattr(sys, "version_info", (3, 11, 7, "final", 0))
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert workers._cores() == 3
        m.setattr(os, "sched_getaffinity", lambda pid: {1})
        assert workers._cores() == 1
        m.delattr(os, "sched_getaffinity")
        assert workers._cores() == 1
    for change in (lambda m: m.delattr(os, "fork"),
                   lambda m: m.setattr(sys, "version_info",
                                       (3, 12, 0, "final", 0))):
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
            change(m)
            assert workers._cores() == 1

    def refuse():
        raise AssertionError("the experiment forked")

    set_cores(monkeypatch, 1)
    monkeypatch.setattr(os, "fork", refuse)
    for model, scales in ((two_state_flashing(), [0.1]),
                          (discrete_two_state(), [8])):
        concentration_experiment(model, scales, 0.2, 5, 3, predicted_v=0.0)


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 - 1])
def test_streams_are_keyed_by_seed_path_and_kind(monkeypatch, seed):
    """Slot c of array step t of path k reads element (2 t + c) 64 + k % 64
    of what `Generator.random` on `Philox(key=(seed, k // 64),
    counter=(0, 0, 0, 1))` draws (word 1 names the one kind of draw,
    uniforms), with a block of 16 steps and of 5, for seeds and indices up
    to the top of the uint64 range and indices on both sides of group
    boundaries, also when a run reads only some rows at steps that skip
    whole blocks; different paths draw differently.  (The reference passes
    its words as uint64 arrays: numpy reads a list that holds a word
    >= 2**63 through float64.)"""
    indices = [63, 0, 64, 65, 2**32 + 1, 2**64 - 65, 2**64 - 64, 2**64 - 1]
    steps = 23
    streams = simulator._Streams(seed, indices)
    assert simulator._KIND == 1
    firsts = set()
    for block in (16, 5):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        draws = simulator._StepDraws(streams)
        drawn = np.array([draws(t, streams.columns) for t in range(steps)])
        # as rows drop out: some rows, at steps far apart
        sparse = simulator._StepDraws(streams)
        rows = streams.columns[1::3]
        for t in range(0, steps, 7):
            np.testing.assert_array_equal(sparse(t, rows), drawn[t, :, 1::3])
        for k, row in zip(indices, np.moveaxis(drawn, 2, 0)):
            reference = np.random.Generator(np.random.Philox(
                key=np.array([seed, k // 64], dtype=np.uint64),
                counter=np.array([0, 0, 0, 1], dtype=np.uint64))).random
            elements = reference(size=steps * 2 * 64).reshape(steps, 2, 64)
            np.testing.assert_array_equal(row, elements[..., k % 64])
            firsts.add(row[0, 0])
    assert len(firsts) == len(indices)


@pytest.mark.parametrize("seed,index", [(-1, 0), (0, -1), (-2**32, 0),
                                        (0, -2**32 + 5), (2.7, 1.9), (2.7, 0),
                                        (0, 1.9), (2**64, 0), (0, 2**64),
                                        (2**100, 0)])
def test_negative_seed_or_index_raises(seed, index):
    """A seed or trajectory index is a Philox key word: a non-integer is a
    `TypeError`, not truncated, and an integer outside [0, 2**64) is a
    `ValueError`, not wrapped, for every run of the library."""
    if not all(isinstance(v, int) for v in (seed, index)):
        error, match = TypeError, "integer"
    elif min(seed, index) < 0:
        error, match = ValueError, "non-negative"
    else:
        error, match = ValueError, r"below 2\*\*64"
    with pytest.raises(error, match=match):
        simulator._Streams(seed, [index])
    with pytest.raises(error, match=match):
        simulate_discrete(discrete_two_state(), 4, 0.5, seed=seed,
                          traj_index=index)
    with pytest.raises(error, match=match):
        simulate_continuous(two_state_flashing(), 0.1, 0.2, seed=seed,
                            traj_index=index)
    if index == 0:      # the runs that take a seed alone
        with pytest.raises(error, match=match):
            concentration_experiment(two_state_flashing(), [0.1], 0.2, 2,
                                     seed, predicted_v=0.0)
        with pytest.raises(error, match=match):
            concentration_experiment(discrete_two_state(), [4, 8], 0.5, 2,
                                     seed, predicted_v=0.0)


def test_concentration_golden_pin():
    """Pins small seeded experiments of each kind, with several scales and
    the discrete model's switching scaled by gamma != 1.  The continuous
    row was re-pinned when continuous paths came to walk the fitted
    lattice in place of Euler steps with thinning; the discrete rows kept
    their values.  A change of scheme, streams or draw order must update
    them on purpose."""
    cont = concentration_experiment(two_state_flashing(), [0.1], 0.5, 64,
                                    2024, predicted_v=0.0)
    disc = [concentration_experiment(scaled_switching(discrete_two_state(),
                                                      gamma),
                                     scales, 1.0, 64, 2024, predicted_v=0.0)
            for scales, gamma in (([16], 1.0), ([16, 32, 64], 1.3),
                                  ([10, 20], 1.3))]
    assert [(r.mean_v, r.sd) for report in [cont] + disc
            for r in report.rows] == [
        (0.19333333333333336, 0.2661476430503088),
        (-0.1171875, 0.4984474905079278),
        (-0.0908203125, 0.4943793316362519),
        (-0.10888671875, 0.31339119884145555),
        (-0.081298828125, 0.2352279401726985),
        (-0.08125, 0.606806629589926),
        (-0.0953125, 0.4243312899737582)]


def _records_digest(trajectories):
    """sha256 over each path's times, positions and states, dtype included."""
    digest = hashlib.sha256()
    for tr in trajectories:
        for column in (tr.times, tr.positions, tr.states):
            digest.update(column.dtype.str.encode())
            digest.update(column.tobytes())
    return digest.hexdigest()


def test_trajectory_records_golden_pin():
    """Pins the records of a continuous path with switches and of discrete
    paths 0 to 7 of one seed.  The continuous digest was re-pinned when
    continuous paths came to walk the fitted lattice, with strided records
    of its events; the discrete digest kept its value.  A change of
    stepper, streams or record rule must update them on purpose."""
    switching = simulate_continuous(two_state_flashing(), 0.1, 1.0, seed=5,
                                    traj_index=2)
    disc = [simulate_discrete(discrete_two_state(), 32, 1.0, seed=9,
                              traj_index=k) for k in range(8)]
    assert switching.switch_count > 0
    assert [_records_digest([switching]), _records_digest(disc)] == [
        "63e9d71f1b8cfa2149390494d5597ffa4a80e69a15320b0ea7729e15efcd0fc6",
        "689c3b70ba2c4da6975eb4ef2e8e0e32abd6e58ddba0506b563cbbb768070b15"]


def test_walk_is_the_solvers_chain():
    """A continuous walk is the Markov chain of the solver's cell operator
    at p = 0: its hop tables are the `up` and `down` weights of
    `cell_operator(model, N=N)` bit for bit, and its tables as a discrete
    model on N sites have the velocity `velocity_of_model(model, N=N)`
    once scaled by the site spacing h (both solved to tol 1e-12), for presets with and without
    switching, tilt and detailed balance and a J = 3 model, at N = 8, 15
    and 32 (lattices of fast steps 1/N**2)."""
    models = (two_state_flashing(), detailed_balance_pair(), tilted_cosine(),
              constant_drift(), random_continuous_model(
                  np.random.default_rng(7), J=3))
    for model, N in itertools.product(models, (8, 15, 32)):
        lattice = simulator._lattice(model, 1.0 / N**2)
        assert simulator._walk_sites(model, 1.0 / N**2) == N
        assert lattice.h == model.period / N
        operator = cell_operator(model, N=N)
        assert lattice.up.tobytes() == operator.up[:, 0].tobytes()
        assert lattice.down.tobytes() == operator.down[:, 0].tobytes()
        chain = DiscreteModel(ell=N, J=model.J, hop_rates_plus=lattice.up,
                              hop_rates_minus=lattice.down,
                              switching=lattice.switching)
        v_chain, _ = velocity_of_model(chain, tol=1e-12)
        v_model, _ = velocity_of_model(model, N=N, tol=1e-12)
        assert abs(v_chain * lattice.h - v_model) <= 1e-12, (model, N)


def test_walk_lattice_rule():
    """A continuous walk at fast step ds has N = ceil(L/sqrt(ds)) sites per
    period, 15 at ds = 1/200 and L = 1, unless the drift needs more: then
    it walks on the Peclet minimum that the solver's guard names at the
    smaller N.  A step dt/eps an ulp off 1/dt_factor walks the lattice of
    1/dt_factor.  `simulate_continuous(..., traj_index=k)` at
    dt = eps/dt_factor ends where path k of the experiment ends."""
    assert simulator._lattice(two_state_flashing(), 1 / 200).up.shape == (2, 15)
    ds = (0.0378 / 121) / 0.0378
    assert ds != 1 / 121
    assert simulator._walk_sites(two_state_flashing(), ds) == 11
    steep = constant_drift(force=40.0)
    with pytest.raises(PecletError) as info:
        cell_operator(steep, N=15).at(0.0)
    assert simulator._walk_sites(steep, 1 / 200) == info.value.minimal_n == 41
    cell_operator(steep, N=41).at(0.0)
    model, eps, T, dt_factor, seed = two_state_flashing(), 0.05, 0.4, 200, 3
    lattice = simulator._lattice(model, 1 / dt_factor)
    ends = eps * (lattice.h * walk(model, [T / eps], simulator._Streams(
        seed, range(4)), 1 / dt_factor)[0])
    for k in range(4):
        tr = simulate_continuous(model, eps, T, eps / dt_factor, seed,
                                 traj_index=k)
        assert tr.positions[-1] == ends[k]


def test_default_dt_matches_eigen_velocity():
    """At the default dt the motor's mean velocity is the eigenvalue's DH(0);
    a coarse step (dt = eps/20) once biased it to about twice that."""
    model = two_state_flashing()
    v_eig, _ = velocity_of_model(model, N=128)
    row, = concentration_experiment(model, [0.05], 1.0, 1000, 61,
                                    predicted_v=v_eig).rows
    assert abs(row.mean_v - v_eig) <= max(3.0 * row.se, 0.05)


def test_drift_only_mean_displacement():
    row, = concentration_experiment(constant_drift(1.0), [0.1], 1.0, 200, 7,
                                    predicted_v=1.0).rows
    assert abs(row.mean_v - 1.0) <= 3 * row.se
    tr = simulate_continuous(constant_drift(1.0), 0.1, 1.0, seed=7)
    assert tr.times[0] == 0.0 and tr.times[-1] == 1.0
    assert np.all(np.diff(tr.times) > 0)


def test_no_switching_states_constant():
    psi = PeriodicScalarField(dim=1)
    rates = SwitchingRateMatrix(J=2, entries=((None, None), (None, None)))
    m = ContinuousModel(dim=1, J=2, potentials=(psi, psi), rates=rates)
    tr = simulate_continuous(m, 0.1, 1.0, seed=1, i0=1)
    assert np.all(tr.states == 1)


def test_dt_must_resolve_fast_variable():
    with pytest.raises(ValueError, match="dt"):
        simulate_continuous(constant_drift(1.0), 0.1, 1.0, dt=0.02, seed=0)


def constant_rate_model(rates):
    """Flat potentials and the constant switching rates `rates[i][j]`."""
    J = len(rates)
    entries = tuple(tuple(const_field(r) if r else None for r in row)
                    for row in rates)
    return ContinuousModel(dim=1, J=J,
                           potentials=(PeriodicScalarField(dim=1),) * J,
                           rates=SwitchingRateMatrix(J=J, entries=entries))


def test_thinning_rates_of_constant_rate_model():
    """Rates that do not depend on x make the switching a Markov chain
    whose empirical exit rates must match r_ij/eps, and of the jumps out of
    state 0 of a J = 3 chain with rates 1 and 3 out of it, the share that
    goes to state 2 must be 3/4.  The records hold every switch."""
    eps = 0.5
    for rates in ([[0.0, 1.0], [2.0, 0.0]],
                  [[0.0, 1.0, 3.0], [2.0, 0.0, 0.0], [2.0, 0.0, 0.0]]):
        tr = simulate_continuous(constant_rate_model(rates), eps, 60.0,
                                 seed=5)
        J = len(rates)
        t_in, jumps = np.zeros(J), np.zeros((J, J), dtype=int)
        np.add.at(t_in, tr.states[:-1], np.diff(tr.times))
        np.add.at(jumps, (tr.states[:-1], tr.states[1:]), 1)
        np.fill_diagonal(jumps, 0)      # records between jumps
        for state in range(J):
            n, T_occ = jumps[state].sum(), t_in[state]
            assert n > 10
            assert abs(n / T_occ - sum(rates[state]) / eps) <= \
                3.0 * math.sqrt(n) / T_occ
        if J == 3:
            n, share = jumps[0].sum(), 3.0 / 4.0
            assert abs(jumps[0, 2] / n - share) <= \
                3.0 * math.sqrt(share * (1 - share) / n)


def test_thinning_rates_scale_with_gamma():
    """Fast-switching factor gamma multiplies the exit rates."""
    eps, gamma = 0.5, 8.0
    m = scaled_switching(two_state_constant_rates(1.0, 2.0), gamma)
    tr = simulate_continuous(m, eps, 30.0, seed=6)
    t_in = 0.0
    exits = 0
    for k in range(len(tr.times) - 1):
        if tr.states[k] == 0:
            t_in += tr.times[k + 1] - tr.times[k]
            exits += tr.states[k + 1] != 0
    rate = gamma * 1.0 / eps
    assert exits > 30
    assert abs(exits / t_in - rate) <= 3.0 * math.sqrt(exits) / t_in


def test_discrete_event_rate_oracle():
    m = discrete_asymmetric(2.0, 1.0)
    counts = np.array([len(simulate_discrete(m, 50, 1.0, seed=3,
                                             traj_index=k).times) - 2
                       for k in range(100)])
    expected = 50 * 3.0          # n (r+ + r-) T
    se = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - expected) <= 3 * se


def test_discrete_positions_step_by_1_over_n():
    m = discrete_asymmetric(2.0, 1.0)
    tr = simulate_discrete(m, 25, 1.0, seed=11)
    steps = np.diff(tr.positions) * 25
    assert np.all(np.isin(np.round(steps).astype(int), [-1, 0, 1]))
    np.testing.assert_allclose(steps, np.round(steps), atol=1e-12)


def test_discrete_velocity_oracles():
    m = discrete_asymmetric(2.0, 1.0)
    row, = concentration_experiment(m, [100], 1.0, 300, 17,
                                    predicted_v=1.0).rows
    assert abs(row.mean_v - 1.0) <= 3 * row.se      # DH(0) = r+ - r-
    sym = discrete_asymmetric(1.5, 1.5)
    row, = concentration_experiment(sym, [100], 1.0, 300, 18,
                                    predicted_v=0.0).rows
    assert abs(row.mean_v) <= 3 * row.se


def test_discrete_switching_changes_states():
    sw = np.zeros((2, 2, 4))
    sw[0, 1] = 3.0
    sw[1, 0] = 3.0
    m = DiscreteModel(ell=4, J=2, hop_rates_plus=np.ones((2, 4)),
                      hop_rates_minus=np.ones((2, 4)), switching=sw)
    tr = simulate_discrete(m, 20, 1.0, seed=2)
    assert tr.switch_count > 5


def test_cosine_potential_velocity_vanishes():
    """A pure periodic potential is reversible: mean velocity ~ 0."""
    from effham.presets import tilted_cosine
    m = tilted_cosine(force=0.0, amplitude=0.25)
    row, = concentration_experiment(m, [0.05], 1.0, 200, 13,
                                    predicted_v=0.0).rows
    assert abs(row.mean_v) <= 3 * row.se


def test_concentration_constant_drift_small():
    report = concentration_experiment(constant_drift(1.0), [0.2, 0.1], 1.0,
                                      150, base_seed=23, predicted_v=1.0)
    assert report.all_pass
    ratio = report.rows[1].sd / report.rows[0].sd
    # diffusive scaling: sd ~ sqrt(eps), so the ratio should track sqrt(1/2)
    assert 0.5 * math.sqrt(0.5) <= ratio <= 1.5 * math.sqrt(0.5)


def test_concentration_discrete_uses_increasing_n():
    report = concentration_experiment(discrete_asymmetric(2.0, 1.0),
                                      [25, 50], 1.0, 120, base_seed=29,
                                      predicted_v=1.0)
    assert all(r.verdict for r in report.rows)
    with pytest.raises(ValueError, match="monotonically"):
        concentration_experiment(discrete_asymmetric(), [50, 25], 1.0, 10,
                                 base_seed=1, predicted_v=1.0)


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_bad_gamma_raises(gamma):
    """A gamma <= 0 would switch at no rate, or at negative ones; the
    transform that builds the model a run samples rejects it, and
    the runners take no gamma of their own that could bypass it."""
    for model in (two_state_flashing(), discrete_two_state()):
        with pytest.raises(ValueError, match="gamma"):
            scaled_switching(model, gamma)
    with pytest.raises(TypeError, match="gamma"):
        concentration_experiment(two_state_flashing(), [0.1], 0.5, 4, 1,
                                 predicted_v=0.0, gamma=gamma)
    with pytest.raises(TypeError, match="gamma"):
        simulate_continuous(two_state_flashing(), 0.1, 0.5, gamma=gamma)
    with pytest.raises(TypeError, match="gamma"):
        simulate_discrete(discrete_two_state(), 16, 0.5, gamma=gamma)


@pytest.mark.parametrize("n,scales", [(0, [0, 2]), (2.5, [2.5, 3]),
                                      (10**400, [10**400]), (True, [True, 2])],
                         ids=["0", "2.5", "10**400", "True"])
def test_bad_lattice_scale_raises(n, scales):
    """A lattice refinement that is not a positive integer a float holds is
    a ValueError, also one too large to convert, and a bool (which would
    run at n = 1)."""
    with pytest.raises(ValueError, match="must be a positive integer"):
        simulate_discrete(discrete_asymmetric(), n, 0.5, seed=4)
    with pytest.raises(ValueError, match="must be a positive integer"):
        concentration_experiment(discrete_asymmetric(), [n], 0.5, 4, 1)
    with pytest.raises(ValueError, match="must be a positive integer"):
        simulator.experiment_scales(discrete_two_state(), scales)


def test_trajectory_csv(tmp_path):
    tr = simulate_discrete(discrete_asymmetric(), 10, 0.5, seed=4)
    path = tmp_path / "t.csv"
    tr.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x_lifted,i"
    assert len(lines) == len(tr.times) + 1


def test_summary_csv(tmp_path):
    report = concentration_experiment(discrete_asymmetric(2.0, 1.0), [20], 0.5,
                                      40, base_seed=31, predicted_v=1.0)
    path = tmp_path / "s.csv"
    report.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "epsilon,mean_v,sd,se,predicted_v,verdict"
    assert lines[1].split(",")[-1] in ("pass", "fail")


@pytest.mark.parametrize("run", [
    lambda: concentration_experiment(two_state_flashing(), [0.1], 0.2, 0, 1),
    lambda: concentration_experiment(discrete_two_state(), [16], 0.5, 0, 1),
], ids=["concentration_experiment", "discrete_experiment"])
def test_zero_paths_rejected(run):
    """An empty path set is rejected where its streams are keyed, before any
    solve or step (it once gave NaN rows, or a stray trajectory error)."""
    with pytest.raises(ValueError, match="at least one path"):
        run()


def test_two_dim_experiment_is_rejected_before_its_prediction(monkeypatch):
    """A concentration experiment on a d = 2 model raises before it solves
    for the predicted velocity or keys a stream."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(hamiltonian, "velocity_of_model", refuse)
    monkeypatch.setattr(simulator, "_stream", refuse)
    with pytest.raises(NotImplementedError, match="d = 1, got d = 2"):
        concentration_experiment(two_dim_model(), [0.2, 0.1], 0.5, 4, 1)


@pytest.mark.parametrize("kind", ["continuous", "discrete"])
def test_regime_two_paths_are_refused(monkeypatch, kind):
    """The steppers run the regime-I process, so a regime-II model is
    refused, naming its regime, before a prediction or a stream: by the
    experiment and by a one-path run of either kind."""
    def refuse(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(hamiltonian, "velocity_of_model", refuse)
    monkeypatch.setattr(simulator, "_stream", refuse)
    rng = np.random.default_rng(5)
    if kind == "continuous":
        model, scales = random_continuous_model(rng, regime="II"), [0.2, 0.1]
        simulate = simulate_continuous
    else:
        model, scales = random_discrete_model(rng, ell=5, regime="II"), [16, 32]
        simulate = simulate_discrete
    with pytest.raises(NotImplementedError, match="regime I, got regime II"):
        concentration_experiment(model, scales, 0.5, 4, 1)
    with pytest.raises(NotImplementedError, match="regime I, got regime II"):
        simulate(model, scales[0], 0.5)


@pytest.mark.parametrize("run,error,match", [
    (lambda: simulate_continuous(two_state_flashing(), 0.1, -1.0),
     ValueError, r"horizons \[-10\.0\] .* must be positive"),
    (lambda: simulate_continuous(two_state_flashing(), 0.1, 0.5, i0=2),
     ValueError, "initial state 2 out of range"),
    (lambda: simulate_discrete(discrete_two_state(), 16, 0.5, i0=2),
     ValueError, "initial state 2 out of range"),
    (lambda: simulate_continuous(two_dim_model(), 0.1, 0.5),
     NotImplementedError, "d = 1"),
    (lambda: simulator.experiment_scales(two_state_flashing(), []),
     ValueError, "need at least one scale"),
], ids=["negative-horizon", "continuous-i0", "discrete-i0", "two-dim",
        "no-scales"])
def test_run_arguments_are_checked(run, error, match):
    """A run's horizon, initial state, dimension and scales are checked
    before any step."""
    with pytest.raises(error, match=match):
        run()
