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

from effham import simulator, workers
from effham.fields import PeriodicScalarField, fourier_gradients, stack_modes
from effham.cli import main
from effham.hamiltonian import velocity_of_model
from effham.model import (ContinuousModel, DiscreteModel, SwitchingRateMatrix,
                          scaled_switching)
from effham.presets import (constant_drift, discrete_asymmetric,
                            discrete_two_state, two_state_flashing)
from effham.simulator import (batch_continuous, batch_discrete,
                              concentration_experiment, simulate_continuous,
                              simulate_discrete)

from conftest import open_fds, record_forks, two_dim_model


def const_field(c):
    return PeriodicScalarField(dim=1, fourier_coeffs=(((0,), float(c), 0.0),))


def two_state_constant_rates(c12, c21, psi_amp=0.0):
    psi = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), psi_amp, 0.0),)) \
        if psi_amp else PeriodicScalarField(dim=1)
    rates = SwitchingRateMatrix(J=2, entries=((None, const_field(c12)),
                                              (const_field(c21), None)))
    return ContinuousModel(dim=1, J=2, potentials=(psi, psi), rates=rates)


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
    """Path k of a batch equals the same path simulated alone, also for
    potentials with many modes."""
    paths = 5
    conts = [batch_continuous(m(), 0.1, 0.5, paths, base_seed=42)
             for m in (two_state_flashing, six_mode_flashing)]
    disc = batch_discrete(discrete_two_state(), 32, 1.0, paths, base_seed=42)
    for k in (0, paths - 1):
        alone = [simulate_continuous(m(), 0.1, 0.5, seed=42, traj_index=k)
                 for m in (two_state_flashing, six_mode_flashing)]
        alone.append(simulate_discrete(discrete_two_state(), 32, 1.0, seed=42,
                                       traj_index=k))
        for batch, single in zip(conts + [disc], alone):
            in_batch = batch.trajectories[k]
            np.testing.assert_array_equal(in_batch.times, single.times)
            np.testing.assert_array_equal(in_batch.positions, single.positions)
            np.testing.assert_array_equal(in_batch.states, single.states)


def test_block_size_does_not_change_a_path(monkeypatch):
    """Each kind of draw has its own stream, read by its path alone, so the
    draw block size is a memory setting only, for every kind of draw: the
    normals and thinning draws of a continuous batch, the clocks and choices
    of a discrete one, refilled as the paths read them at their own pace."""
    runs = []
    for block in (simulator._BLOCK, 5):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        runs.append(batch_continuous(two_state_flashing(), 0.1, 0.3, 6,
                                     base_seed=8).trajectories
                    + batch_discrete(discrete_two_state(), 16, 1.0, 6,
                                     base_seed=8).trajectories)
    for a, b in zip(*runs):
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.states, b.states)


def test_concentration_rows_equal_independent_batches(monkeypatch):
    """An experiment runs each path once in the fast variables and reads
    every scale at its horizon; every row still equals a fresh batch of its
    scale, bit for bit, also with switching scaled by gamma != 1 and,
    calling the stepper with one fast step ds, for i0 = 1.  The scales end
    at different steps, and the paths read their draws at different paces;
    with a block of 5 the draw blocks refill many times within a run."""
    gamma, seed, dt_factor = 1.7, 31, 150.0
    cases = ((scaled_switching(two_state_flashing(), gamma),
              [0.1, 0.07, 0.05], 0.3, 6),
             (scaled_switching(discrete_two_state(), gamma), [16, 32, 64],
              1.0, 8))
    # a batch steps ds = dt/eps, the experiment 1/dt_factor: equal here
    assert all((s / dt_factor) / s == 1.0 / dt_factor for s in cases[0][1])
    for block, (model, scales, T, paths) in itertools.product(
            (simulator._BLOCK, 5), cases):
        monkeypatch.setattr(simulator, "_BLOCK", block)
        report = concentration_experiment(model, scales, T, paths, seed,
                                          predicted_v=0.0, dt_factor=dt_factor)
        streams = simulator._Streams(seed, range(paths))
        if isinstance(model, ContinuousModel):
            ends = simulator._continuous_paths(
                model, [T / s for s in scales], 1.0 / dt_factor, streams,
                i0=1) * np.array(scales)[:, None]
            batches, alone = ([batch_continuous(model, s, T, paths, seed,
                                                dt=s / dt_factor, i0=i0)
                               for s in scales]
                              for i0 in (0, 1))
        else:
            ends = simulator._discrete_paths(
                model, [n * T for n in scales], streams,
                i0=1) / np.array(scales)[:, None]
            batches, alone = ([batch_discrete(model, s, T, paths, seed, i0=i0)
                               for s in scales] for i0 in (0, 1))
        for row, batch, from_one, x in zip(report.rows, batches, alone, ends):
            assert (row.mean_v, row.sd, row.se) == (batch.mean, batch.sd,
                                                    batch.se)
            assert list(x) == [tr.positions[-1]
                               for tr in from_one.trajectories]


def test_experiment_does_only_its_finest_scales_work(monkeypatch):
    """Every scale reads the same paths at its own horizon, so an experiment
    evaluates the drift at as many rows as a batch of its finest scale
    alone: the coarser scales cost no steps of their own.  One shard, so
    that every row is stepped in this process."""
    set_cores(monkeypatch, 1)
    rows = []
    gradients = simulator.fourier_gradients
    monkeypatch.setattr(simulator, "fourier_gradients", lambda modes, y: (
        rows.append(y.shape[-1]) or gradients(modes, y)))
    model, T, paths, seed = two_state_flashing(), 0.3, 6, 4
    concentration_experiment(model, [0.1, 0.05], T, paths, seed,
                             predicted_v=0.0)
    experiment = sum(rows)
    rows.clear()
    batch_continuous(model, 0.05, T, paths, seed)
    assert experiment == sum(rows) > 0


def test_concentration_builds_no_paths_and_reads_each_stream_once(monkeypatch):
    """The experiment keeps end positions only: it builds no `Trajectory`
    and no `_Records`, and it builds one Philox per path and kind of draw it
    uses (normals and uniforms for a continuous model, uniforms alone for a
    discrete one), whatever the number of scales.  One shard, so that every
    stream is built in this process."""
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
    paths = 7
    cases = ((two_state_flashing(), [0.2, 0.1, 0.05], 0.2, (0, 1)),
             (discrete_two_state(), [8, 16, 32], 0.5, (1,)))
    for model, scales, T, kinds in cases:
        built.clear()
        concentration_experiment(model, scales, T, paths, 5, predicted_v=0.0)
        assert sorted(built) == sorted((kind, (5, k)) for kind in kinds
                                       for k in range(paths))


def set_cores(monkeypatch, cores):
    """Make the experiment split its paths into `cores` shards at most."""
    monkeypatch.setattr(workers, "_cores", lambda: cores)


@pytest.mark.parametrize("paths", [1, 2, 7])
def test_shards_equal_one_process(monkeypatch, paths):
    """Split across 2 or 3 forked shards (unequal ones for 7 paths), every
    path's ends at every scale equal its one-process ends bit for bit, for a
    continuous and a discrete model, from i0 = 0 and 1; so the experiment's
    report is the same with one shard and with two."""
    forked = record_forks(monkeypatch)
    seed = 2**64 - 3
    cases = ((scaled_switching(two_state_flashing(), 1.7), [0.1, 0.07, 0.05],
              0.3), (discrete_two_state(), [8, 16, 32], 0.5))
    for model, scales, T in cases:
        if isinstance(model, ContinuousModel):
            def run(streams, i0):
                return simulator._continuous_paths(
                    model, [T / eps for eps in scales], 1 / 200, streams,
                    i0=i0)
        else:
            def run(streams, i0):
                return simulator._discrete_paths(
                    model, [n * T for n in scales], streams, i0=i0)
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
        def failing(model, horizons, streams, **options):
            if os.getpid() != parent:
                raise error("thinning bound violated in the shard from path "
                            f"{streams.indices[0]}")
            return stepper(model, horizons, streams, **options)

        monkeypatch.setattr(simulator, "_discrete_paths", failing)
        with pytest.raises(Exception) as info:
            concentration_experiment(discrete_two_state(), [8], 0.5, 6, 1,
                                     predicted_v=0.0)
        message = "thinning bound violated in the shard from path 2"
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
    parent, stepper = os.getpid(), simulator._continuous_paths

    def slow(*args, **options):
        time.sleep(10 if os.getpid() == parent else 60)
        return stepper(*args, **options)

    def on_alarm(signum, frame):
        raise Interrupt

    monkeypatch.setattr(simulator, "_continuous_paths", slow)
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
def test_streams_are_keyed_by_seed_path_and_kind(seed):
    """Kind j of path k reads, as a stepper's `_Draws` serves it, block for
    block what a `Generator` on `Philox(key=(seed, k), counter=(0, 0, 0,
    j))` draws, for seeds and indices up to the top of the uint64 range;
    different paths and kinds draw differently.  (The reference passes its
    words as uint64 arrays: numpy reads a list that holds a word >= 2**63
    through float64.)"""
    indices = [0, 999, 2**32, 2**40 + 5]
    paths, blocks = np.arange(len(indices)), 3
    streams = simulator._Streams(seed, indices)
    firsts = set()
    for j, kind in enumerate(simulator._KINDS):
        draws = simulator._Draws(streams, kind)
        drawn = np.array([draws(paths)
                          for _ in range(blocks * simulator._BLOCK)]).T
        for k, row in zip(indices, drawn):
            reference = getattr(np.random.Generator(np.random.Philox(
                key=np.array([seed, k], dtype=np.uint64),
                counter=np.array([0, 0, 0, j], dtype=np.uint64))), kind)
            expected = np.empty((blocks, simulator._BLOCK))
            for block in expected:
                reference(out=block)
            np.testing.assert_array_equal(row, expected.ravel())
            firsts.add(row[0])
    assert len(firsts) == len(simulator._KINDS) * len(indices)


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
            batch_continuous(two_state_flashing(), 0.1, 0.2, 2, seed)
        with pytest.raises(error, match=match):
            batch_discrete(discrete_two_state(), 4, 0.5, 2, seed)
        with pytest.raises(error, match=match):
            concentration_experiment(discrete_two_state(), [4, 8], 0.5, 2,
                                     seed, predicted_v=0.0)


def test_concentration_golden_pin():
    """Pins small seeded experiments of each kind, with several scales and
    the discrete model's switching scaled by gamma != 1.  Re-pinned when
    the stream keying changed to Philox keyed by (seed, path) with the kind
    in the counter, and every exponential became -log1p(-u) of the path's
    uniform stream (every draw changed; the values before were those of
    numpy's `SeedSequence((seed, k))` children).  A change of scheme,
    streams or draw order must update them on purpose."""
    cont = concentration_experiment(two_state_flashing(), [0.1], 0.5, 64,
                                    2024, predicted_v=0.0)
    disc = [concentration_experiment(scaled_switching(discrete_two_state(),
                                                      gamma),
                                     scales, 1.0, 64, 2024, predicted_v=0.0)
            for scales, gamma in (([16], 1.0), ([16, 32, 64], 1.3),
                                  ([10, 20], 1.3))]
    assert [(r.mean_v, r.sd) for report in [cont] + disc
            for r in report.rows] == [
        (0.1815873839391895, 0.25719844443896905),
        (-0.115234375, 0.43304402401616293),
        (-0.0595703125, 0.43092129862957484),
        (-0.10107421875, 0.3399520615121551),
        (-0.111572265625, 0.2586078129043713),
        (0.014062499999999999, 0.5117251207497528),
        (-0.06015624999999998, 0.40709771139983597)]


def _records_digest(trajectories):
    """sha256 over each path's times, positions and states, dtype included."""
    digest = hashlib.sha256()
    for tr in trajectories:
        for column in (tr.times, tr.positions, tr.states):
            digest.update(column.dtype.str.encode())
            digest.update(column.tobytes())
    return digest.hexdigest()


def test_trajectory_records_golden_pin():
    """Pins the records of a continuous path with switches and a discrete
    batch.  Both digests were re-pinned when the stream keying changed to
    Philox keyed by (seed, path) with the kind in the counter, and every
    exponential became -log1p(-u) of the path's uniform stream.  A change
    of stepper, streams or record rule must update them on purpose."""
    switching = simulate_continuous(two_state_flashing(), 0.1, 1.0, seed=5,
                                    traj_index=2)
    disc = batch_discrete(discrete_two_state(), 32, 1.0, 8,
                          base_seed=9).trajectories
    assert switching.switch_count > 0
    assert [_records_digest([switching]), _records_digest(disc)] == [
        "d6dddec85acb4504e08eee5b1afd83d1b5a0761ef6c91c501a8273d1448d8c8e",
        "428f6ddb1f32ac7852e35b756dc78237bf0ad22b1846d1b99aa1ca8456a37cfe"]


def three_state_table_model():
    """J = 3 with 0-, 2- and 6-mode potentials (the first tilted, the last
    tilted too) and one missing rate."""
    rng = np.random.default_rng(17)

    def modes(count):
        return tuple(((k,), *(rng.uniform(-0.5, 0.5, size=2) / k))
                     for k in range(1, count + 1))

    pots = (PeriodicScalarField(dim=1, affine_slope=(-0.4,)),
            PeriodicScalarField(dim=1, fourier_coeffs=modes(2)),
            PeriodicScalarField(dim=1, fourier_coeffs=modes(6),
                                affine_slope=(0.3,)))

    def rate(count):   # dips below zero somewhere: exercises the clip
        return PeriodicScalarField(dim=1, fourier_coeffs=(
            ((0,), 0.4, 0.0),) + modes(count))

    entries = ((None, rate(1), None), (rate(3), None, rate(2)),
               (rate(2), rate(5), None))
    return ContinuousModel(dim=1, J=3, potentials=pots,
                           rates=SwitchingRateMatrix(J=3, entries=entries))


def test_fourier_tables_equal_the_fields_bit_for_bit():
    """The stepper's calls give each path its own potential's gradient, from
    its state's column of the stacked potentials, and its own state's rates
    (clipped at 0), as the fields and `values` compute them."""
    model = three_state_table_model()
    rng = np.random.default_rng(5)
    y = rng.uniform(-40.0, 40.0, size=4097)
    state = rng.integers(0, model.J, size=len(y))
    potentials = stack_modes(model.potentials)
    slopes = np.array([psi.slope[0] for psi in model.potentials])
    drift = slopes[state] + fourier_gradients(potentials[..., state],
                                              y[None])[0]
    rates = np.maximum(model.rates.rates_out_of(state, y[None]), 0.0)
    clipped = 0
    for i, psi in enumerate(model.potentials):
        on = state == i
        np.testing.assert_array_equal(drift[on], psi.gradients(y[on])[:, 0])
        np.testing.assert_array_equal(
            rates[on], np.maximum(model.rates.values(y[on, None])[:, i], 0.0))
        for j, entry in enumerate(model.rates.entries[i]):
            if entry is None or j == i:
                np.testing.assert_array_equal(rates[on, j], 0.0)
                continue
            raw = entry.values(y[on])
            snapped = np.where(np.abs(raw) <= entry.roundoff, 0.0, raw)
            np.testing.assert_array_equal(rates[on, j], np.maximum(snapped, 0.0))
            clipped += np.sum(raw < 0.0)
    assert clipped > 0


def test_default_dt_matches_eigen_velocity():
    """At the default dt the motor's mean velocity is the eigenvalue's DH(0);
    a coarse step (dt = eps/20) once biased it to about twice that."""
    model = two_state_flashing()
    v_eig, _ = velocity_of_model(model, N=128)
    batch = batch_continuous(model, 0.05, 1.0, 1000, base_seed=61)
    assert abs(batch.mean - v_eig) <= max(3.0 * batch.se, 0.05)


def test_thinning_bound_violation_raises(monkeypatch):
    model = two_state_flashing()
    true_sup = simulator.max_total_switching_rate(model)
    monkeypatch.setattr(simulator, "max_total_switching_rate",
                        lambda m: 0.5 * true_sup)
    with pytest.raises(RuntimeError, match="thinning bound"):
        simulate_continuous(model, 0.1, 1.0, seed=3)


def test_drift_only_mean_displacement():
    batch = batch_continuous(constant_drift(1.0), 0.1, 1.0, 200, base_seed=7)
    assert abs(batch.mean - 1.0) <= 3 * batch.se
    tr = batch.trajectories[0]
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


def test_thinning_rates_of_constant_rate_model():
    """Rates that do not depend on x make the switching a two-state Markov
    chain whose empirical exit rates must match (gamma/eps) r_ij."""
    eps = 0.5
    c12, c21 = 1.0, 2.0
    m = two_state_constant_rates(c12, c21)
    tr = simulate_continuous(m, eps, 60.0, seed=5)
    t_in = {0: 0.0, 1: 0.0}
    exits = {0: 0, 1: 0}
    for k in range(len(tr.times) - 1):
        t_in[int(tr.states[k])] += tr.times[k + 1] - tr.times[k]
        if tr.states[k + 1] != tr.states[k]:
            exits[int(tr.states[k])] += 1
    for state, rate in ((0, c12 / eps), (1, c21 / eps)):
        n, T_occ = exits[state], t_in[state]
        assert n > 10
        assert abs(n / T_occ - rate) <= 3.0 * math.sqrt(n) / T_occ


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
    batch = batch_discrete(m, 50, 1.0, 100, base_seed=3)
    counts = np.array([len(tr.times) - 2 for tr in batch.trajectories])
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
    batch = batch_discrete(m, 100, 1.0, 300, base_seed=17)
    assert abs(batch.mean - 1.0) <= 3 * batch.se     # DH(0) = r+ - r-
    sym = discrete_asymmetric(1.5, 1.5)
    batch = batch_discrete(sym, 100, 1.0, 300, base_seed=18)
    assert abs(batch.mean) <= 3 * batch.se


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
    batch = batch_continuous(m, 0.05, 1.0, 200, base_seed=13)
    assert abs(batch.mean) <= 3 * batch.se


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
    """A gamma <= 0 would leave the thinning clock unset (no switching at
    all); the transform that builds the model a run samples rejects it, and
    the runners take no gamma of their own that could bypass it."""
    for model in (two_state_flashing(), discrete_two_state()):
        with pytest.raises(ValueError, match="gamma"):
            scaled_switching(model, gamma)
    with pytest.raises(TypeError, match="gamma"):
        concentration_experiment(two_state_flashing(), [0.1], 0.5, 4, 1,
                                 predicted_v=0.0, gamma=gamma)
    with pytest.raises(TypeError, match="gamma"):
        batch_discrete(discrete_two_state(), 16, 0.5, 4, 1, gamma=gamma)


@pytest.mark.parametrize("n", [0, 2.5, 10**400], ids=["0", "2.5", "10**400"])
def test_bad_lattice_scale_raises(n):
    """A lattice refinement that is not a positive integer a float holds is
    a ValueError, also one too large to convert."""
    with pytest.raises(ValueError, match="must be a positive integer"):
        simulate_discrete(discrete_asymmetric(), n, 0.5, seed=4)
    with pytest.raises(ValueError, match="must be a positive integer"):
        concentration_experiment(discrete_asymmetric(), [n], 0.5, 4, 1)


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
    lambda: batch_continuous(two_state_flashing(), 0.1, 0.2, 0, 1),
    lambda: batch_discrete(discrete_two_state(), 16, 0.5, 0, 1),
], ids=["concentration_experiment", "batch_continuous", "batch_discrete"])
def test_zero_paths_rejected(run):
    """An empty path set is rejected where its streams are keyed, before any
    solve or step (it once gave NaN rows, or a stray trajectory error)."""
    with pytest.raises(ValueError, match="at least one path"):
        run()


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
