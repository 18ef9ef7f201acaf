"""Calls run on several cores by forked children (`effham.workers`)."""

import dataclasses
import os
import pickle

import numpy as np
import pytest

from effham import workers
from effham.eigensolver import ConvergenceError, EigenCertificate
from effham.fields import PeriodicScalarField
from effham.hamiltonian import HamiltonianTable, LagrangianTable
from effham.presets import discrete_two_state, two_state_flashing
from effham.simulator import Trajectory, simulate_discrete

from conftest import record_forks


def stalled():
    """A `ConvergenceError` with its best certificate attached."""
    return ConvergenceError("CW gap stalled at 1e-9", EigenCertificate(
        eigenvalue=-0.25, eigenvector=np.array([1.0, 0.5, 0.75]),
        residual=1e-9, cw_lower=-0.3, cw_upper=-0.2, iterations=7))


def assert_same_certificate(error, expected):
    assert type(error) is ConvergenceError
    assert str(error) == str(expected)
    cert, want = error.certificate, expected.certificate
    assert not cert.eigenvector.flags.writeable
    np.testing.assert_array_equal(cert.eigenvector, want.eigenvector)
    assert all(getattr(cert, f.name) == getattr(want, f.name)
               for f in dataclasses.fields(want) if f.name != "eigenvector")


def test_each_child_runs_on_another_core(monkeypatch):
    """`run` keeps the calls' order and runs the first here, on this
    process's own mask, and each later one in a child, moved to the cores
    of the mask other than this process's core, in turn."""
    mask = os.sched_getaffinity(0)
    assert workers._core() in mask
    here = max(mask)
    others = sorted(mask - {here}) or [here]
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(workers, "_cores", lambda: 3)
    monkeypatch.setattr(workers, "_core", lambda: here)
    parent = os.getpid()
    results = workers.run([
        lambda k=k: (k, os.getpid() == parent, os.sched_getaffinity(0))
        for k in range(3)])
    assert len(forked) == 2
    assert results == [(0, True, mask)] + [
        (k, False, {others[(k - 1) % len(others)]}) for k in (1, 2)]


def test_one_core_runs_every_call_here(monkeypatch):
    """With one core `run` forks nothing."""
    def refuse():
        raise AssertionError("run forked")

    mask = os.sched_getaffinity(0)
    monkeypatch.setattr(os, "fork", refuse)
    monkeypatch.setattr(workers, "_cores", lambda: 1)
    assert workers.run([lambda k=k: (k, os.getpid(), os.sched_getaffinity(0))
                        for k in range(3)]) == [
        (k, os.getpid(), mask) for k in range(3)]


def test_a_child_that_dies_before_its_result_raises(monkeypatch):
    """A child that leaves without writing its result, with or without an
    error status, raises a RuntimeError that names its wait status."""
    monkeypatch.setattr(workers, "_cores", lambda: 2)
    for code in (0, 3):
        with pytest.raises(RuntimeError, match="wait status"):
            workers.run([lambda: None, lambda code=code: os._exit(code)])


def test_a_convergence_error_keeps_its_certificate_across_pickling():
    """A `ConvergenceError` unpickles with its message and its certificate,
    also one without a certificate."""
    error = stalled()
    assert_same_certificate(pickle.loads(pickle.dumps(error)), error)
    bare = pickle.loads(pickle.dumps(ConvergenceError("stalled", None)))
    assert (type(bare), str(bare), bare.certificate) == (
        ConvergenceError, "stalled", None)


def test_a_childs_convergence_error_arrives_with_its_certificate(monkeypatch):
    """A `ConvergenceError` raised in a forked child is raised here with its
    type, message and certificate, not as a `RuntimeError` that names it."""
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(workers, "_cores", lambda: 2)

    def failing():
        raise stalled()

    with pytest.raises(ConvergenceError) as info:
        workers.run([lambda: None, failing])
    assert len(forked) == 1
    assert_same_certificate(info.value, stalled())


@pytest.mark.parametrize("make", [
    discrete_two_state,
    lambda: PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.3, -0.2),
                                                       ((2,), 0.1, 0.05)),
                                affine_slope=(0.5,)),
    lambda: simulate_discrete(discrete_two_state(), 16, 0.5, seed=1),
], ids=["DiscreteModel", "PeriodicScalarField", "Trajectory"])
def test_frozen_value_types_unpickle_read_only(make):
    """A frozen value type that freezes its arrays unpickles through its
    constructor: every field of the copy equals the original's, and its
    arrays are read-only, as a child's results that carry them must be."""
    obj = make()
    copy = pickle.loads(pickle.dumps(obj))
    assert type(copy) is type(obj)
    arrays = 0
    for f in dataclasses.fields(obj):
        value, want = getattr(copy, f.name), getattr(obj, f.name)
        if isinstance(want, np.ndarray):
            arrays += 1
            assert not value.flags.writeable, f.name
            assert value.dtype == want.dtype, f.name
            np.testing.assert_array_equal(value, want)
        else:
            assert value == want, f.name
    assert arrays >= 2


@pytest.mark.parametrize("build,arrays", [
    (lambda a: dataclasses.replace(discrete_two_state(), **a),
     {name: np.array(getattr(discrete_two_state(), name)) for name in
      ("hop_rates_plus", "hop_rates_minus", "switching")}),
    (lambda a: EigenCertificate(0.0, residual=0.0, cw_lower=-1e-9,
                                cw_upper=1e-9, iterations=1, **a),
     {"eigenvector": np.array([1.0, 0.5, 0.25])}),
    (lambda a: HamiltonianTable(certificates=(None,) * 3, **a),
     {"p_grid": np.array([-1.0, 0.0, 1.0]),
      "values": np.array([0.5, 0.0, 0.5])}),
    (lambda a: LagrangianTable(**a),
     {"v_grid": np.array([-0.5, 0.5]), "values": np.array([0.2, 0.3]),
      "pstar": np.array([-1.0, 1.0]), "boundary": np.array([False, True])}),
    (lambda a: Trajectory(seed=1, scale=16, kind="discrete", **a),
     {"times": np.array([0.0, 0.5, 1.0]), "positions": np.array([0.0, 1.0, 0.0]),
      "states": np.array([0, 1, 1])}),
], ids=["DiscreteModel", "EigenCertificate", "HamiltonianTable",
        "LagrangianTable", "Trajectory"])
def test_frozen_values_copy_the_callers_arrays(build, arrays):
    """A frozen value holds read-only copies of the arrays it is built from:
    the caller's arrays stay writeable, and writing to them afterwards leaves
    the value as it was built."""
    obj = build(arrays)
    built = {name: getattr(obj, name).copy() for name in arrays}
    for name, arr in arrays.items():
        assert arr.flags.writeable, name
        assert not getattr(obj, name).flags.writeable, name
        arr[0] = ~arr[0] if arr.dtype == bool else arr[0] + 1
        assert not np.array_equal(arr, built[name]), name
        np.testing.assert_array_equal(getattr(obj, name), built[name])


def test_rate_tables_are_read_only_and_unpickle_so():
    """The Fourier table of a rate matrix (`_stack`, read by the operator
    builders and the walk's tables) is read-only in a preset and in a
    pickled copy of its model, which equals the original."""
    model = two_state_flashing()
    copy = pickle.loads(pickle.dumps(model))
    assert copy == model
    for got, want in zip(copy.rates._stack, model.rates._stack):
        assert not got.flags.writeable
        assert not want.flags.writeable
        np.testing.assert_array_equal(got, want)
