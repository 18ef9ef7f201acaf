"""Calls run on several cores by forked children (`effham.workers`)."""

import os

import pytest

from effham import workers

from conftest import record_forks


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
