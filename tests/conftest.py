"""Shared builders for randomized but valid models."""

import math
import os

import numpy as np
import pytest

from effham.fields import PeriodicScalarField, field_from_function
from effham.model import ContinuousModel, DiscreteModel, SwitchingRateMatrix


def random_periodic_field(rng, band=2, amp=0.6, period=1.0):
    modes = []
    for k in range(1, band + 1):
        a, b = rng.uniform(-amp, amp, size=2) / k
        modes.append(((k,), float(a), float(b)))
    return PeriodicScalarField(dim=1, period=period, fourier_coeffs=tuple(modes))


def positive_rate_field(rng, floor=0.2, scale=2.0):
    """c + a cos(2 pi (y - phi)) with c - |a| >= floor, so strictly positive."""
    c = rng.uniform(floor + 0.3, scale)
    a = rng.uniform(0.0, c - floor)
    phi = rng.uniform(0.0, 1.0)
    s = 2.0 * math.pi * phi
    return PeriodicScalarField(dim=1, fourier_coeffs=(
        ((0,), float(c), 0.0), ((1,), float(a * math.cos(s)), float(a * math.sin(s)))))


def random_continuous_model(rng, J=2, regime="I", amp=0.6):
    pots = tuple(random_periodic_field(rng, amp=amp) for _ in range(J))
    entries = tuple(
        tuple(None if i == j else positive_rate_field(rng) for j in range(J))
        for i in range(J))
    return ContinuousModel(dim=1, J=J, potentials=pots,
                           rates=SwitchingRateMatrix(J=J, entries=entries),
                           regime=regime)


def random_discrete_model(rng, ell=5, J=2, regime="I"):
    rp = rng.uniform(0.5, 3.0, size=(J, ell))
    rm = rng.uniform(0.5, 3.0, size=(J, ell))
    sw = rng.uniform(0.2, 2.0, size=(J, J, ell))
    for i in range(J):
        sw[i, i] = 0.0
    return DiscreteModel(ell=ell, J=J, hop_rates_plus=rp, hop_rates_minus=rm,
                         switching=sw, regime=regime)


def detailed_balance_model(rng, J=2, amp=0.5):
    """Rates sigma_ij e^{2 psi^i} with symmetric sigma: balance holds pointwise."""
    pots = tuple(random_periodic_field(rng, amp=amp) for _ in range(J))
    sigma = {}
    for i in range(J):
        for j in range(i + 1, J):
            c = rng.uniform(0.5, 1.5)
            a = rng.uniform(0.0, 0.8 * c)
            phi = rng.uniform(0.0, 1.0)
            sigma[(i, j)] = (c, a, phi)

    def entry(i, j):
        if i == j:
            return None
        c, a, phi = sigma[(min(i, j), max(i, j))]
        psi = pots[i]
        return field_from_function(
            lambda y: (c + a * math.cos(2 * math.pi * (y - phi)))
            * math.exp(2.0 * psi.value([y])))

    entries = tuple(tuple(entry(i, j) for j in range(J)) for i in range(J))
    return ContinuousModel(dim=1, J=J, potentials=pots,
                           rates=SwitchingRateMatrix(J=J, entries=entries),
                           regime="I")


def balance_violating_model(rng):
    """Constant unequal rates plus a common potential tilt: transports, so the
    Hamiltonian is visibly asymmetric."""
    force = rng.uniform(0.4, 1.0) * rng.choice([-1.0, 1.0])
    pots = []
    for _ in range(2):
        base = random_periodic_field(rng, amp=0.4)
        pots.append(PeriodicScalarField(
            dim=1, fourier_coeffs=base.fourier_coeffs, affine_slope=(-force,)))
    c12 = float(rng.uniform(0.8, 1.6))
    c21 = float(rng.uniform(2.0, 3.0))
    const = lambda c: PeriodicScalarField(dim=1, fourier_coeffs=(((0,), c, 0.0),))
    entries = ((None, const(c12)), (const(c21), None))
    return ContinuousModel(dim=1, J=2, potentials=tuple(pots),
                           rates=SwitchingRateMatrix(J=2, entries=entries),
                           regime="I")


def two_dim_model():
    """d = 2, J = 2, regime I: tilted potentials and unequal rates, so it
    transports along both axes."""
    psi1 = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, 0.0),),
                               affine_slope=(-0.5, 0.2))
    psi2 = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 1), 0.0, 0.25),
                                                      ((1, 1), 0.1, 0.2)))
    r12 = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 0), 1.0, 0.0),
                                                     ((1, 1), 0.3, 0.1)))
    r21 = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 0), 1.5, 0.0),
                                                     ((1, 0), 0.3, 0.4)))
    return ContinuousModel(dim=2, J=2, potentials=(psi1, psi2),
                           rates=SwitchingRateMatrix(J=2, entries=(
                               (None, r12), (r21, None))))


def dense_matrix(op):
    """The dense state-major matrix of an `AssembledOperator`, scattered
    from its slice blocks: the oracle the structured kernels are tested
    against."""
    idx = op.index
    M = np.zeros(op.shape)
    M[idx, np.roll(idx, -1, axis=0)] += op.up
    M[idx, np.roll(idx, 1, axis=0)] += op.down
    M[idx[:, :, None], idx[:, None, :]] += op.blocks
    return M


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fails a test that leaves a child process behind, running or not
    reaped: when it ends, this process has no children at all."""
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave pid "
                f"{pid}, status {status})")
