"""Hamiltonian tables, velocity, Legendre transform, path rates, diagnostics."""

import hashlib
import math
import os
import pickle
import signal
import time
from dataclasses import replace

import numpy as np
import pytest

from effham import chains, hamiltonian, workers
from effham.eigensolver import (ConvergenceError, EigenCertificate,
                                TiltedGenerator, cell_operator,
                                collatz_wielandt_bounds, principal_eigenpair)
from effham.hamiltonian import (HamiltonianTable, coercivity_check,
                                convexity_report, hamiltonian_at, legendre,
                                path_rate, sweep, symmetry_check,
                                velocity_of_model)
from effham.fields import PeriodicScalarField
from effham.model import (ContinuousModel, SwitchingRateMatrix,
                          scaled_switching, validate)
from effham.presets import (PRESETS, constant_drift, detailed_balance_pair,
                            discrete_asymmetric, discrete_two_state,
                            two_state_flashing)

from conftest import (balance_violating_model, dense_matrix,
                      detailed_balance_model, open_fds, random_continuous_model,
                      random_discrete_model, record_forks, two_dim_model)


def quadratic_table(p_min=-4.0, p_max=4.0, count=81, curvature=0.5):
    """Exact table of H(p) = curvature * p^2 with dummy certificates."""
    p = np.linspace(p_min, p_max, count)
    H = curvature * p ** 2
    certs = tuple(EigenCertificate(float(v), np.ones(1), 0.0, float(v), float(v), 0)
                  for v in H)
    return HamiltonianTable(p, H, certs, provenance={"regime": "I"})


def test_h0_zero_for_random_models(rng):
    for _ in range(3):
        m = random_continuous_model(rng, J=2)
        value, cert = hamiltonian_at(m, 0.0, N=64)
        assert abs(value) <= 1e-8
        d = random_discrete_model(rng, ell=4, J=2)
        value, cert = hamiltonian_at(d, 0.0)
        assert abs(value) <= 1e-10


def test_discrete_constant_rates_closed_form():
    m = discrete_asymmetric(2.0, 1.0)
    value, cert = hamiltonian_at(m, 1.0, tol=1e-12)
    expected = 2.0 * (math.e - 1.0) + (math.exp(-1.0) - 1.0)
    assert value == pytest.approx(expected, abs=1e-10)
    assert cert.residual <= 1e-10


def test_sweep_constant_drift_regression():
    table = sweep(constant_drift(1.0), -3.0, 3.0, 61, N=256)
    assert not table.failures
    closed = 0.5 * (table.p_grid + 1.0) ** 2 - 0.5
    assert np.max(np.abs(table.values - closed)) <= 1e-3
    conv, _ = convexity_report(table)
    assert conv <= 1e-6
    # the closed form is asymmetric: H(3) - H(-3) = 2*3*F = 6
    assert symmetry_check(table) == pytest.approx(6.0, abs=1e-2)


def test_sweep_augments_missing_zero(caplog):
    table = sweep(discrete_asymmetric(), 0.25, 1.0, 4)
    assert np.any(table.p_grid == 0.0)
    assert abs(table.value_at(0.0)) <= 1e-10


def test_sweep_tolerance_monotonicity():
    m = discrete_two_state()
    t1 = sweep(m, -1.0, 1.0, 5, tol=1e-8)
    t2 = sweep(m, -1.0, 1.0, 5, tol=1e-10)
    assert np.max(np.abs(t1.values - t2.values)) <= 1e-7


def test_sweep_records_failures_per_sample():
    # N = 8 only resolves |p + 6| <= 8: samples beyond p = 2 must fail,
    # and the table is still returned with those gaps flagged
    table = sweep(constant_drift(6.0), -3.0, 3.0, 7, N=8)
    assert table.failures
    assert np.isnan(table.values[-1])
    ok = ~np.isnan(table.values)
    assert ok.any()
    # constant coefficients: the assembled eigenvalue is exactly the cosh form
    h = 1.0 / 8.0
    cosh_form = (np.cosh((table.p_grid + 6.0) * h) - np.cosh(6.0 * h)) / h ** 2
    assert np.allclose(table.values[ok], cosh_form[ok], atol=1e-8)


def _two_state_2d():
    psi1 = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, 0.1),))
    psi2 = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 1), 0.0, 0.25),),
                               affine_slope=(0.4, 0.0))
    rate = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 0), 1.0, 0.0),
                                                      ((1, 1), 0.3, 0.0)))
    return ContinuousModel(dim=2, J=2, potentials=(psi1, psi2),
                           rates=SwitchingRateMatrix(J=2, entries=(
                               (None, rate), (rate, None))))


FAMILIES = [("continuous", "I"), ("continuous", "II"), ("discrete", "I"),
            ("discrete", "II"), ("dim2", "I")]


def _family(kind, regime):
    """Seeded model of one family, with its grid keywords and sweep axis."""
    rng = np.random.default_rng(11)
    if kind == "continuous":
        return random_continuous_model(rng, J=3, regime=regime), {"N": 32}, 0
    if kind == "discrete":
        return scaled_switching(random_discrete_model(
            rng, ell=6, J=2, regime=regime), 2.5), {}, 0
    return _two_state_2d(), {"N": 8}, 1


def _momentum(model, axis, t):
    if getattr(model, "dim", 1) == 1:
        return float(t)
    p = np.zeros(model.dim)
    p[axis] = t
    return p


@pytest.mark.parametrize("kind,regime", FAMILIES)
def test_sweep_reuse_equals_fresh_build(kind, regime):
    """A sweep tilts one operator and chains warm starts outward from p = 0;
    every sample must equal the same two chains, with the same start rule,
    solved on fresh builds."""
    model, kw, axis = _family(kind, regime)
    table = sweep(model, -1.5, 1.5, 7, axis=axis, **kw)
    assert not table.failures
    grid = table.p_grid
    origin = int(np.flatnonzero(grid == 0.0)[0])
    below, above = (hamiltonian._solve_chain(
        lambda t: cell_operator(model, **kw).at(_momentum(model, axis, t)),
        side, tol=1e-10) for side in (grid[origin::-1], grid[origin:]))
    assert not below[2] and not above[2]
    certs = below[0][::-1] + above[0][1:]
    assert tuple(below[1][::-1] + above[1][1:]) == table.starts
    for k, cert in enumerate(certs):
        got = table.certificates[k]
        np.testing.assert_array_equal(
            [table.values[k], got.cw_lower, got.cw_upper],
            [cert.eigenvalue, cert.cw_lower, cert.cw_upper])


@pytest.mark.parametrize("case", list(PRESETS) + [f"{kind}-{regime}"
                                                  for kind, regime in FAMILIES])
def test_warm_sweep_brackets_overlap_cold_solves(case):
    """Warm starts change the path to each eigenvalue, not the eigenvalue:
    every warm sweep bracket meets the bracket of a cold solve."""
    if case in PRESETS:
        model, kw, axis = PRESETS[case](), {"N": 64}, 0
    else:
        model, kw, axis = _family(*case.split("-"))
    table = sweep(model, -2.0, 2.0, 9, axis=axis, **kw)
    assert not table.failures
    for t, got in zip(table.p_grid, table.certificates):
        _, cold = hamiltonian_at(model, _momentum(model, axis, t), **kw)
        assert max(got.cw_lower, cold.cw_lower) <= min(got.cw_upper, cold.cw_upper)


def test_failed_sample_restarts_its_outer_neighbour_cold(monkeypatch):
    real_at, real = TiltedGenerator.at, hamiltonian.principal_eigenpair
    momentum, starts = {}, {}

    def at(gen, p):
        op = real_at(gen, p)
        momentum[id(op)] = p
        return op

    def fail_at_half(op, **kw):
        p = momentum[id(op)]
        starts[p] = kw.get("start")
        if p == 0.5:
            raise ConvergenceError("injected", None)
        return real(op, **kw)

    monkeypatch.setattr(TiltedGenerator, "at", at)
    monkeypatch.setattr(hamiltonian, "principal_eigenpair", fail_at_half)
    table = sweep(discrete_two_state(), -1.5, 1.5, 7)
    assert list(table.failures) == [4]
    assert starts[0.0] is None and starts[1.0] is None
    assert all(starts[p] is not None for p in (-1.5, -1.0, -0.5, 1.5))
    assert np.isnan(table.values[4]) and np.all(np.isfinite(np.delete(table.values, 4)))


def test_warm_sweep_needs_few_iterations():
    # stiff N = 256 operators: starting from the neighbour's eigenvector, a
    # handful of inverse steps reach the tolerance, none of them retried
    table = sweep(two_state_flashing(), -3.0, 3.0, 61, N=256, tol=1e-9)
    assert not table.failures
    assert max(c.iterations for c in table.certificates) <= 12
    assert all(c.fallbacks == 0 for c in table.certificates)


def test_extrapolated_sweep_needs_fewer_iterations():
    # starting from the log-polynomial through the chain's last eigenvectors
    # halves the inverse steps of neighbour starts (4.7 per sample)
    table = sweep(two_state_flashing(), -3.0, 3.0, 61, N=256, tol=1e-9)
    assert not table.failures
    assert np.mean([c.iterations for c in table.certificates]) <= 3.0
    assert all(c.fallbacks == 0 for c in table.certificates)
    assert sum(s.startswith("extrapolated:") for s in table.starts) > 40


def test_extrapolation_is_exact_for_log_polynomials():
    """Vectors exp(a + b p + c p^2) are reproduced from three or more samples
    at the actual momenta of a non-uniform grid with 0 inserted."""
    rng = np.random.default_rng(5)
    a, b, c = rng.normal(size=(3, 40))

    def normalised(p):
        g = np.exp(a + b * p + c * p ** 2)
        return g / np.max(g)

    grid = np.sort(np.append(np.linspace(-1.1, 1.3, 7), 0.0))
    origin = int(np.flatnonzero(grid == 0.0)[0])
    for k in (origin + 3, origin + 4, 0):
        # the chain from the inner neighbour back to the origin
        chain = grid[origin:k][::-1] if k > origin else grid[k + 1:origin + 1]
        nodes = chain[:hamiltonian._EXTRAPOLATION_SAMPLES]
        assert len(nodes) >= 3
        got = hamiltonian._extrapolate(
            list(nodes), [np.log(normalised(p)) for p in nodes], grid[k])
        np.testing.assert_allclose(got, normalised(grid[k]), rtol=1e-11)


@pytest.mark.parametrize("case", list(PRESETS) + [f"{kind}-{regime}"
                                                  for kind, regime in FAMILIES])
def test_chosen_start_is_no_wider_than_the_neighbour(monkeypatch, case):
    """Every sample starts from a vector whose CW bracket on its own operator
    is at most as wide as that of the inner neighbour's eigenvector, and the
    bracket handed to the solve with it is that vector's own."""
    if case in PRESETS:
        model, kw, axis = PRESETS[case](), {"N": 64}, 0
    else:
        model, kw, axis = _family(*case.split("-"))
    real = hamiltonian.principal_eigenpair
    solves = []

    def record(op, **kwargs):
        solves.append((op, kwargs["start"]))
        return real(op, **kwargs)

    monkeypatch.setattr(hamiltonian, "principal_eigenpair", record)
    table = sweep(model, -2.0, 2.0, 9, axis=axis, **kw)
    assert not table.failures
    origin = int(np.flatnonzero(table.p_grid == 0.0)[0])
    # the chain below p = 0, then the one above, each from p = 0
    order = list(range(origin, -1, -1)) + list(range(origin, 9))
    assert len(solves) == len(order)
    for k, (op, start) in zip(order, solves):
        if k == origin:
            assert start is None and table.starts[k] == "cold"
            continue
        inner = k - 1 if k > origin else k + 1
        neighbour = table.certificates[inner].eigenvector
        vector = np.empty(op.shape[0])
        vector[op.index] = start.w
        (lo, up), (nb_lo, nb_up) = (collatz_wielandt_bounds(op, g)
                                    for g in (vector, neighbour))
        assert (start.lower, start.upper) == (lo, up)
        assert up - lo <= nb_up - nb_lo
        assert ((table.starts[k] == "neighbour")
                == np.array_equal(vector, neighbour))


def _sweep_digest(table):
    """sha256 over a sweep's values, CW bounds and iteration counts, dtype
    included."""
    digest = hashlib.sha256()
    certs = table.certificates
    for column in (table.values, np.array([c.cw_lower for c in certs]),
                   np.array([c.cw_upper for c in certs]),
                   np.array([c.iterations for c in certs], dtype=np.int64)):
        digest.update(column.dtype.str.encode())
        digest.update(column.tobytes())
    return digest.hexdigest()


def test_regime2_sweep_golden_pin():
    """Pins a continuous (J = 3, N = 256) and a discrete (ell = 256, J = 3)
    regime-II sweep: one unknown per slice, so every inverse step runs the
    vector levels of the cyclic reduction.  Pinned before those levels
    replaced the (m, 1, 1) block levels, whose arithmetic they repeat bit
    for bit.  A change of kernel, shift rule or start rule that moves a bit
    must re-pin on purpose and say why."""
    rng = np.random.default_rng(4242)
    cont = random_continuous_model(rng, J=3, regime="II")
    disc = random_discrete_model(rng, ell=256, J=3, regime="II")
    tables = [sweep(cont, -2.0, 2.0, 21, N=256, tol=1e-9),
              sweep(disc, -2.0, 2.0, 21, tol=1e-9)]
    assert not any(table.failures for table in tables)
    assert [_sweep_digest(table) for table in tables] == [
        "05832721c1a3dd6d7379f60ed35ddc6b7459d6ec9dd69d28a5abeb394c26a540",
        "53d968ffb5cedc6b778a90e7418a3fc11e1ac49b856eff14e84e21d5d5ebafdf"]


def test_regime1_sweep_golden_pin(monkeypatch):
    """Pins a regime-I sweep of the shape of the benchmark's `sweep_1d`
    (J = 2, N = 256: 512 unknowns, 30 samples a side of p = 0, so it
    forks): on one core in one process, and on two with its p >= 0 chain
    in a child.  Pinned before the two-way walk gave way to two chains."""
    model = random_continuous_model(np.random.default_rng(4242), J=2)
    forked = record_forks(monkeypatch)
    for cores, forks in ((1, 0), (2, 1)):
        monkeypatch.setattr(workers, "_cores", lambda n=cores: n)
        table = sweep(model, -3.0, 3.0, 61, N=256, tol=1e-9)
        assert len(forked) == forks and not table.failures
        assert _sweep_digest(table) == (
            "907582d9ece3799ab6c8035efcd7dba0efd37cc69e619c9fbeb4130aebc286dd")


def test_sweep_records_build_failure_for_every_sample():
    # regime II needs a stationary measure at every grid point, and the
    # flashing rates vanish at y = 1/8
    table = sweep(replace(two_state_flashing(), regime="II"), -1.0, 1.0, 5,
                  N=32)
    assert table.provenance["regime"] == "II"      # the model's own
    assert sorted(table.failures) == list(range(5))
    assert all(msg.startswith("ReducibleChainError")
               for msg in table.failures.values())
    assert np.all(np.isnan(table.values))


def test_velocity_constant_drift():
    v, err = velocity_of_model(constant_drift(1.0), N=256)
    assert v == pytest.approx(1.0, abs=1e-4)


def test_velocity_discrete_closed_form():
    # derivative of 2(e^p - 1) + (e^{-p} - 1) at 0 is r+ - r- = 1
    v, err = velocity_of_model(discrete_asymmetric(2.0, 1.0), tol=1e-12)
    assert v == pytest.approx(1.0, abs=1e-8)


def _oracle_models():
    models = [pytest.param(make(), 128, id=name)
              for name, make in sorted(PRESETS.items())]
    for J in (2, 3):
        models.append(pytest.param(random_continuous_model(
            np.random.default_rng(100 + J), J=J), 128, id=f"continuous-J{J}"))
        for ell in (2, 5):
            for regime in ("I", "II"):
                models.append(pytest.param(random_discrete_model(
                    np.random.default_rng(200 + 10 * J + ell), ell=ell, J=J,
                    regime=regime), 128, id=f"discrete-J{J}-ell{ell}-{regime}"))
    models.append(pytest.param(two_dim_model(), 16, id="continuous-d2"))
    return models


@pytest.mark.parametrize("model,N", _oracle_models())
def test_velocity_matches_dense_stationary_oracle(model, N):
    """DH(0) is the stationary law of M(0), from a dense solve, dotted with
    M_a'(0) 1 = h (up_a - down_a) along every axis a; ell = 2 couples up and
    down to the same slice."""
    v, err = velocity_of_model(model, N=N, tol=1e-10)
    gen = cell_operator(model, N=N)
    dim = gen.up.shape[1]
    assert np.shape(v) == np.shape(err) == ((dim,) if dim > 1 else ())
    M = dense_matrix(gen.at(np.zeros(dim)))
    mu, ok = chains.stationary_measures(M[None])
    assert ok[0]
    for a, (va, ea) in enumerate(zip(np.atleast_1d(v), np.atleast_1d(err))):
        reference = float(mu[0] @ (gen.h * (gen.up - gen.down)[:, a].ravel()))
        assert abs(va - reference) <= ea <= 1e-10


def test_velocity_left_solve_starts_from_gibbs_weights(monkeypatch):
    """A regime-I continuous model's left solve starts from its Gibbs
    weights e^{-2 psi_i} on the cell grid, and on seeded J = 2 models (the
    benchmark's sweep family) in fewer inverse steps than from all-ones:
    5-6 against 6-13.  Discrete models start from all-ones."""
    real, solves = hamiltonian.principal_eigenpair, []

    def record(op, **kwargs):
        solves.append((op, kwargs.get("start"), real(op, **kwargs)))
        return solves[-1][2]

    monkeypatch.setattr(hamiltonian, "principal_eigenpair", record)
    model = two_state_flashing()
    velocity_of_model(model, N=256, tol=1e-9)
    velocity_of_model(discrete_two_state(), tol=1e-9)
    (_, start, _), (_, discrete_start, _) = solves
    assert discrete_start is None
    pts = (np.arange(256) / 256)[:, None]
    gibbs = np.exp(-2.0 * np.concatenate([psi.periodic_values(pts)
                                          for psi in model.potentials]))
    np.testing.assert_allclose(start, gibbs / np.max(gibbs), rtol=1e-14)
    for seed in range(4):
        solves.clear()
        velocity_of_model(random_continuous_model(np.random.default_rng(seed)),
                          N=256, tol=1e-9)
        [(op, _, warm)] = solves
        cold = real(op, tol=1e-9)
        assert warm.iterations < cold.iterations, seed
        assert (max(warm.cw_lower, cold.cw_lower)
                <= min(warm.cw_upper, cold.cw_upper))


def test_velocity_detailed_balance_vanishes():
    """No transport without broken detailed balance, at round-off level."""
    for model in (detailed_balance_pair(),
                  detailed_balance_model(np.random.default_rng(31), J=2),
                  detailed_balance_model(np.random.default_rng(32), J=3)):
        v, err = velocity_of_model(model, N=96)
        assert abs(v) <= 1e-12


def test_velocity_broken_balance_transports():
    v, err = velocity_of_model(
        balance_violating_model(np.random.default_rng(33)))
    assert abs(v) > 0.1


def test_legendre_self_dual_quadratic():
    table = quadratic_table()
    v_grid = np.linspace(-2.0, 2.0, 41)
    lag = legendre(table, v_grid)
    np.testing.assert_allclose(lag.values, v_grid ** 2 / 2, atol=1e-6)
    np.testing.assert_allclose(lag.pstar, v_grid, atol=1e-6)
    assert not lag.boundary.any()


def test_legendre_flags_edge_argmax():
    table = quadratic_table(p_min=-1.0, p_max=1.0, count=21)
    lag = legendre(table, [5.0])    # argmax escapes the p-grid
    assert lag.boundary[0]


@pytest.mark.parametrize("v_grid", [[1.0, 0.5, 0.0], [0.0, 0.0]])
def test_lagrangian_grid_must_increase(v_grid):
    """As `HamiltonianTable` does for p, `LagrangianTable` (and so
    `legendre`) rejects a v grid that does not strictly increase."""
    with pytest.raises(ValueError, match="v grid must be strictly increasing"):
        legendre(quadratic_table(), v_grid)


def test_path_rate_needs_two_velocities():
    lag = legendre(quadratic_table(), [0.5])
    with pytest.raises(ValueError, match="two velocities"):
        path_rate([0.0, 1.0], [0.0, 0.5], lag)


def test_legendre_minimum_at_velocity():
    table = sweep(constant_drift(1.0), -3.0, 3.0, 61, N=256)
    lag = legendre(table, np.linspace(0.0, 2.0, 41))
    closed = 0.5 * (1.0 - lag.v_grid) ** 2
    np.testing.assert_allclose(lag.values, closed, atol=2e-3)
    # L(DH(0)) = 0 by convex duality, with the argmin at most one cell away
    assert lag.values[np.argmin(np.abs(lag.v_grid - 1.0))] <= 1e-5
    cell = lag.v_grid[1] - lag.v_grid[0]
    assert abs(lag.v_grid[np.argmin(lag.values)] - 1.0) <= cell + 1e-12
    assert lag.values.min() >= -1e-9


def test_axis_sweep_dim2():
    from effham.fields import PeriodicScalarField
    from effham.model import ContinuousModel, SwitchingRateMatrix, validate
    psi = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, 0.0),))
    m = ContinuousModel(dim=2, J=1, potentials=(psi,),
                        rates=SwitchingRateMatrix(J=1, entries=((None,),)))
    # psi varies only along axis 0, so the axis-1 line is free motion
    table = sweep(m, -1.0, 1.0, 5, N=16, axis=1)
    assert not table.failures
    h = 1.0 / 16
    cosh_form = (np.cosh(table.p_grid * h) - 1.0) / h ** 2
    np.testing.assert_allclose(table.values, cosh_form, atol=1e-9)
    with pytest.raises(ValueError, match="axis"):
        sweep(m, -1.0, 1.0, 5, N=16, axis=2)


def test_young_inequality():
    table = sweep(constant_drift(1.0), -3.0, 3.0, 61, N=256)
    v_grid = np.linspace(0.0, 2.0, 21)
    lag = legendre(table, v_grid)
    for pk, Hk in zip(table.p_grid, table.values):
        assert np.all(pk * v_grid <= lag.values + Hk + 1e-6)


def test_path_rate_minimizer_is_zero():
    table = sweep(constant_drift(1.0), -3.0, 3.0, 61, N=256)
    lag = legendre(table, np.linspace(0.0, 2.0, 81))
    rate = path_rate([0.0, 1.0], [0.0, 1.0], lag)
    assert abs(rate) <= 1e-5


def test_path_rate_standing_still_costs_half():
    # L(0) = F^2/2 = 1/2 for the constant-drift model
    table = sweep(constant_drift(1.0), -3.0, 3.0, 61, N=256)
    lag = legendre(table, np.linspace(-1.0, 2.0, 121))
    rate = path_rate([0.0, 1.0], [0.0, 0.0], lag)
    assert rate == pytest.approx(0.5, abs=3e-3)


def test_path_rate_two_segments_average():
    table = quadratic_table()
    lag = legendre(table, np.linspace(-2.0, 2.0, 101))
    v1, v2 = 0.52, -1.24
    two = path_rate([0.0, 0.5, 1.0], [0.0, 0.5 * v1, 0.5 * v1 + 0.5 * v2], lag)
    one_a = path_rate([0.0, 1.0], [0.0, v1], lag)
    one_b = path_rate([0.0, 1.0], [0.0, v2], lag)
    assert two == pytest.approx(0.5 * (one_a + one_b), abs=1e-12)


def test_path_rate_initial_rate_added():
    table = quadratic_table()
    lag = legendre(table, np.linspace(-2.0, 2.0, 101))
    base = path_rate([0.0, 1.0], [0.0, 1.0], lag)
    assert path_rate([0.0, 1.0], [0.0, 1.0], lag, initial_rate=0.7) == \
        pytest.approx(base + 0.7, abs=1e-14)


def test_path_rate_errors():
    table = quadratic_table(p_min=-1.0, p_max=1.0, count=21)
    lag = legendre(table, np.linspace(-3.0, 3.0, 61))
    with pytest.raises(ValueError, match="outside"):
        path_rate([0.0, 1.0], [0.0, 5.0], lag)
    with pytest.raises(ValueError, match="boundary-flagged"):
        path_rate([0.0, 1.0], [0.0, 2.5], lag)   # argmax at p-grid edge there
    with pytest.raises(ValueError, match="increasing"):
        path_rate([0.0, 0.0], [0.0, 1.0], lag)


def test_convexity_quadratic_table():
    conv, _ = convexity_report(quadratic_table())
    assert conv <= 1e-12


def test_convexity_random_model(rng):
    m = random_continuous_model(rng, J=2)
    table = sweep(m, -2.0, 2.0, 17, N=48)
    conv, _ = convexity_report(table)
    assert conv <= 1e-6


def test_coercivity_constant_drift():
    table = sweep(constant_drift(1.0), -3.0, 3.0, 13, N=128)
    result = coercivity_check(table, constant_drift(1.0))
    assert result.passed


def test_coercivity_discrete_saturates():
    m = discrete_asymmetric(2.0, 1.0)
    table = sweep(m, -2.0, 2.0, 9, tol=1e-12)
    result = coercivity_check(table, m)
    assert result.passed
    # constant rates, no switching: the bound is the Hamiltonian itself
    assert abs(result.min_margin) <= 1e-9


def test_coercivity_random_models(rng):
    for _ in range(3):
        d = random_discrete_model(rng, ell=4, J=2)
        table = sweep(d, -2.0, 2.0, 9)
        assert coercivity_check(table, d).passed
    c = random_continuous_model(rng, J=2)
    table = sweep(c, -2.0, 2.0, 9, N=48)
    assert coercivity_check(table, c).passed


def test_coercivity_discrete_regime2_reads_the_averaged_rates(rng):
    """The discrete regime-II bound uses the averaged hop rates of the cell
    operator: its margin equals, bit for bit, one built from
    `averaged_hop_rates` at every site."""
    m = random_discrete_model(rng, ell=8, J=3, regime="II")
    table = sweep(m, -2.0, 2.0, 9)
    rp, rm = np.array([chains.averaged_hop_rates(m, k)
                       for k in range(m.ell)]).T
    bound = np.array([np.min(rp * (math.exp(pk) - 1.0)
                             + rm * (math.exp(-pk) - 1.0))
                      for pk in table.p_grid])
    result = coercivity_check(table, m)
    assert result.passed
    assert result.min_margin == float(np.min(table.values - bound))


def regime_table(regime) -> HamiltonianTable:
    p = np.array([-1.0, 0.0, 1.0])
    return HamiltonianTable(p, p ** 2, (None,) * 3,
                            provenance={} if regime is None
                            else {"regime": regime})


# the entry points that took a regime of their own, handed one
REGIME_CALLS = {
    "cell_operator": lambda m, r: cell_operator(m, regime=r, N=32),
    "hamiltonian_at": lambda m, r: hamiltonian_at(m, 0.5, regime=r, N=32),
    "sweep": lambda m, r: sweep(m, -1.0, 1.0, 3, regime=r, N=32),
    "velocity_of_model": lambda m, r: velocity_of_model(m, regime=r, N=32),
    "validate": lambda m, r: validate(m, regime=r),
}


@pytest.mark.parametrize("call", sorted([*REGIME_CALLS, "coercivity_check"]))
@pytest.mark.parametrize("regime", ["III", "ii", ""],
                         ids=["III", "ii", "empty"])
def test_unknown_regime_raises(call, regime):
    """A regime outside ("I", "II") is refused by the constructors of both
    model kinds, so no solver sees one, and an empty string does not fall
    back to the model's regime.  The regime is the model's own: no entry
    point takes one (TypeError), and `coercivity_check` reads none from the
    table's provenance."""
    for model in (two_state_flashing(), discrete_two_state()):
        with pytest.raises(ValueError, match="regime must be one of"):
            replace(model, regime=regime)
    d = discrete_two_state()
    if call == "coercivity_check":
        assert (coercivity_check(regime_table(regime), d)
                == coercivity_check(regime_table(None), d)
                != coercivity_check(regime_table(None),
                                    replace(d, regime="II")))
    else:
        with pytest.raises(TypeError, match="regime"):
            REGIME_CALLS[call](d, regime)


def test_table_csv_format(tmp_path):
    table = sweep(discrete_asymmetric(), -1.0, 1.0, 5)
    path = tmp_path / "h.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,H,residual,cw_gap"
    assert len(lines) == 6


@pytest.mark.parametrize("change,match", [
    ({"certificates": ()}, "one entry per sample"),
    ({"certificates": (None,) * 4}, "one entry per sample"),
    ({"starts": ("cold",)}, "one entry per sample"),
    ({"failures": {3: "ValueError: x"}}, "keyed by sample index"),
    ({"failures": {-1: "ValueError: x"}}, "keyed by sample index"),
], ids=["no-certificates", "extra-certificate", "short-starts",
        "failure-past-the-end", "failure-before-the-start"])
def test_table_rejects_columns_off_its_grid(change, match):
    """A table holds one certificate per sample, no start labels or one per
    sample, and failures only at its samples: a mismatch is rejected when
    built, not by an IndexError when written."""
    columns = {"certificates": (None,) * 3, "starts": (), "failures": {}}
    assert HamiltonianTable([-1.0, 0.0, 1.0], np.zeros(3), **columns).starts == ()
    with pytest.raises(ValueError, match=match):
        HamiltonianTable([-1.0, 0.0, 1.0], np.zeros(3), **{**columns, **change})


def test_lagrangian_csv_format(tmp_path):
    lag = legendre(quadratic_table(), [0.0, 1.0])
    path = tmp_path / "l.csv"
    lag.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "v,L,pstar,boundary_flag"
    assert lines[1].endswith(",0")


def test_continuous_time_scale_separation():
    """Criterion 5 for a continuous model: as its switching is scaled by a
    growing gamma, the regime-I Hamiltonian approaches the regime-II one."""
    model = random_continuous_model(np.random.default_rng(3), J=2)
    for p in (-1.0, 0.5, 1.0):
        hbar, _ = hamiltonian_at(replace(model, regime="II"), p, N=128)
        diffs = [abs(hamiltonian_at(scaled_switching(model, g), p,
                                    N=128)[0] - hbar)
                 for g in (10.0, 100.0, 1000.0)]
        assert diffs[0] > diffs[1] > diffs[2], (p, diffs)
        assert diffs[2] <= 2e-3, (p, diffs)


# ---------------------------------------------------------------------------
# a sweep's two sides in two processes
# ---------------------------------------------------------------------------

def force_fork(monkeypatch):
    """Fork every sweep that has a sample on each side of p = 0."""
    monkeypatch.setattr(hamiltonian, "_FORK_WORK", 1)
    monkeypatch.setattr(workers, "_cores", lambda: 2)


def _table_digest(table):
    """sha256 over everything a sweep returns per sample: values,
    eigenvectors, CW bounds, residuals, iteration and fallback counts,
    start labels and failure texts in their order."""
    digest = hashlib.sha256(table.p_grid.tobytes() + table.values.tobytes())
    for cert in table.certificates:
        if cert is None:
            digest.update(b"none")
            continue
        digest.update(cert.eigenvector.tobytes())
        digest.update(np.array([cert.eigenvalue, cert.residual, cert.cw_lower,
                                cert.cw_upper]).tobytes())
        digest.update(f"{cert.iterations},{cert.fallbacks}".encode())
    digest.update(repr((table.starts, list(table.failures.items()))).encode())
    return digest.hexdigest()


FORKED_SWEEPS = {
    "regime-I-J2": (lambda: random_continuous_model(
        np.random.default_rng(21), J=2), (-2.0, 2.0, 17), {"N": 64}),
    "regime-II-J3": (lambda: random_continuous_model(
        np.random.default_rng(22), J=3, regime="II"), (-2.0, 2.0, 11),
        {"N": 64}),
    "discrete": (lambda: random_discrete_model(
        np.random.default_rng(23), ell=8, J=2), (-1.5, 1.5, 9), {}),
    # 0 is not on this grid: the sweep adds it, 3 samples below, 9 above
    "asymmetric-grid": (two_state_flashing, (-0.7, 2.3, 12), {"N": 64}),
}


@pytest.mark.parametrize("case", FORKED_SWEEPS)
def test_forked_sweep_equals_one_process(monkeypatch, case):
    """With the threshold forced low, a sweep forks one child for p >= 0,
    and its table equals the one-process table byte for byte; the child's
    certificates come back read-only, as this process's are."""
    make, (p_min, p_max, count), kw = FORKED_SWEEPS[case]
    model, forked = make(), record_forks(monkeypatch)
    monkeypatch.setattr(workers, "_cores", lambda: 1)
    alone = sweep(model, p_min, p_max, count, **kw)
    assert not forked and not alone.failures
    force_fork(monkeypatch)
    table = sweep(model, p_min, p_max, count, **kw)
    assert len(forked) == 1
    assert _table_digest(table) == _table_digest(alone)
    assert not any(cert.eigenvector.flags.writeable
                   for cert in table.certificates)


@pytest.mark.parametrize("failing", [(0.5,), (0.0,), (-1.0, 1.5), (-0.5, -1.0)])
def test_forked_sweep_reports_failures_as_one_process(monkeypatch, failing):
    """A sample that fails, on the child's side, at p = 0 (on both sides),
    on both sides or twice on this process's side, reads the same failure
    text in the same place and order with and without the fork, and so does
    every start after it."""
    real_at = TiltedGenerator.at

    def at(gen, p):
        if float(p) in failing:
            raise ConvergenceError(f"injected at p = {float(p)}", None)
        return real_at(gen, p)

    monkeypatch.setattr(TiltedGenerator, "at", at)
    tables = []
    for fork in (False, True):
        if fork:
            force_fork(monkeypatch)
        tables.append(sweep(discrete_two_state(), -1.5, 1.5, 7))
    assert _table_digest(tables[0]) == _table_digest(tables[1])
    grid = tables[0].p_grid
    # the order of the failures: p = 0, then p > 0 outward, then p < 0
    order = [3, 4, 5, 6, 2, 1, 0]
    assert list(tables[1].failures.items()) == [
        (k, f"ConvergenceError: injected at p = {grid[k]}")
        for k in order if grid[k] in failing]


def test_a_sweep_forks_only_when_its_shorter_side_is_worth_it(monkeypatch):
    """At `_FORK_WORK` = 8192, a J = 2, N = 256 sweep (512 unknowns) forks
    with 16 samples on each side and not with 15, nor with its origin at
    an end; neither do sweeps the size of `check_regime2`'s (J = 3 regime
    II, 10 samples a side of 256 unknowns) or of the benchmark's warm-up
    (1 x 128), nor any sweep on one core."""
    assert hamiltonian._FORK_WORK == 8192
    forked = record_forks(monkeypatch)
    monkeypatch.setattr(workers, "_cores", lambda: 2)
    sweep(two_state_flashing(), -1.6, 1.6, 33, N=256, tol=1e-9)
    assert len(forked) == 1

    def refuse():
        raise AssertionError("the sweep forked")

    monkeypatch.setattr(os, "fork", refuse)
    rng = np.random.default_rng(4242)
    for model, args, kw in (
            (two_state_flashing(), (-1.5, 1.5, 31), {"N": 256}),
            (two_state_flashing(), (0.0, 3.0, 61), {"N": 256}),
            (two_state_flashing(), (-3.0, 0.0, 61), {"N": 256}),
            (random_continuous_model(rng, J=3, regime="II"), (-2.0, 2.0, 21),
             {"N": 256}),
            (random_discrete_model(rng, ell=256, J=3, regime="II"),
             (-2.0, 2.0, 21), {}),
            (two_state_flashing(), (-1.0, 1.0, 3), {"N": 64})):
        assert not sweep(model, *args, tol=1e-9, **kw).failures
    monkeypatch.setattr(workers, "_cores", lambda: 1)
    assert not sweep(two_state_flashing(), -3.0, 3.0, 61, N=256,
                     tol=1e-9).failures


class Interrupt(BaseException):
    """What a signal handler raises, as a command's time limit does."""


def test_an_interrupted_sweep_kills_and_reaps_its_child(monkeypatch):
    """A BaseException that a signal handler raises during this process's
    side of a forked sweep leaves only after the child is killed and
    reaped, with no pipe left open."""
    fds, forked = open_fds(), record_forks(monkeypatch)
    parent, walk = os.getpid(), hamiltonian._solve_chain

    def slow(*args, **kw):
        time.sleep(10 if os.getpid() == parent else 60)
        return walk(*args, **kw)

    def on_alarm(signum, frame):
        raise Interrupt

    monkeypatch.setattr(hamiltonian, "_solve_chain", slow)
    force_fork(monkeypatch)
    previous = signal.signal(signal.SIGALRM, on_alarm)
    start = time.monotonic()
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(Interrupt):
            sweep(discrete_two_state(), -1.0, 1.0, 5)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - start < 5
    assert len(forked) == 1
    with pytest.raises(ProcessLookupError):     # killed and reaped
        os.kill(forked[0], 0)
    assert open_fds() == fds


def test_certificates_and_tables_unpickle_read_only():
    """Pickling rebuilds a certificate, a Hamiltonian table and a Lagrangian
    table through their constructors: the copies' arrays are read-only and
    equal, and a certificate that the constructor would reject (an
    eigenvector entry that is zero, NaN or infinite) neither builds nor
    unpickles."""
    table = sweep(detailed_balance_pair(), -1.0, 1.0, 5, N=32)
    lag = legendre(table, [-0.2, 0.0, 0.2])
    for obj, names in ((table.certificates[1], ["eigenvector"]),
                       (table, ["p_grid", "values"]),
                       (lag, ["v_grid", "values", "pstar", "boundary"])):
        copy = pickle.loads(pickle.dumps(obj))
        for name in names:
            assert not getattr(copy, name).flags.writeable, name
            np.testing.assert_array_equal(getattr(copy, name),
                                          getattr(obj, name))
    assert _table_digest(pickle.loads(pickle.dumps(table))) == \
        _table_digest(table)
    for entry in (0.0, np.nan, np.inf):
        bad = pickle.loads(pickle.dumps(table.certificates[1]))
        object.__setattr__(bad, "eigenvector", np.array([1.0, entry, 1.0]))
        with pytest.raises(ValueError, match="strictly positive and finite"):
            pickle.loads(pickle.dumps(bad))
        with pytest.raises(ValueError, match="strictly positive and finite"):
            EigenCertificate(0.0, bad.eigenvector, 0.0, -1e-9, 1e-9, 1)
