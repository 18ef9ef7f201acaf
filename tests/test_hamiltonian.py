"""Hamiltonian tables, velocity, Legendre transform, path rates, diagnostics."""

import math

import numpy as np
import pytest

from effham import hamiltonian
from effham.eigensolver import (ConvergenceError, EigenCertificate,
                                cell_operator, principal_eigenpair)
from effham.hamiltonian import (HamiltonianTable, coercivity_check,
                                convexity_report, hamiltonian_at, legendre,
                                path_rate, sweep, symmetry_check, velocity,
                                velocity_of_model)
from effham.fields import PeriodicScalarField
from effham.model import ContinuousModel, SwitchingRateMatrix
from effham.presets import (PRESETS, constant_drift, detailed_balance_pair,
                            discrete_asymmetric, discrete_two_state,
                            two_state_flashing)

from conftest import random_continuous_model, random_discrete_model


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
        return (random_discrete_model(rng, ell=6, J=2, regime=regime),
                {"gamma": 2.5}, 0)
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
    every sample must equal the same chain solved on fresh builds."""
    model, kw, axis = _family(kind, regime)
    table = sweep(model, -1.5, 1.5, 7, axis=axis, **kw)
    assert not table.failures
    grid = table.p_grid
    origin = int(np.flatnonzero(grid == 0.0)[0])
    chain = {}
    for k in ([origin] + list(range(origin + 1, len(grid)))
              + list(range(origin - 1, -1, -1))):
        inner = k - 1 if k > origin else k + 1
        start = None if k == origin else chain[inner].eigenvector
        op = cell_operator(model, model.regime, **kw)
        chain[k] = principal_eigenpair(op.at(_momentum(model, axis, grid[k])),
                                       start=start)
    for k, cert in chain.items():
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
    real = hamiltonian.principal_eigenpair
    starts = {}

    def fail_at_half(op, **kw):
        p = op.metadata["p"][0]
        starts[p] = kw.get("start")
        if p == 0.5:
            raise ConvergenceError("injected", None)
        return real(op, **kw)

    monkeypatch.setattr(hamiltonian, "principal_eigenpair", fail_at_half)
    table = sweep(discrete_two_state(), -1.5, 1.5, 7)
    assert list(table.failures) == [4]
    assert starts[0.0] is None and starts[1.0] is None
    assert all(starts[p] is not None for p in (-1.5, -1.0, -0.5, 1.5))
    assert np.isnan(table.values[4]) and np.all(np.isfinite(np.delete(table.values, 4)))


def test_warm_sweep_needs_few_iterations():
    # stiff N = 256 operators: starting from the neighbour's eigenvector, a
    # handful of inverse steps reach the tolerance, with no power steps
    table = sweep(two_state_flashing(), -3.0, 3.0, 61, N=256, tol=1e-9)
    assert not table.failures
    assert max(c.iterations for c in table.certificates) <= 12
    assert all(c.fallbacks == 0 for c in table.certificates)


def test_sweep_records_build_failure_for_every_sample():
    # regime II needs a stationary measure at every grid point, and the
    # flashing rates vanish at y = 1/8
    table = sweep(two_state_flashing(), -1.0, 1.0, 5, regime="II", N=32)
    assert sorted(table.failures) == list(range(5))
    assert all(msg.startswith("ReducibleChainError")
               for msg in table.failures.values())
    assert np.all(np.isnan(table.values))


def test_velocity_constant_drift():
    table = sweep(constant_drift(1.0), -3.0, 3.0, 61, N=256)
    v, err = velocity(table)
    assert v == pytest.approx(1.0, abs=1e-4)
    v5, err5 = velocity_of_model(constant_drift(1.0), N=256)
    assert v5 == pytest.approx(1.0, abs=1e-4)


def test_velocity_discrete_closed_form():
    # derivative of 2(e^p - 1) + (e^{-p} - 1) at 0 is r+ - r- = 1
    v, err = velocity_of_model(discrete_asymmetric(2.0, 1.0), tol=1e-12)
    assert v == pytest.approx(1.0, abs=1e-8)


def test_velocity_detailed_balance_vanishes():
    v, err = velocity_of_model(detailed_balance_pair(), N=96)
    assert abs(v) <= 1e-6


def test_velocity_needs_symmetric_neighbors():
    table = quadratic_table(count=80)   # even count: no sample at exactly 0
    with pytest.raises((ValueError, KeyError)):
        velocity(table)


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
    from effham.model import ContinuousModel, SwitchingRateMatrix
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


def test_table_csv_format(tmp_path):
    table = sweep(discrete_asymmetric(), -1.0, 1.0, 5)
    path = tmp_path / "h.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "p,H,residual,cw_gap"
    assert len(lines) == 6


def test_lagrangian_csv_format(tmp_path):
    lag = legendre(quadratic_table(), [0.0, 1.0])
    path = tmp_path / "l.csv"
    lag.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "v,L,pstar,boundary_flag"
    assert lines[1].endswith(",0")
