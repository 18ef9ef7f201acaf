"""Acceptance suite: one test per criterion, one PASS line printed per test.

Shared solver artifacts (tables, certificates) are computed once in the
module-scoped context and reused by the certificate/convexity criteria.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

import effham as eh

from conftest import (balance_violating_model, detailed_balance_model,
                      random_continuous_model, random_discrete_model)

SEED = 123456789


class Context:
    """Artifacts from criteria 1-5, shared with criteria 6-7."""

    def __init__(self):
        self.tables = []          # (label, table, model) for convexity/coercivity
        self.certificates = []    # (label, certificate)

    def add_table(self, label, table, model):
        self.tables.append((label, table, model))
        for k, cert in enumerate(table.certificates):
            if cert is not None:
                self.certificates.append((f"{label}[p={table.p_grid[k]:g}]", cert))

    def add_cert(self, label, cert):
        self.certificates.append((label, cert))


@pytest.fixture(scope="module")
def ctx():
    return Context()


def test_criterion_1_constant_drift_regression(ctx):
    t0 = time.perf_counter()
    model = eh.get_preset("constant_drift")
    table = eh.sweep(model, -3.0, 3.0, 61, N=256, tol=1e-10)
    assert not table.failures
    ctx.add_table("c1:constant_drift", table, model)

    closed = 0.5 * (table.p_grid + 1.0) ** 2 - 0.5
    h_err = float(np.max(np.abs(table.values - closed)))
    assert h_err <= 1e-3

    v, v_est = eh.velocity_of_model(model, N=256, tol=1e-10)
    assert abs(v - 1.0) <= 1e-4

    v_grid = np.linspace(0.0, 2.0, 81)           # |v - 1| <= 1
    lag = eh.legendre(table, v_grid)
    lag_err = float(np.max(np.abs(lag.values - 0.5 * (1.0 - v_grid) ** 2)))
    assert lag_err <= 2e-3

    elapsed = time.perf_counter() - t0
    assert elapsed <= 60.0
    print(f"\nPASS criterion 1: constant drift |dH|<={h_err:.2e}, "
          f"|v-1|={abs(v-1):.2e}, |dL|<={lag_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_h0_suite(ctx):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst_c, worst_d = 0.0, 0.0
    for k in range(10):
        m = random_continuous_model(rng, J=k % 3 + 1)
        value, cert = eh.hamiltonian_at(m, 0.0, N=128, tol=1e-10)
        ctx.add_cert(f"c2:cont{k}", cert)
        worst_c = max(worst_c, abs(value))
    for k in range(10):
        m = random_discrete_model(rng, ell=int(rng.integers(2, 9)), J=k % 3 + 1)
        value, cert = eh.hamiltonian_at(m, 0.0, tol=1e-10)
        ctx.add_cert(f"c2:disc{k}", cert)
        worst_d = max(worst_d, abs(value))
    assert worst_c <= 1e-6
    assert worst_d <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120.0
    print(f"\nPASS criterion 2: |H(0)| <= {worst_c:.2e} (continuous), "
          f"{worst_d:.2e} (discrete), {elapsed:.1f}s")


def test_criterion_3_detailed_balance_symmetry(ctx):
    rng = np.random.default_rng(SEED + 1)
    worst_sym = 0.0
    for k in range(5):
        m = detailed_balance_model(rng, J=2)
        holds, _ = eh.detailed_balance_report(m)
        assert holds
        table = eh.sweep(m, -2.0, 2.0, 9, N=128, tol=1e-10)
        assert not table.failures
        ctx.add_table(f"c3:db{k}", table, m)
        worst_sym = max(worst_sym, eh.symmetry_check(table))
    assert worst_sym <= 1e-6

    weakest_asym = math.inf
    for k in range(5):
        m = balance_violating_model(rng)
        holds, _ = eh.detailed_balance_report(m)
        assert not holds
        table = eh.sweep(m, -2.0, 2.0, 9, N=128, tol=1e-10)
        assert not table.failures
        ctx.add_table(f"c3:viol{k}", table, m)
        weakest_asym = min(weakest_asym, eh.symmetry_check(table))
    assert weakest_asym > 1e-3
    print(f"\nPASS criterion 3: balanced symmetry <= {worst_sym:.2e}, "
          f"violating asymmetry >= {weakest_asym:.2e}")


def test_criterion_4_constant_rates_regime_II_symmetry(ctx):
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for k in range(3):
        base = random_continuous_model(rng, J=2)
        const = lambda c: eh.PeriodicScalarField(
            dim=1, fourier_coeffs=(((0,), float(c), 0.0),))
        entries = ((None, const(rng.uniform(0.5, 2.0))),
                   (const(rng.uniform(0.5, 2.0)), None))
        m = eh.ContinuousModel(
            dim=1, J=2, potentials=base.potentials,
            rates=eh.SwitchingRateMatrix(J=2, entries=entries), regime="II")
        table = eh.sweep(m, -2.0, 2.0, 9, N=128, tol=1e-10)
        assert not table.failures
        ctx.add_table(f"c4:avg{k}", table, m)
        worst = max(worst, eh.symmetry_check(table))
    assert worst <= 1e-6
    print(f"\nPASS criterion 4: averaged-solver symmetry residual <= {worst:.2e}")


def test_criterion_5_time_scale_separation(ctx):
    model = eh.get_preset("discrete_two_state")
    ps = (-1.0, 0.0, 1.0)
    hbar = {}
    for p in ps:
        value, cert = eh.hamiltonian_at(replace(model, regime="II"), p,
                                        tol=1e-10)
        ctx.add_cert(f"c5:avg[p={p:g}]", cert)
        hbar[p] = value
    diffs = {}
    for gamma in (10.0, 100.0, 1000.0):
        for p in ps:
            value, cert = eh.hamiltonian_at(eh.scaled_switching(model, gamma),
                                            p, tol=1e-10)
            ctx.add_cert(f"c5:g{gamma:g}[p={p:g}]", cert)
            diffs[(gamma, p)] = abs(value - hbar[p])
    for p in ps:
        assert diffs[(100.0, p)] <= diffs[(10.0, p)] + 1e-9
        assert diffs[(1000.0, p)] <= diffs[(100.0, p)] + 1e-9
        assert diffs[(1000.0, p)] <= 1e-2
    summary = ", ".join(f"p={p:g}: {diffs[(1000.0, p)]:.2e}" for p in ps)
    print(f"\nPASS criterion 5: |H_gamma - Hbar| at gamma=1000: {summary}")


def test_criterion_6_eigen_certificates(ctx):
    assert ctx.certificates, "criteria 1-5 must run first"
    for label, cert in ctx.certificates:
        budget = 1e-8 * (1.0 + abs(cert.eigenvalue))
        assert cert.residual <= budget, f"residual breach in {label}"
        assert cert.cw_gap <= budget, f"certificate gap breach in {label}"
        assert cert.cw_lower <= cert.eigenvalue <= cert.cw_upper, label

    rng = np.random.default_rng(SEED + 3)
    worst = 0.0
    for _ in range(100):
        M = rng.uniform(0.1, 2.0, size=(8, 8))
        M[np.diag_indices(8)] = rng.uniform(-3.0, 1.0, size=8)
        cert = eh.principal_eigenpair(M, tol=1e-12)
        w = np.linalg.eigvals(M)
        oracle = float(w[np.argmax(w.real)].real)
        worst = max(worst, abs(cert.eigenvalue - oracle))
    assert worst <= 1e-10
    print(f"\nPASS criterion 6: {len(ctx.certificates)} certificates within "
          f"1e-8*(1+|l|); oracle deviation <= {worst:.2e} over 100 seeds")


def test_criterion_7_convexity_and_coercivity(ctx):
    assert ctx.tables, "criteria 1-5 must run first"
    worst_conv = -math.inf
    for label, table, model in ctx.tables:
        conv, _ = eh.convexity_report(table)
        assert conv <= 1e-6, f"convexity breach in {label}: {conv:.2e}"
        worst_conv = max(worst_conv, conv)
        result = eh.coercivity_check(table, model)
        assert result.passed, f"coercivity breach in {label}"
    print(f"\nPASS criterion 7: {len(ctx.tables)} sweeps convex within 1e-6 "
          f"(worst {worst_conv:.2e}) and coercive")


def test_criterion_8_monte_carlo_concentration():
    t0 = time.perf_counter()
    cont = eh.get_preset("constant_drift")
    report = eh.concentration_experiment(cont, [0.1, 0.05, 0.02], 1.0, 1000,
                                         base_seed=SEED, predicted_v=1.0)
    for row in report.rows:
        assert row.verdict, f"scale {row.scale}: |{row.mean_v:.4f} - 1| > 3 SE"
    assert report.sd_monotone
    disc = eh.get_preset("discrete_asymmetric")
    drep = eh.concentration_experiment(disc, [50, 100, 200], 1.0, 1000,
                                       base_seed=SEED + 1, predicted_v=1.0)
    for row in drep.rows:
        assert row.verdict, f"n={row.scale:g}: |{row.mean_v:.4f} - 1| > 3 SE"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 300.0
    sds = ", ".join(f"{r.sd:.3f}" for r in report.rows)
    print(f"\nPASS criterion 8: continuous verdicts pass (SDs {sds}, shrinking), "
          f"discrete means within 3 SE of 1, {elapsed:.0f}s")


def test_criterion_9_motor_effect():
    t0 = time.perf_counter()
    model = eh.get_preset("two_state_flashing")
    v_eig, v_err = eh.velocity_of_model(model, N=256, tol=1e-10)
    assert abs(v_eig) >= 0.01

    eps = 0.02
    row, = eh.concentration_experiment(model, [eps], 1.0, 1000, SEED + 2,
                                       predicted_v=v_eig, dt_factor=200).rows
    tolerance = max(3.0 * row.se, 0.05)
    assert abs(row.mean_v - v_eig) <= tolerance, \
        f"simulated {row.mean_v:.4f} vs eigen {v_eig:.4f} (tol {tolerance:.4f})"
    elapsed = time.perf_counter() - t0
    print(f"\nPASS criterion 9: motor velocity DH(0)={v_eig:.4f}, simulated "
          f"{row.mean_v:.4f} +- {row.se:.4f} (tol {tolerance:.3f}), "
          f"{elapsed:.0f}s")
