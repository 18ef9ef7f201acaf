"""Operator assembly against hand/naive oracles; eigenpairs against dense solves."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham import eigensolver
from effham.eigensolver import (ConvergenceError, PecletError,
                                assemble_continuous_I, assemble_continuous_II,
                                assemble_discrete_I, assemble_discrete_II,
                                cell_operator, collatz_wielandt_bounds,
                                principal_eigenpair)
from effham.fields import PeriodicScalarField
from effham.hamiltonian import hamiltonian_at
from effham.model import ContinuousModel, DiscreteModel, SwitchingRateMatrix
from effham.presets import constant_drift, detailed_balance_pair, tilted_cosine

from conftest import (dense_matrix, random_continuous_model,
                      random_discrete_model, two_dim_model)


def dense_principal(M):
    """Oracle: full spectrum, take the eigenvalue of maximal real part."""
    w = np.linalg.eigvals(M)
    return float(w[np.argmax(w.real)].real)


# ---------------------------------------------------------------------------
# discrete assembly
# ---------------------------------------------------------------------------

def test_discrete_I_ell2_hand_assembly():
    m = DiscreteModel(ell=2, J=1, hop_rates_plus=np.ones((1, 2)),
                      hop_rates_minus=np.ones((1, 2)),
                      switching=np.zeros((1, 1, 2)))
    for p in (0.0, 0.8, -1.3):
        M = dense_matrix(assemble_discrete_I(m, p))
        c = math.exp(p) + math.exp(-p)
        np.testing.assert_allclose(M, [[-2.0, c], [c, -2.0]], atol=1e-15)


def naive_discrete_action(model, p, gamma=1.0):
    """Independent oracle: build the matrix column by column from the
    operator action on basis vectors."""
    ell, J = model.ell, model.J
    n = ell * J

    def apply(g):
        out = np.zeros(n)
        for i in range(J):
            for k in range(ell):
                gki = g[i * ell + k]
                val = model.hop_rates_plus[i, k] * (
                    math.exp(p) * g[i * ell + (k + 1) % ell] - gki)
                val += model.hop_rates_minus[i, k] * (
                    math.exp(-p) * g[i * ell + (k - 1) % ell] - gki)
                for j in range(J):
                    if j != i:
                        val += gamma * model.switching[i, j, k] * (
                            g[j * ell + k] - gki)
                out[i * ell + k] = val
        return out

    cols = [apply(np.eye(n)[:, s]) for s in range(n)]
    return np.stack(cols, axis=1)


def test_discrete_I_matches_naive_action(rng):
    m = random_discrete_model(rng, ell=3, J=2)
    for p, gamma in ((0.0, 1.0), (0.9, 1.0), (-0.4, 7.5)):
        M = dense_matrix(assemble_discrete_I(m, p, gamma=gamma))
        np.testing.assert_allclose(M, naive_discrete_action(m, p, gamma),
                                   atol=1e-13)


def test_discrete_row_sums_vanish_at_p0(rng):
    for _ in range(5):
        m = random_discrete_model(rng, ell=int(rng.integers(2, 7)),
                                  J=int(rng.integers(1, 4)))
        M = dense_matrix(assemble_discrete_I(m, 0.0))
        assert np.max(np.abs(M @ np.ones(M.shape[0]))) <= 1e-12


def same_operator(a, b) -> bool:
    """Slice blocks and couplings equal bit for bit."""
    return all(np.array_equal(getattr(a, name), getattr(b, name))
               for name in ("blocks", "up", "down"))


def test_discrete_II_equals_I_for_J1(rng):
    """With one state the stationary law is 1, so averaging is exact."""
    m = random_discrete_model(rng, ell=4, J=1)
    for p in (0.0, 1.1):
        assert same_operator(assemble_discrete_II(m, p),
                             assemble_discrete_I(m, p))


def test_discrete_II_constant_rates_closed_form(rng):
    m = random_discrete_model(rng, ell=5, J=2)
    const = DiscreteModel(ell=5, J=2, hop_rates_plus=np.full((2, 5), 2.0),
                          hop_rates_minus=np.full((2, 5), 1.0),
                          switching=m.switching, regime="II")
    p = 0.7
    cert = principal_eigenpair(assemble_discrete_II(const, p))
    expected = 2.0 * (math.exp(p) - 1) + (math.exp(-p) - 1)
    assert cert.eigenvalue == pytest.approx(expected, abs=1e-10)
    np.testing.assert_allclose(cert.eigenvector, np.ones(5), atol=1e-9)


# ---------------------------------------------------------------------------
# continuous assembly
# ---------------------------------------------------------------------------

def free_model():
    return ContinuousModel(dim=1, J=1, potentials=(PeriodicScalarField(dim=1),),
                           rates=SwitchingRateMatrix(J=1, entries=((None,),)))


def test_free_laplacian_p0():
    op = assemble_continuous_I(free_model(), 0.0, 16)
    cert = principal_eigenpair(op)
    assert abs(cert.eigenvalue) <= 1e-10
    np.testing.assert_allclose(cert.eigenvector, np.ones(16), atol=1e-9)


def test_free_motion_cosh_eigenvalue_and_convergence():
    """Constant coefficients: lambda(N) = (cosh(p h) - 1)/h^2 exactly, hence
    second-order convergence to p^2/2."""
    p = 1.3
    errors = {}
    for N in (64, 128, 256):
        cert = principal_eigenpair(assemble_continuous_I(free_model(), p, N))
        h = 1.0 / N
        cosh_form = (math.cosh(p * h) - 1.0) / h ** 2
        assert cert.eigenvalue == pytest.approx(cosh_form, abs=1e-9)
        errors[N] = abs(cert.eigenvalue - 0.5 * p ** 2)
    assert errors[64] / errors[128] == pytest.approx(4.0, rel=0.05)
    assert errors[128] / errors[256] == pytest.approx(4.0, rel=0.05)


def test_constant_drift_closed_form():
    m = constant_drift(1.0)
    for p in (-3.0, -1.0, 0.0, 0.5, 2.0, 3.0):
        cert = principal_eigenpair(assemble_continuous_I(m, p, 256))
        assert cert.eigenvalue == pytest.approx(0.5 * (p + 1) ** 2 - 0.5,
                                                abs=1e-3)


def test_continuous_row_sums_vanish_at_p0(rng):
    m = random_continuous_model(rng, J=2)
    M = dense_matrix(assemble_continuous_I(m, 0.0, 32))
    scale = 1.0 + np.max(np.abs(np.diag(M)))
    assert np.max(np.abs(M @ np.ones(M.shape[0]))) <= 1e-12 * scale


def test_assembled_operators_are_metzler(rng):
    m = random_continuous_model(rng, J=2)
    for p in (-2.0, 0.0, 2.0):
        M = dense_matrix(assemble_continuous_I(m, p, 24))
        off = M - np.diag(np.diag(M))
        assert np.min(off) >= 0.0


@pytest.mark.parametrize("gamma", [0.0, -1.0, math.nan, math.inf])
def test_bad_gamma_raises(gamma, rng):
    for model in (random_continuous_model(rng), random_discrete_model(rng)):
        for regime in ("I", "II"):
            with pytest.raises(ValueError, match="gamma"):
                cell_operator(model, regime, N=16, gamma=gamma)


def test_peclet_error_names_minimal_n():
    m = constant_drift(40.0)
    with pytest.raises(PecletError) as info:
        assemble_continuous_I(m, 0.0, 16)
    assert info.value.minimal_n >= 40
    assemble_continuous_I(m, 0.0, info.value.minimal_n)   # feasible at the hint


def test_negative_switching_rate_raises(rng):
    m = random_discrete_model(rng, ell=4, J=2)
    sw = np.array(m.switching)
    sw[0, 1, 2] = -0.5
    bad = DiscreteModel(ell=4, J=2, hop_rates_plus=m.hop_rates_plus,
                        hop_rates_minus=m.hop_rates_minus, switching=sw)
    with pytest.raises(ValueError, match=r"negative switching rate .*r\[1\]\[2\]"):
        assemble_discrete_I(bad, 0.3)


def test_nonpositive_hop_rate_raises(rng):
    m = random_discrete_model(rng, ell=4, J=2)
    rp = np.array(m.hop_rates_plus)
    rp[1, 0] = 0.0
    bad = DiscreteModel(ell=4, J=2, hop_rates_plus=rp,
                        hop_rates_minus=m.hop_rates_minus, switching=m.switching)
    with pytest.raises(ValueError, match="hop weights"):
        assemble_discrete_I(bad, 0.3)


def test_one_way_coupling_is_reducible():
    one = PeriodicScalarField(dim=1, fourier_coeffs=(((0,), 1.0, 0.0),))
    psi = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.2, 0.0),))
    m = ContinuousModel(dim=1, J=2, potentials=(psi, psi),
                        rates=SwitchingRateMatrix(J=2, entries=((None, one),
                                                                (None, None))))
    with pytest.raises(ValueError, match="reducible"):
        assemble_continuous_I(m, 0.5, 16)


def test_continuous_II_equals_I_for_J1(rng):
    m = random_continuous_model(rng, J=1)
    for p in (0.0, 0.9):
        assert same_operator(assemble_continuous_II(m, p, 20),
                             assemble_continuous_I(m, p, 20))


def test_continuous_II_equals_I_for_J1_in_two_dimensions():
    psi = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, -0.1),
                                                     ((1, 1), 0.1, 0.2)),
                              affine_slope=(-0.5, 0.2))
    m = ContinuousModel(dim=2, J=1, potentials=(psi,),
                        rates=SwitchingRateMatrix(J=1, entries=((None,),)))
    for p in ((0.0, 0.0), (0.9, -0.4)):
        assert same_operator(assemble_continuous_II(m, p, 12),
                             assemble_continuous_I(m, p, 12))


def test_continuous_II_equal_potentials_reduces(rng):
    psi = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.5, -0.1),))
    two = random_continuous_model(rng, J=2)
    m = ContinuousModel(dim=1, J=2, potentials=(psi, psi), rates=two.rates,
                        regime="II")
    single = ContinuousModel(dim=1, J=1, potentials=(psi,),
                             rates=SwitchingRateMatrix(J=1, entries=((None,),)))
    np.testing.assert_allclose(dense_matrix(assemble_continuous_II(m, 0.8, 24)),
                               dense_matrix(assemble_continuous_I(single, 0.8, 24)),
                               atol=1e-13)


def test_continuous_II_constant_slopes_closed_form():
    """Slopes +-1 with rates (1, 2): averaged drift 1/3 everywhere, so the
    Hamiltonian is the constant-drift closed form with F = -1/3."""
    up = PeriodicScalarField(dim=1, affine_slope=(1.0,))
    dn = PeriodicScalarField(dim=1, affine_slope=(-1.0,))
    one = PeriodicScalarField(dim=1, fourier_coeffs=(((0,), 1.0, 0.0),))
    two = PeriodicScalarField(dim=1, fourier_coeffs=(((0,), 2.0, 0.0),))
    m = ContinuousModel(dim=1, J=2, potentials=(up, dn),
                        rates=SwitchingRateMatrix(J=2, entries=((None, one),
                                                                (two, None))),
                        regime="II")
    F = -1.0 / 3.0
    for p in (-1.0, 0.4, 2.0):
        cert = principal_eigenpair(assemble_continuous_II(m, p, 256))
        assert cert.eigenvalue == pytest.approx(0.5 * (p + F) ** 2 - 0.5 * F ** 2,
                                                abs=1e-3)


def test_dim2_free_motion_separates():
    """d = 2 constant coefficients: eigenvalue is the sum of per-axis cosh terms."""
    m = ContinuousModel(dim=2, J=1, potentials=(PeriodicScalarField(dim=2),),
                        rates=SwitchingRateMatrix(J=1, entries=((None,),)))
    p = np.array([0.6, -1.1])
    N = 24
    h = 1.0 / N
    cert = principal_eigenpair(assemble_continuous_I(m, p, N))
    expected = sum((math.cosh(pa * h) - 1.0) / h ** 2 for pa in p)
    assert cert.eigenvalue == pytest.approx(expected, abs=1e-9)
    assert cert.eigenvalue == pytest.approx(0.5 * float(p @ p), abs=2e-4)


def test_dim2_potential_h0_zero():
    psi = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, 0.0),
                                                     ((0, 1), 0.0, 0.2)))
    m = ContinuousModel(dim=2, J=1, potentials=(psi,),
                        rates=SwitchingRateMatrix(J=1, entries=((None,),)))
    cert = principal_eigenpair(assemble_continuous_I(m, np.zeros(2), 16))
    assert abs(cert.eigenvalue) <= 1e-9


def test_dim2_two_states_with_switching():
    psi1 = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, 0.0),))
    psi2 = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 1), 0.0, 0.25),))
    one = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 0), 1.0, 0.0),))
    m = ContinuousModel(dim=2, J=2, potentials=(psi1, psi2),
                        rates=SwitchingRateMatrix(J=2, entries=((None, one),
                                                                (one, None))))
    op = assemble_continuous_I(m, np.array([0.4, -0.2]), 12)
    assert op.shape == (288, 288)
    M = dense_matrix(op)
    off = M - np.diag(np.diag(M))
    assert np.min(off) >= 0.0
    cert0 = principal_eigenpair(assemble_continuous_I(m, np.zeros(2), 12))
    assert abs(cert0.eigenvalue) <= 1e-9


@pytest.mark.parametrize("kind,regime,size", [
    ("continuous", "I", 7), ("continuous", "I", 8), ("continuous", "II", 7),
    ("continuous", "II", 8), ("discrete", "I", 2), ("discrete", "I", 5),
    ("discrete", "II", 2), ("discrete", "II", 5), ("dim2", "I", 6)])
def test_transpose_keeps_the_slice_layout(kind, regime, size, rng):
    """`op.T` is the transpose exactly, also where up and down couple to the
    same slice (two slices) and where hops stay inside a slice (d = 2)."""
    if kind == "dim2":
        op = cell_operator(two_dim_model(), regime, N=size).at([0.4, -0.3])
    elif kind == "continuous":
        op = cell_operator(random_continuous_model(rng, J=2), regime,
                           N=size).at(0.7)
    else:
        op = cell_operator(random_discrete_model(rng, ell=size, J=2),
                           regime).at(0.7)
    assert np.array_equal(dense_matrix(op.T), dense_matrix(op).T)


def test_grid_convergence_order_on_smooth_preset():
    m = tilted_cosine(1.0, 0.4)
    p = 1.0
    lams = {N: principal_eigenpair(assemble_continuous_I(m, p, N)).eigenvalue
            for N in (32, 64, 128, 256)}
    e1 = abs(lams[32] - lams[256])
    e2 = abs(lams[64] - lams[256])
    order = math.log2(e1 / e2)
    assert order >= 1.9


def central_difference_I(model, p, N):
    """Independent oracle discretization: central differences for the drift
    and Laplacian plus the multiplication term on the diagonal."""
    h = model.period / N
    ys = np.arange(N) * h
    J = model.J
    M = np.zeros((N * J, N * J))
    for i in range(J):
        psi = model.potentials[i]
        for k in range(N):
            row = i * N + k
            g = psi.gradient([ys[k]])[0]
            b = p - g
            M[row, i * N + (k + 1) % N] += 0.5 / h ** 2 + b / (2 * h)
            M[row, i * N + (k - 1) % N] += 0.5 / h ** 2 - b / (2 * h)
            M[row, row] += -1.0 / h ** 2 + 0.5 * p * p - p * g
            for j in range(J):
                if j != i:
                    r = model.rates.rate(i, j, [ys[k]])
                    M[row, j * N + k] += r
                    M[row, row] -= r
    return M


def central_difference_II(model, p, N):
    from effham.chains import averaged_drift
    h = model.period / N
    ys = np.arange(N) * h
    M = np.zeros((N, N))
    for k in range(N):
        bb = averaged_drift(model, [ys[k]])[0]
        b = p - bb
        M[k, (k + 1) % N] += 0.5 / h ** 2 + b / (2 * h)
        M[k, (k - 1) % N] += 0.5 / h ** 2 - b / (2 * h)
        M[k, k] += -1.0 / h ** 2 + 0.5 * p * p - p * bb
    return M


def test_continuous_I_agrees_with_central_difference_oracle(rng):
    """Both discretizations are second order for the same operator, so their
    Richardson extrapolations must coincide far below the per-grid error."""
    m = random_continuous_model(rng, J=2)
    for p in (0.7, 1.8):
        exp_fit = {N: principal_eigenpair(assemble_continuous_I(m, p, N)).eigenvalue
                   for N in (128, 256)}
        central = {N: dense_principal(central_difference_I(m, p, N))
                   for N in (128, 256)}
        assert exp_fit[256] == pytest.approx(central[256], abs=1e-3)
        re_exp = (4 * exp_fit[256] - exp_fit[128]) / 3
        re_cen = (4 * central[256] - central[128]) / 3
        assert re_exp == pytest.approx(re_cen, abs=1e-6)


def test_continuous_II_agrees_with_central_difference_oracle(rng):
    base = random_continuous_model(rng, J=2)
    m = ContinuousModel(dim=1, J=2, potentials=base.potentials,
                        rates=base.rates, regime="II")
    p = 0.9
    exp_fit = {N: principal_eigenpair(assemble_continuous_II(m, p, N)).eigenvalue
               for N in (128, 256)}
    central = {N: dense_principal(central_difference_II(m, p, N))
               for N in (128, 256)}
    assert exp_fit[256] == pytest.approx(central[256], abs=1e-3)
    re_exp = (4 * exp_fit[256] - exp_fit[128]) / 3
    re_cen = (4 * central[256] - central[128]) / 3
    assert re_exp == pytest.approx(re_cen, abs=1e-6)


# ---------------------------------------------------------------------------
# principal eigenpair and certificates
# ---------------------------------------------------------------------------

def test_symmetric_permutation_eigenpair():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    cert = principal_eigenpair(M)
    assert cert.eigenvalue == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(cert.eigenvector, [1.0, 1.0], atol=1e-10)


def test_generator_eigenvalue_zero():
    M = np.array([[-1.0, 1.0], [2.0, -2.0]])
    cert = principal_eigenpair(M)
    assert abs(cert.eigenvalue) <= 1e-12
    np.testing.assert_allclose(cert.eigenvector, [1.0, 1.0], atol=1e-10)


def random_metzler(rng, n=8):
    M = rng.uniform(0.1, 2.0, size=(n, n))   # strictly positive: irreducible
    M[np.diag_indices(n)] = rng.uniform(-3.0, 1.0, size=n)
    return M


def test_random_metzler_vs_dense_oracle(rng):
    for _ in range(50):
        M = random_metzler(rng)
        cert = principal_eigenpair(M, tol=1e-12)
        assert cert.eigenvalue == pytest.approx(dense_principal(M), abs=1e-10)
        assert cert.residual <= 1e-10 * (1 + abs(cert.eigenvalue))
        assert cert.cw_lower <= cert.eigenvalue <= cert.cw_upper


def test_eigenpair_invariant_under_permutation(rng):
    M = random_metzler(rng, n=6)
    perm = rng.permutation(6)
    P = np.eye(6)[perm]
    cert1 = principal_eigenpair(M, tol=1e-12)
    cert2 = principal_eigenpair(P @ M @ P.T, tol=1e-12)
    assert cert2.eigenvalue == pytest.approx(cert1.eigenvalue, abs=1e-11)
    np.testing.assert_allclose(cert2.eigenvector, cert1.eigenvector[perm],
                               atol=1e-8)


def test_convergence_error_carries_certificate(rng, monkeypatch):
    M = random_metzler(rng)
    monkeypatch.setattr(eigensolver, "_MAX_ITERATIONS", 2)
    with pytest.raises(ConvergenceError, match="no convergence after 2") as info:
        principal_eigenpair(M, tol=1e-14)
    cert = info.value.certificate
    assert cert.cw_lower <= dense_principal(M) <= cert.cw_upper


def test_stalled_gap_raises_within_200_iterations():
    """Reducible input: the Perron vector (1, 0, 0) of the top-left block
    leaves the lower block's ratios at its own eigenvalue -2, so the CW gap
    can never fall below 1.  The solver must give up, not spin to the
    iteration cap."""
    M = np.array([[-1.0, 2.0, 0.5],
                  [0.0, -3.0, 1.0],
                  [0.0, 1.0, -3.0]])
    with pytest.raises(ConvergenceError, match="CW gap stalled at 1.000e"
                       r"\+00 above threshold") as info:
        principal_eigenpair(M)
    cert = info.value.certificate
    assert cert.iterations <= 200
    assert cert.cw_lower <= -1.0 <= cert.cw_upper


@pytest.mark.parametrize("p", [-1.0, 1.0, 3.0])
def test_fine_grid_detailed_balance_ends_in_bounded_time(p):
    """N = 1024, tol 1e-10: the CW gap's round-off floor sits near the
    threshold, so the solve either converges or raises the stall error,
    within 200 iterations either way."""
    try:
        _, cert = hamiltonian_at(detailed_balance_pair(), p, N=1024, tol=1e-10)
    except ConvergenceError as exc:
        assert "stalled" in str(exc)
        cert = exc.certificate
        converged = False
    else:
        converged = True
    assert cert.iterations <= 200
    assert cert.cw_lower <= cert.eigenvalue <= cert.cw_upper
    op = cell_operator(detailed_balance_pair(), "I", N=1024).at(p)
    alpha = 1.0 + np.max(np.abs(np.diagonal(op.blocks, axis1=1, axis2=2)))
    lam = abs(cert.eigenvalue)
    limit = max(1e-10 * (1.0 + lam), 4.0 * np.finfo(float).eps * (alpha + lam))
    assert (cert.cw_gap <= limit) == converged
    # the same ratios in extended precision bound the eigenvalue too, so the
    # two brackets must meet
    ld = np.longdouble
    x = cert.eigenvector[op.index].astype(ld)
    z = (np.einsum("kij,kj->ki", op.blocks.astype(ld), x)
         + op.up.astype(ld) * np.roll(x, -1, axis=0)
         + op.down.astype(ld) * np.roll(x, 1, axis=0))
    ratios = z / x
    assert ratios.min() <= cert.cw_upper and cert.cw_lower <= ratios.max()


def _structured_operator(kind, regime, size, gamma, rng):
    """Operators whose slice count m = size covers 1, 2, 3, 4, odd and
    powers of two, and unknown counts on both sides of the dense base;
    continuous potentials are gentle enough for N = 3.  No model has one
    slice (ell >= 2, N >= 3), so that one is built by hand."""
    if kind == "one_slice":
        block = rng.uniform(0.2, 2.0, size=(1, 3, 3))
        block[0, range(3), range(3)] = -4.0
        return eigensolver.AssembledOperator(
            block, rng.uniform(0.5, 1.0, size=(1, 3)),
            rng.uniform(0.5, 1.0, size=(1, 3)), 1, 3)
    if kind == "continuous":
        model = random_continuous_model(rng, J=2, amp=0.05)
        return cell_operator(model, regime, N=size).at(0.7)
    if kind in ("discrete", "discrete_J3"):
        model = random_discrete_model(rng, ell=size,
                                      J=3 if kind == "discrete_J3" else 2)
        return cell_operator(model, regime, gamma=gamma).at(0.7)
    psi1 = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, 0.0),))
    psi2 = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 1), 0.0, 0.25),))
    rate = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 0), 1.0, 0.0),
                                                      ((1, 1), 0.3, 0.1)))
    model = ContinuousModel(dim=2, J=2, potentials=(psi1, psi2),
                            rates=SwitchingRateMatrix(J=2, entries=(
                                (None, rate), (rate, None))))
    return cell_operator(model, regime, N=size).at([0.4, -0.2])


STRUCTURED_CASES = (
    [("continuous", r, N, 1.0) for r in ("I", "II")
     for N in (3, 4, 20, 24, 255, 256)]
    # 62, 64, 66 and 130 unknowns (J = 2) and 63, 64, 65 and 129 (averaged):
    # solved at the dense base, one level above it and two levels above it
    + [("continuous", "I", N, 1.0) for N in (31, 32, 33, 65)]
    + [("continuous", "II", N, 1.0) for N in (63, 64, 65, 129)]
    + [("discrete", "I", ell, g) for ell in (2, 3, 6) for g in (1.0, 2.5)]
    + [("discrete", "II", ell, 1.0) for ell in (2, 3, 6)]
    + [("discrete_J3", "I", ell, 1.0) for ell in (21, 22)]
    + [("dim2", "I", 12, 1.0), ("dim2", "II", 12, 1.0),
       ("one_slice", None, 1, 1.0)])


def _dense_coupling_cyclic_solve(D, U, L, f):
    """`_cyclic_solve` as it was when every level multiplied its couplings
    as dense b x b blocks; the reference for the row-scaled first level.
    It ends at the same dense base, scattered block by block."""
    m, b = f.shape
    if m == 1 or m * b <= eigensolver._DENSE_BASE:
        dense = np.zeros((m * b, m * b))
        for k in range(m):
            for j, block in ((k, D[k]), ((k + 1) % m, U[k]),
                             ((k - 1) % m, L[k])):
                dense[k * b:(k + 1) * b, j * b:(j + 1) * b] += block
        return np.linalg.solve(dense, f.reshape(m * b)).reshape(m, b)
    n_odd, lo = m // 2, m % 2
    X = eigensolver._block_solve(D[1::2], np.concatenate(
        [L[1::2], U[1::2], f[1::2, :, None]], axis=2))
    Y = U[::2][:n_odd] @ X
    Z = L[::2][lo:] @ np.concatenate([X[-1:], X])[lo:lo + n_odd]
    D2, U2, L2, f2 = D[::2].copy(), U[::2].copy(), L[::2].copy(), f[::2].copy()
    D2[:n_odd] -= Y[..., :b]
    D2[lo:] -= Z[..., b:2 * b]
    U2[:n_odd] = -Y[..., b:2 * b]
    L2[lo:] = -Z[..., :b]
    f2[:n_odd] -= Y[..., 2 * b]
    f2[lo:] -= Z[..., 2 * b]
    kept = _dense_coupling_cyclic_solve(D2, U2, L2, f2)
    x = np.empty_like(f)
    x[::2] = kept
    neighbours = np.concatenate([kept, np.concatenate([kept[1:], kept[:1]])],
                                axis=1)[:n_odd]
    x[1::2] = X[..., 2 * b] - (X[..., :2 * b] @ neighbours[..., None])[..., 0]
    return x


@pytest.mark.parametrize("kind,regime,size,gamma", STRUCTURED_CASES)
def test_structured_kernels_match_dense(kind, regime, size, gamma, rng):
    op = _structured_operator(kind, regime, size, gamma, rng)
    M = dense_matrix(op)
    m, b = op.up.shape
    assert m == size and m * b == M.shape[0]
    A, B, C, index = op.blocks, op.up, op.down, op.index

    # block product against the dense product
    w = rng.uniform(0.1, 1.0, size=M.shape[0])
    z = eigensolver._apply(A, B, C, w[index])
    scale = np.max(np.abs(M) @ np.abs(w))
    assert np.max(np.abs(z - (M @ w)[index])) <= 1e-14 * scale

    # shifted solve by cyclic reduction: backward error at two distances
    dense = principal_eigenpair(M)
    lam = dense.eigenvalue
    U, L = -B[..., None] * np.eye(b), -C[..., None] * np.eye(b)
    for dist in (1e-6, 1.0):
        sigma = lam + dist * (1.0 + abs(lam))
        shifted = -A
        shifted[:, range(b), range(b)] += sigma
        # the solver passes the first level's couplings as diagonals; the
        # row scalings must give bit for bit the dense-block products
        x = eigensolver._cyclic_solve(shifted, -B, -C, w[index])
        np.testing.assert_array_equal(
            x, _dense_coupling_cyclic_solve(shifted, U, L, w[index]))
        xs = np.empty_like(w)
        xs[index] = x
        T = sigma * np.eye(len(M)) - M
        residual = np.max(np.abs(T @ xs - w))
        assert residual <= 1e-12 * np.max(np.sum(np.abs(T), axis=1)) * np.max(np.abs(xs))

    # eigenpairs from blocks and from the dense matrix agree within both brackets
    blocks = principal_eigenpair(op)
    assert dense.cw_lower <= blocks.eigenvalue <= dense.cw_upper
    assert blocks.cw_lower <= dense.eigenvalue <= blocks.cw_upper


@pytest.mark.parametrize("regime", ["I", "II"])
def test_one_dimensional_inverse_step_ends_at_the_dense_base(regime,
                                                             monkeypatch):
    """An inverse step on a 1-D grid of 256 points runs 3 cyclic-reduction
    levels (blocks of b = 2) or 2 (averaged, b = 1), then one dense LU on
    64 unknowns, not 8 levels down to a single slice."""
    op = cell_operator(detailed_balance_pair(), regime, N=256).at(0.7)
    sigma = collatz_wielandt_bounds(op, np.ones(op.shape[0]))[1] + 1.0
    real_cyclic, real_solve = eigensolver._cyclic_solve, np.linalg.solve
    levels, solves = [], []

    def cyclic(D, U, L, f):
        levels.append(f.shape)
        return real_cyclic(D, U, L, f)

    def solve(a, rhs):
        solves.append(a.shape)
        return real_solve(a, rhs)

    monkeypatch.setattr(eigensolver, "_cyclic_solve", cyclic)
    monkeypatch.setattr(np.linalg, "solve", solve)
    x = eigensolver._shifted_solve(op.blocks, op.up, op.down, sigma,
                                   np.ones(op.up.shape))
    monkeypatch.undo()
    assert np.all(x > 0)
    assert len(levels) - 1 == {"I": 3, "II": 2}[regime], levels
    assert solves == [(64, 64)], solves


def _inverse_steps_with_fault(monkeypatch, fault):
    """Solve a stiff operator while the first inverse step misbehaves."""
    real = eigensolver._cyclic_solve
    calls = []

    def faulty(D, U, L, f):
        calls.append(len(f))
        if len(calls) == 1:
            return fault(f)
        return real(D, U, L, f)

    monkeypatch.setattr(eigensolver, "_cyclic_solve", faulty)
    op = assemble_continuous_I(tilted_cosine(1.0, 0.4), 1.0, 64)
    cert = principal_eigenpair(op, tol=1e-10)
    monkeypatch.undo()
    assert len(calls) >= 2
    reference = dense_principal(dense_matrix(op))
    assert cert.cw_lower <= reference + 1e-12 and reference - 1e-12 <= cert.cw_upper
    assert cert.fallbacks >= 1
    return cert


def test_nonpositive_inverse_step_falls_back(monkeypatch):
    def negative_entry(f):
        # taken as an iterate, this would be 0/0 everywhere but one entry
        x = np.zeros_like(f)
        x[0, 0] = -1.0
        return x
    _inverse_steps_with_fault(monkeypatch, negative_entry)


def test_singular_inverse_step_falls_back(monkeypatch):
    def singular(f):
        raise np.linalg.LinAlgError("Singular matrix")
    _inverse_steps_with_fault(monkeypatch, singular)


def test_failed_inverse_step_is_retried_at_a_wider_shift(monkeypatch):
    """A failed inverse step keeps its iterate: the very next step is another
    inverse step from the same vector at a shift strictly farther above the
    (unchanged) CW upper bound, and no iteration goes without a solve."""
    op = assemble_continuous_I(tilted_cosine(1.0, 0.4), 1.0, 64)
    real_cyclic, real_shifted = eigensolver._cyclic_solve, eigensolver._shifted_solve
    steps, shifts = [], []

    def cyclic(D, U, L, f):
        if f.shape == op.up.shape:   # an inverse step, not a level below one
            steps.append(f.copy())
            if len(steps) == 1:
                raise np.linalg.LinAlgError("Singular matrix")
        return real_cyclic(D, U, L, f)

    def shifted(A, B, C, sigma, f):
        shifts.append(sigma)
        return real_shifted(A, B, C, sigma, f)

    monkeypatch.setattr(eigensolver, "_cyclic_solve", cyclic)
    monkeypatch.setattr(eigensolver, "_shifted_solve", shifted)
    cert = principal_eigenpair(op, tol=1e-10)
    monkeypatch.undo()
    assert cert.fallbacks == 1
    assert cert.iterations == len(steps) + 1 == len(shifts) + 1
    np.testing.assert_array_equal(steps[1], steps[0])
    assert shifts[1] > shifts[0]
    reference = dense_principal(dense_matrix(op))
    assert cert.cw_lower <= reference + 1e-12 and reference - 1e-12 <= cert.cw_upper


@pytest.mark.parametrize("bad", ["short", "zero", "negative", "nan", "inf"])
def test_start_vector_is_validated(bad):
    op = assemble_discrete_I(random_discrete_model(np.random.default_rng(5)), 0.3)
    n = op.shape[0]
    start = np.ones(n - 1) if bad == "short" else np.ones(n)
    if bad != "short":
        start[n // 2] = {"zero": 0.0, "negative": -1.0, "nan": np.nan,
                         "inf": np.inf}[bad]
    with pytest.raises(ValueError, match="start vector"):
        principal_eigenpair(op, start=start)


@pytest.mark.parametrize("size", [32, 256])
def test_converged_start_returns_at_once(size):
    op = assemble_continuous_I(detailed_balance_pair(), 0.7, size)
    cold = principal_eigenpair(op, tol=1e-9)
    warm = principal_eigenpair(op, tol=1e-9, start=cold.eigenvector)
    assert warm.iterations <= 2 < cold.iterations
    assert warm.fallbacks == cold.fallbacks == 0
    assert max(warm.cw_lower, cold.cw_lower) <= min(warm.cw_upper, cold.cw_upper)


def test_cw_bounds_examples():
    M = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert collatz_wielandt_bounds(M, np.array([1.0, 2.0])) == (0.5, 2.0)
    cert = principal_eigenpair(M)
    lo, up = collatz_wielandt_bounds(M, cert.eigenvector)
    assert lo == pytest.approx(1.0, abs=1e-9)
    assert up == pytest.approx(1.0, abs=1e-9)
    G = np.array([[-1.0, 1.0], [2.0, -2.0]])
    assert collatz_wielandt_bounds(G, np.ones(2)) == (0.0, 0.0)
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(M, np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        collatz_wielandt_bounds(M, np.ones(3))
    # a 1 x 1 matrix is its own eigenvalue, with a closed bracket
    one = np.array([[-2.5]])
    assert collatz_wielandt_bounds(one, np.ones(1)) == (-2.5, -2.5)
    cert = principal_eigenpair(one)
    assert cert.eigenvalue == cert.cw_lower == cert.cw_upper == -2.5
    assert cert.residual == 0.0 and cert.eigenvector.tolist() == [1.0]


def test_raw_matrix_keeps_dense_arithmetic(rng):
    # a raw matrix is one slice: its product is A @ x and its inverse step a
    # pivoted dense LU, bit for bit, also for blocks small enough to be
    # eliminated elementwise inside an operator
    for n in (3, 8, 40):
        A = rng.standard_normal((n, n))
        x = rng.uniform(0.1, 1.0, size=n)
        B, C, U, L = (np.zeros((1, n)), np.zeros((1, n)),
                      np.zeros((1, n, n)), np.zeros((1, n, n)))
        assert np.array_equal(eigensolver._apply(A[None], B, C, x[None])[0], A @ x)
        assert np.array_equal(eigensolver._cyclic_solve(A[None], U, L, x[None])[0],
                              np.linalg.solve(A, x))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_cw_sandwich_property(seed):
    gen = np.random.default_rng(seed)
    M = random_metzler(gen, n=7)
    lam = dense_principal(M)
    g = gen.uniform(0.1, 3.0, size=7)
    lo, up = collatz_wielandt_bounds(M, g)
    assert lo <= lam + 1e-10
    assert up >= lam - 1e-10
