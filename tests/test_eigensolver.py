"""Operator assembly against hand/naive oracles; eigenpairs against dense solves."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham import eigensolver, hamiltonian
from effham.eigensolver import (ConvergenceError, PecletError,
                                assemble_continuous_I, assemble_continuous_II,
                                assemble_discrete_I, assemble_discrete_II,
                                cell_operator, collatz_wielandt_bounds,
                                principal_eigenpair)
from effham.fields import PeriodicScalarField
from effham.hamiltonian import hamiltonian_at
from effham.model import (ContinuousModel, DiscreteModel,
                          SwitchingRateMatrix, model_from_dict, model_to_dict,
                          scaled_switching, validate)
from effham.presets import (constant_drift, detailed_balance_pair,
                            discrete_two_state, tilted_cosine,
                            two_state_flashing)

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
        M = dense_matrix(assemble_discrete_I(scaled_switching(m, gamma), p))
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
    """The switching scale is checked once, by the transform, for both
    model kinds: a gamma <= 0 would switch the coupling off."""
    for model in (random_continuous_model(rng), random_discrete_model(rng)):
        with pytest.raises(ValueError, match="gamma"):
            scaled_switching(model, gamma)


@pytest.mark.parametrize("model,gamma", [
    (discrete_two_state(), 1e308), (two_state_flashing(), 1e308),
    (two_state_flashing(), 5e307)], ids=["discrete", "amplitude", "sum"])
def test_scaled_switching_rejects_rates_out_of_range(model, gamma):
    """A finite gamma that takes a rate out of the float range is rejected
    by the model constructors: a discrete rate or a Fourier amplitude that
    overflows, or amplitudes that are finite (two_state_flashing's largest
    is 3) but whose sum of magnitudes, the field's round-off scale, is
    not."""
    with pytest.raises(ValueError, match="finite"):
        scaled_switching(model, gamma)


@pytest.mark.parametrize("kind", ["continuous", "discrete"])
def test_unit_scale_keeps_the_model(kind, rng):
    """At gamma = 1 the transform returns an equal model, whose operator
    blocks equal the input's bit for bit in both regimes."""
    model = (random_continuous_model(rng, J=3) if kind == "continuous"
             else random_discrete_model(rng, ell=5, J=3))
    scaled = scaled_switching(model, 1.0)
    assert model_to_dict(scaled) == model_to_dict(model)
    for regime in ("I", "II"):
        ops = [cell_operator(replace(m, regime=regime), N=16).at(0.6)
               for m in (model, scaled)]
        for name in ("blocks", "up", "down"):
            np.testing.assert_array_equal(getattr(ops[1], name),
                                          getattr(ops[0], name))


@pytest.mark.parametrize("gamma", [1.7, 1000.0])
def test_scaled_rate_fields_scale_their_values(gamma, rng):
    """A continuous model's rates scale through their Fourier amplitudes:
    every sample is gamma times the input's within twice the scaled
    field's round-off."""
    model = random_continuous_model(rng, J=3)
    scaled = scaled_switching(model, gamma)
    pts = np.linspace(0.0, 1.0, 97)[:, None]
    for i, j in itertools.permutations(range(3), 2):
        field = scaled.rates.entries[i][j]
        got = scaled.rates.values(pts)[:, i, j]
        want = gamma * model.rates.values(pts)[:, i, j]
        assert np.max(np.abs(got - want)) <= 2.0 * field.roundoff


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


@pytest.mark.parametrize("regime, J, rate", [("I", 2, -1e-14), ("II", 3, -0.5)])
def test_builders_reject_what_validate_rejects(rng, regime, J, rate):
    """A given switching rate below 0 is negative however small, in either
    regime: the builders raise the first finding of the check `validate`
    reports from.  Regime I once let -1e-14 pass as round-off, and the
    regime-II averaging clipped -0.5 to 0 and solved (H(0) = 1.1e-16)."""
    m = random_discrete_model(rng, ell=4, J=J, regime=regime)
    sw = np.array(m.switching)
    sw[0, 1, 2] = rate
    bad = DiscreteModel(ell=4, J=J, hop_rates_plus=m.hop_rates_plus,
                        hop_rates_minus=m.hop_rates_minus, switching=sw,
                        regime=regime)
    assert [(v.kind, v.location) for v in validate(bad)] == [
        ("negative_rate", "r[1][2], k=2")]
    with pytest.raises(ValueError, match=(
            rf"^assemble_discrete_{regime}: negative switching rate "
            r".* at r\[1\]\[2\], k=2$")):
        cell_operator(bad)
    table = hamiltonian.sweep(bad, -1.0, 1.0, 3)
    assert sorted(table.failures) == [0, 1, 2]


def test_regime2_build_checks_its_quarter_points():
    """A regime-II continuous build reads its rates on the grid and at the
    points y + h/4 and y + 3h/4, and checks them all at once.
    r12 = 1 + 2 cos(16 pi y) is 3 on the N = 4 grid and -1 at its quarter
    points, first at y = 1/16; on the N = 16 grid it is -1 at every other
    point."""
    flat = PeriodicScalarField(dim=1)
    one = PeriodicScalarField(dim=1, fourier_coeffs=(((0,), 1.0, 0.0),))
    dip = PeriodicScalarField(dim=1, fourier_coeffs=(((0,), 1.0, 0.0),
                                                     ((8,), 2.0, 0.0)))
    m = ContinuousModel(dim=1, J=2, potentials=(flat, flat), regime="II",
                        rates=SwitchingRateMatrix(J=2, entries=((None, dip),
                                                                (one, None))))
    with pytest.raises(ValueError, match=(
            r"^assemble_continuous_II: negative switching rate -1\.000e\+00 "
            r"at r\[1\]\[2\], y=\(0\.0625\)")):
        cell_operator(m, N=4)
    with pytest.raises(ValueError, match=(
            r"^assemble_continuous_II: negative switching rate -1\.000e\+00 "
            r"at r\[1\]\[2\], y=")):
        cell_operator(m, N=16)
    assert {v.kind for v in validate(m)} == {"negative_rate",
                                             "reducible_switching"}


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
        op = cell_operator(replace(two_dim_model(), regime=regime),
                           N=size).at([0.4, -0.3])
    elif kind == "continuous":
        op = cell_operator(random_continuous_model(rng, J=2, regime=regime),
                           N=size).at(0.7)
    else:
        op = cell_operator(random_discrete_model(rng, ell=size, J=2,
                                                 regime=regime)).at(0.7)
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
            g = psi.gradients([ys[k]])[0, 0]
            b = p - g
            M[row, i * N + (k + 1) % N] += 0.5 / h ** 2 + b / (2 * h)
            M[row, i * N + (k - 1) % N] += 0.5 / h ** 2 - b / (2 * h)
            M[row, row] += -1.0 / h ** 2 + 0.5 * p * p - p * g
            for j in range(J):
                if j != i:
                    r = model.rates.rates_at([ys[k]])[i, j]
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
    op = cell_operator(detailed_balance_pair(), N=1024).at(p)
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
    if kind == "tilted_cosine":
        return cell_operator(tilted_cosine(1.0, 0.4), N=size).at(0.7)
    if kind == "one_slice":
        block = rng.uniform(0.2, 2.0, size=(1, 3, 3))
        block[0, range(3), range(3)] = -4.0
        return eigensolver.AssembledOperator(
            block, rng.uniform(0.5, 1.0, size=(1, 3)),
            rng.uniform(0.5, 1.0, size=(1, 3)), 1, 3)
    if kind == "continuous":
        model = random_continuous_model(rng, J=2, regime=regime, amp=0.05)
        return cell_operator(model, N=size).at(0.7)
    if kind in ("discrete", "discrete_J3"):
        model = random_discrete_model(rng, ell=size, regime=regime,
                                      J=3 if kind == "discrete_J3" else 2)
        return cell_operator(scaled_switching(model, gamma)).at(0.7)
    psi1 = PeriodicScalarField(dim=2, fourier_coeffs=(((1, 0), 0.3, 0.0),))
    psi2 = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 1), 0.0, 0.25),))
    rate = PeriodicScalarField(dim=2, fourier_coeffs=(((0, 0), 1.0, 0.0),
                                                      ((1, 1), 0.3, 0.1)))
    model = ContinuousModel(dim=2, J=2, potentials=(psi1, psi2),
                            rates=SwitchingRateMatrix(J=2, entries=(
                                (None, rate), (rate, None))))
    return cell_operator(replace(model, regime=regime), N=size).at([0.4, -0.2])


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
    # one unknown per slice, reduced as vectors: 65, 130 and 257 slices
    # meet odd slice counts on every vector level, and 101 and 255 end at
    # the dense base from an odd and from an even level
    + [("discrete", "II", ell, 1.0) for ell in (65, 130, 257)]
    + [("tilted_cosine", "I", N, 1.0) for N in (101, 255)]
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

    # below the eigenvalue the solution has mixed signs and an unpivoted
    # elimination may overflow; still the block path's bits
    shifted = -A
    shifted[:, range(b), range(b)] += lam - 0.5 * (1.0 + abs(lam))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.testing.assert_array_equal(
            eigensolver._cyclic_solve(shifted, -B, -C, w[index]),
            _dense_coupling_cyclic_solve(shifted, U, L, w[index]))

    # eigenpairs from blocks and from the dense matrix agree within both brackets
    blocks = principal_eigenpair(op)
    assert dense.cw_lower <= blocks.eigenvalue <= dense.cw_upper
    assert blocks.cw_lower <= dense.eigenvalue <= blocks.cw_upper


@pytest.mark.parametrize("regime", ["I", "II"])
def test_one_dimensional_inverse_step_ends_at_the_dense_base(regime,
                                                             monkeypatch):
    """An inverse step on a 1-D grid of 256 points runs 3 cyclic-reduction
    levels (blocks of b = 2) or 2 (averaged, b = 1), then one dense LU on
    64 unknowns, not 8 levels down to a single slice.  Averaged slices of
    one unknown are reduced as vectors: the levels below the first get
    (m,) arrays, while blocks stay (m, b)."""
    op = cell_operator(replace(detailed_balance_pair(), regime=regime),
                       N=256).at(0.7)
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
    assert levels == {"I": [(256, 2), (128, 2), (64, 2), (32, 2)],
                      "II": [(256, 1), (128,), (64,)]}[regime], levels


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
    """A failed inverse step keeps its iterate: the first attempt shifts to
    the middle of the CW bracket, and the very next step is another inverse
    step from the same vector at a shift above the (unchanged) CW upper
    bound, so strictly farther up; no iteration goes without a solve."""
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


def test_every_failed_inverse_step_is_named(monkeypatch):
    """A solve whose every inverse step fails ends with an error naming the
    failed steps in a row and the shift distance they reached, not a stall
    of the CW gap."""
    def singular(D, U, L, f):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(eigensolver, "_cyclic_solve", singular)
    M = np.array([[-1.0, 2.0], [1.0, -3.0]])
    failed = eigensolver._STALL_ITERATIONS
    # all-ones gives the bracket [-2, 1]; each failure doubles 3/16
    distance = 2.0 ** (failed - 1) * 3.0 * eigensolver._SHIFT_FRACTION
    with pytest.raises(ConvergenceError) as info:
        principal_eigenpair(M)
    assert str(info.value).startswith(
        f"{failed} inverse steps failed in a row, the last at a shift "
        f"{distance:.3e} above the CW upper bound"), str(info.value)
    cert = info.value.certificate
    assert cert.fallbacks == failed and cert.iterations == failed + 1
    assert (cert.cw_lower, cert.cw_upper) == (-2.0, 1.0)


def test_one_product_per_iterate(monkeypatch):
    """Every iterate costs one product Mw, which gives its CW bracket and,
    at the end, the certificate's residual; a retried step reuses its
    iterate's product, and a start costs one product per candidate."""
    real = eigensolver._apply
    products = []

    def counted(A, B, C, x):
        products.append(x.shape)
        return real(A, B, C, x)

    monkeypatch.setattr(eigensolver, "_apply", counted)
    op = assemble_continuous_I(tilted_cosine(1.0, 0.4), 1.0, 64)
    cert = principal_eigenpair(op, tol=1e-10)
    assert cert.fallbacks == 0 and len(products) == cert.iterations > 2

    # the residual is the last product's, bit for bit
    g = cert.eigenvector[op.index]
    fresh = real(op.blocks, op.up, op.down, g)
    assert cert.residual == float(np.max(np.abs(fresh - cert.eigenvalue * g)))

    # a failed step is retried without a new product
    real_cyclic, calls = eigensolver._cyclic_solve, []

    def fail_first(D, U, L, f):
        calls.append(f.shape)
        if len(calls) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_cyclic(D, U, L, f)

    monkeypatch.setattr(eigensolver, "_cyclic_solve", fail_first)
    products.clear()
    retried = principal_eigenpair(op, tol=1e-10)
    assert retried.fallbacks == 1
    assert len(products) == retried.iterations - retried.fallbacks
    monkeypatch.setattr(eigensolver, "_cyclic_solve", real_cyclic)

    # a sweep: samples two or more steps from p = 0 weigh two candidates,
    # and each of its two chains solves p = 0 in one iteration
    products.clear()
    table = hamiltonian.sweep(constant_drift(), -2.0, 2.0, 9, N=32)
    assert not table.failures
    assert len(products) == sum(c.iterations for c in table.certificates) + 7


def test_discrete_regime_II_warm_solve_takes_few_inverse_steps():
    """A slowly mixing averaged hop operator on ell = 256 sites: from the
    p = 0 eigenvector, shifting to the middle of the CW bracket reaches
    tol 1e-9 at p = +-0.2 within 8 iterations (a sixteenth of the gap above
    the upper bound, 11 and 12; a whole gap above, 23 and 25)."""
    m = random_discrete_model(np.random.default_rng(5), ell=256, J=3,
                              regime="II")
    gen = cell_operator(m)
    zero = principal_eigenpair(gen.at(0.0), tol=1e-9)
    for p in (-0.2, 0.2):
        cert = principal_eigenpair(gen.at(p), tol=1e-9, start=zero.eigenvector)
        assert cert.iterations <= 8 and cert.fallbacks == 0, (p, cert.iterations)


def _regime_II_sweeps(discrete_seeds, continuous_seeds):
    """Sweeps of seeded ell = 256 discrete and N = 256 continuous regime-II
    models (J = 3, tol 1e-9, 21 samples on [-2, 2]), as the benchmark's
    fast-switching check runs them."""
    models = ([random_discrete_model(np.random.default_rng(s), ell=256, J=3,
                                     regime="II") for s in discrete_seeds]
              + [random_continuous_model(np.random.default_rng(s), J=3,
                                         regime="II") for s in continuous_seeds])
    tables = [hamiltonian.sweep(m, -2.0, 2.0, 21, N=256, tol=1e-9)
              for m in models]
    assert not any(t.failures for t in tables)
    return tables


def test_midpoint_step_halves_the_bracket_from_either_side(monkeypatch):
    """A successful inverse step at sigma returns x of one sign.  x > 0 gives
    Mx < sigma x, so the new iterate's CW upper bound lies below sigma; x < 0
    gives M(-x) > sigma (-x), so its lower bound lies above sigma.  Either way
    the bracket of a step shifted to its middle at least halves, and some
    steps land below the eigenvalue and are kept with their sign flipped."""
    real_shifted, real_bracket = eigensolver._shifted_solve, eigensolver._bracket
    pending, steps = [], []

    def shifted(A, B, C, sigma, f):
        x = real_shifted(A, B, C, sigma, f)
        pending[:] = [(sigma, x)]
        return x

    def bracket(A, B, C, w):
        z, lo, up = real_bracket(A, B, C, w)
        if pending:
            sigma, x = pending.pop()
            flipped = x[0, 0] < 0
            y = -x if flipped else x
            # the iterate of this step, not a start candidate
            assert np.array_equal(w, y / np.max(y))
            steps.append((sigma, lo, up, flipped))
        return z, lo, up

    monkeypatch.setattr(eigensolver, "_shifted_solve", shifted)
    monkeypatch.setattr(eigensolver, "_bracket", bracket)
    tables = _regime_II_sweeps([2], [2])
    monkeypatch.undo()
    assert all(c.fallbacks == 0 for t in tables for c in t.certificates)
    assert len(steps) == sum(c.iterations - 1 for t in tables
                             for c in t.certificates)
    for sigma, lo, up, flipped in steps:
        assert (lo >= sigma) if flipped else (up <= sigma), (sigma, lo, up)
    assert any(flipped for *_, flipped in steps)


def test_regime_II_sweeps_keep_their_iteration_budget():
    """Summed sweep iterations of two discrete and one continuous regime-II
    model: 220 with midpoint shifts (288 a sixteenth of the gap above the
    upper bound, where the discrete samples near p = 0 crawl), held within
    10 %."""
    tables = _regime_II_sweeps([0, 1], [0])
    total = sum(c.iterations for t in tables for c in t.certificates)
    assert total <= 242, total


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


def _fancy_index_base(D, U, L, m, b):
    """The dense base of `_cyclic_solve` as it was scattered through fancy
    indices rebuilt on every call, couplings expanded by a fresh identity;
    the bit-for-bit reference of the cached flat cells."""
    def dense(C):
        return C[..., None] * np.eye(C.shape[-1]) if C.ndim == 2 else C
    k = np.arange(m)
    system = np.zeros((m, b, m, b))
    system[k, :, k] = D.reshape(m, b, b)
    system[k, :, (k + 1) % m] += dense(U).reshape(m, b, b)
    system[k, :, (k - 1) % m] += dense(L).reshape(m, b, b)
    return system.reshape(m * b, m * b)


def _periodic_system(rng, m, b, coupling):
    """A diagonally dominant periodic system of m slices of b unknowns, with
    couplings as one-unknown vectors (m,), diagonals (m, b) or blocks
    (m, b, b), a few entries negative zeros; and its explicit dense matrix,
    each block added in on its own."""
    D = rng.uniform(-1.0, 0.0, (m, b, b))
    D[:, range(b), range(b)] = rng.uniform(6.0, 8.0, (m, b)) * b
    D[0, -1, 0] = -0.0 if b > 1 else D[0, -1, 0]
    shape = {"vector": (m,), "diagonal": (m, b), "block": (m, b, b)}[coupling]
    U, L = rng.uniform(-1.0, 0.0, shape), rng.uniform(-1.0, 0.0, shape)
    U.flat[0] = L.flat[-1] = -0.0
    f = rng.uniform(0.1, 1.0, (m, b))
    explicit = np.zeros((m * b, m * b))
    for k in range(m):
        for j, C in ((k, D[k]), ((k + 1) % m, U[k]), ((k - 1) % m, L[k])):
            block = C if C.ndim == 2 else np.diag(np.atleast_1d(C))
            explicit[k * b:(k + 1) * b, j * b:(j + 1) * b] += block
    if coupling == "vector":
        D, f = D.reshape(m), f.reshape(m)
    return (D, U, L, f), explicit


@pytest.mark.parametrize("m,b,coupling", [
    (m, b, coupling) for m in (1, 2, 3) for b in (1, 2, 3)
    for coupling in ("vector", "diagonal", "block")
    if coupling != "vector" or b == 1]
    + [(1, 80, "diagonal"), (1, 80, "block")])
def test_dense_base_edge_cases(m, b, coupling, monkeypatch):
    """The dense base of `_cyclic_solve` on periodic systems of 1, 2 and 3
    slices (at m <= 2 the couplings to k+1 and k-1 land on the same block
    and add) and on one raw slice wider than `_DENSE_BASE` unknowns: the
    matrix it factors is the fancy-index scatter's bit for bit, signed
    zeros included, and its solution matches a dense solve of the
    explicitly assembled matrix within rounding."""
    rng = np.random.default_rng([m, b, len(coupling)])
    (D, U, L, f), explicit = _periodic_system(rng, m, b, coupling)
    real_solve, factored = np.linalg.solve, []

    def solve(a, rhs):
        factored.append(a.copy())
        return real_solve(a, rhs)

    monkeypatch.setattr(np.linalg, "solve", solve)
    x = eigensolver._cyclic_solve(D, U, L, f)
    monkeypatch.undo()
    assert len(factored) == 1 and x.shape == f.shape
    assert factored[0].tobytes() == _fancy_index_base(D, U, L, m, b).tobytes()
    np.testing.assert_allclose(x.reshape(-1),
                               np.linalg.solve(explicit, f.reshape(-1)),
                               rtol=1e-13, atol=0.0)
    if m > 1:
        assert not any(a.flags.writeable for a in eigensolver._base_cells(m, b))


def test_inverse_step_kernels_keep_their_arithmetic(rng):
    """The strided-diagonal shift, the plain-vector product of one-unknown
    slices and the direct dot of the extrapolation give the bits of the
    range-indexed shift, the stacked 1 x 1 matmul and `np.tensordot`."""
    def matmul_apply(A, B, C, x):
        ring = np.concatenate((x[-1:], x, x[:1]))
        return (A @ x[..., None])[..., 0] + B * ring[2:] + C * ring[:-2]

    def range_shifted_solve(A, B, C, sigma, f):
        shifted = -A
        b = A.shape[-1]
        shifted[:, range(b), range(b)] += sigma
        return eigensolver._cyclic_solve(shifted, -B, -C, f)

    operators = [cell_operator(replace(detailed_balance_pair(), regime=r),
                               N=256).at(0.7) for r in ("I", "II")]
    M = rng.uniform(0.0, 1.0, (70, 70))
    operators.append(np.asfortranarray(M))   # a raw matrix in Fortran order
    for op in operators:
        A, B, C, index = eigensolver._slices(op)
        x = rng.uniform(0.1, 1.0, index.shape)
        assert np.array_equal(eigensolver._apply(A, B, C, x),
                              matmul_apply(A, B, C, x))
        sigma = collatz_wielandt_bounds(op, np.ones(index.size))[1] + 0.3
        assert np.array_equal(eigensolver._shifted_solve(A, B, C, sigma, x),
                              range_shifted_solve(A, B, C, sigma, x))
    for count in (2, 3, 4):
        momenta = list(rng.uniform(-1.0, 1.0, count))
        logs = [rng.normal(size=40) for _ in range(count)]
        weights = [math.prod((0.3 - other) / (node - other)
                             for i, other in enumerate(momenta) if i != j)
                   for j, node in enumerate(momenta)]
        log_g = np.tensordot(weights, logs, axes=1)
        assert np.array_equal(hamiltonian._extrapolate(momenta, logs, 0.3),
                              np.exp(log_g - np.max(log_g)))


@pytest.mark.parametrize("case", ["continuous-I", "continuous-II", "discrete",
                                  "dim2"])
def test_tilt_scales_the_first_axis_weights_laid_out_once(case, rng,
                                                          monkeypatch):
    """`TiltedGenerator.at` scales first-axis hop weights laid out in slice
    order once per generator, and bounds max |p - drift| by the drift's
    per-axis extremes: the couplings and the Peclet bound are those of
    tilting the state-major weights and laying them out per call, and of
    the bound over every drift sample, bit for bit."""
    if case == "dim2":
        gen = cell_operator(two_dim_model(), N=12)
        momenta = [(0.5, 0.2), (-1.3, 0.0), (2.0, -3.1)]
    elif case == "discrete":
        gen = cell_operator(random_discrete_model(rng, ell=7, J=3))
        momenta = [0.0, 0.8, -1.7]
    else:
        regime = case.split("-")[1]
        gen = cell_operator(random_continuous_model(rng, J=3, regime=regime),
                            N=64)
        momenta = [0.0, 0.8, -1.7, 40.0]
    bounds = []
    monkeypatch.setattr(eigensolver, "_peclet_guard",
                        lambda bound, *args: bounds.append(bound))
    for p in momenta:
        op = gen.at(p)
        pvec = np.atleast_1d(np.asarray(p, dtype=float))
        grow, shrink = math.exp(pvec[0] * gen.h), math.exp(-pvec[0] * gen.h)
        m = len(op.blocks)
        assert op.up.tobytes() == eigensolver._slice_layout(
            gen.up[:, 0] * grow, m).tobytes()
        assert op.down.tobytes() == eigensolver._slice_layout(
            gen.down[:, 0] * shrink, m).tobytes()
        if gen.drift is not None:
            assert bounds.pop() == float(np.max(np.abs(pvec - gen.drift)))
    assert not bounds


# `sweep_1d`'s model of benchmark seed 4242, input set 3: a cold left solve
# at p = 0 meets a failed inverse step
SWEEP_1D_SET_3 = {
    "kind": "continuous", "dim": 1, "J": 2, "regime": "I", "period": 1.0,
    "potentials": [
        {"coeffs": [[1, -0.2572166142209147, -0.03632170501671905],
                    [2, 0.05828540617992245, -0.11516242925445144]],
         "slope": []},
        {"coeffs": [[1, 0.46239181318788714, -0.5833838768928777],
                    [2, 0.0717326247828125, -0.2916443015997445]],
         "slope": []}],
    "rates": [
        [None, {"coeffs": [[0, 1.8759235316567504, 0.0],
                           [1, -0.03741767519958372, -0.0810307062144507]],
                "slope": []}],
        [{"coeffs": [[0, 1.9562519898089759, 0.0],
                     [1, -0.9139824849460424, 0.9123454779002893]],
          "slope": []}, None]]}


def test_failed_step_keeps_later_shifts_above_the_bracket(monkeypatch):
    """Once an inverse step of a solve has failed, every later step of that
    solve shifts above the CW upper bound, a sixteenth of the gap doubled
    per failure in a row, never back inside the bracket.  The cold left
    solve at p = 0 of this model fails its second step, at the midpoint,
    and then takes 9 iterations in all (12, with 4 failures, when later
    steps returned to the midpoint)."""
    op = cell_operator(model_from_dict(SWEEP_1D_SET_3), N=256).at(0.0).T
    real_shifted, real_bracket = eigensolver._shifted_solve, eigensolver._bracket
    events = []

    def shifted(A, B, C, sigma, f):
        events.append(("step", sigma))
        return real_shifted(A, B, C, sigma, f)

    def bracket(A, B, C, w):
        z, lo, up = real_bracket(A, B, C, w)
        events.append(("bracket", lo, up))
        return z, lo, up

    monkeypatch.setattr(eigensolver, "_shifted_solve", shifted)
    monkeypatch.setattr(eigensolver, "_bracket", bracket)
    cert = principal_eigenpair(op, tol=1e-9)
    monkeypatch.undo()
    # the start's bracket, then per step its shift and, if it succeeded,
    # the new iterate's bracket
    assert events[0][0] == "bracket"
    lower, upper = events[0][1:]
    shifts, failed = [], []
    for k, event in enumerate(events[1:], start=1):
        if event[0] == "bracket":
            lower, upper = max(lower, event[1]), min(upper, event[2])
            continue
        shifts.append((event[1], lower, upper))
        failed.append(k + 1 == len(events) or events[k + 1][0] == "step")
    assert cert.fallbacks == sum(failed) >= 1 and not failed[-1]
    assert cert.iterations == len(shifts) + 1 <= 9
    first = failed.index(True)
    assert all(lo < sigma < up for sigma, lo, up in shifts[:first + 1])
    assert all(sigma > up for sigma, _, up in shifts[first + 1:])
    # the generator's principal eigenvalue at p = 0 is 0
    assert cert.cw_lower <= 0.0 <= cert.cw_upper


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
