"""Generators, stationary measures, detailed balance, averaged coefficients."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from effham.chains import (ReducibleChainError, averaged_drift,
                           averaged_hop_rates, detailed_balance_report,
                           generator_at, irreducible, stationary_measure,
                           stationary_measures)
from effham import simulator
from effham.eigensolver import cell_operator
from effham.fields import PeriodicScalarField
from effham.model import (ContinuousModel, DiscreteModel, SwitchingRateMatrix,
                          validate)
from effham.presets import get_preset

from conftest import detailed_balance_model, random_continuous_model, \
    random_discrete_model, two_dim_model


def const_field(c):
    return PeriodicScalarField(dim=1, fourier_coeffs=(((0,), float(c), 0.0),))


def two_state_rates(r12, r21):
    return SwitchingRateMatrix(J=2, entries=((None, const_field(r12)),
                                             (const_field(r21), None)))


def test_generator_two_state():
    Q = generator_at(two_state_rates(1.0, 2.0), [0.3])
    np.testing.assert_allclose(Q, [[-1.0, 1.0], [2.0, -2.0]])


def test_generator_j1():
    Q = generator_at(SwitchingRateMatrix(J=1, entries=((None,),)), [0.0])
    assert Q.shape == (1, 1) and Q[0, 0] == 0.0


def test_generator_rejects_negative_rates_by_the_one_check():
    """`generator_at` raises the negative-rate finding of the check that
    `validate` reports from, cut per rate: -1e-11 beside a rate of 100 is
    negative, though it lies within 1e-12 of the largest rate at the point."""
    with pytest.raises(ValueError, match=(
            r"^negative switching rate -5\.000e-01 at r\[1\]\[2\], "
            r"y=\(0\.3\)$")):
        generator_at(two_state_rates(-0.5, 2.0), [0.3])
    with pytest.raises(ValueError, match=r"-1\.000e-11 at r\[1\]\[2\]"):
        generator_at(two_state_rates(-1e-11, 100.0), [0.3])


def test_generator_complete_graph():
    one = const_field(1.0)
    rates = SwitchingRateMatrix(J=3, entries=(
        (None, one, one), (one, None, one), (one, one, None)))
    Q = generator_at(rates, [0.1])
    np.testing.assert_allclose(np.diag(Q), [-2, -2, -2])
    np.testing.assert_allclose(Q - np.diag(np.diag(Q)), np.ones((3, 3)) - np.eye(3))


def test_generator_rows_sum_to_zero(rng):
    m = random_continuous_model(rng, J=4)
    Q = generator_at(m.rates, [0.456])
    # exact by construction; verification re-sums, so allow machine round-off
    assert np.max(np.abs(Q @ np.ones(4))) <= 64 * np.finfo(float).eps * np.abs(Q).max()


def null_space_measure(Q):
    """Independent oracle: left null vector via SVD."""
    _, s, vt = np.linalg.svd(Q.T)
    v = vt[-1]
    v = np.abs(v)
    return v / v.sum()


def test_stationary_two_state_closed_form():
    Q = generator_at(two_state_rates(1.0, 2.0), [0.0])
    mu = stationary_measure(Q)
    np.testing.assert_allclose(mu, [2 / 3, 1 / 3], atol=1e-14)
    np.testing.assert_allclose(mu, null_space_measure(Q), atol=1e-12)


def test_stationary_symmetric_rates_uniform():
    one = const_field(0.7)
    rates = SwitchingRateMatrix(J=3, entries=(
        (None, one, one), (one, None, one), (one, one, None)))
    mu = stationary_measure(generator_at(rates, [0.0]))
    np.testing.assert_allclose(mu, np.full(3, 1 / 3), atol=1e-14)


def test_stationary_j1():
    np.testing.assert_array_equal(stationary_measure(np.zeros((1, 1))), [1.0])


def test_stationary_residual_and_positivity(rng):
    for _ in range(10):
        m = random_continuous_model(rng, J=5)
        Q = generator_at(m.rates, [rng.uniform()])
        mu = stationary_measure(Q)
        assert np.all(mu > 0)
        assert np.max(np.abs(mu @ Q)) <= 1e-12 * np.max(np.abs(Q))
        np.testing.assert_allclose(mu, null_space_measure(Q), atol=1e-10)


def test_stationary_reducible_raises():
    Q = np.array([[-1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ReducibleChainError):
        stationary_measure(Q)


def test_detailed_balance_j1():
    m = random_continuous_model(np.random.default_rng(0), J=1)
    assert detailed_balance_report(m) == (True, 0.0)


def test_single_state_results_come_from_the_general_paths(rng):
    """With one state, or no rate field, the general code gives what the
    special cases it replaced returned: a law of ones on every point,
    balance held with no violation, and no switching to bound."""
    mu, ok = stationary_measures(np.zeros((5, 1, 1)))
    assert mu.dtype == float and ok.dtype == bool
    np.testing.assert_array_equal(mu, np.ones((5, 1)))
    assert ok.all()
    single = random_continuous_model(rng, J=1)
    holds, worst = detailed_balance_report(single)
    assert (holds, worst) == (True, 0.0)
    assert type(holds) is bool and type(worst) is float
    psi = PeriodicScalarField(dim=1)
    fieldless = ContinuousModel(dim=1, J=2, potentials=(psi, psi),
                                rates=SwitchingRateMatrix(J=2, entries=(
                                    (None, None), (None, None))))
    for model in (single, fieldless):
        bound = simulator.max_total_switching_rate(model)
        assert bound == 0.0 and type(bound) is float


def test_detailed_balance_direct_violation():
    psi = PeriodicScalarField(dim=1)
    m = ContinuousModel(dim=1, J=2, potentials=(psi, psi),
                        rates=two_state_rates(1.0, 2.0))
    holds, violation = detailed_balance_report(m)
    assert not holds
    assert violation == pytest.approx(1.0, abs=1e-12)


def test_detailed_balance_sigma_construction(rng):
    m = detailed_balance_model(rng, J=3)
    holds, violation = detailed_balance_report(m)
    assert holds
    assert violation <= 1e-11


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10_000))
def test_detailed_balance_sigma_property(seed):
    rng = np.random.default_rng(seed)
    m = detailed_balance_model(rng, J=2)
    holds, _ = detailed_balance_report(m)
    assert holds


def test_averaged_drift_equal_potentials(rng):
    psi = PeriodicScalarField(dim=1, fourier_coeffs=(((1,), 0.5, -0.2),))
    m = ContinuousModel(dim=1, J=2, potentials=(psi, psi),
                        rates=two_state_rates(1.3, 0.4))
    y = [0.37]
    np.testing.assert_allclose(averaged_drift(m, y), psi.gradients([y])[0], atol=1e-14)


def test_averaged_drift_two_state_slopes():
    up = PeriodicScalarField(dim=1, affine_slope=(1.0,))
    dn = PeriodicScalarField(dim=1, affine_slope=(-1.0,))
    m = ContinuousModel(dim=1, J=2, potentials=(up, dn),
                        rates=two_state_rates(1.0, 2.0), regime="II")
    # mu = (2/3, 1/3) so the average slope is 2/3 - 1/3 = 1/3
    assert averaged_drift(m, [0.5])[0] == pytest.approx(1 / 3, abs=1e-14)


def test_averaged_drift_j1(rng):
    m = random_continuous_model(rng, J=1)
    y = [0.81]
    np.testing.assert_allclose(averaged_drift(m, y),
                               m.potentials[0].gradients([y])[0], atol=1e-14)


def test_averaged_drift_linear_in_potentials(rng):
    m = random_continuous_model(rng, J=3)
    scaled_pots = tuple(
        PeriodicScalarField(dim=1, fourier_coeffs=tuple(
            (k, 2.5 * a, 2.5 * b) for (k, a, b) in psi.fourier_coeffs))
        for psi in m.potentials)
    m2 = ContinuousModel(dim=1, J=3, potentials=scaled_pots, rates=m.rates)
    y = [0.123]
    np.testing.assert_allclose(averaged_drift(m2, y), 2.5 * averaged_drift(m, y),
                               atol=1e-13)


def test_averaged_hops_j1():
    m = DiscreteModel(ell=3, J=1, hop_rates_plus=np.array([[2.0, 3.0, 4.0]]),
                      hop_rates_minus=np.array([[1.0, 1.5, 2.0]]),
                      switching=np.zeros((1, 1, 3)))
    assert averaged_hop_rates(m, 1) == (3.0, 1.5)


def test_averaged_hops_two_state_arithmetic():
    # mu_k = (2/3, 1/3) from rates (1, 2); r+ = (3, 0.6) -> 2.2
    sw = np.zeros((2, 2, 2))
    sw[0, 1] = 1.0
    sw[1, 0] = 2.0
    m = DiscreteModel(ell=2, J=2,
                      hop_rates_plus=np.array([[3.0, 3.0], [0.6, 0.6]]),
                      hop_rates_minus=np.ones((2, 2)),
                      switching=sw, regime="II")
    rp, rm = averaged_hop_rates(m, 0)
    assert rp == pytest.approx(2.2, abs=1e-14)
    assert rm == pytest.approx(1.0, abs=1e-14)


def test_averaged_hops_equal_rates(rng):
    m = random_discrete_model(rng, ell=4, J=3)
    equal = DiscreteModel(ell=4, J=3,
                          hop_rates_plus=np.full((3, 4), 1.7),
                          hop_rates_minus=np.full((3, 4), 0.9),
                          switching=m.switching, regime="II")
    assert averaged_hop_rates(equal, 2) == (pytest.approx(1.7), pytest.approx(0.9))


def test_averaged_hops_reject_a_negative_rate(rng):
    """A J = 3 regime-II model with r12 = -0.5 at site 2 fails `validate`;
    its hop averages (and so the discrete regime-II coercivity bound) raise
    instead of clipping the rate to 0."""
    m = random_discrete_model(rng, ell=4, J=3, regime="II")
    sw = np.array(m.switching)
    sw[0, 1, 2] = -0.5
    bad = DiscreteModel(ell=4, J=3, hop_rates_plus=m.hop_rates_plus,
                        hop_rates_minus=m.hop_rates_minus, switching=sw,
                        regime="II")
    assert [v.kind for v in validate(bad)] == ["negative_rate"]
    with pytest.raises(ValueError, match=(
            r"^negative switching rate -5\.000e-01 at r\[1\]\[2\], k=2$")):
        averaged_hop_rates(bad, 2)


# ---------------------------------------------------------------------------
# the batched kernel
# ---------------------------------------------------------------------------

def generator_of(R):
    Q = np.array(R, dtype=float)
    np.fill_diagonal(Q, 0.0)
    np.fill_diagonal(Q, -Q.sum(axis=1))
    return Q


@pytest.mark.parametrize("J", [1, 2, 3, 5])
def test_kernel_equals_one_point_bit_for_bit(rng, J):
    R = rng.uniform(0.05, 3.0, size=(200, J, J))
    mu, ok = stationary_measures(R)
    assert mu.shape == (200, J) and ok.all()
    for k in range(len(R)):
        np.testing.assert_array_equal(stationary_measure(generator_of(R[k])),
                                      mu[k])
    np.testing.assert_allclose(mu.sum(axis=1), 1.0, atol=1e-14)


def test_kernel_mask_flags_reducible_points(rng):
    """Reducible blocks, vanishing rates and one-way couplings are flagged,
    and the one-point wrapper raises at exactly those points."""
    R = rng.uniform(0.2, 2.0, size=(9, 3, 3))
    R[1, :2, 2] = R[1, 2, :2] = 0.0     # {1, 2} and {3} do not talk
    R[2] = 0.0                          # every rate vanishes
    R[3, 0, :] = 0.0                    # state 1 is absorbing: one-way in
    R[4, 1:, 0] = 0.0                   # nothing enters state 1: one-way out
    R[5, 0, 2] = R[5, 1, 0] = R[5, 2, 1] = 0.0   # one-way cycle 1->2->3->1
    R[6, 1:, 0] = -1e-17                # round-off below zero counts as zero
    R[7, 0, 1] = 1e-300                 # tiny but positive: still irreducible
    expected = np.array([True, False, False, False, False, True, False, True,
                         True])
    mu, ok = stationary_measures(R)
    np.testing.assert_array_equal(ok, expected)
    for k in range(len(R)):
        if expected[k]:
            assert np.all(stationary_measure(generator_of(R[k])) > 0)
        else:
            with pytest.raises(ReducibleChainError):
                stationary_measure(generator_of(R[k]))


def test_kernel_survives_a_singular_point(rng):
    """Extreme rates can make an irreducible chain's solve exactly singular;
    that point is masked and the others keep their laws."""
    R = rng.uniform(0.2, 2.0, size=(3, 4, 4))
    R[1] = [[0.0, 0.0, 5e-324, 1e-300],
            [0.0, 1.0, 1e300, 1e-300],
            [5e-324, 1e300, 1e300, 1.0],
            [1.0, 5e-324, 0.0, 5e-324]]
    assert irreducible(R[1] * (1 - np.eye(4)) > 0)
    mu, ok = stationary_measures(R)
    np.testing.assert_array_equal(ok, [True, False, True])
    for k in (0, 2):
        np.testing.assert_array_equal(mu[k], stationary_measures(R[k:k + 1])[0][0])


def reachable_all(adj):
    """Oracle: strong connectivity by graph search from every node."""
    J = len(adj)
    for start in range(J):
        seen, stack = {start}, [start]
        while stack:
            u = stack.pop()
            for v in np.flatnonzero(adj[u]):
                if v not in seen:
                    seen.add(int(v))
                    stack.append(int(v))
        if len(seen) < J:
            return False
    return True


@pytest.mark.parametrize("J", [1, 2, 3, 4, 6, 9])
def test_irreducible_matches_graph_search(rng, J):
    adj = rng.uniform(size=(300, J, J)) < rng.uniform(0.1, 0.6, size=(300, 1, 1))
    expected = [reachable_all(a) for a in adj]
    np.testing.assert_array_equal(irreducible(adj), expected)
    assert J == 1 or 0 < sum(expected) < len(expected)


def count_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(a, b, *args, **kwargs):
        calls.append(np.shape(a))
        return solve(a, b, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_regime2_builds_solve_whole_lattices(rng, monkeypatch):
    """A regime-II build solves all its laws in one stacked call: the grid
    stacked with two quarter-point lattices per axis (continuous), or all
    sites at once (discrete)."""
    cont = random_continuous_model(rng, J=3, regime="II")
    disc = random_discrete_model(rng, ell=256, J=3, regime="II")
    calls = count_solves(monkeypatch)
    cell_operator(cont, N=64)
    assert calls == [(64 * (1 + 2 * cont.dim), 3, 3)]
    del calls[:]
    cell_operator(disc)
    assert calls == [(256, 3, 3)]


@pytest.mark.parametrize("case", ["d1-J3", "d2-J2"])
def test_regime2_build_reads_its_rates_once(rng, monkeypatch, case):
    """A regime-II continuous build evaluates the switching rates in one
    call, on the grid stacked with its quarter points."""
    model = (random_continuous_model(rng, J=3, regime="II") if case == "d1-J3"
             else two_dim_model())
    calls = []
    values = SwitchingRateMatrix.values

    def counted(self, points):
        calls.append(len(points))
        return values(self, points)

    monkeypatch.setattr(SwitchingRateMatrix, "values", counted)
    cell_operator(replace(model, regime="II"), N=12)
    assert calls == [12 ** model.dim * (1 + 2 * model.dim)]


def test_regime2_weights_match_a_per_point_reference(rng):
    """The batched regime-II weights equal a per-point loop over the SVD
    null-space oracle to round-off."""
    disc = random_discrete_model(rng, ell=16, J=3, regime="II")
    op = cell_operator(disc)
    for k in range(disc.ell):
        mu = null_space_measure(generator_of(disc.switching[:, :, k]))
        assert op.up[0, 0, k] == pytest.approx(mu @ disc.hop_rates_plus[:, k],
                                               rel=1e-12)
        assert op.down[0, 0, k] == pytest.approx(
            mu @ disc.hop_rates_minus[:, k], rel=1e-12)
    cont = random_continuous_model(rng, J=3, regime="II")
    op = cell_operator(cont, N=32)
    for k, y in enumerate(np.arange(32) / 32):
        mu = null_space_measure(generator_at(cont.rates, [y]))
        drift = mu @ [psi.gradients([y])[0, 0] for psi in cont.potentials]
        assert op.drift[0, k, 0] == pytest.approx(drift, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("N", [60, 96, 100, 128])
def test_vanishing_rates_are_zero_whatever_their_roundoff(N):
    """In two_state_flashing, r12(0.125) evaluates to -2.2e-16 and r21(0.5)
    to +1.1e-16.  Both lie within the fields' evaluation round-off, so both
    are exactly 0: every grid that holds y = 0.5 has a reducible point, and
    the regime-II build fails at N = 60 and 100 as at N = 96 and 128."""
    model = get_preset("two_state_flashing")
    R = model.rates.values(np.array([[0.125], [0.5]]))
    assert R[0, 0, 1] == 0.0 and R[1, 1, 0] == 0.0
    assert model.rates.rates_at([0.5])[1, 0] == 0.0
    with pytest.raises(ReducibleChainError):
        cell_operator(replace(model, regime="II"), N=N)
    assert validate(replace(model, regime="II")) != []
    with pytest.raises(ReducibleChainError):
        averaged_drift(model, [0.5])
