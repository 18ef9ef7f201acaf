"""Model construction, validation reports, and the JSON schema."""

import json
import re

import numpy as np
import pytest

from effham.fields import PeriodicScalarField
from effham.model import (ContinuousModel, DiscreteModel, ModelFormatError,
                          SwitchingRateMatrix, model_from_dict, model_to_dict,
                          validate)
from effham.presets import get_preset

from conftest import random_continuous_model, random_discrete_model


def test_j1_continuous_valid(rng):
    m = random_continuous_model(rng, J=1)
    assert validate(m) == []


def test_decoupled_discrete_reports_reducibility():
    m = DiscreteModel(ell=3, J=2,
                      hop_rates_plus=np.ones((2, 3)),
                      hop_rates_minus=np.ones((2, 3)),
                      switching=np.zeros((2, 2, 3)))
    report = validate(m)
    assert any(v.kind == "reducible_coupling" for v in report)


def test_zero_hop_rate_reports_positivity():
    rp = np.ones((2, 3))
    rp[0, 1] = 0.0
    sw = np.ones((2, 2, 3))
    m = DiscreteModel(ell=3, J=2, hop_rates_plus=rp,
                      hop_rates_minus=np.ones((2, 3)), switching=sw)
    report = validate(m)
    bad = [v for v in report if v.kind == "nonpositive_hop_rate"]
    assert len(bad) == 1 and "r+[1](k=1)" in bad[0].location


def test_negative_continuous_rate_reported():
    neg = PeriodicScalarField(dim=1, fourier_coeffs=(((0,), 0.4, 0.0),
                                                     ((1,), 1.0, 0.0)))
    rates = SwitchingRateMatrix(J=2, entries=((None, neg), (neg, None)))
    psi = PeriodicScalarField(dim=1)
    m = ContinuousModel(dim=1, J=2, potentials=(psi, psi), rates=rates)
    assert any(v.kind == "negative_rate" for v in validate(m))


def test_validate_is_pure(rng):
    m = random_discrete_model(rng)
    assert validate(m) == validate(m)


def test_one_way_coupling_is_reducible():
    up = PeriodicScalarField(dim=1, fourier_coeffs=(((0,), 1.0, 0.0),))
    rates = SwitchingRateMatrix(J=2, entries=((None, up), (None, None)))
    psi = PeriodicScalarField(dim=1)
    m = ContinuousModel(dim=1, J=2, potentials=(psi, psi), rates=rates)
    assert any(v.kind == "reducible_coupling" for v in validate(m))


def test_rates_at_equals_each_field_and_checks_the_point(rng):
    """`rates_at` is one row of `values`: bit for bit each rate field's own
    `value`, zero on the diagonal; a point of the wrong dimension raises
    instead of being reshaped."""
    model = random_continuous_model(rng, J=3)
    for y in rng.uniform(-2.0, 2.0, size=5):
        R = model.rates.rates_at([y])
        for i, j in np.ndindex(3, 3):
            entry = model.rates.entries[i][j]
            assert R[i, j] == (0.0 if i == j else entry.value([y]))
            assert model.rates.rate(i, j, [y]) == R[i, j]
    with pytest.raises(ValueError, match="dim"):
        model.rates.rates_at([0.1, 0.2])


def test_rate_values_check_the_point_array():
    """`values` takes (n, d) points of its fields' dimension d: extra columns
    raise instead of being ignored.  Without rate fields any d goes."""
    rates = get_preset("two_state_flashing").rates
    assert rates.values(np.zeros((4, 1))).shape == (4, 2, 2)
    for bad in (np.zeros((4, 2)), np.zeros((2, 2, 1))):
        with pytest.raises(ValueError, match=re.escape(str(bad.shape))):
            rates.values(bad)
    empty = SwitchingRateMatrix(J=1, entries=((None,),))
    assert empty.values(np.zeros((3, 2))).shape == (3, 1, 1)


def test_constructor_shape_errors():
    with pytest.raises(ValueError):
        DiscreteModel(ell=1, J=1, hop_rates_plus=np.ones((1, 1)),
                      hop_rates_minus=np.ones((1, 1)),
                      switching=np.zeros((1, 1, 1)))
    with pytest.raises(ValueError):
        DiscreteModel(ell=3, J=1, hop_rates_plus=np.ones((1, 2)),
                      hop_rates_minus=np.ones((1, 3)),
                      switching=np.zeros((1, 1, 3)))
    psi = PeriodicScalarField(dim=1)
    with pytest.raises(ValueError):
        ContinuousModel(dim=1, J=2, potentials=(psi,),
                        rates=SwitchingRateMatrix(J=2, entries=((None, None),
                                                                (None, None))))


@pytest.mark.parametrize("name", ["constant_drift", "tilted_cosine",
                                  "detailed_balance_pair", "two_state_flashing",
                                  "discrete_asymmetric", "discrete_two_state"])
def test_presets_validate_and_roundtrip(name):
    m = get_preset(name)
    assert validate(m) == []
    clone = model_from_dict(model_to_dict(m))
    assert validate(clone) == []
    assert type(clone) is type(m)
    assert model_to_dict(clone) == model_to_dict(m)


def test_json_roundtrip_values_match(rng):
    m = random_continuous_model(rng, J=2)
    clone = model_from_dict(json.loads(json.dumps(model_to_dict(m))))
    for y in np.linspace(0, 1, 7):
        for i in range(2):
            assert clone.potentials[i].value([y]) == pytest.approx(
                m.potentials[i].value([y]), abs=1e-15)
            for j in range(2):
                if i != j:
                    assert clone.rates.rate(i, j, [y]) == pytest.approx(
                        m.rates.rate(i, j, [y]), abs=1e-15)


def test_unknown_keys_rejected():
    obj = model_to_dict(get_preset("constant_drift"))
    obj["extra"] = 1
    with pytest.raises(ModelFormatError, match="unknown model keys"):
        model_from_dict(obj)
    obj2 = model_to_dict(get_preset("constant_drift"))
    obj2["potentials"][0]["mystery"] = 2
    with pytest.raises(ModelFormatError, match="unknown field keys"):
        model_from_dict(obj2)


def test_bad_kind_rejected():
    with pytest.raises(ModelFormatError, match='"kind"'):
        model_from_dict({"kind": "quantum"})


def test_discrete_json_roundtrip(rng):
    m = random_discrete_model(rng, ell=4, J=3)
    clone = model_from_dict(model_to_dict(m))
    np.testing.assert_array_equal(clone.switching, m.switching)
    np.testing.assert_array_equal(clone.hop_rates_plus, m.hop_rates_plus)


def test_regime2_validation_locates_reducible_switching():
    """two_state_flashing's rates r12 = 1.5 (1 + cos 2 pi (y - 0.625))^2 and
    r21 = 1.5 (1 + cos 2 pi y)^2 vanish at y = 0.125 and y = 0.5, so regime
    II has no stationary law at either point (r21(0.5) evaluates to
    +1.1e-16, which once passed as a positive rate)."""
    m = get_preset("two_state_flashing")
    assert validate(m) == []
    for report in (validate(m, "II"),
                   validate(ContinuousModel(dim=1, J=2, potentials=m.potentials,
                                            rates=m.rates, regime="II"))):
        assert [(v.kind, v.location) for v in report] == [
            ("reducible_switching", "y=(0.125)"),
            ("reducible_switching", "y=(0.5)")]
    assert validate(ContinuousModel(dim=1, J=2, potentials=m.potentials,
                                    rates=m.rates, regime="II"), "I") == []


def test_regime2_validation_locates_reducible_sites(rng):
    m = random_discrete_model(rng, ell=6, J=3, regime="II")
    sw = np.array(m.switching)
    sw[:, 2, 4] = 0.0                     # nothing leaves state 3 at site 4
    bad = DiscreteModel(ell=6, J=3, hop_rates_plus=m.hop_rates_plus,
                        hop_rates_minus=m.hop_rates_minus, switching=sw,
                        regime="II")
    assert validate(m) == []
    assert [(v.kind, v.location) for v in validate(bad)] == [
        ("reducible_switching", "k=4")]
    assert validate(bad, "I") == []
