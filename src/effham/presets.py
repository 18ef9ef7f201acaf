"""Named model presets used by the CLI and the regression suite.

`constant_drift` and `tilted_cosine` have closed-form Hamiltonians and serve
as regression targets; `detailed_balance_pair` is a two-state model built so
that the balance identity holds pointwise (rates are sigma * exp(2 psi^i)
with symmetric sigma, fitted to machine precision by `field_from_function`);
`two_state_flashing` breaks detailed balance hard enough to transport, and
`discrete_asymmetric` is the biased random walk.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import PeriodicScalarField, field_from_function
from .model import (ContinuousModel, DiscreteModel, InputError,
                    SwitchingRateMatrix)


def _cosine(dim_amp_shift, period=1.0, slope=0.0):
    amp, shift = dim_amp_shift
    modes = []
    if amp != 0.0:
        # amp * cos(2 pi (y - shift)) = amp cos(s) cos(2 pi y) + amp sin(s) sin(2 pi y)
        s = 2.0 * math.pi * shift / period
        modes.append(((1,), amp * math.cos(s), amp * math.sin(s)))
    return PeriodicScalarField(dim=1, period=period, fourier_coeffs=tuple(modes),
                               affine_slope=(slope,))


def constant_drift(force: float = 1.0) -> ContinuousModel:
    """Free drift-diffusion: psi = -force * y, H(p) = (p + force)^2/2 - force^2/2."""
    psi = PeriodicScalarField(dim=1, affine_slope=(-force,))
    rates = SwitchingRateMatrix(J=1, entries=((None,),))
    return ContinuousModel(dim=1, J=1, potentials=(psi,), rates=rates, regime="I")


def tilted_cosine(force: float = 1.0, amplitude: float = 0.25) -> ContinuousModel:
    """Constant force plus a periodic potential: drift force - psi'(y)."""
    psi = _cosine((amplitude, 0.0), slope=-force)
    rates = SwitchingRateMatrix(J=1, entries=((None,),))
    return ContinuousModel(dim=1, J=1, potentials=(psi,), rates=rates, regime="I")


def detailed_balance_pair() -> ContinuousModel:
    """Two-state model satisfying r_12 e^{-2 psi^1} = r_21 e^{-2 psi^2} pointwise."""
    psi1 = _cosine((0.5, 0.0))
    psi2 = PeriodicScalarField(dim=1, fourier_coeffs=(
        ((1,), 0.4 * math.cos(2 * math.pi * 0.35), 0.4 * math.sin(2 * math.pi * 0.35)),
        ((2,), 0.0, 0.2)))

    def sigma(y):
        return 0.8 + 0.5 * math.cos(2 * math.pi * (y - 0.1))

    r12 = field_from_function(lambda y: sigma(y) * math.exp(2 * psi1.value([y])))
    r21 = field_from_function(lambda y: sigma(y) * math.exp(2 * psi2.value([y])))
    rates = SwitchingRateMatrix(J=2, entries=((None, r12), (r21, None)))
    return ContinuousModel(dim=1, J=2, potentials=(psi1, psi2), rates=rates,
                           regime="I")


def two_state_flashing() -> ContinuousModel:
    """Flashing-potential motor: two shifted cosine wells with switching
    windows placed so that no reflection maps the model onto itself.  Detailed
    balance is broken and the model transports: DH(0) ~ +0.159.

    The window offsets were tuned on the eigenvalue pipeline (a symmetric
    placement such as 0.5/0.75 has a hidden parity (y,1) <-> (5/4 - y,2) and
    gives exactly zero velocity)."""
    psi1 = _cosine((1.0, 0.0))
    psi2 = _cosine((1.0, 0.25))
    r12 = field_from_function(
        lambda y: 3.0 * (1.0 + math.cos(2 * math.pi * (y - 0.625))) ** 2 / 2.0)
    r21 = field_from_function(
        lambda y: 3.0 * (1.0 + math.cos(2 * math.pi * y)) ** 2 / 2.0)
    rates = SwitchingRateMatrix(J=2, entries=((None, r12), (r21, None)))
    return ContinuousModel(dim=1, J=2, potentials=(psi1, psi2), rates=rates,
                           regime="I")


def discrete_asymmetric(r_plus: float = 2.0, r_minus: float = 1.0,
                        ell: int = 4) -> DiscreteModel:
    """Biased walk with constant rates: H(p) = r_+(e^p - 1) + r_-(e^{-p} - 1)."""
    return DiscreteModel(
        ell=ell, J=1,
        hop_rates_plus=np.full((1, ell), float(r_plus)),
        hop_rates_minus=np.full((1, ell), float(r_minus)),
        switching=np.zeros((1, 1, ell)), regime="I")


def discrete_two_state(ell: int = 6) -> DiscreteModel:
    """Two chemical states with site-dependent hop rates and site-dependent
    switching; used for the fast-switching consistency checks."""
    ks = np.arange(ell)
    rp = np.stack([2.0 + 0.5 * np.cos(2 * np.pi * ks / ell),
                   1.0 + 0.3 * np.sin(2 * np.pi * ks / ell)])
    rm = np.stack([1.0 + 0.4 * np.sin(2 * np.pi * ks / ell) ** 2,
                   2.0 + 0.2 * np.cos(2 * np.pi * ks / ell)])
    sw = np.zeros((2, 2, ell))
    sw[0, 1] = 1.5 + np.cos(2 * np.pi * ks / ell)
    sw[1, 0] = 1.0 + 0.8 * np.sin(2 * np.pi * ks / ell) ** 2
    return DiscreteModel(ell=ell, J=2, hop_rates_plus=rp, hop_rates_minus=rm,
                         switching=sw, regime="I")


PRESETS = {
    "constant_drift": constant_drift,
    "tilted_cosine": tilted_cosine,
    "detailed_balance_pair": detailed_balance_pair,
    "two_state_flashing": two_state_flashing,
    "discrete_asymmetric": discrete_asymmetric,
    "discrete_two_state": discrete_two_state,
}


def get_preset(name: str):
    """A fresh model of preset `name`; an unknown name raises InputError."""
    if name not in PRESETS:
        raise InputError(f"unknown preset {name!r}; available: "
                         f"{', '.join(sorted(PRESETS))}")
    return PRESETS[name]()
