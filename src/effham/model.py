"""Switching-process models: continuous drift-diffusion and discrete hop models.

Both models couple a spatial motion (diffusion in a family of periodic
potentials, or a nearest-neighbour walk with per-state hop rates) to a finite
chemical state that switches with position-dependent rates.  `validate` checks
the structural assumptions the downstream solvers rely on (nonnegative rates,
strictly positive hop rates, irreducible coupling) and returns a report rather
than raising.

Outside input (a model description, a run config) is read by the rules
here: `read_json`, `json_object`, `integer` and `number` raise `InputError`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from typing import List, Optional, Union

import numpy as np

from .chains import _switching_findings, point_label
from .fields import (Frozen, PeriodicScalarField, fourier_values, freeze,
                     grid_points, point_array, read_only, sampling_resolution,
                     stack_modes)

REGIMES = ("I", "II")


class InputError(ValueError):
    """Invalid outside input: a config or model file that cannot be read,
    or a value in it that breaks its rule (the CLI's exit 2)."""


def _snapped(values, roundoff):
    """Rate samples `values`, with those within their field's evaluation
    round-off (broadcast against them) of zero set to exactly 0."""
    return np.where(np.abs(values) <= roundoff, 0.0, values)


@dataclass(frozen=True)
class SwitchingRateMatrix(Frozen):
    """J x J array of rate fields r_ij(y); the diagonal is ignored."""

    J: int
    entries: tuple  # J x J of PeriodicScalarField or None on the diagonal

    # derived, filled in __post_init__: the (d + 2, m, J, J) `stack_modes`
    # of the entries (zero fields on the diagonal and for None) and each
    # entry's round-off (J, J); the entries' dimension (None without entries)
    _stack: tuple = field(init=False, repr=False, compare=False, default=None)
    _dim: Optional[int] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.J < 1:
            raise ValueError("J must be >= 1")
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != self.J or any(len(r) != self.J for r in rows):
            raise ValueError(f"rate matrix must be {self.J}x{self.J}")
        dims = set()
        periods = set()
        for i, row in enumerate(rows):
            for j, entry in enumerate(row):
                if i == j or entry is None:
                    continue
                if not isinstance(entry, PeriodicScalarField):
                    raise TypeError("rate entries must be PeriodicScalarField")
                if not entry.is_periodic():
                    raise ValueError(f"rate field r[{i}][{j}] must be periodic "
                                     "(no affine tilt)")
                dims.add(entry.dim)
                periods.add(entry.period)
        if len(dims) > 1 or len(periods) > 1:
            raise ValueError("all rate fields must share dim and period")
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "_dim", next(iter(dims), None))
        fields = [None if i == j else e for i, row in enumerate(rows)
                  for j, e in enumerate(row)]
        modes = stack_modes(fields)
        with np.errstate(over="ignore"):     # an infinite sum is rejected
            sizes = np.abs(modes[-2:]).sum(axis=(0, 1)).reshape(self.J, -1)
            if not np.isfinite(sizes.sum(axis=1)).all():
                raise ValueError("each state's summed rate amplitudes must be "
                                 "finite")
        object.__setattr__(self, "_stack", (
            read_only(modes.reshape(modes.shape[:2] + (self.J, self.J))),
            read_only(np.reshape([0.0 if f is None else f.roundoff
                                  for f in fields], (self.J, self.J)))))

    def rates_at(self, y) -> np.ndarray:
        """Full J x J rate matrix at a point (diagonal zero): one row of
        `values`."""
        return self.values(np.atleast_1d(y)[None])[0]

    def values(self, points) -> np.ndarray:
        """(n, J, J) rate matrices at an (n, d) array of points (diagonal zero).

        A sample within its field's evaluation round-off of zero is exactly
        0, so a rate field that touches zero vanishes there whatever the
        sign of its round-off."""
        modes, roundoff = self._stack
        y = point_array(points, self._dim).T[:, :, None, None]
        return _snapped(fourier_values(modes[:, :, None], y), roundoff)

    def iter_fields(self) -> list:
        return [e for i, row in enumerate(self.entries)
                for j, e in enumerate(row) if i != j and e is not None]


@dataclass(frozen=True)
class ContinuousModel(Frozen):
    """Diffusion in per-state potentials, switching at rates r_ij(y)."""

    dim: int
    J: int
    potentials: tuple  # J PeriodicScalarField
    rates: SwitchingRateMatrix
    regime: str = "I"

    def __post_init__(self):
        pots = tuple(self.potentials)
        if len(pots) != self.J:
            raise ValueError(f"expected {self.J} potentials, got {len(pots)}")
        for psi in pots:
            if psi.dim != self.dim:
                raise ValueError("all potentials must share the model dimension")
        periods = {psi.period for psi in pots}
        if len(periods) > 1:
            raise ValueError("all potentials must share the period")
        if self.rates.J != self.J:
            raise ValueError("rate matrix size must equal J")
        for f in self.rates.iter_fields():
            if f.dim != self.dim or f.period != pots[0].period:
                raise ValueError("rate fields must share dim and period with "
                                 "the potentials")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        object.__setattr__(self, "potentials", pots)

    @property
    def period(self) -> float:
        return self.potentials[0].period


@dataclass(frozen=True)
class DiscreteModel(Frozen):
    """Nearest-neighbour walk on a torus of `ell` sites with chemical switching."""

    ell: int
    J: int
    hop_rates_plus: np.ndarray   # (J, ell), > 0
    hop_rates_minus: np.ndarray  # (J, ell), > 0
    switching: np.ndarray        # (J, J, ell), >= 0, diagonal ignored
    regime: str = "I"

    def __post_init__(self):
        if self.ell < 2:
            raise ValueError("torus length ell must be >= 2")
        if self.J < 1:
            raise ValueError("J must be >= 1")
        rp = freeze(self, "hop_rates_plus")
        rm = freeze(self, "hop_rates_minus")
        sw = freeze(self, "switching")
        if rp.shape != (self.J, self.ell) or rm.shape != (self.J, self.ell):
            raise ValueError(f"hop rate arrays must have shape ({self.J}, {self.ell})")
        if sw.shape != (self.J, self.J, self.ell):
            raise ValueError(
                f"switching array must have shape ({self.J}, {self.J}, {self.ell})")
        if not (np.isfinite(rp).all() and np.isfinite(rm).all()
                and np.isfinite(sw).all()):
            raise ValueError("rates must be finite")
        off = np.where(np.eye(self.J, dtype=bool)[:, :, None], 0.0, np.abs(sw))
        with np.errstate(over="ignore"):     # an infinite sum is rejected
            exits = np.abs(rp) + np.abs(rm) + off.sum(axis=1)
        if not np.isfinite(exits).all():
            raise ValueError("each state's total exit rate (hops plus "
                             "switching) must be finite at every site")
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")


Model = Union[ContinuousModel, DiscreteModel]


def scaled_switching(model: Model, gamma: float) -> Model:
    """`model` with switching rates gamma r_ij (gamma-scaled Fourier
    amplitudes for a continuous model), gamma times faster than the spatial
    motion; regime II is the limit gamma -> infinity.  A gamma that is not
    positive and finite, or takes a rate out of the float range, raises."""
    if not 0 < gamma < np.inf:
        raise ValueError(f"gamma = {gamma} must be positive and finite")
    if isinstance(model, DiscreteModel):
        with np.errstate(over="ignore"):     # an infinite rate is rejected
            return replace(model, switching=gamma * model.switching)
    if isinstance(model, ContinuousModel):
        return replace(model, rates=SwitchingRateMatrix(J=model.J, entries=[
            [None if f is None else replace(f, fourier_coeffs=[
                (k, gamma * a, gamma * b) for k, a, b in f.fourier_coeffs])
             for f in row] for row in model.rates.entries]))
    raise TypeError(f"not a model: {type(model)!r}")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Violation:
    kind: str
    location: str
    detail: str

    def __str__(self):
        return f"{self.kind} at {self.location}: {self.detail}"


def validate(model: Model) -> List[Violation]:
    """Check the structural assumptions the solvers rely on.

    Returns a list of violations; an empty list means the model is valid.
    Hop rates must be positive.  The switching rates (a continuous model's
    sampled on the lattice from `sampling_resolution`: a sample, not a
    bound, so a dip between its points goes unseen) go through the check
    the operator builders raise from, `chains._switching_findings`; in
    regime II the model also needs a unique positive stationary law at
    every lattice point (every site).
    """
    report: List[Violation] = []
    if isinstance(model, ContinuousModel):
        n = sampling_resolution(list(model.potentials)
                                + model.rates.iter_fields())
        pts = grid_points(model.dim, n, model.period)
        R, label = model.rates.values(pts), lambda k: point_label(pts[k])
    elif isinstance(model, DiscreteModel):
        for sign, arr in (("+", model.hop_rates_plus), ("-", model.hop_rates_minus)):
            for i, k in np.argwhere(arr <= 0):
                report.append(Violation(
                    "nonpositive_hop_rate", f"r{sign}[{i+1}](k={k})",
                    f"value {arr[i, k]:.3e} must be > 0"))
        R, label = np.moveaxis(model.switching, -1, 0), lambda k: f"k={k}"
    else:
        raise TypeError(f"not a model: {type(model)!r}")
    report += [Violation(*finding) for finding in _switching_findings(
        R, label, sampled=isinstance(model, ContinuousModel),
        laws=model.regime == "II")]
    return report


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

_FIELD_KEYS = {"coeffs", "slope"}
_CONT_KEYS = {"kind", "dim", "J", "regime", "potentials", "rates", "period"}
_DISC_KEYS = {"kind", "ell", "J", "regime", "hop_rates_plus", "hop_rates_minus",
              "switching"}


def read_json(path, what: str):
    """The JSON value in the `what` file ("config", "model") at `path`; a
    file that does not exist, cannot be read as UTF-8 text or is not JSON
    raises InputError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (FileNotFoundError, NotADirectoryError) as exc:
        raise InputError(f"{what} file {path} does not exist") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def json_object(obj, keys, where: str) -> dict:
    """`obj`, once it is a JSON object with no key outside `keys`; `where`
    names it in the InputError otherwise."""
    if not isinstance(obj, dict):
        raise InputError(f"{where} must be a JSON object")
    unknown = set(obj) - keys
    if unknown:
        raise InputError(f"unknown keys {sorted(unknown)} in {where}")
    return obj


def _field_from_json(obj, dim: int, period: float) -> PeriodicScalarField:
    json_object(obj, _FIELD_KEYS, "field")
    modes = []
    for entry in obj.get("coeffs", []):
        if len(entry) != dim + 2:
            raise InputError(
                f"coeff entry {entry} must have {dim} wave numbers plus (a, b)")
        for k in entry[:dim]:
            number(k, "wave number")
        modes.append((tuple(entry[:dim]), number(entry[dim], "amplitude"),
                      number(entry[dim + 1], "amplitude")))
    slope = tuple(number(s, "slope") for s in obj.get("slope", []))
    if slope and len(slope) != dim:
        raise InputError(f"slope {slope} must have length {dim}")
    return PeriodicScalarField(dim=dim, period=period, fourier_coeffs=tuple(modes),
                               affine_slope=slope)


def _field_to_json(f: Optional[PeriodicScalarField]):
    if f is None:
        return None
    return {
        "coeffs": [list(k) + [a, b] for (k, a, b) in f.fourier_coeffs],
        "slope": list(f.affine_slope),
    }


def fits_float(value) -> bool:
    """True for a JSON number that a float holds: an int or a float, not a
    bool, and not an int beyond the largest float."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and (isinstance(value, float) or abs(value) <= sys.float_info.max))


def number(value, what: str, *, finite: bool = False,
           positive: bool = False) -> float:
    """`value` as a float: a JSON number `fits_float` accepts, finite when
    `finite` and > 0 as well when `positive`.  Anything else (a bool, a
    string, null, an int beyond the float range) raises InputError naming
    `what`, and is never converted."""
    finite = finite or positive
    if not (fits_float(value) and (not finite or math.isfinite(value))
            and (not positive or value > 0)):
        kind = "a positive finite" if positive else "a finite" if finite else "a"
        raise InputError(f"{what} must be {kind} number, got {value!r}")
    return float(value)


def _numbers(value, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array; each entry is checked
    by `number` unless all are Python floats."""
    items = np.asarray(value, dtype=object)
    if set(map(type, items.flat)) - {float}:
        for item in items.flat:
            number(item, what)
    return np.asarray(value, dtype=float)


def integer(value, what: str, *, at_least: int = -sys.maxsize - 1,
            at_most: int = sys.maxsize) -> int:
    """`value` as an int in [at_least, at_most] (by default, the range of an
    index).  Any JSON int or whole float is an integer; a bool, a string or
    a number with a fractional part raises InputError naming `what`, and is
    never truncated, and so does an integer out of range."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or value % 1:     # NaN % 1 and inf % 1 are NaN
        raise InputError(f"{what} must be an integer, got {value!r}")
    if value < at_least:
        raise InputError(f"{what} must be at least {at_least}, got {value!r}")
    if value > at_most:
        raise InputError(f"{what} must be at most {at_most}, got {value!r}")
    return int(value)


def model_from_dict(obj) -> Model:
    """The model a JSON model description holds; a malformed one raises
    InputError."""
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if isinstance(obj, dict) and kind not in ("continuous", "discrete"):
        raise InputError('model "kind" must be "continuous" or "discrete", '
                         f"got {kind!r}")
    json_object(obj, _CONT_KEYS if kind == "continuous" else _DISC_KEYS,
                "model")
    if kind == "continuous":
        try:
            dim, J = integer(obj["dim"], '"dim"'), integer(obj["J"], '"J"')
            regime = str(obj["regime"])
            period = number(obj.get("period", 1.0), '"period"')
            pots = tuple(_field_from_json(p, dim, period) for p in obj["potentials"])
            raw = obj["rates"]
            entries = tuple(
                tuple(None if (i == j or raw[i][j] is None)
                      else _field_from_json(raw[i][j], dim, period)
                      for j in range(J))
                for i in range(J))
            return ContinuousModel(dim=dim, J=J, potentials=pots,
                                   rates=SwitchingRateMatrix(J=J, entries=entries),
                                   regime=regime)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise InputError(f"malformed continuous model: {exc}") from exc
    try:
        return DiscreteModel(
            ell=integer(obj["ell"], '"ell"'), J=integer(obj["J"], '"J"'),
            regime=str(obj["regime"]),
            **{key: _numbers(obj[key], f'"{key}"') for key in (
                "hop_rates_plus", "hop_rates_minus", "switching")})
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError(f"malformed discrete model: {exc}") from exc


def model_to_dict(model: Model) -> dict:
    if isinstance(model, ContinuousModel):
        return {
            "kind": "continuous",
            "dim": model.dim,
            "J": model.J,
            "regime": model.regime,
            "period": model.period,
            "potentials": [_field_to_json(p) for p in model.potentials],
            "rates": [[_field_to_json(model.rates.entries[i][j]) if i != j else None
                       for j in range(model.J)] for i in range(model.J)],
        }
    if isinstance(model, DiscreteModel):
        return {
            "kind": "discrete",
            "ell": model.ell,
            "J": model.J,
            "regime": model.regime,
            "hop_rates_plus": model.hop_rates_plus.tolist(),
            "hop_rates_minus": model.hop_rates_minus.tolist(),
            "switching": model.switching.tolist(),
        }
    raise TypeError(f"not a model: {type(model)!r}")


def load_model(path) -> Model:
    return model_from_dict(read_json(path, "model"))
