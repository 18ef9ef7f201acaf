"""Switching-process models: continuous drift-diffusion and discrete hop models.

Both models couple a spatial motion (diffusion in a family of periodic
potentials, or a nearest-neighbour walk with per-state hop rates) to a finite
chemical state that switches with position-dependent rates.  `validate` checks
the structural assumptions the downstream solvers rely on (nonnegative rates,
strictly positive hop rates, irreducible coupling) and returns a report rather
than raising.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .chains import (irreducible, negative_samples, point_label,
                     stationary_measures)
from .fields import (PeriodicScalarField, fourier_values, grid_points,
                     point_array, sampling_resolution, stack_modes)

REGIMES = ("I", "II")


class ModelFormatError(ValueError):
    """Malformed model description (JSON schema violation, shape mismatch)."""


def _snapped(values, roundoff):
    """Rate samples `values`, with those within their field's evaluation
    round-off (broadcast against them) of zero set to exactly 0."""
    return np.where(np.abs(values) <= roundoff, 0.0, values)


@dataclass(frozen=True)
class SwitchingRateMatrix:
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
        object.__setattr__(self, "_stack", (
            modes.reshape(modes.shape[:2] + (self.J, self.J)), np.reshape(
                [0.0 if f is None else f.roundoff for f in fields],
                (self.J, self.J))))

    def rate(self, i: int, j: int, y) -> float:
        return float(self.rates_at(y)[i, j])

    def rates_at(self, y) -> np.ndarray:
        """Full J x J rate matrix at a point (diagonal zero): one row of
        `values`."""
        return self.values(np.atleast_1d(y)[None])[0]

    def values(self, points) -> np.ndarray:
        """(n, J, J) rate matrices at an (n, d) array of points (diagonal zero).

        A sample within its field's evaluation round-off of zero is exactly
        0, so a rate field that touches zero vanishes there whatever the
        sign of its round-off."""
        return self.rates_out_of(np.arange(self.J)[None],
                                 point_array(points, self._dim).T[:, :, None])

    def rates_out_of(self, states, y) -> np.ndarray:
        """(..., J) rates r_ij out of states i at coordinates y (d, ...), the
        states broadcasting against y's trailing axes: (n, J) out of the own
        states of n points y (d, n).  Evaluated and snapped as `values`."""
        modes, roundoff = self._stack
        return _snapped(fourier_values(modes[:, :, states], y[..., None]),
                        roundoff[states])

    def iter_fields(self) -> list:
        return [e for i, row in enumerate(self.entries)
                for j, e in enumerate(row) if i != j and e is not None]


@dataclass(frozen=True)
class ContinuousModel:
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
class DiscreteModel:
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
        rp = np.asarray(self.hop_rates_plus, dtype=float)
        rm = np.asarray(self.hop_rates_minus, dtype=float)
        sw = np.asarray(self.switching, dtype=float)
        if rp.shape != (self.J, self.ell) or rm.shape != (self.J, self.ell):
            raise ValueError(f"hop rate arrays must have shape ({self.J}, {self.ell})")
        if sw.shape != (self.J, self.J, self.ell):
            raise ValueError(
                f"switching array must have shape ({self.J}, {self.J}, {self.ell})")
        if not (np.isfinite(rp).all() and np.isfinite(rm).all()
                and np.isfinite(sw).all()):
            raise ValueError("rates must be finite")
        for arr in (rp, rm, sw):
            arr.setflags(write=False)
        if self.regime not in REGIMES:
            raise ValueError(f"regime must be one of {REGIMES}")
        object.__setattr__(self, "hop_rates_plus", rp)
        object.__setattr__(self, "hop_rates_minus", rm)
        object.__setattr__(self, "switching", sw)

    def sup_switching(self) -> np.ndarray:
        S = np.max(self.switching, axis=2)
        np.fill_diagonal(S, 0.0)
        return S


Model = Union[ContinuousModel, DiscreteModel]


def solve_regime(model: Model, regime: Optional[str] = None) -> str:
    """The regime to solve `model` in: `regime`, or the model's own when it
    is None.  Anything outside `REGIMES` raises ValueError."""
    if regime is None:
        return model.regime
    if regime not in REGIMES:
        raise ValueError(f"regime must be one of {REGIMES}, got {regime!r}")
    return regime


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


def _reducible_points(R: np.ndarray, labels) -> List[Violation]:
    """One violation per point whose switching chain has no unique positive
    stationary law: the points where the regime-II assembly would fail."""
    _, ok = stationary_measures(R)
    return [Violation("reducible_switching", labels(k),
                      "switching chain is reducible here (or its stationary "
                      "solve fails), so regime II has no averaged coefficients")
            for k in np.flatnonzero(~ok)]


def validate(model: Model, regime: Optional[str] = None) -> List[Violation]:
    """Check the structural assumptions the solvers rely on.

    Returns a list of violations; an empty list means the model is valid.
    Purely a sampling check for continuous rate fields (fields are
    band-limited, so the lattice from `sampling_resolution` is conclusive
    in practice).  When the regime to be solved (`regime`, default the
    model's own) is II, the switching chain must also be irreducible at
    every lattice point (every site), since the averaged coefficients need
    its stationary law there; this is the same kernel the assembly calls.
    """
    report: List[Violation] = []
    fast = solve_regime(model, regime) == "II"
    if isinstance(model, ContinuousModel):
        rate_fields = model.rates.iter_fields()
        n = sampling_resolution(list(model.potentials) + rate_fields)
        pts = grid_points(model.dim, n, model.period)
        R = model.rates.values(pts)
        report += [Violation("negative_rate",
                             f"r[{i+1}][{j+1}], {point_label(pts[k])}",
                             f"sampled value {R[k, i, j]:.3e} < 0")
                   for i, j, k in negative_samples(R)]
        if model.J >= 2 and not irreducible(np.max(R, axis=0) > 0):
            report.append(Violation(
                "reducible_coupling", "sup-matrix of switching rates",
                "positive-entry digraph is not strongly connected"))
        elif fast:
            report += _reducible_points(R, lambda k: point_label(pts[k]))
    elif isinstance(model, DiscreteModel):
        for sign, arr in (("+", model.hop_rates_plus), ("-", model.hop_rates_minus)):
            bad = np.argwhere(arr <= 0)
            for i, k in bad:
                report.append(Violation(
                    "nonpositive_hop_rate", f"r{sign}[{i+1}](k={k})",
                    f"value {arr[i, k]:.3e} must be > 0"))
        neg = np.argwhere(model.switching < 0)
        for i, j, k in neg:
            if i != j:
                report.append(Violation(
                    "negative_rate", f"r[{i+1}][{j+1}](k={k})",
                    f"value {model.switching[i, j, k]:.3e} < 0"))
        if model.J >= 2 and not irreducible(model.sup_switching() > 0):
            report.append(Violation(
                "reducible_coupling", "sup-matrix of switching rates",
                "positive-entry digraph is not strongly connected"))
        elif fast:
            report += _reducible_points(np.moveaxis(model.switching, -1, 0),
                                        lambda k: f"k={k}")
    else:
        raise TypeError(f"not a model: {type(model)!r}")
    return report


# ---------------------------------------------------------------------------
# JSON schema
# ---------------------------------------------------------------------------

_FIELD_KEYS = {"coeffs", "slope"}
_CONT_KEYS = {"kind", "dim", "J", "regime", "potentials", "rates", "period"}
_DISC_KEYS = {"kind", "ell", "J", "regime", "hop_rates_plus", "hop_rates_minus",
              "switching"}


def _field_from_json(obj, dim: int, period: float) -> PeriodicScalarField:
    if not isinstance(obj, dict):
        raise ModelFormatError(f"field must be an object, got {type(obj).__name__}")
    unknown = set(obj) - _FIELD_KEYS
    if unknown:
        raise ModelFormatError(f"unknown field keys {sorted(unknown)}")
    modes = []
    for entry in obj.get("coeffs", []):
        if len(entry) != dim + 2:
            raise ModelFormatError(
                f"coeff entry {entry} must have {dim} wave numbers plus (a, b)")
        for k in entry[:dim]:
            _number(k, "wave number")
        modes.append((tuple(entry[:dim]), _number(entry[dim], "amplitude"),
                      _number(entry[dim + 1], "amplitude")))
    slope = tuple(_number(s, "slope") for s in obj.get("slope", []))
    if slope and len(slope) != dim:
        raise ModelFormatError(f"slope {slope} must have length {dim}")
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


def _number(value, what: str) -> float:
    """A JSON number as a float; anything else `fits_float` rejects (a bool,
    a string, null, an int beyond the float range) raises, not converted."""
    if not fits_float(value):
        raise ModelFormatError(f"{what} must be a number, got {value!r}")
    return float(value)


def _numbers(value, what: str) -> np.ndarray:
    """Nested lists of JSON numbers as a float array; each entry is checked
    by `_number` unless all are Python floats."""
    items = np.asarray(value, dtype=object)
    if set(map(type, items.flat)) - {float}:
        for item in items.flat:
            _number(item, what)
    return np.asarray(value, dtype=float)


def _integer(obj: dict, key: str) -> int:
    """obj[key] as an int; anything else `fits_float` rejects, or a number
    with a fractional part, raises, not truncated."""
    value = obj[key]
    if not fits_float(value) or not float(value).is_integer():
        raise ModelFormatError(f'"{key}" must be an integer, got {value!r}')
    return int(value)


def model_from_dict(obj: dict) -> Model:
    if not isinstance(obj, dict):
        raise ModelFormatError("model description must be a JSON object")
    kind = obj.get("kind")
    if kind == "continuous":
        unknown = set(obj) - _CONT_KEYS
        if unknown:
            raise ModelFormatError(f"unknown model keys {sorted(unknown)}")
        try:
            dim, J = _integer(obj, "dim"), _integer(obj, "J")
            regime = str(obj["regime"])
            period = _number(obj.get("period", 1.0), '"period"')
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
            raise ModelFormatError(f"malformed continuous model: {exc}") from exc
    if kind == "discrete":
        unknown = set(obj) - _DISC_KEYS
        if unknown:
            raise ModelFormatError(f"unknown model keys {sorted(unknown)}")
        try:
            return DiscreteModel(
                ell=_integer(obj, "ell"), J=_integer(obj, "J"),
                regime=str(obj["regime"]),
                **{key: _numbers(obj[key], f'"{key}"') for key in (
                    "hop_rates_plus", "hop_rates_minus", "switching")})
        except (KeyError, ValueError, TypeError) as exc:
            raise ModelFormatError(f"malformed discrete model: {exc}") from exc
    raise ModelFormatError(f'model "kind" must be "continuous" or "discrete", '
                           f"got {kind!r}")


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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ModelFormatError(f"invalid JSON in {path}: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ModelFormatError(f"cannot read model file {path}: {exc}") from exc
    return model_from_dict(obj)
