"""Periodic scalar fields given by truncated Fourier series plus an affine tilt.

A field evaluates as

    f(y) = slope . y + sum_k [ a_k cos(2 pi k.y / L) + b_k sin(2 pi k.y / L) ]

with integer wave vectors k and period L per axis.  Gradients are analytic
derivatives of the series, so they carry no discretization error.  The affine
part is stored separately: it represents a constant external force and is
well defined on the torus through its local increments even though it is not
periodic itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PeriodicScalarField:
    """Band-limited scalar field on a d-dimensional torus of period `period`."""

    dim: int
    period: float = 1.0
    fourier_coeffs: tuple = ()
    affine_slope: tuple = ()

    # derived, filled in __post_init__: the field as the one column of
    # `stack_modes`, which every evaluation reads
    _modes: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _slope: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _tilted: bool = field(init=False, repr=False, compare=False, default=False)
    _roundoff: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"field dimension must be >= 1, got {self.dim}")
        if not 0 < self.period < math.inf:
            raise ValueError(f"field period must be positive and finite, "
                             f"got {self.period}")
        coeffs = []
        for k, a, b in self.fourier_coeffs:
            k = np.atleast_1d(np.asarray(k, dtype=float))
            if k.shape != (self.dim,):
                raise ValueError(
                    f"wave vector {k} does not match field dimension {self.dim}"
                )
            if not np.all(np.isfinite(k) & (k == np.round(k))):
                raise ValueError(f"wave vectors must be integer, got {k}")
            coeffs.append((tuple(int(x) for x in k), float(a), float(b)))
        slope = np.zeros(self.dim) if len(self.affine_slope) == 0 else np.asarray(
            self.affine_slope, dtype=float
        )
        if slope.shape != (self.dim,):
            raise ValueError(
                f"affine slope {slope} does not match field dimension {self.dim}"
            )
        # normalized tuples so equality/hashing work on plain data
        object.__setattr__(self, "fourier_coeffs", tuple(coeffs))
        object.__setattr__(self, "affine_slope", tuple(slope))
        modes = stack_modes([self])
        if not (np.all(np.isfinite(modes[-2:])) and np.all(np.isfinite(slope))):
            raise ValueError("Fourier amplitudes and affine slope must be finite")
        for arr in (modes, slope):
            arr.setflags(write=False)
        object.__setattr__(self, "_modes", modes)
        object.__setattr__(self, "_slope", slope)
        object.__setattr__(self, "_tilted", bool(np.any(slope != 0.0)))
        object.__setattr__(self, "_roundoff", 8.0 * np.finfo(float).eps * float(
            np.sum(np.abs(modes[-2])) + np.sum(np.abs(modes[-1]))))

    # -- evaluation ------------------------------------------------------------

    def _point(self, y) -> np.ndarray:
        return point_array(np.atleast_1d(y)[None], self.dim)

    def value(self, y) -> float:
        return float(self._values(self._point(y))[0])

    def gradient(self, y) -> np.ndarray:
        return self._gradients(self._point(y))[0]

    # -- vectorized grid evaluation ---------------------------------------------

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array of points."""
        return self._values(point_array(points, self.dim))

    def periodic_values(self, points: np.ndarray) -> np.ndarray:
        """Fourier part only (no affine tilt); safe across the torus seam."""
        return self._fourier(point_array(points, self.dim))

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the gradient at an (n, d) array of points; returns (n, d)."""
        return self._gradients(point_array(points, self.dim))

    def _fourier(self, pts: np.ndarray) -> np.ndarray:
        return fourier_values(self._modes, pts.T)

    def _values(self, pts: np.ndarray) -> np.ndarray:
        if not self._tilted:
            return self._fourier(pts)
        return _ordered_sum(pts.T * self._slope[:, None]) + self._fourier(pts)

    def _gradients(self, pts: np.ndarray) -> np.ndarray:
        return self._slope + fourier_gradients(self._modes, pts.T).T

    # -- structure queries -------------------------------------------------------

    @property
    def slope(self) -> np.ndarray:
        return self._slope

    @property
    def roundoff(self) -> float:
        """8 eps sum_k (|a_k| + |b_k|), about the rounding error of an
        evaluation of the Fourier part: a value within it of zero is zero to
        working precision."""
        return self._roundoff

    @property
    def max_band(self) -> int:
        """Largest |k|_inf over the spectrum (0 for a constant field)."""
        return max((max(abs(x) for x in k) for k, _, _ in self.fourier_coeffs),
                   default=0)

    def is_periodic(self) -> bool:
        return not self._tilted


# -- the Fourier evaluator -----------------------------------------------------
#
# Sums over modes and axes run elementwise in a fixed order, never through a
# BLAS product, so a point's result depends neither on how many points nor on
# which other columns of a stack are evaluated with it.

def stack_modes(fields: Sequence) -> np.ndarray:
    """(d + 2, m, k) modes of k fields of one dimension d (None: the zero
    field): rows :d hold the angular wave numbers 2 pi k / L, rows d and
    d + 1 the cos and sin amplitudes, each field padded with zero modes to
    the longest spectrum (one zero mode when no field has modes).  A zero
    mode adds 0.0 to a sum."""
    present = [f for f in fields if f is not None]
    dim = present[0].dim if present else 1
    m = max([len(f.fourier_coeffs) for f in present] + [1])
    modes = np.zeros((dim + 2, m, len(fields)))
    for col, f in enumerate(fields):
        for row, (k, a, b) in enumerate(() if f is None else f.fourier_coeffs):
            modes[:dim, row, col] = (TWO_PI / f.period) * np.asarray(k, dtype=float)
            modes[dim:, row, col] = a, b
    return modes


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ..., added left to right."""
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total


def _phases(omegas: np.ndarray, y) -> np.ndarray:
    """omega . y per mode: omegas (d, m, ...) against coordinates y (d, ...)."""
    phase = omegas[0] * y[0]
    for a in range(1, len(omegas)):
        phase = phase + omegas[a] * y[a]
    return phase


def fourier_values(modes: np.ndarray, y) -> np.ndarray:
    """sum_m a_m cos(omega_m . y) + b_m sin(omega_m . y) of stacked `modes`
    (d + 2, m, ...), whose trailing axes broadcast against the trailing axes
    of the coordinates y (d, ...)."""
    phase = _phases(modes[:-2], y)
    return _ordered_sum(modes[-2] * np.cos(phase) + modes[-1] * np.sin(phase))


def fourier_gradients(modes: np.ndarray, y) -> np.ndarray:
    """(d, ...) gradient of the sums of `fourier_values`."""
    omegas = modes[:-2]
    phase = _phases(omegas, y)
    weights = modes[-1] * np.cos(phase) - modes[-2] * np.sin(phase)
    return _ordered_sum((omegas * weights).swapaxes(0, 1))


def point_array(points, dim: Optional[int]) -> np.ndarray:
    """`points` as an (n, dim) float array (dim None: any column count); for
    dim 1 a bare (n,) array is n points.  Any other shape raises."""
    pts = np.asarray(points, dtype=float)
    if dim == 1 and pts.ndim == 1:
        return pts[:, None]
    if pts.ndim != 2 or dim not in (None, pts.shape[1]):
        raise ValueError(f"points of shape {pts.shape} are not (n, d) with "
                         f"dim d = {'any' if dim is None else dim}")
    return pts


def grid_points(dim: int, n_per_axis: int, period: float = 1.0) -> np.ndarray:
    """Uniform lattice on the torus: (n_per_axis**dim, dim) array."""
    axis = np.arange(n_per_axis) * (period / n_per_axis)
    if dim == 1:
        return axis.reshape(-1, 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def sampling_resolution(fields: Iterable[PeriodicScalarField]) -> int:
    """Sampling density that resolves every field: 4 points per highest
    mode, and at least 64."""
    band = max((f.max_band for f in fields), default=0)
    return max(64, 4 * (band + 1))


def field_from_function(fn, period: float = 1.0, samples: int = 512,
                        tol: float = 1e-13) -> PeriodicScalarField:
    """Fit a 1-d periodic function by its Fourier series (FFT on a fine grid).

    Modes below `tol` relative to the largest coefficient are dropped.  For
    analytic functions (e.g. exponentials of band-limited fields) the result
    is exact to solver precision: coefficients decay geometrically, so the
    truncation and aliasing errors sit far below round-off at 512 samples.
    """
    ys = np.arange(samples) * (period / samples)
    vals = np.array([float(fn(float(y))) for y in ys])
    spectrum = np.fft.rfft(vals) / samples
    modes = [((0,), float(spectrum[0].real), 0.0)]
    top = max(np.max(np.abs(spectrum)), 1e-300)
    for m in range(1, len(spectrum)):
        a = 2.0 * spectrum[m].real
        b = -2.0 * spectrum[m].imag
        if m == samples // 2:
            a, b = spectrum[m].real, 0.0   # Nyquist mode is real
        if abs(a) > tol * top or abs(b) > tol * top:
            modes.append(((m,), float(a), float(b)))
    return PeriodicScalarField(dim=1, period=period,
                               fourier_coeffs=tuple(modes))
