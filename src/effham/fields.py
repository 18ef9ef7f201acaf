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

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PeriodicScalarField:
    """Band-limited scalar field on a d-dimensional torus of period `period`."""

    dim: int
    period: float = 1.0
    fourier_coeffs: tuple = ()
    affine_slope: tuple = ()

    # derived arrays, filled in __post_init__: (d, m, 1) angular wave
    # numbers 2 pi k / L and (m, 1) amplitudes, mode-major so that every
    # elementwise operation runs along the points (a field without modes
    # carries one zero mode)
    _modes: tuple = field(init=False, repr=False, compare=False, default=None)
    _slope: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _tilted: bool = field(init=False, repr=False, compare=False, default=False)
    _roundoff: float = field(init=False, repr=False, compare=False, default=0.0)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"field dimension must be >= 1, got {self.dim}")
        if not self.period > 0:
            raise ValueError(f"field period must be positive, got {self.period}")
        coeffs = list(self.fourier_coeffs)
        m = len(coeffs)
        K = np.zeros((m, self.dim), dtype=float)
        A = np.zeros(m)
        B = np.zeros(m)
        for row, entry in enumerate(coeffs):
            k, a, b = entry
            k = np.atleast_1d(np.asarray(k, dtype=float))
            if k.shape != (self.dim,):
                raise ValueError(
                    f"wave vector {k} does not match field dimension {self.dim}"
                )
            if not np.all(k == np.round(k)):
                raise ValueError(f"wave vectors must be integer, got {k}")
            K[row] = k
            A[row] = float(a)
            B[row] = float(b)
        slope = np.zeros(self.dim) if len(self.affine_slope) == 0 else np.asarray(
            self.affine_slope, dtype=float
        )
        if slope.shape != (self.dim,):
            raise ValueError(
                f"affine slope {slope} does not match field dimension {self.dim}"
            )
        padded = max(m, 1)
        modes = (np.zeros((self.dim, padded, 1)), np.zeros((padded, 1)),
                 np.zeros((padded, 1)))
        modes[0][:, :m, 0] = (TWO_PI / self.period) * K.T
        modes[1][:m, 0], modes[2][:m, 0] = A, B
        for arr in modes + (slope,):
            arr.setflags(write=False)
        object.__setattr__(self, "_modes", modes)
        object.__setattr__(self, "_slope", slope)
        object.__setattr__(self, "_tilted", bool(np.any(slope != 0.0)))
        object.__setattr__(self, "_roundoff", 8.0 * np.finfo(float).eps
                           * float(np.sum(np.abs(A)) + np.sum(np.abs(B))))
        # normalized tuples so equality/hashing work on plain data
        object.__setattr__(
            self,
            "fourier_coeffs",
            tuple((tuple(int(x) for x in K[r]), A[r], B[r]) for r in range(m)),
        )
        object.__setattr__(self, "affine_slope", tuple(slope))

    # -- evaluation ------------------------------------------------------------

    def _check_point(self, y) -> np.ndarray:
        y = np.atleast_1d(np.asarray(y, dtype=float))
        if y.shape != (self.dim,):
            raise ValueError(f"point of dim {y.shape} passed to field of dim {self.dim}")
        return y

    def value(self, y) -> float:
        return float(self._values(self._check_point(y)[None])[0])

    def gradient(self, y) -> np.ndarray:
        return self._gradients(self._check_point(y)[None])[0]

    # -- vectorized grid evaluation ---------------------------------------------
    #
    # Sums over modes and axes run elementwise in a fixed order, never through
    # a BLAS product, so a point's result does not depend on how many points
    # are evaluated with it: `value(y) == values([y])[0]` bit for bit.

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array of points."""
        return self._values(self._points(points))

    def periodic_values(self, points: np.ndarray) -> np.ndarray:
        """Fourier part only (no affine tilt); safe across the torus seam."""
        return self._fourier(self._points(points))

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the gradient at an (n, d) array of points; returns (n, d)."""
        return self._gradients(self._points(points))

    def _points(self, points) -> np.ndarray:
        return np.asarray(points, dtype=float).reshape(-1, self.dim)

    def _phases(self, pts: np.ndarray) -> np.ndarray:
        """(m, n) phases 2 pi k.y / L."""
        omegas = self._modes[0]
        phase = omegas[0] * pts[:, 0]
        for a in range(1, self.dim):
            phase = phase + omegas[a] * pts[:, a]
        return phase

    def _fourier(self, pts: np.ndarray) -> np.ndarray:
        _, cos_amps, sin_amps = self._modes
        phase = self._phases(pts)
        return _ordered_sum(cos_amps * np.cos(phase) + sin_amps * np.sin(phase))

    def _values(self, pts: np.ndarray) -> np.ndarray:
        if not self._tilted:
            return self._fourier(pts)
        return _ordered_sum(pts.T * self._slope[:, None]) + self._fourier(pts)

    def _gradients(self, pts: np.ndarray) -> np.ndarray:
        omegas, cos_amps, sin_amps = self._modes
        phase = self._phases(pts)
        weights = sin_amps * np.cos(phase) - cos_amps * np.sin(phase)
        return self._slope + _ordered_sum((omegas * weights).transpose(1, 0, 2)).T

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
    def modes(self) -> tuple:
        """The (d, m, 1) angular wave numbers and (m, 1) cos/sin amplitudes
        every evaluation reads (one zero mode for a field without modes)."""
        return self._modes

    @property
    def max_band(self) -> int:
        """Largest |k|_inf over the spectrum (0 for a constant field)."""
        return max((max(abs(x) for x in k) for k, _, _ in self.fourier_coeffs),
                   default=0)

    def is_periodic(self) -> bool:
        return not self._tilted


def _ordered_sum(rows: np.ndarray) -> np.ndarray:
    """rows[0] + rows[1] + ..., added left to right."""
    total = rows[0]
    for row in rows[1:]:
        total = total + row
    return total


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
