"""Periodic scalar fields given by truncated Fourier series plus an affine tilt.

A field evaluates as

    f(y) = slope . y + sum_k [ a_k cos(2 pi k.y / L) + b_k sin(2 pi k.y / L) ]

with integer wave vectors k and period L per axis.  Gradients and Laplacians
are analytic derivatives of the series, so derivative evaluations carry no
discretization error.  The affine part is stored separately: it represents a
constant external force and is well defined on the torus through its local
increments even though it is not periodic itself.
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

    # derived arrays, filled in __post_init__
    _wavevecs: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _cos_amps: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _sin_amps: np.ndarray = field(init=False, repr=False, compare=False, default=None)
    _slope: np.ndarray = field(init=False, repr=False, compare=False, default=None)

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
        for arr in (K, A, B, slope):
            arr.setflags(write=False)
        object.__setattr__(self, "_wavevecs", K)
        object.__setattr__(self, "_cos_amps", A)
        object.__setattr__(self, "_sin_amps", B)
        object.__setattr__(self, "_slope", slope)
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

    def __call__(self, y) -> float:
        return self.value(y)

    def value(self, y) -> float:
        y = self._check_point(y)
        phase = TWO_PI * (self._wavevecs @ y) / self.period
        return float(self._slope @ y + self._cos_amps @ np.cos(phase)
                     + self._sin_amps @ np.sin(phase))

    def gradient(self, y) -> np.ndarray:
        y = self._check_point(y)
        phase = TWO_PI * (self._wavevecs @ y) / self.period
        weights = (-self._cos_amps * np.sin(phase) + self._sin_amps * np.cos(phase))
        return self._slope + (TWO_PI / self.period) * (weights @ self._wavevecs)

    def laplacian(self, y) -> float:
        y = self._check_point(y)
        phase = TWO_PI * (self._wavevecs @ y) / self.period
        k2 = np.sum(self._wavevecs ** 2, axis=1)
        amp = self._cos_amps * np.cos(phase) + self._sin_amps * np.sin(phase)
        return float(-((TWO_PI / self.period) ** 2) * (k2 @ amp))

    # -- vectorized grid evaluation ---------------------------------------------

    def values(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at an (n, d) array of points."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        phase = TWO_PI * (pts @ self._wavevecs.T) / self.period
        return pts @ self._slope + np.cos(phase) @ self._cos_amps \
            + np.sin(phase) @ self._sin_amps

    def periodic_values(self, points: np.ndarray) -> np.ndarray:
        """Fourier part only (no affine tilt); safe across the torus seam."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        phase = TWO_PI * (pts @ self._wavevecs.T) / self.period
        return np.cos(phase) @ self._cos_amps + np.sin(phase) @ self._sin_amps

    def gradients(self, points: np.ndarray) -> np.ndarray:
        """Evaluate the gradient at an (n, d) array of points; returns (n, d)."""
        pts = np.asarray(points, dtype=float).reshape(-1, self.dim)
        phase = TWO_PI * (pts @ self._wavevecs.T) / self.period
        weights = -np.sin(phase) * self._cos_amps + np.cos(phase) * self._sin_amps
        return self._slope + (TWO_PI / self.period) * (weights @ self._wavevecs)

    # -- structure queries -------------------------------------------------------

    @property
    def slope(self) -> np.ndarray:
        return self._slope

    @property
    def max_band(self) -> int:
        """Largest |k|_inf over the spectrum (0 for a constant field)."""
        if self._wavevecs.size == 0:
            return 0
        return int(np.max(np.abs(self._wavevecs)))

    def is_periodic(self) -> bool:
        return bool(np.all(self._slope == 0.0))


def grid_points(dim: int, n_per_axis: int, period: float = 1.0) -> np.ndarray:
    """Uniform lattice on the torus: (n_per_axis**dim, dim) array."""
    axis = np.arange(n_per_axis) * (period / n_per_axis)
    if dim == 1:
        return axis.reshape(-1, 1)
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1)


def sampling_resolution(fields: Iterable[PeriodicScalarField],
                        minimum: int = 64, factor: int = 4) -> int:
    """Sampling density that resolves every field: `factor` points per highest mode."""
    band = max((f.max_band for f in fields), default=0)
    return max(minimum, factor * (band + 1))


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
