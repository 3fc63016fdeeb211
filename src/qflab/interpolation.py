"""Separable cubic-spline interpolation on uniform periodic grids.

An interpolator holds B-spline coefficients for a stack of gridded arrays:
the last ``len(axes)`` dimensions are the grid, any leading dimensions are
stacked arrays (wave frames, psi and its gradient components).  On a
periodic grid the cubic prefilter divides the DFT by the B-spline symbol
prod_d (4 + 2 cos(2 pi m_d / n_d)) / 6 (Unser, Aldroubi & Eden, IEEE TPAMI
13, 277, 1991): one ``fftn`` and ``ifftn`` over the grid axes give scipy's
``spline_filter(mode="grid-wrap")`` to roundoff, with no recursive filter.
One evaluation computes the tap indices and weights of each point once, in
place, and applies them to every stacked array, reproducing
``map_coordinates(order=3, mode="grid-wrap", prefilter=False)`` on ``.real``
and ``.imag`` bit for bit, except on a real stack over 2+ axes at a single
point.  The periodic mod leaves every fractional index in [+0, size], where
truncation is the floor; the per-axis tap tables and shapes are set up once
per grid and shared by every interpolator made from it.  Spline
filtering is linear, so two interpolators over one grid can be blended
coefficient-wise -- the velocity field uses that between stored frames.
"""

from __future__ import annotations

import functools

import numpy as np

@functools.lru_cache(maxsize=16)
def _inverse_symbol(shape: tuple) -> np.ndarray:
    """Inverse B-spline symbol on a periodic grid: prod_d 6 / (4 + 2 cos(2 pi m_d / n_d))."""
    inverse = functools.reduce(np.multiply.outer, [
        6.0 / (4.0 + 2.0 * np.cos(2 * np.pi * np.arange(n) / n)) for n in shape])
    inverse.setflags(write=False)  # cached, so shared by every caller
    return inverse


def _prefilter(values: np.ndarray, ndim: int) -> np.ndarray:
    """Spline coefficients of a real or complex stack over its trailing ``ndim`` axes."""
    grid = tuple(range(values.ndim - ndim, values.ndim))
    spectrum = np.fft.fftn(values, axes=grid)
    spectrum *= _inverse_symbol(values.shape[values.ndim - ndim:])
    c = np.fft.ifftn(spectrum, axes=grid, out=spectrum)
    return c if np.iscomplexobj(values) else np.ascontiguousarray(c.real)


@functools.lru_cache(maxsize=16)
def _wrapped_taps(size: int) -> np.ndarray:
    """(4, size + 1) grid indices of the taps j-1 .. j+2, wrapped periodically, in column j."""
    taps = (np.arange(size + 1) + np.arange(-1, 3)[:, None]) % size
    taps.setflags(write=False)  # cached, so shared by every caller
    return taps


def _axis_taps(x: np.ndarray, taps: np.ndarray):
    """Wrapped tap indices (4, n) and cubic B-spline weights (4, n) at x in [+0, size].

    ``taps`` is the axis' ``_wrapped_taps``.  The weights are map_coordinates'
    order-3 weights, operation for operation: the first tap sits at floor(x) - 1,
    and on x >= +0 truncating to an integer is the floor.
    """
    first = x.astype(np.intp)
    yz, squares = np.empty((2, 2, x.size))
    np.subtract(x, first, out=yz[0])
    np.subtract(1.0, yz[0], out=yz[1])
    np.multiply(yz, yz, out=squares)
    w = np.empty((4, x.size))
    np.multiply(squares[1], yz[1], out=w[0])  # z*z*z
    # w1 and w2 are one polynomial, of y and of z: yz*yz*(yz-2)*3 + 4; a
    # product of two floats does not depend on their order
    mid = np.subtract(yz, 2.0, out=w[1:3])
    mid *= squares
    mid *= 3.0
    mid += 4.0
    w[:3] /= 6.0
    # ((1 - w0) - w1) - w2, row after row
    np.subtract.reduce(w[:3], axis=0, initial=1.0, out=w[3])
    return taps.take(first, axis=1), w


class CubicGridInterpolator:
    """Cubic B-spline evaluator for a stack of (real or complex) gridded arrays."""

    def __init__(self, axes, values=None, coefficients=None):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.sizes = tuple(a.size for a in self.axes)
        self.origins = np.array([[a[0]] for a in self.axes])  # (ndim, 1) columns
        self.steps = np.array([[a[1] - a[0]] for a in self.axes])
        self.lengths = np.array([[size] for size in self.sizes], dtype=float)
        # axis d's taps and weights broadcast as (4 on axis d, 1 elsewhere, n)
        ndim = len(self.sizes)
        self._tap_shapes = tuple((1,) * d + (4,) + (1,) * (ndim - 1 - d) for d in range(ndim))
        self._taps = tuple(_wrapped_taps(size) for size in self.sizes)
        if coefficients is None:
            coefficients = _prefilter(np.asarray(values), ndim)
        self.coefficients = coefficients

    def blend(self, other: "CubicGridInterpolator", weight: float):
        """Interpolator for (1-weight)*self + weight*other (shared grid)."""
        blended = self._on_grid((1.0 - weight) * self.coefficients)
        blended.coefficients += weight * other.coefficients
        return blended

    def _on_grid(self, coefficients: np.ndarray) -> "CubicGridInterpolator":
        """An interpolator of ``coefficients`` that shares this one's grid set-up."""
        # copy.copy would take four times as long, and a march makes two a step
        twin = object.__new__(type(self))
        twin.__dict__ = {**self.__dict__, "coefficients": coefficients}
        return twin

    def _fractional_indices(self, points: np.ndarray) -> np.ndarray:
        # points: (n, ndim) -> (ndim, n) fractional grid indices in [+0, size]
        idx = np.subtract(points.T, self.origins)
        idx /= self.steps
        return np.mod(idx, self.lengths, out=idx)

    def __call__(self, points) -> np.ndarray:
        """Evaluate at points of shape (n, ndim) or (ndim,).

        Returns shape (*stack, n): one row of values per stacked array.
        """
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2:  # the velocity field passes (n, ndim) floats as they are
            pts = np.atleast_2d(pts)
        flat, weights = None, []
        for x, size, axis_taps, shape in zip(self._fractional_indices(pts), self.sizes,
                                             self._taps, self._tap_shapes):
            taps, w = _axis_taps(x, axis_taps)
            taps = taps.reshape(shape + (-1,))
            flat = taps if flat is None else flat * size + taps
            weights.append(w.reshape(shape + (-1,)))
        c = self.coefficients
        stack = c.shape[: c.ndim - len(self.sizes)]
        terms = c.reshape(stack + (-1,)).take(flat, axis=-1)
        # complex times real weight only adds signed zeros to each part, so both
        # parts match map_coordinates on .real and .imag.  np.add.reduce adds
        # the taps in map_coordinates' order from +0.0, except when the tap
        # axis is the only one longer than 1 (it then sums 8+ taps pairwise);
        # the float view gives a complex stack 2n values per tap, so only a
        # real stack on 2+ axes at a single point is summed otherwise
        for w in weights:
            terms *= w
        parts = terms.view(float).reshape(stack + (4 ** len(self.sizes), -1))
        return np.add.reduce(parts, axis=-2, initial=0.0).view(c.dtype)
