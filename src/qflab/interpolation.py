"""Separable cubic-spline interpolation on uniform periodic grids.

A ``CubicGridInterpolator`` sets up a grid once: the per-axis tap tables
and shapes and the inverse B-spline symbol.  ``prefilter`` turns a stack
of gridded arrays (the last ``len(axes)`` dimensions the grid, any leading
ones stacked arrays) into spline coefficients, and a call evaluates any
coefficient stack on the grid.  On a periodic grid the cubic prefilter
divides the DFT by the B-spline symbol prod_d (4 + 2 cos(2 pi m_d / n_d)) / 6
(Unser, Aldroubi & Eden, IEEE TPAMI 13, 277, 1991): one ``fftn`` and
``ifftn`` over the grid axes give scipy's ``spline_filter(mode="grid-wrap")``
to roundoff, with no recursive filter.  One evaluation computes the tap
indices and weights of each point once, in place, and applies them to
every stacked array, reproducing ``map_coordinates(order=3,
mode="grid-wrap", prefilter=False)`` on ``.real`` and ``.imag`` bit for
bit, except on a real stack over 2+ axes at a single point.  The periodic
mod leaves every fractional index in [+0, size], where truncation is the
floor.  Spline filtering is linear, so the velocity field mixes the
coefficients of two stored frames to read the field between them.
"""

from __future__ import annotations

import functools

import numpy as np


def _grid_fft(a: np.ndarray, ndim: int, out=None, inverse: bool = False) -> np.ndarray:
    """The DFT (or its inverse) of a stack over its trailing ``ndim`` grid axes.

    On one axis ``fft`` and ``ifft`` give ``fftn``'s bits and skip its axis
    bookkeeping.
    """
    if ndim == 1:
        return (np.fft.ifft if inverse else np.fft.fft)(a, out=out)
    grid = tuple(range(a.ndim - ndim, a.ndim))
    return (np.fft.ifftn if inverse else np.fft.fftn)(a, axes=grid, out=out)


def _axis_taps(x: np.ndarray, taps: np.ndarray):
    """Wrapped tap indices (4, n) and cubic B-spline weights (4, n) at x in [+0, size].

    ``taps`` is the axis' tap table.  The weights are map_coordinates'
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
    """Cubic B-spline prefilter and evaluator on one uniform periodic grid."""

    def __init__(self, axes):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.sizes = tuple(a.size for a in self.axes)
        self.origins = np.array([[a[0]] for a in self.axes])  # (ndim, 1) columns
        self.steps = np.array([[a[1] - a[0]] for a in self.axes])
        self.lengths = np.array([[size] for size in self.sizes], dtype=float)
        # axis d's taps and weights broadcast as (4 on axis d, 1 elsewhere, n)
        ndim = len(self.sizes)
        self._tap_shapes = tuple((1,) * d + (4,) + (1,) * (ndim - 1 - d) for d in range(ndim))
        # (4, size + 1) grid indices of the taps j-1 .. j+2, wrapped periodically, in column j
        self._taps = tuple((np.arange(n + 1) + np.arange(-1, 3)[:, None]) % n for n in self.sizes)
        # prod_d 6 / (4 + 2 cos(2 pi m_d / n_d)), which the prefilter multiplies a spectrum by
        self.inverse_symbol = functools.reduce(np.multiply.outer, [
            6.0 / (4.0 + 2.0 * np.cos(2 * np.pi * np.arange(n) / n)) for n in self.sizes])

    def prefilter(self, values) -> np.ndarray:
        """Spline coefficients of a real or complex stack over the grid."""
        values = np.asarray(values)
        spectrum = _grid_fft(values, len(self.sizes))
        spectrum *= self.inverse_symbol
        c = _grid_fft(spectrum, len(self.sizes), out=spectrum, inverse=True)
        return c if np.iscomplexobj(values) else np.ascontiguousarray(c.real)

    def _fractional_indices(self, points: np.ndarray) -> np.ndarray:
        # points: (n, ndim) -> (ndim, n) fractional grid indices in [+0, size]
        idx = np.subtract(points.T, self.origins)
        idx /= self.steps
        return np.mod(idx, self.lengths, out=idx)

    def __call__(self, points, coefficients: np.ndarray) -> np.ndarray:
        """Evaluate the spline of ``coefficients`` at points of shape (n, ndim) or (ndim,).

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
        c = coefficients
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
