"""Separable cubic-spline interpolation on uniform periodic grids.

An interpolator holds B-spline coefficients for a stack of gridded arrays:
the last ``len(axes)`` dimensions are the grid, any leading dimensions are
stacked arrays (wave frames, psi and its gradient components).  The whole
stack is prefiltered at construction, one ``spline_filter1d`` call per grid
axis; a complex stack is filtered through its float view, shape
``(..., n, 2)``, which keeps the real and imaginary parts apart.  One
evaluation computes the tap indices and weights of each point once and
applies them to every stacked array.  Prefilter and kernel reproduce
``spline_filter`` and ``map_coordinates(order=3, mode="grid-wrap",
prefilter=False)`` on ``.real`` and ``.imag`` bit for bit, except the kernel
on a real stack over 2+ axes at a single point.  Spline filtering is
linear, so two interpolators over one grid can be blended coefficient-wise
-- the velocity field uses that for linear-in-time frame interpolation.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
from scipy import ndimage

_ORDER = 3
_MODE = "grid-wrap"
# taps floor(x)-1 .. floor(x)+2, as rows of _wrapped_taps
_TAP_OFFSETS = np.arange(4)[:, None]


def _prefilter(values: np.ndarray, ndim: int) -> np.ndarray:
    """Spline coefficients of a real or complex stack, filtered along the trailing ``ndim`` axes."""
    values = np.ascontiguousarray(values, dtype=np.result_type(values, float))
    out = np.empty_like(values)
    # float views (..., 1) or (..., 2): real and imaginary parts are filtered apart
    src, dst = (a.view(float).reshape(values.shape + (-1,)) for a in (values, out))
    for axis in range(values.ndim - ndim, values.ndim):
        ndimage.spline_filter1d(src, _ORDER, axis, output=dst, mode=_MODE)
        src = dst
    return out


@functools.lru_cache(maxsize=16)
def _wrapped_taps(size: int) -> np.ndarray:
    """Grid index of taps -1 .. size+2, wrapped periodically; entry k is tap k-1."""
    return np.arange(-1, size + 3) % size


def _axis_taps(x: np.ndarray, size: int):
    """Wrapped tap indices (4, n) and cubic B-spline weights (4, n) at coordinates x.

    The weights are map_coordinates' order-3 weights, operation for
    operation: the first tap sits at floor(x) - 1.
    """
    first = np.floor(x)
    yz = np.empty((2, x.size))
    y, z = yz
    np.subtract(x, first, out=y)
    np.subtract(1.0, y, out=z)
    w = np.empty((4, x.size))
    np.divide(z * z * z, 6.0, out=w[0])
    # w1 and w2 are one polynomial, of y and of z
    np.divide(yz * yz * (yz - 2.0) * 3.0 + 4.0, 6.0, out=w[1:3])
    np.subtract(1.0, w[0], out=w[3])
    w[3] -= w[1]
    w[3] -= w[2]
    taps = _wrapped_taps(size).take(first.astype(np.intp) + _TAP_OFFSETS)
    return taps, w


class CubicGridInterpolator:
    """Cubic B-spline evaluator for a stack of (real or complex) gridded arrays."""

    def __init__(self, axes, values=None, coefficients=None):
        self.axes = tuple(np.asarray(a, dtype=float) for a in axes)
        self.sizes = tuple(a.size for a in self.axes)
        self.origins = np.array([a[0] for a in self.axes])
        self.steps = np.array([a[1] - a[0] for a in self.axes])
        self.lengths = np.array(self.sizes, dtype=float)
        if coefficients is None:
            coefficients = _prefilter(np.asarray(values), len(self.axes))
        self.coefficients = coefficients

    def blend(self, other: "CubicGridInterpolator", weight: float):
        """Interpolator for (1-weight)*self + weight*other (shared grid)."""
        blended = copy.copy(self)
        blended.coefficients = (1.0 - weight) * self.coefficients
        blended.coefficients += weight * other.coefficients
        return blended

    def _fractional_indices(self, points: np.ndarray) -> np.ndarray:
        # points: (n, ndim) -> (ndim, n) fractional grid indices, wrapped
        idx = (points - self.origins) / self.steps
        return np.mod(idx, self.lengths).T

    def __call__(self, points) -> np.ndarray:
        """Evaluate at points of shape (n, ndim) or (ndim,).

        Returns shape (*stack, n): one row of values per stacked array.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        idx = self._fractional_indices(pts)
        ndim = len(self.sizes)
        # flat tap index and weights, axis d broadcast as (4 on axis d, 1 elsewhere, n)
        flat, weights = None, []
        for d, (x, size) in enumerate(zip(idx, self.sizes)):
            taps, w = _axis_taps(x, size)
            shape = [1] * ndim + [x.size]
            shape[d] = 4
            taps = taps.reshape(shape)
            flat = taps if flat is None else flat * size + taps
            weights.append(w.reshape(shape))
        c = self.coefficients
        stack = c.shape[: c.ndim - ndim]
        terms = c.reshape(stack + (-1,)).take(flat, axis=-1)
        # complex times real weight only adds signed zeros to each part, so both
        # parts match map_coordinates on .real and .imag.  np.add.reduce adds
        # the taps in map_coordinates' order from +0.0, except when the tap
        # axis is the only one longer than 1 (it then sums 8+ taps pairwise);
        # the float view gives a complex stack 2n values per tap, so only a
        # real stack on 2+ axes at a single point is summed otherwise
        for w in weights:
            terms *= w
        parts = terms.view(float).reshape(stack + (4**ndim, -1))
        return np.add.reduce(parts, axis=-2, initial=0.0).view(c.dtype)
