import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import qflab as qf
from qflab.interpolation import CubicGridInterpolator


def test_exact_on_grid_points():
    ax = qf.uniform_axis(-3, 3, 48)
    vals = np.sin(ax) + 1j * np.cos(2 * ax)
    interp = CubicGridInterpolator((ax,), vals)
    got = interp(ax[:, None])
    assert np.max(np.abs(got - vals)) < 1e-12


def test_smooth_function_off_grid():
    # periodic function on the domain so grid-wrap is exact
    ax = qf.uniform_axis(0, 2 * np.pi, 256)
    interp = CubicGridInterpolator((ax,), np.sin(ax))
    pts = np.linspace(0.1, 6.0, 77)[:, None]
    err = np.max(np.abs(interp(pts) - np.sin(pts[:, 0])))
    # cubic convergence: h^4 with h = 2pi/256
    assert err < 1e-7


def test_periodic_wrap_consistency():
    ax = qf.uniform_axis(0, 2 * np.pi, 128)
    interp = CubicGridInterpolator((ax,), np.exp(1j * ax))
    period = 2 * np.pi
    a = interp(np.array([[0.3], [5.9]]))
    b = interp(np.array([[0.3 + period], [5.9 - period]]))
    assert np.max(np.abs(a - b)) < 1e-12


def test_blend_is_linear_in_weight():
    ax = qf.uniform_axis(-2, 2, 64)
    f = CubicGridInterpolator((ax,), np.sin(ax))
    g = CubicGridInterpolator((ax,), np.cos(ax))
    pts = np.array([[0.123], [-1.4], [1.97]])
    mid = f.blend(g, 0.25)(pts)
    expect = 0.75 * f(pts) + 0.25 * g(pts)
    assert np.max(np.abs(mid - expect)) < 1e-12


def test_two_dimensional_separable():
    ax = qf.uniform_axis(0, 2 * np.pi, 96)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    interp = CubicGridInterpolator((ax, ax), np.sin(X) * np.cos(Y))
    pts = np.array([[1.0, 2.0], [0.4, 5.5], [3.1, 0.05]])
    expect = np.sin(pts[:, 0]) * np.cos(pts[:, 1])
    assert np.max(np.abs(interp(pts) - expect)) < 1e-6


# ---------------------------------------------------------------------------
# bit-for-bit agreement with scipy's per-array spline filter and evaluator
# ---------------------------------------------------------------------------

_SCIPY = {"order": 3, "mode": "grid-wrap"}


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _scipy_coefficients(values):
    """Per-array spline_filter, real and imaginary parts apart."""
    if np.iscomplexobj(values):
        return ndimage.spline_filter(values.real, **_SCIPY) + 1j * ndimage.spline_filter(
            values.imag, **_SCIPY
        )
    return ndimage.spline_filter(values, **_SCIPY)


def _scipy_evaluate(coefficients, idx):
    def mc(c):
        return ndimage.map_coordinates(c, idx, prefilter=False, **_SCIPY)

    if np.iscomplexobj(coefficients):
        return mc(coefficients.real) + 1j * mc(coefficients.imag)
    return mc(coefficients)


@st.composite
def stacked_grids(draw):
    ndim = draw(st.integers(1, 2))
    shape = tuple(draw(st.lists(st.integers(8, 33), min_size=ndim, max_size=ndim)))
    stack = tuple(draw(st.lists(st.integers(1, 3), max_size=2)))
    lo = draw(st.floats(-10, 10))
    axes = tuple(
        qf.uniform_axis(lo, lo + draw(st.floats(0.5, 20)), n) for n in shape
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=stack + shape)
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=stack + shape)
    # off-grid points over three periods, grid nodes, and the periodic seam
    span = np.array([(a[0], a[-1] + (a[1] - a[0])) for a in axes])
    width = span[:, 1] - span[:, 0]
    points = [rng.uniform(span[:, 0] - width, span[:, 1] + width, (40, ndim))]
    points.append(np.stack([a[rng.integers(0, a.size, 10)] for a in axes], axis=1))
    for edge in (span[:, 0], span[:, 1], np.nextafter(span[:, 0], -np.inf),
                 np.nextafter(span[:, 1], -np.inf), span[:, 0] - 1e-17):
        points.append(edge[None, :])
    return axes, values, np.concatenate(points)


@settings(max_examples=80, deadline=None)
@given(stacked_grids())
def test_stacked_prefilter_matches_per_array_spline_filter(case):
    axes, values, _ = case
    interp = CubicGridInterpolator(axes, values)
    grid = values.shape[values.ndim - len(axes):]
    per_array = np.array([_scipy_coefficients(v) for v in values.reshape((-1,) + grid)])
    assert np.array_equal(_bits(interp.coefficients.reshape(per_array.shape)), _bits(per_array))


@settings(max_examples=80, deadline=None)
@given(stacked_grids())
def test_kernel_matches_map_coordinates(case):
    axes, values, points = case
    interp = CubicGridInterpolator(axes, values)
    got = interp(points)
    grid = values.shape[values.ndim - len(axes):]
    idx = interp._fractional_indices(points)
    expect = np.array([
        _scipy_evaluate(c, idx) for c in interp.coefficients.reshape((-1,) + grid)
    ]).reshape(values.shape[: values.ndim - len(axes)] + (len(points),))
    assert got.shape == expect.shape
    assert np.array_equal(_bits(got), _bits(expect))


@settings(max_examples=60, deadline=None)
@given(stacked_grids())
def test_kernel_at_one_point_matches_all_points(case):
    # the adaptive RK4 step evaluates one point at a time.  Real stacks on 2+
    # axes are left out: numpy sums their 16+ taps pairwise at a single point,
    # and qflab evaluates only complex stacks
    axes, values, points = case
    assume(np.iscomplexobj(values) or len(axes) == 1)
    interp = CubicGridInterpolator(axes, values)
    one_by_one = np.stack([interp(p)[..., 0] for p in points[:12]], axis=-1)
    assert np.array_equal(_bits(one_by_one), _bits(interp(points[:12])))
