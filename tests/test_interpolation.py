import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

import qflab as qf
from qflab.interpolation import CubicGridInterpolator


def spline(axes, values):
    """The spline of values on the grid of axes, as a function of the points."""
    grid = CubicGridInterpolator(axes)
    coefficients = grid.prefilter(values)
    return lambda points: grid(points, coefficients)


def test_exact_on_grid_points():
    ax = qf.uniform_axis(-3, 3, 48)
    vals = np.sin(ax) + 1j * np.cos(2 * ax)
    interp = spline((ax,), vals)
    got = interp(ax[:, None])
    assert np.max(np.abs(got - vals)) < 1e-12


def test_smooth_function_off_grid():
    # periodic function on the domain so grid-wrap is exact
    ax = qf.uniform_axis(0, 2 * np.pi, 256)
    interp = spline((ax,), np.sin(ax))
    pts = np.linspace(0.1, 6.0, 77)[:, None]
    err = np.max(np.abs(interp(pts) - np.sin(pts[:, 0])))
    # cubic convergence: h^4 with h = 2pi/256
    assert err < 1e-7


def test_periodic_wrap_consistency():
    ax = qf.uniform_axis(0, 2 * np.pi, 128)
    interp = spline((ax,), np.exp(1j * ax))
    period = 2 * np.pi
    a = interp(np.array([[0.3], [5.9]]))
    b = interp(np.array([[0.3 + period], [5.9 - period]]))
    assert np.max(np.abs(a - b)) < 1e-12


def test_two_dimensional_separable():
    ax = qf.uniform_axis(0, 2 * np.pi, 96)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    interp = spline((ax, ax), np.sin(X) * np.cos(Y))
    pts = np.array([[1.0, 2.0], [0.4, 5.5], [3.1, 0.05]])
    expect = np.sin(pts[:, 0]) * np.cos(pts[:, 1])
    assert np.max(np.abs(interp(pts) - expect)) < 1e-6


# ---------------------------------------------------------------------------
# agreement with scipy's per-array spline filter (to roundoff) and evaluator
# (bit for bit)
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
    return axes, values, _kernel_points(axes, rng)


def _kernel_points(axes, rng):
    """Off-grid points over three periods, grid nodes, and the periodic seam.

    The kernel truncates the wrapped fractional index to find the first tap,
    which is the floor only because the mod leaves every index in [+0, size]:
    the seam points are lo, one ulp below lo + L, just below lo, up to one
    period beyond lo + L, and (when lo is near 0) points whose mod rounds up
    to exactly L.
    """
    span = np.array([(a[0], a[-1] + (a[1] - a[0])) for a in axes])
    lo, hi = span[:, 0], span[:, 1]
    width = hi - lo
    points = [rng.uniform(lo - width, hi + width, (40, len(axes)))]
    points.append(np.stack([a[rng.integers(0, a.size, 10)] for a in axes], axis=1))
    for edge in (lo, hi, np.nextafter(lo, -np.inf), np.nextafter(hi, -np.inf), lo - 1e-17,
                 lo - width * 2.0**-60, hi + 0.5 * width, np.nextafter(hi + width, -np.inf)):
        points.append(edge[None, :])
    return np.concatenate(points)


def _seam_case(ndim):
    """A complex stack on axes from 0: there the points just below the origin
    wrap to a fractional index of exactly the axis size."""
    rng = np.random.default_rng(ndim)
    axes = tuple(qf.uniform_axis(0.0, 3.0, n) for n in (12, 9)[:ndim])
    shape = tuple(a.size for a in axes)
    values = rng.normal(size=(2, *shape)) + 1j * rng.normal(size=(2, *shape))
    return axes, values, _kernel_points(axes, rng)


@pytest.mark.parametrize("ndim", [1, 2])
def test_seam_case_rounds_up_to_the_period(ndim):
    axes, values, points = _seam_case(ndim)
    grid = CubicGridInterpolator(axes)
    interp = spline(axes, values)
    idx = grid._fractional_indices(points)
    sizes = np.array([[a.size] for a in axes], dtype=float)
    assert np.all(idx >= 0) and np.all(idx <= sizes) and not np.signbit(idx).any()
    at_size = np.all(idx == sizes, axis=0)
    assert at_size.sum() >= 2  # np.nextafter(0, -inf) and 0 - 1e-17
    # index size is index 0 again: the same taps and weights, the same bits
    origin = np.zeros((1, ndim))
    assert np.array_equal(_bits(interp(points[at_size])),
                          _bits(np.repeat(interp(origin), at_size.sum(), axis=-1)))


@settings(max_examples=80, deadline=None)
@given(stacked_grids())
def test_stacked_prefilter_matches_per_array_spline_filter(case):
    # the spectral prefilter divides by the B-spline symbol, so it agrees
    # with scipy's recursive filter to roundoff, not bit for bit
    axes, values, _ = case
    coefficients = CubicGridInterpolator(axes).prefilter(values)
    grid = values.shape[values.ndim - len(axes):]
    per_array = np.array([_scipy_coefficients(v) for v in values.reshape((-1,) + grid)])
    got = coefficients.reshape(per_array.shape)
    assert got.dtype == per_array.dtype
    assert np.max(np.abs(got - per_array)) <= 1e-14 * np.max(np.abs(per_array))


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.integers(8, 33), min_size=1, max_size=2),
    st.integers(1, 3),
    st.integers(-5, 5),
    st.booleans(),
    st.integers(0, 2**32 - 1),
)
def test_grid_nodes_return_the_samples(shape, step, origin, complex_values, seed):
    # integer origin and spacing: every node's fractional index is exact
    axes = tuple(origin + step * np.arange(n, dtype=float) for n in shape)
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(2, *shape))
    if complex_values:
        values = values + 1j * rng.normal(size=values.shape)
    nodes = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=1)
    got = spline(axes, values)(nodes).reshape(values.shape)
    assert np.max(np.abs(got - values)) <= 1e-13 * np.max(np.abs(values))


@settings(max_examples=80, deadline=None)
@given(stacked_grids())
@example(_seam_case(1))
@example(_seam_case(2))
def test_kernel_matches_map_coordinates(case):
    axes, values, points = case
    interp = CubicGridInterpolator(axes)
    coefficients = interp.prefilter(values)
    got = interp(points, coefficients)
    grid = values.shape[values.ndim - len(axes):]
    idx = interp._fractional_indices(points)
    expect = np.array([
        _scipy_evaluate(c, idx) for c in coefficients.reshape((-1,) + grid)
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
    interp = spline(axes, values)
    one_by_one = np.stack([interp(p)[..., 0] for p in points[:12]], axis=-1)
    assert np.array_equal(_bits(one_by_one), _bits(interp(points[:12])))
