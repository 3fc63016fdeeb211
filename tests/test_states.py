import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qflab as qf
from qflab.states import FiniteState


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return FiniteState(vec)


class TestFiniteState:
    def test_normalizes_on_construction(self):
        s = FiniteState([3.0, 4.0])
        assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-15

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            FiniteState([0.0, 0.0])

    def test_basis_states_orthonormal(self):
        e0, e1 = qf.basis_state(2, 0), qf.basis_state(2, 1)
        assert abs(e0.inner(e0) - 1.0) < 1e-15
        assert abs(e0.inner(e1)) < 1e-15

    def test_plus_minus_convention(self):
        plus, minus = qf.plus_state(), FiniteState([1.0, -1.0])
        r = 1 / np.sqrt(2)
        assert np.allclose(plus.amplitudes, [r, r])
        assert np.allclose(minus.amplitudes, [r, -r])
        assert abs(plus.inner(minus)) < 1e-15


@given(st.integers(0, 10**9), st.integers(2, 5), st.integers(2, 5))
@settings(max_examples=30, deadline=None)
def test_tensor_norm_multiplicative(seed, da, db):
    rng = np.random.default_rng(seed)
    a = FiniteState(rng.normal(size=da) + 1j * rng.normal(size=da))
    b = FiniteState(rng.normal(size=db) + 1j * rng.normal(size=db))
    ab = qf.tensor(a, b)
    assert ab.amplitudes.size == da * db
    # both inputs unit norm, so the product must be unit norm too
    assert abs(np.linalg.norm(ab.amplitudes) - 1.0) < 1e-12


def test_tensor_index_convention():
    # leftmost factor owns the most significant index
    e0, e1 = qf.basis_state(2, 0), qf.basis_state(2, 1)
    v = qf.tensor(e1, e0).amplitudes
    assert np.argmax(np.abs(v)) == 2


def test_tensor_associative_up_to_reordering():
    a, b, c = random_state(2, 1), random_state(3, 2), random_state(2, 3)
    left = qf.tensor(qf.tensor(a, b), c).amplitudes
    right = qf.tensor(a, qf.tensor(b, c)).amplitudes
    assert np.allclose(left, right)


@given(st.integers(0, 10**9))
@settings(max_examples=25, deadline=None)
def test_born_symmetry(seed):
    a, b = random_state(4, seed), random_state(4, seed + 1)
    assert abs(qf.born_probability(a, b) - qf.born_probability(b, a)) < 1e-12


class TestProjectiveMeasurement:
    def test_distribution_sums_to_one(self):
        basis = tuple(qf.basis_state(3, i) for i in range(3))
        m = qf.ProjectiveMeasurement(basis)
        probs = qf.measurement_distribution(random_state(3, 9), m)
        assert np.all(probs >= 0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_gram_deviation_and_skew_rejection(self):
        ok = qf.ProjectiveMeasurement((qf.basis_state(2, 0), qf.basis_state(2, 1)))
        assert ok.gram_deviation() < 1e-15
        with pytest.raises(ValueError):
            qf.ProjectiveMeasurement((qf.basis_state(2, 0), qf.plus_state()))


class TestGridWaveFunction:
    def test_uniform_axis_excludes_right_endpoint(self):
        a = qf.uniform_axis(-1.0, 1.0, 4)
        assert np.allclose(a, [-1.0, -0.5, 0.0, 0.5])

    def test_norm_and_bounds(self):
        ax = qf.uniform_axis(-5, 5, 64)
        w = qf.gaussian_packet((ax,), [0.0], [1.0])
        assert abs(qf.grid_norm(w) - 1.0) < 1e-10
        assert w.bounds == ((-5.0, 5.0),)

    def test_zero_amplitudes_rejected(self):
        ax = qf.uniform_axis(0, 1, 8)
        with pytest.raises(ValueError):
            qf.GridWaveFunction((ax,), np.zeros(8, dtype=complex))

    def test_born_density_integrates_to_one(self):
        ax = qf.uniform_axis(-8, 8, 128)
        w = qf.gaussian_packet((ax, ax), [0.5, -0.5], [1.0, 1.5])
        assert abs(qf.born_density(w).sum() * w.cell_volume - 1.0) < 1e-10

    def test_l2_distance_mods_out_global_phase(self):
        ax = qf.uniform_axis(-8, 8, 128)
        w = qf.gaussian_packet((ax,), [0.0], [1.0])
        rotated = qf.GridWaveFunction(w.axes, np.exp(0.7j) * w.amplitudes)
        assert qf.l2_distance(w, rotated) < 1e-12
        assert qf.l2_distance(w, rotated, fix_phase=False) > 0.5

    def test_new_amplitudes_on_the_same_axes_keep_geometry(self):
        ax = qf.uniform_axis(-4, 4, 32)
        w = qf.gaussian_packet((ax,), [0.3], [0.8], [1.2])
        w2 = qf.GridWaveFunction(w.axes, w.amplitudes * np.exp(1j * 0.2))
        assert w2.bounds == w.bounds
        assert w2.shape == w.shape
        assert qf.l2_distance(w, w2) < 1e-12
