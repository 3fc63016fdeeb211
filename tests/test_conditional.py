import numpy as np
import pytest

import qflab as qf
from qflab import conditional
from qflab.conditional import mass_overlap, separable_potential
from qflab.dynamics import Potential


def plain_l2(a, b):
    """The L2 distance of two grid functions on one grid, no phase fixed."""
    return float(np.sqrt(np.sum(np.abs(a.amplitudes - b.amplitudes) ** 2) * a.cell_volume))


def gauss(ax, center, sigma, k=0.0):
    return np.exp(-((ax - center) ** 2) / (4 * sigma**2) + 1j * k * ax)


def two_branch_state(
    x_centers=(-3.0, 3.0),
    y_centers=(-5.0, 5.0),
    x_sigma=0.6,
    y_sigma=0.8,
    weights=(0.8, 0.6),
    nx=128,
    ny=128,
):
    """|w1| f1(x)g1(y) + |w2| f2(x)g2(y) with well separated factors."""
    ax = qf.uniform_axis(-8, 8, nx)
    ay = qf.uniform_axis(-12, 12, ny)
    f = [gauss(ax, c, x_sigma) for c in x_centers]
    g = [gauss(ay, c, y_sigma) for c in y_centers]
    f = [v / np.linalg.norm(v) for v in f]
    g = [v / np.linalg.norm(v) for v in g]
    amps = weights[0] * np.outer(f[0], g[0]) + weights[1] * np.outer(f[1], g[1])
    w = qf.GridWaveFunction((ax, ay), amps)
    return w, (ax, ay), f, g


SPLIT = qf.SubsystemSplit((0,), (1,))


class TestSubsystemSplit:
    def test_incomplete_cover_rejected(self):
        with pytest.raises(ValueError):
            qf.SubsystemSplit((0,), (2,))

    def test_validate_dimension(self):
        ax = qf.uniform_axis(0, 1, 8)
        w = qf.GridWaveFunction((ax,), np.exp(-((ax - 0.5) ** 2)))
        with pytest.raises(ValueError):
            SPLIT.validate(w)


class TestConditional:
    def test_product_state_reproduces_x_factor_any_y(self):
        ax = qf.uniform_axis(-8, 8, 96)
        ay = qf.uniform_axis(-6, 6, 80)
        fx = gauss(ax, 0.7, 1.1, k=0.4)
        gy = gauss(ay, -1.0, 1.5, k=-0.2)
        w = qf.GridWaveFunction((ax, ay), np.outer(fx, gy))
        ref = qf.GridWaveFunction((ax,), fx)
        for y in (-2.0, 0.0, 1.3):  # last one is off-grid
            cond = qf.conditional_wavefunction(w, SPLIT, [y])
            assert qf.l2_distance(cond, ref) < 1e-10

    def test_entangled_state_matches_direct_slice(self):
        w, (ax, ay), f, g = two_branch_state(y_centers=(-1.0, 1.0), y_sigma=1.2)
        j = 70  # on-grid environment point
        cond = qf.conditional_wavefunction(w, SPLIT, [ay[j]])
        direct = w.amplitudes[:, j]
        direct = qf.GridWaveFunction((ax,), direct)
        assert qf.l2_distance(cond, direct) < 1e-10

    def test_invariant_under_global_rescaling(self):
        w, (ax, ay), _, _ = two_branch_state(y_centers=(-1.0, 1.0))
        base = qf.conditional_wavefunction(w, SPLIT, [0.4])
        for c in (2.0, -0.5 + 1.25j, 1e-3j):
            scaled = qf.GridWaveFunction((ax, ay), c * w.amplitudes)
            cond = qf.conditional_wavefunction(scaled, SPLIT, [0.4])
            assert qf.l2_distance(cond, base) < 1e-12

    def test_zero_slice_raises(self):
        ax = qf.uniform_axis(-4, 4, 32)
        ay = qf.uniform_axis(-4, 4, 32)
        gy = gauss(ay, 0.0, 0.5)
        gy[5] = 0.0
        w = qf.GridWaveFunction((ax, ay), np.outer(gauss(ax, 0, 1), gy))
        with pytest.raises(qf.ZeroConditional):
            qf.conditional_wavefunction(w, SPLIT, [ay[5]])


class TestBranchDecomposition:
    def test_disjoint_fixture_recovers_factors_and_weights(self):
        w, (ax, ay), f, g = two_branch_state()
        decomp = qf.branch_decompose(w, SPLIT)
        assert decomp.n_branches == 2
        weights = np.sort(np.abs(decomp.weights()))
        norm = np.sqrt(0.8**2 + 0.6**2)
        assert np.allclose(weights, np.sort([0.8 / norm, 0.6 / norm]), atol=1e-10)
        assert decomp.residual_mass() < 1e-10

    def test_reconstruction_of_random_dense_state(self):
        rng = np.random.default_rng(3)
        ax = qf.uniform_axis(-2, 2, 12)
        ay = qf.uniform_axis(-2, 2, 10)
        amps = rng.normal(size=(12, 10)) + 1j * rng.normal(size=(12, 10))
        w = qf.GridWaveFunction((ax, ay), amps)
        decomp = qf.branch_decompose(w, SPLIT)
        assert decomp.n_branches <= 10
        rec = decomp.reconstruct()
        assert plain_l2(rec, w) < 1e-8

    def test_reconstruction_holds_across_seeds(self):
        ax = qf.uniform_axis(-2, 2, 9)
        ay = qf.uniform_axis(-2, 2, 11)
        for seed in range(8):
            rng = np.random.default_rng(seed)
            amps = rng.normal(size=(9, 11)) + 1j * rng.normal(size=(9, 11))
            w = qf.GridWaveFunction((ax, ay), amps)
            decomp = qf.branch_decompose(w, SPLIT)
            assert plain_l2(decomp.reconstruct(), w) < 1e-8

    def test_overlapping_modes_fold_into_residual(self):
        w, _, _, _ = two_branch_state(y_centers=(-0.5, 0.5))
        decomp = qf.branch_decompose(w, SPLIT)
        # environment factors share support, so at most one branch survives
        assert decomp.n_branches <= 1
        assert plain_l2(decomp.reconstruct(), w) < 1e-8


class TestDetectEffective:
    def test_branch_selected_by_environment_value(self):
        w, (ax, ay), f, g = two_branch_state()
        res = qf.detect_effective(w, SPLIT, [5.0])
        assert res.status == "effective" and res.effective
        ref = qf.GridWaveFunction((ax,), f[1])
        assert qf.l2_distance(res.wavefunction, ref) < 1e-4

        other = qf.detect_effective(w, SPLIT, [-5.0])
        ref0 = qf.GridWaveFunction((ax,), f[0])
        assert other.effective
        assert qf.l2_distance(other.wavefunction, ref0) < 1e-4
        assert other.branch_index != res.branch_index

    def test_between_branches_only_conditional(self):
        w, _, _, _ = two_branch_state()
        res = qf.detect_effective(w, SPLIT, [0.0])
        assert res.status == "conditional-only"
        assert not res.effective
        assert res.branch_index is None

    def test_overlapping_environment_blocks_effective(self):
        w, _, _, _ = two_branch_state(y_centers=(-0.5, 0.5))
        res = qf.detect_effective(w, SPLIT, [0.5])
        assert res.status == "conditional-only"

    def test_stable_under_support_threshold_doubling(self, monkeypatch):
        w, _, _, _ = two_branch_state()
        results = []
        for eps in (1e-6, 2e-6):
            monkeypatch.setattr(conditional, "EPS_SUPPORT", eps)
            res = qf.detect_effective(w, SPLIT, [5.0])
            results.append((res.status, res.branch_index, qf.branch_decompose(w, SPLIT).n_branches))
        assert results[0] == results[1]


def test_mass_overlap_extremes():
    a = np.array([0.5, 0.5, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.5, 0.5])
    assert mass_overlap(a, b, 1.0) == 0.0
    assert abs(mass_overlap(a, a, 1.0) - 1.0) < 1e-15


def test_separable_potential_table():
    ax = qf.uniform_axis(-2, 2, 16)
    ay = qf.uniform_axis(-1, 1, 8)
    vx = Potential.box([-1.0], [1.0], 50.0)
    vy = Potential.free()
    joint = separable_potential(vx, vy, (ax,), (ay,), SPLIT)
    grid_v = joint.on_grid((ax, ay))
    expect = np.add.outer(vx.on_grid((ax,)), np.zeros(8))
    assert np.allclose(grid_v, expect)


class TestAutonomy:
    def _joint_frames(self, w, axes, coupling=0.0, t_end=0.3, dt=0.005):
        if coupling == 0.0:
            pot = Potential.free()
        else:
            X, Y = np.meshgrid(*axes, indexing="ij")
            pot = Potential.table(coupling * X * Y)
        n = int(round(t_end / dt))
        return qf.evolve_frames(w, pot, dt, n, store_every=1)

    def _y_path(self, ay, g2, t_end=0.3, dt=0.005, y0=5.0):
        gw = qf.GridWaveFunction((ay,), g2)
        source = qf.FrameSource(gw, Potential.free(), dt, int(round(t_end / dt)), keep=())
        return qf.run_bohm_ensemble(source, [[y0]])

    def test_noninteracting_disjoint_branch_is_autonomous(self):
        w, (ax, ay), f, g = two_branch_state()
        frames = self._joint_frames(w, (ax, ay))
        ypath = self._y_path(ay, g[1])
        rep = qf.schrodinger_autonomy_check(frames, SPLIT, ypath, Potential.free())
        assert rep.max_distance <= 1e-4
        assert rep.branch_index is not None
        assert rep.times.size == rep.distances.size

    def test_coupling_breaks_autonomy(self):
        w, (ax, ay), f, g = two_branch_state()
        frames = self._joint_frames(w, (ax, ay), coupling=3.0)
        ypath = self._y_path(ay, g[1])
        rep = qf.schrodinger_autonomy_check(frames, SPLIT, ypath, Potential.free())
        assert rep.max_distance > 1e-2

    def test_rejects_non_effective_start(self):
        w, (ax, ay), f, g = two_branch_state(y_centers=(-0.5, 0.5))
        frames = self._joint_frames(w, (ax, ay), t_end=0.05)
        ypath = self._y_path(ay, g[1], t_end=0.05, y0=0.5)
        with pytest.raises(ValueError):
            qf.schrodinger_autonomy_check(frames, SPLIT, ypath, Potential.free())
