import collections
import hashlib
import warnings

import numpy as np
import pytest
import scipy
import scipy.linalg
from scipy import ndimage
from scipy.integrate import solve_ivp

import qflab as qf
from qflab.dynamics import (
    Potential,
    _SplitStepEvolver,
    chi_square_gof,
    compare_bohm_rdmp,
    derive_seed,
    ks_gof,
    mean_step_displacement,
)
from qflab.interpolation import CubicGridInterpolator
from test_golden import NUMPY_VERSION, SCIPY_VERSION


def free_gaussian_frames(sigma0=1.0, t_end=2.0, dt=0.002, n=512, span=24.0):
    ax = qf.uniform_axis(-span, span, n)
    w0 = qf.gaussian_packet((ax,), [0.0], [sigma0])
    return qf.evolve_frames(w0, Potential.free(), dt, int(round(t_end / dt)), store_every=10)


def gaussian_width(w):
    dens = qf.born_density(w) * w.cell_volume
    x = w.axes[0]
    mean = np.sum(x * dens)
    return np.sqrt(np.sum((x - mean) ** 2 * dens))


# ---------------------------------------------------------------------------
# potentials and seeds
# ---------------------------------------------------------------------------


def test_potential_json_round_trip():
    for p in (
        Potential.free(),
        Potential.box([-1.0], [1.0], 1e4),
        Potential.table(np.linspace(0, 3, 8)),
    ):
        back = Potential.from_json(p.to_json())
        ax = qf.uniform_axis(-2, 2, 8)
        assert np.allclose(back.on_grid((ax,)), p.on_grid((ax,)))


def test_custom_potential_not_serializable():
    p = Potential.custom(lambda mesh: mesh[0] ** 2)
    with pytest.raises((TypeError, ValueError)):
        p.to_json()


def test_derive_seed_is_injective_enough():
    seeds = {derive_seed(42, i) for i in range(10000)}
    assert len(seeds) == 10000
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, 3) != derive_seed(43, 3)


# ---------------------------------------------------------------------------
# split-step evolution
# ---------------------------------------------------------------------------


def test_plane_wave_picks_up_exact_kinetic_phase():
    ax = qf.uniform_axis(0, 2 * np.pi, 64)
    mode = 3
    w = qf.plane_wave(ax, mode)
    dt = 0.01
    k = 2 * np.pi * mode / (2 * np.pi)
    evolved = qf.evolve_step(w, Potential.free(), dt)
    expect = w.amplitudes * np.exp(-0.5j * k**2 * dt)
    assert np.max(np.abs(evolved.amplitudes - expect)) < 1e-13


def test_norm_drift_below_1e10_over_1000_steps():
    ax = qf.uniform_axis(-16, 16, 256)
    w = qf.two_lobe_packet(ax, 7.0, 0.7)
    p = Potential.box([-14.0], [14.0], 1e4)
    frames = qf.evolve_frames(w, p, 1e-3, 1000, store_every=100)
    norms = [frames.wavefunction(i).norm() for i in range(frames.n_frames)]
    assert max(abs(n - 1.0) for n in norms) < 1e-10


def test_free_gaussian_width_matches_closed_form():
    sigma0, t_end = 1.0, 2.0
    frames = free_gaussian_frames(sigma0, t_end)
    got = gaussian_width(frames.wavefunction(-1))
    expect = sigma0 * np.sqrt(1 + (t_end / (2 * sigma0**2)) ** 2)
    assert abs(got - expect) / expect < 1e-3


def test_box_ground_state_density_constant():
    # discrete-Hamiltonian eigenstate oracle; leftover drift is pure
    # second-order splitting error, measured 3.5e-7 at this dt
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    w = qf.stationary_state(ax, box, 0)
    frames = qf.evolve_frames(w, box, 2e-6, 25000, store_every=5000)
    drift = max(
        np.max(np.abs(frames.density(i) - frames.density(0)))
        for i in range(frames.n_frames)
    )
    assert drift < 1e-6


def test_box_wall_splitting_error_scales_quadratically():
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    w = qf.stationary_state(ax, box, 0)

    def drift(dt):
        steps = int(round(0.1 / dt))
        fr = qf.evolve_frames(w, box, dt, steps, store_every=steps)
        return np.max(np.abs(fr.density(-1) - fr.density(0)))

    ratio = drift(2e-4) / drift(2e-5)
    assert 50 < ratio < 200


def test_split_propagator_eigenstate_is_stationary_at_run_dt():
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    dt = 2e-4
    w = qf.stationary_state(ax, box, 0, dt=dt)
    assert np.all(w.amplitudes.imag == 0)
    frames = qf.evolve_frames(w, box, dt, 1000, store_every=200)
    drift = np.max(np.abs(frames.density(-1) - frames.density(0)))
    assert drift < 1e-10


def dense_eig_pick(ax, potential, level, dt):
    """The propagator eigenvector a dense eig finds nearest the level-th Hamiltonian one.

    With a list of levels, one column per level.
    """
    v_h = np.linalg.eigh(qf.spectral_hamiltonian(ax, potential))[1][:, level]
    ev = _SplitStepEvolver((ax,), potential, dt)
    half, kin = ev.half_potential[:, None], ev.kinetic[:, None]
    u = half * np.fft.ifft(kin * np.fft.fft(half * np.eye(ax.size), axis=0), axis=0)
    uvecs = np.linalg.eig(u)[1]
    return uvecs[:, np.argmax(np.abs(uvecs.T @ v_h), axis=0)]


def unit(v):
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("points, height, dt", [(64, 1e2, 1e-3), (128, 1e4, 2e-4)])
def test_stationary_state_is_the_dense_eig_pick_at_every_level(points, height, dt):
    ax = qf.uniform_axis(-2, 2, points)
    box = Potential.box([-1.0], [1.0], height)
    picks = dense_eig_pick(ax, box, list(range(points)), dt)
    for level in range(points):
        got = unit(qf.stationary_state(ax, box, level, dt=dt).amplitudes)
        want = unit(picks[:, level])
        assert 1 - abs(np.vdot(want, got)) <= 1e-10, f"level {level}"


def test_stationary_state_meets_its_certificate_without_eig(monkeypatch):
    def no_eig(*args, **kwargs):
        raise AssertionError("stationary_state must not call a dense eig")

    monkeypatch.setattr(np.linalg, "eig", no_eig)
    monkeypatch.setattr(scipy.linalg, "eig", no_eig)
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    dt = 2e-4
    step = _SplitStepEvolver((ax,), box, dt).step
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for level in range(8):
            v = unit(qf.stationary_state(ax, box, level, dt=dt).amplitudes)
            v_h = unit(qf.stationary_state(ax, box, level).amplitudes)
            uv = step(v)
            assert np.linalg.norm(uv - np.vdot(v, uv) * v) <= 1e-13, f"level {level}"
            assert abs(np.vdot(v_h, v)) ** 2 > 0.5, f"level {level}"
        with pytest.raises(ValueError, match="level 84 "):
            qf.stationary_state(ax, box, 84, dt=dt)
    assert not [w for w in caught if issubclass(w.category, scipy.linalg.LinAlgWarning)]


def test_stationary_state_restarts_away_from_a_far_eigenvector():
    # on the duel grid, Rayleigh-quotient iteration from v_H first converges to
    # a neighbouring propagator eigenvector at these levels (overlap^2 < 1/2);
    # level 139 is certified after one restart, level 440 after two
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    dt = 2e-4
    picks = dense_eig_pick(ax, box, [139, 440], dt)
    for level, want in zip((139, 440), picks.T):
        got = unit(qf.stationary_state(ax, box, level, dt=dt).amplitudes)
        assert 1 - abs(np.vdot(unit(want), got)) <= 1e-10, f"level {level}"
    # level 84 has no propagator eigenvector close to v_H at all
    with pytest.raises(ValueError, match="level 84 .* 2 restarts"):
        qf.stationary_state(ax, box, 84, dt=dt)


def test_momentum_resolution_warning_for_fast_packet():
    ax = qf.uniform_axis(-8, 8, 64)
    w = qf.gaussian_packet((ax,), [0.0], [1.0], [12.0])
    with pytest.warns(qf.MomentumResolutionWarning):
        qf.evolve_frames(w, Potential.free(), 1e-3, 2)


def test_frames_index_lookup():
    frames = free_gaussian_frames(t_end=0.2)
    i = frames.index_at(0.1)
    assert abs(frames.times[i] - 0.1) < 1e-9
    with pytest.raises(ValueError):
        frames.index_at(0.1234567)


# ---------------------------------------------------------------------------
# guiding velocity
# ---------------------------------------------------------------------------


def test_real_state_velocity_below_1e12():
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    w = qf.stationary_state(ax, box, 0)
    pts = [[-0.7], [-0.3], [0.0], [0.25], [0.6]]
    v = np.array([qf.guiding_velocity(w, q) for q in pts])
    assert np.max(np.abs(v)) < 1e-12


def test_velocity_against_refined_finite_difference_oracle():
    """Two asymmetric lobes; the midpoint value is checked against a
    five-point finite difference on an eight-fold finer grid."""
    span, n = 16.0, 1024
    c1, s1, k1 = -2.0, 0.6, 0.8
    c2, s2, k2 = 2.0, 0.9, -0.3

    def amps(x):
        g1 = np.exp(-((x - c1) ** 2) / (4 * s1**2) + 1j * k1 * x)
        g2 = np.exp(-((x - c2) ** 2) / (4 * s2**2) + 1j * k2 * x)
        return g1 + g2

    ax = qf.uniform_axis(-span, span, n)
    w = qf.GridWaveFunction((ax,), amps(ax))
    got = qf.guiding_velocity(w, [0.0])[0]

    fine = qf.uniform_axis(-span, span, 8 * n)
    h = fine[1] - fine[0]
    psi = amps(fine)
    i = np.argmin(np.abs(fine))
    assert fine[i] == 0.0
    dpsi = (-psi[i + 2] + 8 * psi[i + 1] - 8 * psi[i - 1] + psi[i - 2]) / (12 * h)
    oracle = np.imag(dpsi / psi[i])
    assert abs(got - oracle) < 1e-6


def test_node_query_raises():
    ax = qf.uniform_axis(-10, 10, 256)
    g = np.exp(-((ax - 3.0) ** 2) / 4) - np.exp(-((ax + 3.0) ** 2) / 4)
    w = qf.GridWaveFunction((ax,), g.astype(complex))
    with pytest.raises(qf.NodeProximity):
        qf.guiding_velocity(w, [0.0])


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_packet_center_moves_at_group_velocity():
    ax = qf.uniform_axis(-24, 24, 512)
    k0 = 1.5
    w0 = qf.gaussian_packet((ax,), [-2.0], [2.0], [k0])
    traj = qf.integrate_trajectory(w0, Potential.free(), [-2.0], 1.0, 0.002)
    travelled = traj.configurations[-1, 0] - traj.configurations[0, 0]
    assert abs(travelled - k0 * 1.0) / (k0 * 1.0) < 0.01


def test_free_gaussian_trajectory_follows_scaling_law():
    sigma0, x0, t_end = 1.0, 1.5, 2.0
    ax = qf.uniform_axis(-24, 24, 512)
    w0 = qf.gaussian_packet((ax,), [0.0], [sigma0])
    traj = qf.integrate_trajectory(w0, Potential.free(), [x0], t_end, 0.002)
    sigma_t = np.sqrt(1 + (t_end / (2 * sigma0**2)) ** 2)
    expect = x0 * sigma_t / sigma0
    assert abs(traj.configurations[-1, 0] - expect) / expect < 0.01


def test_rk4_endpoint_matches_independent_integrator():
    # identical interpolated field; only the ODE integrator differs
    ax = qf.uniform_axis(-24, 24, 512)
    w0 = qf.gaussian_packet((ax,), [0.0], [1.0])
    frames = qf.evolve_frames(w0, Potential.free(), 0.002, 500)
    field = qf.VelocityField(frames)

    def rhs(t, y):
        v, _ = field.velocity(np.atleast_2d(y), t)
        return v[0]

    x0 = 0.9
    sol = solve_ivp(rhs, (0.0, 1.0), [x0], rtol=1e-10, atol=1e-12, max_step=0.02)
    ens = qf.run_bohm_ensemble(frames, np.array([[x0]]), seed=0)
    assert abs(ens.positions[-1, 0, 0] - sol.y[0, -1]) < 1e-6


def test_one_dimensional_trajectories_never_cross():
    ax = qf.uniform_axis(-16, 16, 512)
    w0 = qf.two_lobe_packet(ax, 7.0, 0.7)
    frames = qf.evolve_frames(w0, Potential.free(), 0.002, 750, store_every=5)
    q0 = np.linspace(-5.0, 5.0, 9)[:, None]
    ens = qf.run_bohm_ensemble(frames, q0, seed=0)
    paths = ens.positions[:, :, 0].T
    assert np.all(np.diff(paths, axis=0) > 0)


def test_trajectory_seed_determinism():
    frames = free_gaussian_frames(t_end=0.5)
    q0 = np.array([[0.3], [-1.1]])
    a = qf.run_bohm_ensemble(frames, q0, seed=7)
    b = qf.run_bohm_ensemble(frames, q0, seed=7)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.times, b.times)


def test_exact_node_start_truncates_single_trajectory():
    ax = qf.uniform_axis(-10, 10, 256)
    g = np.exp(-((ax - 3.0) ** 2) / 4) - np.exp(-((ax + 3.0) ** 2) / 4)
    w0 = qf.GridWaveFunction((ax,), g.astype(complex))
    traj = qf.integrate_trajectory(w0, Potential.free(), [0.0], 0.1, 0.01)
    assert traj.times[-1] < 0.1
    assert traj.notes


def test_exact_node_start_freezes_ensemble_member():
    ax = qf.uniform_axis(-10, 10, 256)
    g = np.exp(-((ax - 3.0) ** 2) / 4) - np.exp(-((ax + 3.0) ** 2) / 4)
    w0 = qf.GridWaveFunction((ax,), g.astype(complex))
    frames = qf.evolve_frames(w0, Potential.free(), 0.01, 10)
    ens = qf.run_bohm_ensemble(frames, np.array([[0.0], [3.0]]), seed=1)
    frozen = ens.positions[:, 0]
    # all members keep the shared time grid; the bad one is flagged
    assert ens.positions.shape[:2] == (ens.times.size, 2)
    assert ens.frozen_at[0] >= 0 and ens.frozen_at[1] == -1
    assert np.all(frozen == frozen[0])


# ---------------------------------------------------------------------------
# Born sampling and RDMP
# ---------------------------------------------------------------------------


def test_born_sample_degenerate_density():
    ax = qf.uniform_axis(-4, 4, 64)
    amps = np.full(64, 1e-12, dtype=complex)
    amps[40] = 1.0
    w = qf.GridWaveFunction((ax,), amps)
    dx = ax[1] - ax[0]
    pts = qf.born_sample_many(w, 50, seed=2)
    assert np.all(np.abs(pts[:, 0] - ax[40]) <= dx / 2 + 1e-12)


def test_born_sample_symmetric_double_bump():
    ax = qf.uniform_axis(-16, 16, 512)
    w = qf.two_lobe_packet(ax, 8.0, 0.7)
    pts = qf.born_sample_many(w, 100000, seed=3)
    left = np.sum(pts[:, 0] < 0)
    # binomial 3 sigma around the exact half split
    assert abs(left - 50000) < 3 * np.sqrt(100000 * 0.25)


def test_born_sample_gaussian_moments():
    ax = qf.uniform_axis(-24, 24, 512)
    sigma = 1.3
    w = qf.gaussian_packet((ax,), [0.4], [sigma])
    n = 100000
    pts = qf.born_sample_many(w, n, seed=4)[:, 0]
    dx = ax[1] - ax[0]
    se_mean = sigma / np.sqrt(n)
    assert abs(pts.mean() - 0.4) < 3 * se_mean
    expect_var = sigma**2 + dx**2 / 12  # jitter adds a uniform cell variance
    se_var = expect_var * np.sqrt(2.0 / (n - 1))
    assert abs(pts.var() - expect_var) < 3 * se_var


def test_rdmp_samples_iid_from_stationary_density():
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    dt = 2e-4
    w = qf.stationary_state(ax, box, 0, dt=dt)
    times = np.round(np.linspace(0.05, 0.5, 10), 4)
    frames = qf.evolve_frames(w, box, dt, 2500, store_every=25)
    ens = qf.rdmp_ensemble(frames, times, 300, seed=5)
    for j, t in enumerate(times):
        pos = ens.positions_at(t)
        r = chi_square_gof(pos, w)
        assert r.passed, f"time {t}: p={r.p_value}"


def test_rdmp_ensemble_is_the_per_draw_stream_in_2d():
    ax = qf.uniform_axis(-6, 6, 32)
    w0 = qf.gaussian_packet((ax, ax), [0.3, -0.2], [1.0, 0.8], [0.5, 0.1])
    frames = qf.evolve_frames(w0, Potential.free(), 0.01, 30, store_every=5)
    times, n = [0.1, 0.2, 0.3], 40
    ens = qf.rdmp_ensemble(frames, times, n, seed=9)
    # reference: each member's generator feeds one draw per sample time, in order
    samplers = [qf.dynamics._BornSampler(frames.wavefunction(frames.index_at(t))) for t in times]
    expect = np.empty((len(times), n, 2))
    for j in range(n):
        rng = np.random.default_rng(derive_seed(9, j))
        for i, sampler in enumerate(samplers):
            expect[i, j] = sampler.draw(rng, 1)[0]
    assert np.array_equal(ens.positions.view(np.uint64), expect.view(np.uint64))
    assert np.array_equal(ens.times, frames.times[[frames.index_at(t) for t in times]])
    assert ens.seeds.tolist() == [derive_seed(9, j) for j in range(n)]


def test_rdmp_jumps_between_disjoint_bumps():
    ax = qf.uniform_axis(-16, 16, 512)
    w0 = qf.two_lobe_packet(ax, 10.0, 0.6)
    times = np.round(np.linspace(0.01, 0.2, 20), 3)
    traj = qf.rdmp_trajectory(w0, Potential.free(), times, seed=6, dt=1e-3)
    sides = traj.configurations[:, 0] > 0
    flips = np.sum(sides[1:] != sides[:-1])
    # independent fair draws flip about half the time; 19 transitions
    assert 3 <= flips <= 16


def test_rdmp_mean_step_matches_iid_draw_statistic():
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    dt = 2e-4
    w = qf.stationary_state(ax, box, 0, dt=dt)
    times = np.round(np.linspace(0.05, 0.5, 10), 4)
    frames = qf.evolve_frames(w, box, dt, 2500, store_every=25)
    ens = qf.rdmp_ensemble(frames, times, 300, seed=7)
    steps = np.linalg.norm(np.diff(ens.positions, axis=0), axis=2).mean(axis=0)

    pair = qf.born_sample_many(w, 8000, seed=8)[:, 0]
    iid = np.abs(pair[::2] - pair[1::2])
    se = iid.std() / np.sqrt(iid.size) + steps.std() / np.sqrt(steps.size)
    assert abs(steps.mean() - iid.mean()) < 4 * se


def test_bohm_step_shrinks_with_dt_rdmp_does_not():
    ax = qf.uniform_axis(-24, 24, 512)
    w0 = qf.gaussian_packet((ax,), [0.0], [1.0])

    def bohm_step(dt):
        traj = qf.integrate_trajectory(w0, Potential.free(), [1.2], 1.0, dt)
        return mean_step_displacement(traj)

    coarse, fine = bohm_step(0.01), bohm_step(0.005)
    assert fine < 0.6 * coarse  # continuous path: step scales with dt

    def rdmp_step(n_times):
        times = np.round(np.linspace(0.1, 1.0, n_times), 4)
        traj = qf.rdmp_trajectory(w0, Potential.free(), times, seed=9, dt=0.002)
        return mean_step_displacement(traj)

    s10, s20 = rdmp_step(10), rdmp_step(20)
    floor = 0.5  # two i.i.d. draws from sigma~1 densities sit ~1 apart
    assert s10 > floor and s20 > floor


def test_equivariance_report_and_underpowered_refusal():
    frames = free_gaussian_frames(t_end=0.5)
    w0 = frames.wavefunction(0)
    q0 = qf.born_sample_many(w0, 500, seed=10)
    ens = qf.run_bohm_ensemble(frames, q0, seed=10)
    t = frames.times[-1]
    rep = qf.equivariance_test(ens, frames.wavefunction(-1), t)
    assert rep.passed and rep.chi_square.passed
    assert all(k.passed for k in rep.ks_marginals)

    small = qf.run_bohm_ensemble(frames, q0[:50], seed=10)
    with pytest.raises(ValueError):
        qf.equivariance_test(small, frames.wavefunction(-1), t)


def test_compare_bohm_rdmp_tv_within_threshold():
    ax = qf.uniform_axis(-24, 24, 512)
    w0 = qf.gaussian_packet((ax,), [0.0], [1.0])
    frames = qf.evolve_frames(w0, Potential.free(), 0.002, 500, store_every=10)
    times = np.round(np.linspace(0.2, 1.0, 5), 3)
    q0 = qf.born_sample_many(w0, 400, derive_seed(11, 1))
    bohm = qf.run_bohm_ensemble(frames, q0, seed=derive_seed(11, 1))
    rdmp = qf.rdmp_ensemble(frames, times, 400, derive_seed(11, 2))
    rep = compare_bohm_rdmp(frames, times, bohm, rdmp)
    assert rep.tv_passed
    assert np.all(rep.tv_distance <= rep.tv_threshold)
    assert rep.rdmp_mean_step > 5 * rep.bohm_mean_step


def test_gof_calibration_on_iid_draws():
    ax = qf.uniform_axis(-24, 24, 512)
    w = qf.gaussian_packet((ax,), [0.3], [2.2], [0.5])
    ps = []
    for s in range(10):
        smp = qf.born_sample_many(w, 5000, seed=100 + s)
        ps.append((chi_square_gof(smp, w).p_value, ks_gof(smp, w).p_value))
    arr = np.array(ps)
    # null draws: no systematic rejection at the 1e-3 working significance
    assert arr.min() > 1e-3
    assert np.median(arr[:, 0]) > 0.05
    assert np.median(arr[:, 1]) > 0.05


# ---------------------------------------------------------------------------
# streamed frames: chunked evolution, stacked spline field
# ---------------------------------------------------------------------------


def reference_velocity(frames, points, t):
    """The field evaluated frame by frame: one FFT gradient, one spline_filter
    and one map_coordinates call per frame and component, no stacking."""
    spline = {"order": 3, "mode": "grid-wrap"}

    def coefficients(v):
        return ndimage.spline_filter(v.real, **spline) + 1j * ndimage.spline_filter(v.imag, **spline)

    def evaluate(c, idx):
        def mc(part):
            return ndimage.map_coordinates(part, idx, prefilter=False, **spline)

        return mc(c.real) + 1j * mc(c.imag)

    def frame(i):
        amps = frames.amplitudes[i]
        spectrum = np.fft.fftn(amps)
        stack = [coefficients(amps)]
        for d, a in enumerate(frames.axes):
            k = 2 * np.pi * np.fft.fftfreq(a.size, d=a[1] - a[0])
            k[a.size // 2] = 0.0
            shape = [1] * len(frames.axes)
            shape[d] = a.size
            stack.append(coefficients(np.fft.ifftn(1j * k.reshape(shape) * spectrum)))
        return stack, np.max(np.abs(amps))

    i, a = frames.bracket(t)
    if a in (0.0, 1.0):
        stack, peak = frame(i + int(a))
        threshold = qf.dynamics.EPS_NODE_FACTOR * peak
    else:
        (s0, m0), (s1, m1) = frame(i), frame(i + 1)
        stack = [(1.0 - a) * c0 + a * c1 for c0, c1 in zip(s0, s1)]
        threshold = qf.dynamics.EPS_NODE_FACTOR * ((1 - a) * m0 + a * m1)
    origins = np.array([ax[0] for ax in frames.axes])
    steps = np.array([ax[1] - ax[0] for ax in frames.axes])
    lengths = np.array([ax.size for ax in frames.axes], dtype=float)
    idx = np.mod((points - origins) / steps, lengths).T
    psi = evaluate(stack[0], idx)
    mask = np.abs(psi) < threshold
    safe = np.where(mask, 1.0, psi)
    vel = np.stack([np.imag(evaluate(c, idx) / safe) for c in stack[1:]], axis=1)
    vel[mask] = 0.0
    return vel, mask


@pytest.mark.parametrize("ndim, initial", [(1, "gaussian"), (2, "gaussian"), (1, "odd")],
                         ids=["1", "2", "odd"])
def test_stacked_field_matches_frame_by_frame_field(ndim, initial):
    ax = qf.uniform_axis(-8, 8, 64)
    if initial == "odd":
        # node at x = 0 for all times: the wave is odd up to ~1e-13 at the seam
        w0 = qf.GridWaveFunction((ax,), (ax * np.exp(-(ax**2) / 2)).astype(complex))
    else:
        w0 = qf.gaussian_packet((ax,) * ndim, [0.5] * ndim, [1.0] * ndim, [1.0] * ndim)
    dt = 0.002
    frames = qf.evolve_frames(w0, Potential.free(), dt, 140)
    assert frames.n_frames > qf.dynamics._CHUNK
    field = qf.VelocityField(frames)
    rng = np.random.default_rng(4)
    points = rng.uniform(-8, 8, (50, ndim))
    if initial == "odd":
        # on the node and within 1e-10 of it (masked), and 1e-5 and 1e-3 off it
        points = np.concatenate([points, [[0.0], [1e-10], [-1e-10], [1e-5], [-1e-3]]])
    # frame times, blends inside and across chunk boundaries, the clamped end
    for t in (0.0, 0.0031, 63 * dt, 63.5 * dt, 64 * dt, 100 * dt, 0.27, 140 * dt, 0.5):
        vel, mask = field.velocity(points, t)
        ref_vel, ref_mask = reference_velocity(frames, points, t)
        assert np.array_equal(mask, ref_mask)
        if initial == "odd":
            assert mask[-5:].tolist() == [True, True, True, False, False], t
        assert np.array_equal(
            np.ascontiguousarray(vel).view(np.uint64), ref_vel.view(np.uint64)
        ), t


def odd_state(ax):
    g = np.exp(-((ax - 3.0) ** 2) / 4) - np.exp(-((ax + 3.0) ** 2) / 4)
    return qf.GridWaveFunction((ax,), g.astype(complex))


@pytest.mark.parametrize("initial", ["two-lobe", "odd"])
def test_streamed_march_matches_stored_frames(initial):
    ax = qf.uniform_axis(-16, 16, 256)
    w0 = qf.two_lobe_packet(ax, 7.0, 0.7) if initial == "two-lobe" else odd_state(ax)
    dt, n_steps, store_every = 0.002, 450, 3
    frames = qf.evolve_frames(w0, Potential.free(), dt, n_steps, store_every)
    assert frames.n_frames > qf.dynamics._CHUNK
    q0 = np.concatenate([[[0.0]], qf.born_sample_many(w0, 30, 3)])
    stored = qf.run_bohm_ensemble(frames, q0, seed=2)
    keep = [0.0, 0.3, 0.9]
    source = qf.FrameSource(w0, Potential.free(), dt, n_steps, store_every, keep=keep)
    streamed = qf.run_bohm_ensemble(source, q0, seed=2)
    assert np.array_equal(stored.times, streamed.times)
    assert np.array_equal(stored.positions, streamed.positions)
    assert np.array_equal(stored.frozen_at, streamed.frozen_at)
    assert np.array_equal(stored.seeds, streamed.seeds)
    if initial == "odd":
        assert streamed.frozen_at[0] >= 0  # the member on the node froze
    kept = source.drain()
    ids = [frames.index_at(t) for t in keep]
    assert np.array_equal(kept.times, frames.times[ids])
    assert np.array_equal(kept.amplitudes, frames.amplitudes[ids])


@pytest.mark.skipif(
    (np.__version__, scipy.__version__) != (NUMPY_VERSION, SCIPY_VERSION),
    reason=f"digests recorded with numpy {NUMPY_VERSION} and scipy {SCIPY_VERSION}",
)
def test_odd_march_bytes_pinned():
    """The [odd] march of test_streamed_march_matches_stored_frames, pinned
    across versions of qflab: the member started on the node freezes at the
    first step, and every other member never touches it."""
    ax = qf.uniform_axis(-16, 16, 256)
    w0 = odd_state(ax)
    frames = qf.evolve_frames(w0, Potential.free(), 0.002, 450, 3)
    q0 = np.concatenate([[[0.0]], qf.born_sample_many(w0, 30, 3)])
    ensemble = qf.run_bohm_ensemble(frames, q0, seed=2)
    assert ensemble.frozen_at[0] >= 0
    digests = [hashlib.sha256(a.tobytes()).hexdigest()
               for a in (ensemble.positions, ensemble.frozen_at)]
    assert digests == [
        "198c2ca60795832c54f661585f91366bf57924e949e7ba11b8f04595e3ce6e22",
        "8275b5c35eae5df39bea7e173b3bcdf939a1988a133cb0cb254dd20484929391",
    ]


def test_march_work_counts(monkeypatch):
    """A march with no nodes over n frames makes 4(n-1) velocity and kernel
    calls and n-1 blends, each through the public method."""
    calls = collections.Counter()

    def count(cls, name):
        method = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)

    count(qf.VelocityField, "velocity")
    count(CubicGridInterpolator, "__call__")
    count(CubicGridInterpolator, "blend")
    ax = qf.uniform_axis(-8, 8, 64)
    w0 = qf.gaussian_packet((ax,), [0.5], [1.0], [1.0])
    frames = qf.evolve_frames(w0, Potential.free(), 0.002, 140)
    assert frames.n_frames > qf.dynamics._CHUNK
    qf.run_bohm_ensemble(frames, qf.born_sample_many(w0, 20, 1))
    n = frames.n_frames
    assert calls == {"velocity": 4 * (n - 1), "__call__": 4 * (n - 1), "blend": n - 1}


def test_frame_source_streams_forward_only():
    ax = qf.uniform_axis(-8, 8, 64)
    w0 = qf.gaussian_packet((ax,), [0.0], [1.0])
    source = qf.FrameSource(w0, Potential.free(), 0.01, 200, keep=())
    field = qf.VelocityField(source)
    # frame 150, in the third chunk: the first two are evolved on the way
    vel, _ = field.velocity(np.array([[0.1]]), 1.5)
    frames = qf.evolve_frames(w0, Potential.free(), 0.01, 200)
    assert np.array_equal(vel, qf.VelocityField(frames).velocity(np.array([[0.1]]), 1.5)[0])
    with pytest.raises(ValueError, match="in order"):
        field.velocity(np.array([[0.1]]), 0.1)


@pytest.mark.parametrize("store_every", [0, -2, 1.5, True])
def test_frame_source_rejects_bad_store_every(store_every):
    ax = qf.uniform_axis(-8, 8, 64)
    w0 = qf.gaussian_packet((ax,), [0.0], [1.0])
    with pytest.raises(ValueError, match="store_every"):
        qf.evolve_frames(w0, Potential.free(), 0.01, 10, store_every=store_every)
