import collections
import functools
import hashlib
import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
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
)
from qflab.interpolation import CubicGridInterpolator
from test_golden import NUMPY_VERSION


def bohm_path(w0, q0, t_end, dt):
    """(T, D) path of one Bohm member from q0 under the free wave, streamed."""
    source = qf.FrameSource(w0, Potential.free(), dt, int(round(t_end / dt)), keep=())
    return qf.run_bohm_ensemble(source, [q0]).positions[:, 0]


def rdmp_path(w0, times, s, dt):
    """(T, D) path of one random-jump member at times snapped to dt.

    Member 0's seed is seed ^ derive_seed(0, 0), so the member draws from
    default_rng(s).
    """
    steps = np.round(np.asarray(times, dtype=float) / dt).astype(int)
    frames = qf.evolve_frames(w0, Potential.free(), dt, int(steps.max()))
    return qf.rdmp_ensemble(frames, steps * dt, 1, seed=derive_seed(0, 0) ^ s).positions[:, 0]


def hamiltonian_state(ax, potential, level):
    """The level-th eigenvector of the discrete Hamiltonian, from a dense eigh."""
    v = np.linalg.eigh(qf.spectral_hamiltonian(ax, potential))[1][:, level]
    return qf.GridWaveFunction((ax,), v.astype(complex))


def velocity_at(w, points):
    """Velocities (n, ndim) and the node mask (n,) of w's field at points."""
    frames = qf.WaveFrames(w.axes, np.array([0.0]), w.amplitudes[None])
    return qf.VelocityField(frames).velocity(np.asarray(points, dtype=float), 0.0)


def mean_step(path):
    """Mean |Q(t_{i+1}) - Q(t_i)| along one (T, D) path."""
    return float(np.linalg.norm(np.diff(path, axis=0), axis=1).mean())


def free_gaussian_frames(sigma0=1.0, t_end=2.0, dt=0.002, n=512, span=24.0, store_every=10):
    ax = qf.uniform_axis(-span, span, n)
    w0 = qf.gaussian_packet((ax,), [0.0], [sigma0])
    return qf.evolve_frames(w0, Potential.free(), dt, int(round(t_end / dt)), store_every)


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


def test_derive_seed_is_injective_enough():
    seeds = {derive_seed(42, i) for i in range(10000)}
    assert len(seeds) == 10000
    assert derive_seed(42, 3) == derive_seed(42, 3)
    assert derive_seed(42, 3) != derive_seed(43, 3)


@pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
def test_member_seeds_are_derive_seed(seed):
    n = 1000
    assert qf.dynamics._member_seeds(seed, n)[[0, 1, n - 1]].tolist() == [
        derive_seed(seed, j) for j in (0, 1, n - 1)]
    # past 2**32 the uint64 arithmetic still wraps as derive_seed's mod 2**64
    indices = [0, 1, 2**32, n - 1, 2**64 - 1]
    assert qf.dynamics._derive_seeds(seed, np.array(indices, dtype=np.uint64)).tolist() == [
        derive_seed(seed, j) for j in indices]


# ---------------------------------------------------------------------------
# split-step evolution
# ---------------------------------------------------------------------------


def test_plane_wave_picks_up_exact_kinetic_phase():
    ax = qf.uniform_axis(0, 2 * np.pi, 64)
    mode = 3
    w = qf.plane_wave(ax, mode)
    dt = 0.01
    k = 2 * np.pi * mode / (2 * np.pi)
    evolved = qf.evolve_frames(w, Potential.free(), dt, 1).wavefunction(1)
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
    w = hamiltonian_state(ax, box, 0)
    frames = qf.evolve_frames(w, box, 2e-6, 25000, store_every=5000)
    drift = max(
        np.max(np.abs(frames.density(i) - frames.density(0)))
        for i in range(frames.n_frames)
    )
    assert drift < 1e-6


def test_box_wall_splitting_error_scales_quadratically():
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    w = hamiltonian_state(ax, box, 0)

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
    ax = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    dt = 2e-4
    step = _SplitStepEvolver((ax,), box, dt).step
    vecs_h = np.linalg.eigh(qf.spectral_hamiltonian(ax, box))[1]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for level in range(8):
            v = unit(qf.stationary_state(ax, box, level, dt=dt).amplitudes)
            v_h = vecs_h[:, level]
            uv = step(v)
            assert np.linalg.norm(uv - np.vdot(v, uv) * v) <= 1e-13, f"level {level}"
            assert abs(np.vdot(v_h, v)) ** 2 > 0.5, f"level {level}"
        with pytest.raises(ValueError, match="level 84 "):
            qf.stationary_state(ax, box, 84, dt=dt)
    assert caught == []


def test_singular_shifts_count_as_converged(monkeypatch):
    # np.linalg.solve raises on an exactly singular H - E or U - mu I, whose
    # shift is then an eigenvalue in floating point; the solve is taken
    # again at a shift a few ulps off it.  Forced on the first Hamiltonian
    # (real) and the first propagator (complex) solve of each level, the
    # state is the same
    ax = qf.uniform_axis(-2, 2, 64)
    box = Potential.box([-1.0], [1.0], 1e2)
    levels, dt = (0, 1, 5), 1e-3
    want = [unit(qf.stationary_state(ax, box, level, dt).amplitudes) for level in levels]
    real_solve = np.linalg.solve
    shifts = {}

    def solve(a, b):
        tried = shifts.setdefault(a.dtype.kind, [])
        tried.append(a[0, 0])
        if len(tried) == 1:
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    for level, w in zip(levels, want):
        shifts.clear()
        got = unit(qf.stationary_state(ax, box, level, dt).amplitudes)
        assert 1 - abs(np.vdot(w, got)) <= 1e-12, f"level {level}"
        assert sorted(shifts) == ["c", "f"], f"level {level}"
        # the retry moved the same diagonal entry by a few ulps
        for tried in shifts.values():
            assert 0 < abs(tried[1] - tried[0]) <= 1e-12 * max(1, abs(tried[0]))


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
    w = hamiltonian_state(ax, box, 0)
    v, mask = velocity_at(w, [[-0.7], [-0.3], [0.0], [0.25], [0.6]])
    assert not mask.any()
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
    v, mask = velocity_at(w, [[0.0]])
    assert not mask.any()
    got = v[0, 0]

    fine = qf.uniform_axis(-span, span, 8 * n)
    h = fine[1] - fine[0]
    psi = amps(fine)
    i = np.argmin(np.abs(fine))
    assert fine[i] == 0.0
    dpsi = (-psi[i + 2] + 8 * psi[i + 1] - 8 * psi[i - 1] + psi[i - 2]) / (12 * h)
    oracle = np.imag(dpsi / psi[i])
    assert abs(got - oracle) < 1e-6


def test_node_query_is_masked_and_zeroed():
    ax = qf.uniform_axis(-10, 10, 256)
    g = np.exp(-((ax - 3.0) ** 2) / 4) - np.exp(-((ax + 3.0) ** 2) / 4)
    w = qf.GridWaveFunction((ax,), g.astype(complex))
    v, mask = velocity_at(w, [[0.0], [1.0]])
    assert mask.tolist() == [True, False]
    assert v[0, 0] == 0.0 and v[1, 0] != 0.0


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


def test_packet_center_moves_at_group_velocity():
    ax = qf.uniform_axis(-24, 24, 512)
    k0 = 1.5
    w0 = qf.gaussian_packet((ax,), [-2.0], [2.0], [k0])
    path = bohm_path(w0, [-2.0], 1.0, 0.002)
    travelled = path[-1, 0] - path[0, 0]
    assert abs(travelled - k0 * 1.0) / (k0 * 1.0) < 0.01


def test_free_gaussian_trajectory_follows_scaling_law():
    sigma0, x0, t_end = 1.0, 1.5, 2.0
    ax = qf.uniform_axis(-24, 24, 512)
    w0 = qf.gaussian_packet((ax,), [0.0], [sigma0])
    path = bohm_path(w0, [x0], t_end, 0.002)
    sigma_t = np.sqrt(1 + (t_end / (2 * sigma0**2)) ** 2)
    expect = x0 * sigma_t / sigma0
    assert abs(path[-1, 0] - expect) / expect < 0.01


def test_march_meets_the_closed_form_free_gaussian_paths():
    """A free Gaussian of position width sigma has the Bohm paths
    x0 sqrt(1 + (t / 2 sigma^2)^2) (Holland, The Quantum Theory of Motion,
    1993, section 4.7).  On the free-gaussian grid, with frames stored every
    10 steps of 0.002, the march meets them up to t = 2 within 2e-6, on the
    frames read off its steps too (7.92e-7 measured, in 15 steps of 2 to 8
    frames with max_error 6.3e-7, where the frame-pair march errs by
    2.86e-7); a march whose middle stages blend two frames is second order
    in time and errs by 2.2e-5."""
    sigma0, t_end = 1.0, 2.0
    frames = free_gaussian_frames(sigma0, t_end)
    q0 = qf.born_sample_many(frames.wavefunction(0), 300, 12)
    ensemble = qf.run_bohm_ensemble(frames, q0)
    assert ensemble.times[-1] == t_end
    expect = q0 * np.sqrt(1 + (ensemble.times / (2 * sigma0**2)) ** 2)[:, None, None]
    assert np.max(np.abs(ensemble.positions - expect)) <= 2e-6


def test_long_strides_meet_the_closed_form_free_gaussian_paths():
    """The march of test_march_meets_the_closed_form_free_gaussian_paths
    on frames stored at every step, 1,001 of them: the stride grows past 16
    frames, and every row, those read off inside a step by Hermite
    interpolation too, still meets the closed-form paths within 2e-6
    (4.6e-7 measured, in 22 steps of up to 64 frames; 2.91e-7 at the
    earlier MARCH_TOL of 1e-8, with strides up to 32 frames)."""
    sigma0, t_end = 1.0, 2.0
    frames = free_gaussian_frames(sigma0, t_end, store_every=1)
    assert frames.n_frames == 1001
    q0 = qf.born_sample_many(frames.wavefunction(0), 300, 12)
    ensemble = qf.run_bohm_ensemble(frames, q0)
    assert np.array_equal(ensemble.times, frames.times)
    assert ensemble.march.max_stride > 16
    expect = q0 * np.sqrt(1 + (ensemble.times / (2 * sigma0**2)) ** 2)[:, None, None]
    assert np.max(np.abs(ensemble.positions - expect)) <= 2e-6


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
    ens = qf.run_bohm_ensemble(frames, np.array([[x0]]))
    assert abs(ens.positions[-1, 0, 0] - sol.y[0, -1]) < 1e-6


def test_one_dimensional_trajectories_never_cross():
    ax = qf.uniform_axis(-16, 16, 512)
    w0 = qf.two_lobe_packet(ax, 7.0, 0.7)
    frames = qf.evolve_frames(w0, Potential.free(), 0.002, 750, store_every=5)
    q0 = np.linspace(-5.0, 5.0, 9)[:, None]
    ens = qf.run_bohm_ensemble(frames, q0)
    paths = ens.positions[:, :, 0].T
    assert np.all(np.diff(paths, axis=0) > 0)


def test_trajectory_seed_determinism():
    frames = free_gaussian_frames(t_end=0.5)
    q0 = np.array([[0.3], [-1.1]])
    a = qf.run_bohm_ensemble(frames, q0)
    b = qf.run_bohm_ensemble(frames, q0)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.times, b.times)


def test_exact_node_start_freezes_ensemble_member():
    ax = qf.uniform_axis(-10, 10, 256)
    g = np.exp(-((ax - 3.0) ** 2) / 4) - np.exp(-((ax + 3.0) ** 2) / 4)
    w0 = qf.GridWaveFunction((ax,), g.astype(complex))
    frames = qf.evolve_frames(w0, Potential.free(), 0.01, 10)
    ens = qf.run_bohm_ensemble(frames, np.array([[0.0], [3.0]]))
    frozen = ens.positions[:, 0]
    # all members keep the shared time grid; the bad one is flagged
    assert ens.positions.shape[:2] == (ens.times.size, 2)
    assert ens.frozen_at[0] >= 0 and ens.frozen_at[1] == -1
    assert np.all(frozen == frozen[0])


class _Underflow(Exception):
    """The reference fallback reached dt / 2**MAX_HALVINGS at a node."""


class _Node(Exception):
    """A reference stage landed where |psi| is below the node threshold."""


def _velocity_strict(field, x, t):
    vel, mask = field.velocity(x[None], t)
    if mask[0]:
        raise _Node
    return vel[0]


def _advance_adaptive(field, x, stages, h, depth=0):
    """The per-member node fallback the march once had: an RK4 step of one
    member, its stages at the times (t0, tm, t1), that halves itself at tm
    near nodes and underflows past MAX_HALVINGS."""
    t0, tm, t1 = stages
    try:
        v1 = _velocity_strict(field, x, t0)
        v2 = _velocity_strict(field, x + 0.5 * h * v1, tm)
        v3 = _velocity_strict(field, x + 0.5 * h * v2, tm)
        v4 = _velocity_strict(field, x + h * v3, t1)
        return x + (h / 6.0) * (v1 + 2 * v2 + 2 * v3 + v4)
    except _Node:
        if depth >= qf.dynamics.MAX_HALVINGS:
            raise _Underflow
        h = h / 2
        mid = _advance_adaptive(field, x, (t0, t0 + 0.5 * h, tm), h, depth + 1)
        return _advance_adaptive(field, mid, (tm, tm + 0.5 * h, t1), h, depth + 1)


def scalar_fallback_march(frames, q0, outcomes):
    """Every row and frozen_at of a march whose touched members take the
    per-member fallback one at a time; counts in ``outcomes`` its
    member-steps that recover and that underflow, by the number of frames
    the step spans.  A step spans two
    frames where their gaps agree to a relative 1e-9, with its middle
    stages at the middle frame, and one frame before the shorter last gap.
    The row at the middle frame of a two-frame step is the end of a halved
    member's first half, the cubic Hermite midpoint (x0 + x1)/2 +
    (h/8)(v1 - v4) of any other member's step, and the start of a member
    that holds: no step of its own."""
    field = qf.VelocityField(frames)
    t = frames.times.tolist()
    pos = np.asarray(q0, dtype=float)
    rows, frozen_at = {0: pos}, np.full(len(pos), -1)
    lo, length = qf.dynamics._periods(frames.axes)

    def wrap(x):
        return qf.dynamics._wrap_positions(x, lo, length)

    def step(pos, stages, h, span):
        t0, tm, t1 = stages
        v1, m1 = field.velocity(pos, t0)
        v2, m2 = field.velocity(pos + 0.5 * h * v1, tm)
        v3, m3 = field.velocity(pos + 0.5 * h * v2, tm)
        v4, m4 = field.velocity(pos + h * v3, t1)
        end = pos + (h / 6.0) * (v1 + 2 * v2 + 2 * v3 + v4)
        middle = 0.5 * (pos + end) + (h / 8.0) * (v1 - v4)
        hold = frozen_at >= 0
        for j in np.flatnonzero((m1 | m2 | m3 | m4) & ~hold):
            half = h / 2
            try:
                middle[j] = _advance_adaptive(field, pos[j], (t0, t0 + 0.5 * half, tm), half, 1)
                end[j] = _advance_adaptive(field, middle[j], (tm, tm + 0.5 * half, t1), half, 1)
                outcomes[span, "recovered"] += 1
            except _Underflow:
                hold[j] = True
                outcomes[span, "underflowed"] += 1
        end[hold] = middle[hold] = pos[hold]
        return wrap(end), wrap(middle), hold & (frozen_at < 0)

    i = 0
    while i < len(t) - 1:
        g0 = t[i + 1] - t[i]
        g1 = t[i + 2] - t[i + 1] if i + 2 < len(t) else 0.0
        if abs(g1 - g0) <= 1e-9 * max(g0, g1):
            pos, rows[i + 1], under = step(pos, (t[i], t[i + 1], t[i + 2]), t[i + 2] - t[i], 2)
            k = i + 2
        else:
            pos, _, under = step(pos, (t[i], t[i] + 0.5 * g0, t[i + 1]), g0, 1)
            k = i + 1
        frozen_at[under] = i
        rows[k] = pos
        i = k
    return np.array([rows[i] for i in range(len(t))]), frozen_at


def node_fallback_case(case):
    """Frames and starts whose long steps (ten and fifteen split steps) make
    members both halve and recover and freeze once EPS_NODE_FACTOR is raised:
    the odd state with its lobes moving onto the node, 301 members, and a
    moving Gaussian in a 2-D box, 200 members."""
    if case == "odd":
        ax = qf.uniform_axis(-16, 16, 256)
        w0 = qf.GridWaveFunction((ax,), np.exp(-((ax - 3.0) ** 2) / 4 - 1.5j * ax)
                                 - np.exp(-((ax + 3.0) ** 2) / 4 + 1.5j * ax))
        q0 = np.concatenate([[[0.0]], qf.born_sample_many(w0, 300, 3)])
        return qf.evolve_frames(w0, Potential.free(), 0.04, 83, 10), q0
    ax = qf.uniform_axis(-4, 4, 32)
    w0 = qf.gaussian_packet((ax, ax), [0.3, -0.2], [0.7, 0.6], [2.0, 1.0])
    potential = Potential.box([-2.5, -2.5], [2.5, 2.5], 50.0)
    return qf.evolve_frames(w0, potential, 0.01, 200, 15), qf.born_sample_many(w0, 200, 4)


# member-steps of the reference march at each EPS_NODE_FACTOR that recover and
# that underflow, by the number of frames their step spans
FALLBACK_OUTCOMES = {
    "odd": {
        0.05: {(2, "recovered"): 4, (2, "underflowed"): 3},
        0.3: {(2, "recovered"): 25, (2, "underflowed"): 31},
        0.9: {(2, "recovered"): 28, (2, "underflowed"): 277},
    },
    "box": {
        0.05: {(2, "recovered"): 11, (1, "underflowed"): 1},
        0.3: {(2, "recovered"): 7, (2, "underflowed"): 51, (1, "underflowed"): 5},
        0.9: {(2, "underflowed"): 200},
    },
}


@pytest.mark.parametrize("case", ["odd", "box"])
def test_batched_node_fallback_is_the_scalar_fallback(monkeypatch, case):
    """The march halves its touched members as a batch and gives the bits of
    the per-member fallback in every row, with EPS_NODE_FACTOR raised so that
    member-steps halve and recover and underflow (FALLBACK_OUTCOMES).  The
    frame-pair steps of the 1-D march do both at every factor.  In the 2-D
    box the one underflow at 0.05 is in the one-frame last step, and at 0.9
    no step recovers: every member underflows in a frame-pair step.  An
    underflowed member leaves its batch at once: kept in, it walks every
    branch of its step down to depth MAX_HALVINGS, and the 2-D march at 0.9
    makes thousands more velocity calls than its 1,272.  A frozen member
    leaves the march's batch too: kept in, it costs four velocity points on
    every later step, and the 2-D march at 0.9 evaluates 11,204 points
    instead of 9,780.  Once every member is frozen a step asks no velocity:
    stepped anyway, the 2-D march at 0.9 makes 20 calls on zero points.
    The reference steps frame pairs, so the march runs at MARCH_TOL = 0,
    where its stride never grows: its last call of a step is the next
    step's first stage, so it makes no more calls than a march that
    evaluates that stage at the start of the next step."""
    monkeypatch.setattr(qf.dynamics, "MARCH_TOL", 0.0)
    frames, q0 = node_fallback_case(case)
    calls, points, empty = collections.Counter(), collections.Counter(), collections.Counter()
    velocity = qf.VelocityField.velocity

    def counted(self, pts, t):
        calls[factor] += 1
        points[factor] += len(pts)
        empty[factor] += not len(pts)
        return velocity(self, pts, t)

    for factor in (0.05, 0.3, 0.9):
        monkeypatch.setattr(qf.dynamics, "EPS_NODE_FACTOR", factor)
        outcomes = collections.Counter()
        positions, frozen_at = scalar_fallback_march(frames, q0, outcomes)
        with monkeypatch.context() as m:
            m.setattr(qf.VelocityField, "velocity", counted)
            ensemble = qf.run_bohm_ensemble(frames, q0)
        assert np.array_equal(as_bits(ensemble.positions), as_bits(positions)), factor
        assert np.array_equal(ensemble.frozen_at, frozen_at), factor
        assert outcomes == FALLBACK_OUTCOMES[case][factor], (factor, outcomes)
    assert sum(empty.values()) == 0, empty
    if case == "box":
        assert calls[0.9] <= 1700, calls
        assert points[0.9] <= 10_000, points


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


def test_rdmp_jumps_between_disjoint_bumps():
    ax = qf.uniform_axis(-16, 16, 512)
    w0 = qf.two_lobe_packet(ax, 10.0, 0.6)
    times = np.round(np.linspace(0.01, 0.2, 20), 3)
    path = rdmp_path(w0, times, 6, 1e-3)
    sides = path[:, 0] > 0
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
        return mean_step(bohm_path(w0, [1.2], 1.0, dt))

    coarse, fine = bohm_step(0.01), bohm_step(0.005)
    assert fine < 0.6 * coarse  # continuous path: step scales with dt

    def rdmp_step(n_times):
        times = np.round(np.linspace(0.1, 1.0, n_times), 4)
        return mean_step(rdmp_path(w0, times, 9, 0.002))

    s10, s20 = rdmp_step(10), rdmp_step(20)
    floor = 0.5  # two i.i.d. draws from sigma~1 densities sit ~1 apart
    assert s10 > floor and s20 > floor


def test_equivariance_report_and_underpowered_refusal():
    frames = free_gaussian_frames(t_end=0.5)
    w0 = frames.wavefunction(0)
    q0 = qf.born_sample_many(w0, 500, seed=10)
    ens = qf.run_bohm_ensemble(frames, q0)
    t = frames.times[-1]
    rep = qf.equivariance_test(ens, frames.wavefunction(-1), t)
    assert rep.passed and rep.chi_square.passed
    assert all(k.passed for k in rep.ks_marginals)

    small = qf.run_bohm_ensemble(frames, q0[:50])
    with pytest.raises(ValueError):
        qf.equivariance_test(small, frames.wavefunction(-1), t)


def test_compare_bohm_rdmp_tv_within_threshold():
    ax = qf.uniform_axis(-24, 24, 512)
    w0 = qf.gaussian_packet((ax,), [0.0], [1.0])
    frames = qf.evolve_frames(w0, Potential.free(), 0.002, 500, store_every=10)
    times = np.round(np.linspace(0.2, 1.0, 5), 3)
    q0 = qf.born_sample_many(w0, 400, derive_seed(11, 1))
    bohm = qf.run_bohm_ensemble(frames, q0)
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
    """The field evaluated frame by frame: one FFT per frame, divided by the
    cubic B-spline symbol, one inverse FFT and one map_coordinates call per
    frame and component, no stacking."""
    spline = {"order": 3, "mode": "grid-wrap"}

    def evaluate(c, idx):
        def mc(part):
            return ndimage.map_coordinates(part, idx, prefilter=False, **spline)

        return mc(c.real) + 1j * mc(c.imag)

    def frame(i):
        amps = frames.amplitudes[i]
        inverse_symbol = functools.reduce(np.multiply.outer, [
            6.0 / (4.0 + 2.0 * np.cos(2 * np.pi * np.arange(a.size) / a.size))
            for a in frames.axes])
        spectrum = np.fft.fftn(amps) * inverse_symbol
        stack = [np.fft.ifftn(spectrum)]
        for d, a in enumerate(frames.axes):
            k = 2 * np.pi * np.fft.fftfreq(a.size, d=a[1] - a[0])
            k[a.size // 2] = 0.0
            shape = [1] * len(frames.axes)
            shape[d] = a.size
            stack.append(np.fft.ifftn(1j * k.reshape(shape) * spectrum))
        return stack, np.max(np.abs(amps))

    i, a = qf.dynamics._bracket(frames.times, t)
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


@pytest.mark.parametrize("shape", [(256,), (32, 24)], ids=["1-D", "2-D"])
def test_coefficients_of_a_frame_alone_are_its_bits_in_a_batch(shape):
    """The field builds a frame's coefficients the first time it reads it,
    from that frame alone: on a 1-D grid of even size (its Nyquist mode
    zeroed) and on a 2-D grid, every frame of a chunk gets the bits it
    gets in a batch of the whole chunk."""
    axes = tuple(qf.uniform_axis(-8, 8, n) for n in shape)
    ones = [1.0] * len(axes)
    w0 = qf.gaussian_packet(axes, [0.5] * len(axes), ones, ones)
    amps = qf.evolve_frames(w0, Potential.free(), 0.01, qf.dynamics._CHUNK - 1).chunk(0)
    assert len(amps) == qf.dynamics._CHUNK
    batch = qf.dynamics._psi_and_gradient(axes, amps)
    for j in range(len(amps)):
        alone = qf.dynamics._psi_and_gradient(axes, amps[j : j + 1])[0]
        assert np.array_equal(alone.view(np.uint64), batch[j].view(np.uint64)), j


def _count_converted(monkeypatch) -> list:
    """The number of frames of each call of _psi_and_gradient, in order."""
    converted = []
    build = qf.dynamics._psi_and_gradient

    def counted(axes, amps):
        converted.append(len(amps))
        return build(axes, amps)

    monkeypatch.setattr(qf.dynamics, "_psi_and_gradient", counted)
    return converted


def odd_state(ax):
    g = np.exp(-((ax - 3.0) ** 2) / 4) - np.exp(-((ax + 3.0) ** 2) / 4)
    return qf.GridWaveFunction((ax,), g.astype(complex))


@pytest.mark.parametrize("initial", ["two-lobe", "odd"])
def test_streamed_march_matches_stored_frames(monkeypatch, initial):
    """The stored and the streamed march give the same bits, and each
    builds coefficients only for the frames it reads: at most two new
    frames a step tried, and frame 0."""
    ax = qf.uniform_axis(-16, 16, 256)
    w0 = qf.two_lobe_packet(ax, 7.0, 0.7) if initial == "two-lobe" else odd_state(ax)
    dt, n_steps, store_every = 0.002, 450, 3
    frames = qf.evolve_frames(w0, Potential.free(), dt, n_steps, store_every)
    assert frames.n_frames > qf.dynamics._CHUNK
    q0 = np.concatenate([[[0.0]], qf.born_sample_many(w0, 30, 3)])
    converted = _count_converted(monkeypatch)
    stored = qf.run_bohm_ensemble(frames, q0)
    stored_converted, converted[:] = sum(converted), []
    keep = [0.0, 0.3, 0.9]
    source = qf.FrameSource(w0, Potential.free(), dt, n_steps, store_every, keep=keep)
    streamed = qf.run_bohm_ensemble(source, q0)
    march = streamed.march
    assert set(converted) == {1}
    assert sum(converted) == stored_converted <= 2 * (march.steps + march.steps_taken_again) + 1
    assert sum(converted) < frames.n_frames
    assert streamed.march == stored.march
    assert np.array_equal(stored.times, streamed.times)
    assert np.array_equal(stored.positions, streamed.positions)
    assert np.array_equal(stored.frozen_at, streamed.frozen_at)
    if initial == "odd":
        assert streamed.frozen_at[0] >= 0  # the member on the node froze
    kept = source.drain()
    ids = [frames.index_at(t) for t in keep]
    assert np.array_equal(kept.times, frames.times[ids])
    assert np.array_equal(kept.amplitudes, frames.amplitudes[ids])


@pytest.mark.parametrize("chunk", [2, 4])
def test_streamed_fallback_reads_back_across_chunks(monkeypatch, chunk):
    """The [odd] march of test_streamed_march_matches_stored_frames in
    chunks of 2 and of 4 frames.  Member 0 starts on the node, so the first
    frame-pair step (frames 0, 1, 2) halves.  In chunks of 2 that step ends
    on the last frame of chunk 0, which chunk 1 starts on, and its halves
    read frames 0 and 1 of chunk 0 again.  A step spans at most a chunk, so
    in chunks of 2 the march steps frame pairs only.  The streamed march
    gives the bits of the stored one in every row, the odd frames inside
    the steps too."""
    monkeypatch.setattr(qf.dynamics, "_CHUNK", chunk)
    ax = qf.uniform_axis(-16, 16, 256)
    w0 = odd_state(ax)
    dt, n_steps, store_every = 0.002, 450, 3
    frames = qf.evolve_frames(w0, Potential.free(), dt, n_steps, store_every)
    q0 = np.concatenate([[[0.0]], qf.born_sample_many(w0, 30, 3)])
    halved = []
    halve = qf.dynamics._halve

    def recorded(field, pos, stages, h, depth=1):
        halved.append(stages)
        return halve(field, pos, stages, h, depth)

    monkeypatch.setattr(qf.dynamics, "_halve", recorded)
    stored = qf.run_bohm_ensemble(frames, q0)
    source = qf.FrameSource(w0, Potential.free(), dt, n_steps, store_every, keep=())
    streamed = qf.run_bohm_ensemble(source, q0)
    assert tuple(frames.times[:3]) in halved
    assert np.array_equal(as_bits(streamed.positions), as_bits(stored.positions))
    assert np.array_equal(streamed.frozen_at, stored.frozen_at)
    assert streamed.frozen_at[0] == 0 and np.all(streamed.frozen_at[1:] == -1)


def test_real_eigenstate_march_reaches_the_stride_cap(monkeypatch):
    """A real eigenstate guides no member, so every error estimate is about
    1e-19: the stride doubles from a frame pair to the cap of a chunk, 64
    frames, and no step is taken again.  A step starts on a multiple of its
    span, so over 401 frames the march takes steps of 2, 2, 4, 8, 16 and
    32, then 5 of 64 frames and a last one of 16, and no member moves by
    more than 1e-12.  The field builds coefficients for the frames it reads
    only."""
    ax = qf.uniform_axis(-2, 2, 128)
    potential = Potential.box([-1.0], [1.0], 1e4)
    w0 = qf.stationary_state(ax, potential, 0, dt=0.0002)
    q0 = np.linspace(-0.8, 0.8, 50)[:, None]
    converted = _count_converted(monkeypatch)
    source = qf.FrameSource(w0, potential, 0.0002, 400, keep=())
    ensemble = qf.run_bohm_ensemble(source, q0, head=3, drift=True)
    march = ensemble.march
    assert (march.steps, march.steps_taken_again) == (12, 0)
    # coefficients are built only for the frames the march reads: frame 0
    # and two a step, 25 of the 401
    assert set(converted) == {1}
    assert sum(converted) <= 2 * (march.steps + march.steps_taken_again) + 1 == 25
    assert (march.min_stride, march.max_stride) == (2, qf.dynamics._CHUNK) == (2, 64)
    assert march.max_error < qf.dynamics.MARCH_TOL / 16
    assert np.max(np.abs(ensemble.positions - q0)) <= 1e-12
    assert ensemble.max_drift <= 1e-12


def _record_strides(monkeypatch):
    """(i, half) of every step the march tries, in order: a step taken again
    is tried again from the same frame i."""
    tried = []
    stride = qf.dynamics._stride

    def recorded(times, i, m):
        tried.append((i, stride(times, i, m)))
        return tried[-1][1]

    monkeypatch.setattr(qf.dynamics, "_stride", recorded)
    return tried


def converging_odd_state(ax):
    """An odd state whose lobes move onto its node at x = 0."""
    return qf.GridWaveFunction((ax,), np.exp(-((ax - 5.0) ** 2) / 2 - 1j * ax)
                               - np.exp(-((ax + 5.0) ** 2) / 2 + 1j * ax))


@pytest.mark.parametrize("initial", ["two-lobe", "odd"])
def test_each_step_reads_one_chunk(monkeypatch, initial):
    """A step of 2m frames starts on a multiple of 2m, so it lies inside one
    chunk, frames 64c to 64c + 64, and so do its retries and the halves of
    its node fallback.  A streamed march asks its source for each chunk
    once, in order, and gives the bits of the stored march: on a two-lobe
    march that takes steps again, and on an odd state whose lobes move onto
    its node (EPS_NODE_FACTOR raised to 0.3), which also takes the node
    fallback."""
    ax = qf.uniform_axis(-16, 16, 256)
    if initial == "two-lobe":
        w0, dt, n_steps, store_every = qf.two_lobe_packet(ax, 7.0, 0.7), 0.004, 750, 1
    else:
        monkeypatch.setattr(qf.dynamics, "EPS_NODE_FACTOR", 0.3)
        w0, dt, n_steps, store_every = converging_odd_state(ax), 0.004, 1000, 2
    frames = qf.evolve_frames(w0, Potential.free(), dt, n_steps, store_every)
    q0 = qf.born_sample_many(w0, 60, 3)
    stored = qf.run_bohm_ensemble(frames, q0)
    asked = []
    chunk = qf.FrameSource.chunk

    def recorded(self, c):
        asked.append(c)
        return chunk(self, c)

    monkeypatch.setattr(qf.FrameSource, "chunk", recorded)
    tried = _record_strides(monkeypatch)
    source = qf.FrameSource(w0, Potential.free(), dt, n_steps, store_every, keep=())
    streamed = qf.run_bohm_ensemble(source, q0)
    n_chunks = -(-(source.n_frames - 1) // qf.dynamics._CHUNK)
    assert n_chunks > 5 and asked == list(range(n_chunks))
    for i, half in tried:
        c = i // qf.dynamics._CHUNK
        assert i + max(2 * half, 1) <= qf.dynamics._CHUNK * (c + 1), (i, half)
    march = streamed.march
    assert march.steps_taken_again > 0
    assert (march.node_fallback_member_steps > 0) == (initial == "odd")
    assert march == stored.march
    assert np.array_equal(as_bits(streamed.positions), as_bits(stored.positions))
    assert np.array_equal(streamed.frozen_at, stored.frozen_at)


def test_node_at_a_long_stride_is_taken_again_down_to_the_fallback(monkeypatch):
    """An odd state whose lobes move onto its node, with EPS_NODE_FACTOR raised
    to 0.3: the members that come near the node touch it in steps of
    several frame pairs.  Each such step is taken again at half the stride,
    down to a frame pair, and only there do the touched members halve the
    step and, past MAX_HALVINGS, freeze."""
    monkeypatch.setattr(qf.dynamics, "EPS_NODE_FACTOR", 0.3)
    w0 = converging_odd_state(qf.uniform_axis(-16, 16, 256))
    frames = qf.evolve_frames(w0, Potential.free(), 0.004, 1000, 2)
    q0 = qf.born_sample_many(w0, 60, 3)
    tried = _record_strides(monkeypatch)
    attempts, halved = [], []
    rk4, halve = qf.dynamics._rk4_batch, qf.dynamics._halve

    def rk4_recorded(field, pos, stages, h, first=None):
        out = rk4(field, pos, stages, h, first)
        if first is not None:  # a step of the march, not of its fallback
            attempts.append(bool(out[1].any()))
        return out

    def halve_recorded(field, pos, stages, h, depth=1):
        if depth == 1:
            halved.append(frames.index_at(stages[0]))
        return halve(field, pos, stages, h, depth)

    monkeypatch.setattr(qf.dynamics, "_rk4_batch", rk4_recorded)
    monkeypatch.setattr(qf.dynamics, "_halve", halve_recorded)
    ensemble = qf.run_bohm_ensemble(frames, q0)
    assert len(attempts) == len(tried)  # some member is live to the end: every step tried runs
    for n, ((i, half), touched) in enumerate(zip(tried, attempts)):
        if touched and half > 1:
            assert tried[n + 1] == (i, half // 2), (i, half)
    # the fallback runs on the pair steps that touch a node, and only there
    assert halved == [i for (i, half), touched in zip(tried, attempts) if touched and half <= 1]
    long_touched = {i for (i, half), touched in zip(tried, attempts) if touched and half > 1}
    assert long_touched & set(halved)
    frozen = ensemble.frozen_at[ensemble.frozen_at >= 0]
    assert set(frozen.tolist()) <= set(halved) and np.any(frozen > 0)
    assert ensemble.march.node_fallback_member_steps > 0


# sha256 of the positions, frozen_at, head times and head positions of the
# [odd] march, and its max_drift, at MARCH_TOL = 0 and at the default
ODD_MARCH_BYTES = {
    0.0: ([
        "ba558e077287b8cc38a3be6e6733f659b7c6c268f244db294605a61db00d92e5",
        "8275b5c35eae5df39bea7e173b3bcdf939a1988a133cb0cb254dd20484929391",
        "dca604e6abfa5660bfc823cac38ee24b35e38ad6efb284f02e72f72fbe62ff23",
        "daff0a7cbfbcd5c46db211ab90f6328c5dffc51adc24490a4c212c24c3415dda",
    ], 0.265856027310555),
    qf.dynamics.MARCH_TOL: ([
        "9095d9b20d251b0d11bd11b3f83af021782b217ffd605ecf8a1240e2db85258e",
        "8275b5c35eae5df39bea7e173b3bcdf939a1988a133cb0cb254dd20484929391",
        "b272391583ae72a8e8d188df87b4b9d2fe44ae7743f6d7834369407747fb326d",
        "b17bbedd6e672ce3039035019035e3783fcda37a3d0a981c305d293e407f484a",
    ], 0.26585647439359583),
}


@pytest.mark.skipif(
    np.__version__ != NUMPY_VERSION,
    reason=f"digests recorded with numpy {NUMPY_VERSION}",
)
def test_odd_march_bytes_pinned(monkeypatch):
    """The [odd] march of test_streamed_march_matches_stored_frames, with 4
    head paths and the drift, pinned across versions of qflab: the member
    started on the node freezes at the first step, and every other member
    never touches it.  At MARCH_TOL = 0 every step spans a frame pair, and
    the march gave the bits of the frame-pair march that came before the
    stride control: every row, frozen_at, the head paths and max_drift.
    The default march was pinned when the stride control came in; no
    position moved by more than 1.5e-7 (in rows read off the middle of
    16-frame steps, 7.2e-9 at the frames the steps end on), and frozen_at
    kept its bytes.  It was pinned before that when the march moved to
    frame pairs (8.8e-7).  Both were pinned again when free frames came to
    be evolved in k-space and MARCH_TOL went from 1e-8 to 1e-6: at
    MARCH_TOL = 0 no position moved by more than 5.0e-14; the default march
    takes 9 steps instead of 18, of up to 32 frames, and no position moved
    by more than 2.4e-6 (in rows read off the middle of 32-frame steps; at
    the frames the steps end on it is within 4.4e-7 of the frame-pair
    march).  frozen_at kept its bytes.  The default march was pinned again
    when a step of 2m frames came to start on a multiple of 2m: it takes
    11 steps instead of 9, no position moved by more than 4.6e-7, and
    frozen_at kept its bytes; the march at MARCH_TOL = 0 kept its bytes."""
    ax = qf.uniform_axis(-16, 16, 256)
    w0 = odd_state(ax)
    frames = qf.evolve_frames(w0, Potential.free(), 0.002, 450, 3)
    q0 = np.concatenate([[[0.0]], qf.born_sample_many(w0, 30, 3)])
    for tol, pinned in ODD_MARCH_BYTES.items():
        monkeypatch.setattr(qf.dynamics, "MARCH_TOL", tol)
        ensemble = qf.run_bohm_ensemble(frames, q0, head=4, drift=True)
        assert ensemble.frozen_at[0] >= 0
        digests = [hashlib.sha256(a.tobytes()).hexdigest() for a in (
            ensemble.positions, ensemble.frozen_at, ensemble.head.times, ensemble.head.positions)]
        assert (digests, ensemble.max_drift) == pinned, tol


def as_bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def test_kept_rows_are_the_full_march_rows(monkeypatch):
    """A march that keeps some rows, the head paths and the running drift
    gives the bits of the every-row march, for blocks of 7 members and of
    all of them; the odd state's node freezes member 0 at the first step.
    The head paths and the drift are over the frames the steps end on.  At
    MARCH_TOL = 0 every step spans a frame pair, so those are the even
    frames; at the default the stride grows to 32 frames.  Every stride is
    even, so the kept odd frames 1 and 51 are read off the steps over them,
    and member 0 holds its start at frame 1."""
    for tol in (0.0, qf.dynamics.MARCH_TOL):
        monkeypatch.setattr(qf.dynamics, "MARCH_TOL", tol)
        kept_rows_case(monkeypatch, tol)


def kept_rows_case(monkeypatch, tol):
    ax = qf.uniform_axis(-16, 16, 256)
    w0 = odd_state(ax)
    dt, n_steps, store_every = 0.002, 450, 3
    q0 = np.concatenate([[[0.0]], qf.born_sample_many(w0, 30, 3)])
    keep = [0.6, 0.0, 0.3, 0.306, 0.006, 0.3]

    def march(**kwargs):
        source = qf.FrameSource(w0, Potential.free(), dt, n_steps, store_every, keep=())
        assert source.n_frames > 2 * qf.dynamics._CHUNK
        return qf.run_bohm_ensemble(source, q0, **kwargs)

    runs = {}
    for block in (7, len(q0)):
        monkeypatch.setattr(qf.dynamics, "_BLOCK", block)
        runs[block] = march(), march(keep=keep, head=4, drift=True)
    full, part = runs[len(q0)]
    assert full.frozen_at[0] == 0 and np.all(full.frozen_at[1:] == -1)
    assert full.head is None and full.max_drift is None
    assert part.march == full.march
    rows = [full.times.tolist().index(t) for t in (0.0, 0.006, 0.3, 0.306, 0.6)]
    assert rows == [0, 1, 50, 51, 100]
    assert np.array_equal(part.times, full.times[rows])
    assert np.array_equal(as_bits(part.positions), as_bits(full.positions[rows]))
    assert np.array_equal(part.frozen_at, full.frozen_at)
    # member 0's first step, over frames 0, 1, 2, underflowed: it holds from frame 0 on
    assert np.all(full.positions[:3, 0] == q0[0]) and not np.all(full.positions[:3, 1] == q0[1])
    marched = [full.times.tolist().index(t) for t in part.head.times]
    assert marched[-1] == full.times.size - 1
    if tol == 0:
        assert marched == list(range(0, full.times.size, 2))
    else:
        assert full.march.max_stride == 32 and len(marched) < full.times.size / 4
    assert len(marched) == full.march.steps + 1
    assert np.array_equal(as_bits(part.head.positions), as_bits(full.positions[marched, :4]))
    assert np.array_equal(part.head.frozen_at, full.frozen_at[:4])
    start = full.positions[0]
    drifts = [float(np.max(np.linalg.norm(row - start, axis=1))) for row in full.positions]
    assert part.max_drift == max(drifts[i] for i in marched)
    assert part.max_drift > max(drifts[i] for i in rows)  # it reads the rows not kept
    blocked_full, blocked_part = runs[7]
    for a, b in ((blocked_full, full), (blocked_part, part), (blocked_part.head, part.head)):
        assert np.array_equal(as_bits(a.positions), as_bits(b.positions))
        assert np.array_equal(a.frozen_at, b.frozen_at)
    assert blocked_part.max_drift == part.max_drift


def test_evolve_frames_holds_each_frame_once():
    # 601 frames on 1,024 points are 9.8 MB; the traced peak adds one
    # 64-frame chunk and the step's temporaries, not a second copy of them
    ax = qf.uniform_axis(-16, 16, 1024)
    w0 = qf.two_lobe_packet(ax, 7.0, 0.7)
    tracemalloc.start()
    try:
        frames = qf.evolve_frames(w0, Potential.free(), 0.001, 600)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert frames.n_frames == 601
    assert peak <= 1.25 * frames.amplitudes.nbytes


def test_kept_rows_march_holds_no_full_rows():
    # 2000 members over 401 stored steps: every row would be 6.4 MB of
    # positions; keeping two rows and ten members' paths the march's traced
    # peak is at most about 1.3 MB (one 256-point chunk, the coefficients of
    # the frames read from it, and the batch's arrays)
    ax = qf.uniform_axis(-16, 16, 256)
    w0 = qf.two_lobe_packet(ax, 7.0, 0.7)
    q0 = qf.born_sample_many(w0, 2000, 5)
    source = qf.FrameSource(w0, Potential.free(), 0.001, 400, keep=())
    full_rows = source.n_frames * q0.nbytes
    tracemalloc.start()
    try:
        ensemble = qf.run_bohm_ensemble(source, q0, keep=[0.0, 0.4], head=10, drift=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ensemble.positions.shape == (2, 2000, 1)
    # a head row at every frame a step ends on
    assert ensemble.head.positions.shape == (ensemble.march.steps + 1, 10, 1)
    assert peak < full_rows / 3, (peak, full_rows)


def test_velocity_field_reads_chunks_backward():
    """Over WaveFrames the field answers any time: read backward across a
    chunk boundary it gives the velocities it gives read forward."""
    ax = qf.uniform_axis(-8, 8, 64)
    w0 = qf.gaussian_packet((ax,), [0.5], [1.0], [1.0])
    dt = 0.002
    frames = qf.evolve_frames(w0, Potential.free(), dt, 200)
    assert frames.n_frames > 3 * qf.dynamics._CHUNK
    points = np.random.default_rng(4).uniform(-8, 8, (40, 1))
    times = [0.0, 62.5 * dt, 63 * dt, 63.5 * dt, 64 * dt, 64.5 * dt, 127.5 * dt, 128 * dt,
             150 * dt]
    field = qf.VelocityField(frames)
    forward = [field.velocity(points, t) for t in times]
    backward = [field.velocity(points, t) for t in reversed(times)][::-1]
    for t, (v, m), (vb, mb) in zip(times, forward, backward):
        v_fresh, m_fresh = qf.VelocityField(frames).velocity(points, t)
        assert np.array_equal(as_bits(vb), as_bits(v)), t
        assert np.array_equal(as_bits(v_fresh), as_bits(v)), t
        assert np.array_equal(mb, m) and np.array_equal(m_fresh, m)


def test_march_work_counts(monkeypatch):
    """A march with no nodes over 2n + 1 frames that keeps only even frames
    makes four velocity and kernel calls per step it takes or takes again,
    each through the public method, and no blends: three stages, and the
    velocity at the step's end, which is the next step's first stage.  The
    first stage of the march adds one call, and the last step makes none
    at its end if it is a frame pair, which is never taken again.  At
    MARCH_TOL = 0 it steps n frame pairs: 4n calls.  The stored times are
    i * dt, whose gaps differ in their last bits; a pair must not fall back
    to one-frame steps over them.  At the default the stride grows past 16
    frames, and the march makes under a fifth of those calls; its last step
    spans 4 frames (136 to 140), so it makes the call at its end.  The
    default march, which keeps every frame, reads the others off its steps
    and makes the same calls."""
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
    n = (frames.n_frames - 1) // 2
    assert frames.n_frames == 2 * n + 1 and n > qf.dynamics._CHUNK
    assert len(set(np.diff(frames.times).tolist())) > 1
    q0 = qf.born_sample_many(w0, 20, 1)
    for tol, keep in itertools.product((0.0, qf.dynamics.MARCH_TOL), (frames.times[::2], None)):
        monkeypatch.setattr(qf.dynamics, "MARCH_TOL", tol)
        calls.clear()
        march = qf.run_bohm_ensemble(frames, q0, keep=keep, head=3, drift=True).march
        calls_made = 4 * (march.steps + march.steps_taken_again) + (tol > 0)
        assert (calls["velocity"], calls["__call__"], calls["blend"]) == \
            (calls_made, calls_made, 0), (tol, keep)
        if tol == 0:
            assert (march.steps, march.max_stride) == (n, 2)
        else:
            assert march.max_stride > 16 and 5 * calls["velocity"] < 4 * n


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


@pytest.mark.parametrize("ndim, store_every", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_frame_source_frames_are_the_out_of_place_split_step(ndim, store_every):
    """Each frame is evolved in place in its chunk slot; the frames equal the
    out-of-place loop hv * ifft(k * fft(hv * a)) bit for bit, across a chunk
    boundary.  Complex multiplies do not commute bit for bit, so this also
    pins the order of each multiply's operands."""
    axes = tuple(qf.uniform_axis(-6, 6, n) for n in (48, 20)[:ndim])
    w0 = qf.gaussian_packet(axes, [0.3] * ndim, [1.2] * ndim, [0.5] * ndim)
    potential = Potential.box([-3.0] * ndim, [3.0] * ndim, 50.0)
    dt, n_steps = 0.01, 70 * store_every - 1  # the last gap is short when store_every > 1
    evolver = _SplitStepEvolver(axes, potential, dt)
    hv, k = evolver.half_potential, evolver.kinetic
    fft, ifft = (np.fft.fft, np.fft.ifft) if ndim == 1 else (np.fft.fftn, np.fft.ifftn)
    a, expect = w0.amplitudes, [w0.amplitudes]
    for i in range(1, n_steps + 1):
        a = hv * ifft(k * fft(hv * a))
        if i % store_every == 0 or i == n_steps:
            expect.append(a)
    expect = np.array(expect)
    assert len(expect) > qf.dynamics._CHUNK
    source = qf.FrameSource(w0, potential, dt, n_steps, store_every, keep=())
    # chunk 1 starts on chunk 0's last frame
    streamed = np.concatenate([source.chunk(0), source.chunk(1)[1:]])
    drained = qf.evolve_frames(w0, potential, dt, n_steps, store_every).amplitudes
    assert np.array_equal(as_bits(streamed), as_bits(expect))
    assert np.array_equal(as_bits(drained), as_bits(expect))


@pytest.mark.parametrize("ndim, store_every", [(1, 1), (1, 3), (2, 1), (2, 3)])
def test_free_frames_are_evolved_in_k_space(monkeypatch, ndim, store_every):
    """With no potential on the grid a source evolves each chunk as spectra,
    one multiply by the kinetic phase a split step, and inverts the chunk
    in one batch.  Its frames equal the split-step frames to 1e-12 of
    max |psi|, across chunk boundaries and a shorter last gap; frame 0 keeps
    the bits of psi0; and it calls no split step, where a box potential
    calls one per step."""
    axes = tuple(qf.uniform_axis(-6, 6, n) for n in (48, 20)[:ndim])
    w0 = qf.gaussian_packet(axes, [0.3] * ndim, [1.2] * ndim, [0.5] * ndim)
    dt, n_steps = 0.01, 70 * store_every - 1  # the last gap is short when store_every > 1
    evolver = _SplitStepEvolver(axes, Potential.free(), dt)
    a, expect = w0.amplitudes, [w0.amplitudes]
    for i in range(1, n_steps + 1):
        a = evolver.step(a)
        if i % store_every == 0 or i == n_steps:
            expect.append(a)
    expect = np.array(expect)
    assert len(expect) > qf.dynamics._CHUNK
    steps = []
    step = _SplitStepEvolver.step

    def counted(self, amps, out=None):
        steps.append(1)
        return step(self, amps, out)

    monkeypatch.setattr(_SplitStepEvolver, "step", counted)
    frames = qf.evolve_frames(w0, Potential.free(), dt, n_steps, store_every).amplitudes
    assert not steps
    assert np.max(np.abs(frames - expect)) <= 1e-12 * np.max(np.abs(expect))
    assert np.array_equal(as_bits(frames[0]), as_bits(w0.amplitudes))
    qf.evolve_frames(w0, Potential.box([-3.0] * ndim, [3.0] * ndim, 50.0), dt, n_steps,
                     store_every)
    assert len(steps) == n_steps


@pytest.mark.parametrize("initial", ["free-gaussian", "two-lobe"])
def test_march_at_a_hundredth_of_its_tolerance_moves_no_kept_row(monkeypatch, initial):
    """A global check of the march beside its per-step estimate: the same
    frames marched at MARCH_TOL and at MARCH_TOL / 100 agree within 1e-4 in
    every kept row, on reduced free-gaussian and double-slit cases.  The
    march at MARCH_TOL takes strides past 16 frames and fewer steps."""
    if initial == "free-gaussian":
        w0 = qf.gaussian_packet((qf.uniform_axis(-24, 24, 256),), [0.0], [1.0])
        dt, n_steps, keep = 0.004, 500, [0.2 * i for i in range(11)]
    else:
        w0 = qf.two_lobe_packet(qf.uniform_axis(-16, 16, 256), 7.0, 0.7)
        dt, n_steps, keep = 0.002, 1500, [0.0, 1.5, 3.0]
    frames = qf.evolve_frames(w0, Potential.free(), dt, n_steps)
    q0 = qf.born_sample_many(w0, 300, 4)
    runs = []
    for tol in (qf.dynamics.MARCH_TOL, qf.dynamics.MARCH_TOL / 100):
        monkeypatch.setattr(qf.dynamics, "MARCH_TOL", tol)
        runs.append(qf.run_bohm_ensemble(frames, q0, keep=keep))
    coarse, fine = runs
    assert coarse.march.max_stride > 16 and coarse.march.steps < fine.march.steps
    assert np.array_equal(coarse.times, fine.times) and len(coarse.times) == len(keep)
    assert np.max(np.abs(coarse.positions - fine.positions)) <= 1e-4


def test_bracket_on_a_list_is_the_searchsorted_bracket():
    # the velocity field brackets t by bisect on a list of the stored times
    times = qf.FrameSource(qf.gaussian_packet((qf.uniform_axis(-8, 8, 16),), [0.0], [1.0]),
                           Potential.free(), 1e-3, 300, 7).times
    rng = np.random.default_rng(9)
    ts = np.concatenate([times, times[:-1] + 0.5e-3, rng.uniform(-0.01, 0.31, 200),
                         np.nextafter(times, -np.inf), np.nextafter(times, np.inf)])
    for t in ts.tolist():
        if t <= times[0]:
            expect = 0, 0.0
        elif t >= times[-1]:
            expect = times.size - 2, 1.0
        else:
            i = int(np.searchsorted(times, t, side="right")) - 1
            expect = i, float((t - times[i]) / (times[i + 1] - times[i]))
        got = qf.dynamics._bracket(times.tolist(), t)
        assert got[0] == expect[0] and as_bits(got[1]) == as_bits(expect[1]), t


@pytest.mark.parametrize("ndim", [1, 2, 3])
def test_max_distance_is_the_largest_norm(ndim):
    rng = np.random.default_rng(ndim)
    start = rng.normal(size=(500, ndim))
    pos = start + rng.normal(scale=10.0 ** rng.integers(-12, 3, (500, 1)), size=(500, ndim))
    expect = float(np.max(np.linalg.norm(pos - start, axis=1)))
    assert as_bits(qf.dynamics._max_distance(pos, start)) == as_bits(expect)
