"""End-to-end acceptance battery.

Each test covers one numbered acceptance criterion at its stated tolerance
and prints exactly one PASS/FAIL line (run with -s to see them live).
"""

import json
import time

import numpy as np

import qflab as qf
from qflab.dynamics import Potential, chi_square_gof


def _report(num, name, ok, detail=""):
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}{tail}", flush=True)


def test_criterion_1_antidistinguishing_structure():
    t0 = time.perf_counter()
    c = qf.build_pbr_states()
    table = c.probability_table()
    gram = c.measurement.gram_deviation()
    diag = c.zero_diagonal_max()
    cols = np.max(np.abs(table.sum(axis=0) - 1.0))
    elapsed = time.perf_counter() - t0
    ok = gram <= 1e-12 and diag <= 1e-12 and cols <= 1e-12 and elapsed < 1.0
    _report(1, "antidistinguishing structure", ok,
            f"gram {gram:.1e}, diag {diag:.1e}, cols {cols:.1e}, {elapsed:.2f}s")
    assert ok


def test_criterion_2_contradiction_engine():
    t0 = time.perf_counter()
    failures = []
    for i in range(100):
        overlap = 0.1 + 0.4 * i / 99
        m = qf.random_epistemic_model(overlap, seed=i)
        out = qf.pbr_contradiction(m)
        if not (out.derivable and out.witness is not None):
            failures.append((i, out.reason))
    trivial = qf.build_trivial_ontic_model(
        {"zero": qf.basis_state(2, 0), "plus": qf.plus_state()},
        {"z": qf.ProjectiveMeasurement((qf.basis_state(2, 0), qf.basis_state(2, 1)))},
    )
    trivial_out = qf.pbr_contradiction(trivial)
    elapsed = time.perf_counter() - t0
    ok = not failures and not trivial_out.derivable and elapsed < 10.0
    _report(2, "contradiction engine over 100 random models", ok,
            f"failures {len(failures)}, trivial derivable {trivial_out.derivable}, {elapsed:.2f}s")
    assert ok, failures[:3]


def test_criterion_3_revised_assumption_escape():
    t0 = time.perf_counter()
    m = qf.build_box_nomological_model()
    cons = qf.check_consistency(m, tol=1e-12)
    cls = qf.classify(m)
    out = qf.pbr_contradiction(m)
    elapsed = time.perf_counter() - t0
    ok = (
        cons.passed
        and cls.classification == "psi-epistemic"
        and len(cls.epistemic_pairs) == 1
        and not out.derivable
        and elapsed < 5.0
    )
    _report(3, "revised-assumption escape", ok,
            f"max dev {cons.max_deviation:.1e}, pairs {len(cls.epistemic_pairs)}, "
            f"derivable {out.derivable}, {elapsed:.2f}s")
    assert ok


def test_criterion_4_orthogonal_distinctness():
    t0 = time.perf_counter()
    catalog = {"zero": qf.basis_state(2, 0), "one": qf.basis_state(2, 1)}
    meas = {"z": qf.ProjectiveMeasurement((qf.basis_state(2, 0), qf.basis_state(2, 1)))}
    clean = qf.build_trivial_ontic_model(catalog, meas)
    rep = qf.orthogonal_distinctness_check(clean)

    from qflab.onticmodels import OnticSpace, OntologicalModel

    counter = OntologicalModel(
        OnticSpace(("l0", "l1", "shared")),
        catalog,
        {"zero": np.array([0.8, 0.0, 0.2]), "one": np.array([0.0, 0.8, 0.2])},
        meas,
        {"z": np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])},
        mode="standard",
    )
    cons = qf.check_consistency(counter)
    located = {k for k, v in cons.deviations.items() if v > 1e-9}
    elapsed = time.perf_counter() - t0
    ok = (
        rep.passed
        and rep.worst_overlap <= 1e-12
        and not cons.passed
        and located == {("one", "z")}
        and elapsed < 5.0
    )
    _report(4, "orthogonal distinctness", ok,
            f"clean overlap {rep.worst_overlap:.1e}, counter located {sorted(located)}, {elapsed:.2f}s")
    assert ok


def test_criterion_5_equivariance_double_slit():
    t0 = time.perf_counter()
    spec = qf.preset("double-slit")
    ax = qf.uniform_axis(spec.grid["lo"][0], spec.grid["hi"][0], spec.grid["points"][0])
    w0 = qf.two_lobe_packet(
        ax, spec.initial_state["separation"], spec.initial_state["sigma"]
    )
    dt = spec.time["dt"]
    n_steps = int(round(spec.time["t_end"] / dt))
    frames = qf.evolve_frames(w0, Potential.free(), dt, n_steps, store_every=5)
    t_screen = spec.time["sample_times"][-1]
    w_screen = frames.wavefunction(frames.index_at(t_screen))

    q0 = qf.born_sample_many(w0, 10000, seed=qf.derive_seed(spec.seed, 1))
    ens = qf.run_bohm_ensemble(frames, q0)
    rep = qf.equivariance_test(ens, w_screen, t_screen, significance=1e-3)

    rng = np.random.default_rng(qf.derive_seed(spec.seed, 2))
    uniform = rng.uniform(-10.0, 10.0, size=(10000, 1))
    n = uniform.shape[0]
    control_members = qf.Ensemble(
        np.array([t_screen]), uniform[None], np.full(n, -1)
    )
    control = qf.equivariance_test(control_members, w_screen, t_screen, significance=1e-3)
    elapsed = time.perf_counter() - t0
    ok = rep.passed and not control.passed and elapsed < 300.0
    _report(5, "double-slit equivariance, 10^4 trajectories", ok,
            f"chi2 p {rep.chi_square.p_value:.3g}, ks p {rep.ks_marginals[0].p_value:.3g}, "
            f"control fails {not control.passed}, {elapsed:.1f}s")
    assert ok


def test_criterion_6_rdmp_marginals_and_continuity():
    t0 = time.perf_counter()
    spec = qf.preset("free-gaussian")
    ax = qf.uniform_axis(spec.grid["lo"][0], spec.grid["hi"][0], spec.grid["points"][0])
    w0 = qf.gaussian_packet(
        (ax,), spec.initial_state["centers"], spec.initial_state["sigmas"]
    )
    dt = spec.time["dt"]
    frames = qf.evolve_frames(
        w0, Potential.free(), dt, int(round(spec.time["t_end"] / dt)), store_every=5
    )
    times = np.asarray(spec.time["sample_times"])
    assert times.size == 10
    ens = qf.rdmp_ensemble(frames, times, 10000, seed=spec.seed)
    marginal_fails = []
    for t in times:
        w_t = frames.wavefunction(frames.index_at(t))
        r = chi_square_gof(ens.positions_at(t), w_t, significance=1e-3)
        if not r.passed:
            marginal_fails.append((float(t), r.p_value))

    def bohm_step(step):
        source = qf.FrameSource(w0, Potential.free(), step, int(round(1.0 / step)), keep=())
        path = qf.run_bohm_ensemble(source, [[1.2]]).positions[:, 0]
        return float(np.linalg.norm(np.diff(path, axis=0), axis=1).mean())

    coarse, fine = bohm_step(0.01), bohm_step(0.005)
    rdmp_path = ens.positions[:, 0]
    rdmp_step = float(np.mean(np.linalg.norm(np.diff(rdmp_path, axis=0), axis=1)))
    elapsed = time.perf_counter() - t0
    ok = (
        not marginal_fails
        and fine < 0.6 * coarse  # continuous: step scales down with dt
        and rdmp_step > 0.5  # discontinuous: step pinned at the i.i.d. scale
        and elapsed < 120.0
    )
    _report(6, "rdmp marginals and continuity metric", ok,
            f"marginal fails {marginal_fails}, bohm step {coarse:.2e}->{fine:.2e}, "
            f"rdmp step {rdmp_step:.2f}, {elapsed:.1f}s")
    assert ok


def test_criterion_7_conditional_effective():
    t0 = time.perf_counter()
    split = qf.SubsystemSplit((0,), (1,))
    ax = qf.uniform_axis(-8, 8, 128)
    ay = qf.uniform_axis(-12, 12, 128)

    def gauss(a, c, s, k=0.0):
        v = np.exp(-((a - c) ** 2) / (4 * s**2) + 1j * k * a)
        return v / np.linalg.norm(v)

    # product case, on- and off-grid Y
    fx, gy = gauss(ax, 0.7, 1.1, 0.4), gauss(ay, -1.0, 1.5)
    product = qf.GridWaveFunction((ax, ay), np.outer(fx, gy))
    ref = qf.GridWaveFunction((ax,), fx)
    product_err = max(
        qf.l2_distance(qf.conditional_wavefunction(product, split, [y]), ref)
        for y in (-2.0, 0.0, 1.3)
    )

    # disjoint branches select by Y
    f = [gauss(ax, -3.0, 0.6), gauss(ax, 3.0, 0.6)]
    g = [gauss(ay, -5.0, 0.8), gauss(ay, 5.0, 0.8)]
    amps = 0.8 * np.outer(f[0], g[0]) + 0.6 * np.outer(f[1], g[1])
    w = qf.GridWaveFunction((ax, ay), amps)
    hi = qf.detect_effective(w, split, [5.0])
    lo = qf.detect_effective(w, split, [-5.0])
    select_ok = (
        hi.effective
        and lo.effective
        and hi.branch_index != lo.branch_index
        and qf.l2_distance(hi.wavefunction, qf.GridWaveFunction((ax,), f[1])) < 1e-4
        and qf.l2_distance(lo.wavefunction, qf.GridWaveFunction((ax,), f[0])) < 1e-4
    )

    # reconstruction on a dense random state
    rng = np.random.default_rng(11)
    dense = qf.GridWaveFunction(
        (qf.uniform_axis(-2, 2, 14), qf.uniform_axis(-2, 2, 12)),
        rng.normal(size=(14, 12)) + 1j * rng.normal(size=(14, 12)),
    )
    decomp = qf.branch_decompose(dense, split)
    gap = decomp.reconstruct().amplitudes - dense.amplitudes
    recon_err = float(np.sqrt(np.sum(np.abs(gap) ** 2) * dense.cell_volume))

    # autonomy under non-interacting evolution
    frames = qf.evolve_frames(w, Potential.free(), 0.005, 60, store_every=1)
    g2 = qf.GridWaveFunction((ay,), g[1])
    ypath = qf.run_bohm_ensemble(qf.FrameSource(g2, Potential.free(), 0.005, 60, keep=()), [[5.0]])
    autonomy = qf.schrodinger_autonomy_check(frames, split, ypath, Potential.free())

    elapsed = time.perf_counter() - t0
    ok = (
        product_err <= 1e-10
        and select_ok
        and recon_err <= 1e-8
        and autonomy.max_distance <= 1e-4
        and elapsed < 30.0
    )
    _report(7, "conditional and effective wave functions", ok,
            f"product {product_err:.1e}, recon {recon_err:.1e}, "
            f"autonomy {autonomy.max_distance:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_8_numerics():
    t0 = time.perf_counter()
    # unitarity over 1000 steps
    ax = qf.uniform_axis(-16, 16, 256)
    w = qf.two_lobe_packet(ax, 7.0, 0.7)
    frames = qf.evolve_frames(w, Potential.box([-14.0], [14.0], 1e4), 1e-3, 1000, store_every=100)
    norm_drift = max(abs(frames.wavefunction(i).norm() - 1.0) for i in range(frames.n_frames))

    # free Gaussian width law
    ax2 = qf.uniform_axis(-24, 24, 512)
    w2 = qf.gaussian_packet((ax2,), [0.0], [1.0])
    fr2 = qf.evolve_frames(w2, Potential.free(), 0.002, 1000, store_every=100)
    dens = qf.born_density(fr2.wavefunction(-1)) * fr2.wavefunction(-1).cell_volume
    x = ax2
    mean = float(np.sum(x * dens))
    width = float(np.sqrt(np.sum((x - mean) ** 2 * dens)))
    width_expect = np.sqrt(1 + (2.0 / 2.0) ** 2)
    width_err = abs(width - width_expect) / width_expect

    # real eigenstate velocity, and box trajectories at rest over its frames
    axb = qf.uniform_axis(-2, 2, 512)
    box = Potential.box([-1.0], [1.0], 1e4)
    dt = 2e-4
    w_run = qf.stationary_state(axb, box, 0)
    frames_box = qf.evolve_frames(w_run, box, dt, 2500, store_every=25)
    probes = np.array([[-0.7], [-0.3], [0.0], [0.25], [0.6]])
    v, _ = qf.VelocityField(frames_box).velocity(probes, 0.0)
    vmax = float(np.max(np.abs(v)))
    ens = qf.run_bohm_ensemble(frames_box, np.linspace(-0.8, 0.8, 50)[:, None])
    displacement = float(np.max(np.abs(ens.positions - ens.positions[0])))

    elapsed = time.perf_counter() - t0
    ok = (
        norm_drift < 1e-10
        and width_err < 1e-3
        and vmax <= 1e-12
        and displacement <= 1e-8
        and elapsed < 60.0
    )
    _report(8, "solver numerics and box rest", ok,
            f"norm {norm_drift:.1e}, width {width_err:.1e}, v {vmax:.1e}, "
            f"drift {displacement:.1e}, {elapsed:.1f}s")
    assert ok


def test_criterion_9_reproducibility(tmp_path):
    spec = qf.preset("box").with_overrides(out_dir=str(tmp_path))
    qf.run(spec)
    out = tmp_path / "box"
    first = {p.name: p.read_bytes() for p in out.iterdir()}
    qf.run(spec)
    second = {p.name: p.read_bytes() for p in out.iterdir()}

    mismatched = []
    for name in sorted(first):
        if name == "manifest.json":
            a, b = json.loads(first[name]), json.loads(second[name])
            a.pop("wall_clock_seconds"), b.pop("wall_clock_seconds")
            if a != b:
                mismatched.append(name)
        elif first[name] != second.get(name):
            mismatched.append(name)
    ok = not mismatched and sorted(first) == sorted(second)
    _report(9, "byte-identical artifacts", ok,
            f"{len(first)} artifacts, mismatched {mismatched}")
    assert ok
