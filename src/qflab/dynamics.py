"""Wave evolution, pilot-wave trajectories, and random-jump particle dynamics.

Natural units hbar = m = 1 throughout.

Wave evolution is second-order symmetric split-step on a periodic grid:

    psi -> exp(-i V dt/2) psi          half step, position space
    psi -> IFFT exp(-i k^2 dt/2) FFT   full kinetic step, momentum space
    psi -> exp(-i V dt/2) psi          half step, position space

Particle velocities follow the probability current, v = Im(grad psi / psi),
evaluated off-grid by separable cubic interpolation of psi and its spectral
gradient.  Trajectories integrate that field with RK4 against wave frames
stored on a fixed dt grid (linear interpolation in time between frames);
steps that touch a node (|psi| < 1e-8 max|psi|) are halved and retried,
giving up below dt / 2**10.

Frames stream: a FrameSource evolves _CHUNK stored frames at a time, the
velocity field computes psi and its gradient for a whole chunk with one
batched FFT and prefilters the stack in one pass per grid axis, and the
march holds at most two chunks.  Only the frames a caller asks to keep
(a run keeps t = 0 and its sample times) outlive their chunk.
``evolve_frames`` drains the same source and keeps every frame.

The random-jump alternative draws an independent Born sample at each
requested time, with no continuity between successive configurations.

Goodness of fit against |psi|^2 is a binned chi-square test and a
Kolmogorov-Smirnov test per axis.  Their p-values come from
``scipy.special.chdtrc`` and from ``_kstwo.kstwo_sf``, a trimmed copy of
scipy's exact KS survival function; both equal what ``scipy.stats``
returns bit for bit, and this module imports only ``scipy.linalg`` and
``scipy.special``, so importing qflab does not load ``scipy.stats``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, special

from ._kstwo import kstwo_sf
from .interpolation import CubicGridInterpolator
from .states import GridWaveFunction, born_density, grid_norm

EPS_NODE_FACTOR = 1e-8
MAX_HALVINGS = 10
WALL_HEIGHT = 1e4
CHI2_SIGNIFICANCE = 1e-3
_MASK64 = (1 << 64) - 1
# stored frames evolved, prefiltered and held together by the streamed pipeline
_CHUNK = 64
# Rayleigh-quotient iteration of stationary_state: the residual that certifies
# a propagator eigenvector, the most linear solves one run of it may take, and
# how often it restarts after converging to an eigenvector far from v_H
_RQI_TOL = 1e-13
_RQI_MAX_STEPS = 12
_RQI_RESTARTS = 2

__all__ = [
    "Potential",
    "Trajectory",
    "Ensemble",
    "WaveFrames",
    "FrameSource",
    "VelocityField",
    "NodeProximity",
    "MomentumResolutionWarning",
    "derive_seed",
    "gaussian_packet",
    "two_lobe_packet",
    "plane_wave",
    "stationary_state",
    "spectral_hamiltonian",
    "evolve_step",
    "evolve_frames",
    "guiding_velocity",
    "integrate_trajectory",
    "run_bohm_ensemble",
    "born_sample",
    "born_sample_many",
    "rdmp_trajectory",
    "rdmp_ensemble",
    "equivariance_test",
    "compare_bohm_rdmp",
    "mean_step_displacement",
    "GoodnessOfFit",
    "EquivarianceReport",
    "DivergenceReport",
]


class NodeProximity(Exception):
    """Velocity requested where |psi| is below the node threshold."""


class _StepUnderflow(Exception):
    """Adaptive halving hit dt / 2**MAX_HALVINGS without clearing a node."""


class MomentumResolutionWarning(UserWarning):
    """Wave function carries momentum content near the grid cutoff."""


def derive_seed(seed: int, index: int) -> int:
    """Per-member seed: seed XOR splitmix64(index).

    Order-independent, so ensemble members can integrate in any order or in
    parallel and still reproduce bit-identically.
    """
    z = (index + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    z ^= z >> 31
    return (seed ^ z) & _MASK64


# ---------------------------------------------------------------------------
# potentials and initial states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Potential:
    """Real potential energy on the configuration grid.

    Declarative kinds (free / box / slit-barrier / table) serialize to JSON
    for experiment specs; ``custom`` wraps an arbitrary callable on the
    coordinate meshgrid and is library-only.
    """

    kind: str
    params: dict = field(default_factory=dict)

    @classmethod
    def free(cls):
        return cls("free")

    @classmethod
    def box(cls, inner_lo, inner_hi, height=WALL_HEIGHT):
        """Finite high walls outside the box [inner_lo, inner_hi] per axis."""
        return cls(
            "box",
            {
                "inner_lo": list(np.atleast_1d(inner_lo).astype(float)),
                "inner_hi": list(np.atleast_1d(inner_hi).astype(float)),
                "height": float(height),
            },
        )

    @classmethod
    def table(cls, values):
        return cls("table", {"values": np.asarray(values, dtype=float).tolist()})

    @classmethod
    def slit_barrier(cls, wall_lo, wall_hi, slit_centers, slit_width, height=WALL_HEIGHT):
        """2-D barrier along the second axis with openings in the first."""
        return cls(
            "slit-barrier",
            {
                "wall_lo": float(wall_lo),
                "wall_hi": float(wall_hi),
                "slit_centers": [float(c) for c in slit_centers],
                "slit_width": float(slit_width),
                "height": float(height),
            },
        )

    @classmethod
    def custom(cls, fn):
        return cls("custom", {"fn": fn})

    def on_grid(self, axes) -> np.ndarray:
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        shape = tuple(a.size for a in axes)
        if self.kind == "free":
            return np.zeros(shape)
        if self.kind == "box":
            lo = self.params["inner_lo"]
            hi = self.params["inner_hi"]
            height = self.params["height"]
            v = np.zeros(shape)
            mesh = np.meshgrid(*axes, indexing="ij")
            outside = np.zeros(shape, dtype=bool)
            for d, m in enumerate(mesh):
                outside |= (m < lo[d]) | (m > hi[d])
            v[outside] = height
            return v
        if self.kind == "table":
            v = np.asarray(self.params["values"], dtype=float)
            if v.shape != shape:
                raise ValueError(f"table shape {v.shape} does not match grid {shape}")
            return v
        if self.kind == "slit-barrier":
            if len(axes) != 2:
                raise ValueError("slit-barrier potential needs a 2-D grid")
            p = self.params
            x, y = np.meshgrid(*axes, indexing="ij")
            in_wall = (y >= p["wall_lo"]) & (y <= p["wall_hi"])
            open_slit = np.zeros_like(in_wall)
            for c in p["slit_centers"]:
                open_slit |= np.abs(x - c) <= p["slit_width"] / 2
            v = np.zeros(shape)
            v[in_wall & ~open_slit] = p["height"]
            return v
        if self.kind == "custom":
            mesh = np.meshgrid(*axes, indexing="ij")
            v = np.asarray(self.params["fn"](*mesh), dtype=float)
            if v.shape != shape:
                raise ValueError("custom potential returned wrong shape")
            return v
        raise ValueError(f"unknown potential kind {self.kind!r}")

    def to_json(self) -> dict:
        if self.kind == "custom":
            raise ValueError("custom potentials are not serializable")
        return {"kind": self.kind, **self.params}

    @classmethod
    def from_json(cls, obj: dict) -> "Potential":
        obj = dict(obj)
        kind = obj.pop("kind")
        return cls(kind, obj)


def gaussian_packet(axes, centers, sigmas, momenta=None) -> GridWaveFunction:
    """Normalized Gaussian packet: exp(-(q-c)^2 / (4 sigma^2) + i k q) per axis.

    ``sigmas`` are position-density standard deviations at t = 0.
    """
    axes = tuple(np.asarray(a, dtype=float) for a in axes)
    centers = np.atleast_1d(np.asarray(centers, dtype=float))
    sigmas = np.broadcast_to(np.atleast_1d(np.asarray(sigmas, dtype=float)), centers.shape)
    if momenta is None:
        momenta = np.zeros_like(centers)
    momenta = np.broadcast_to(np.atleast_1d(np.asarray(momenta, dtype=float)), centers.shape)
    amp = np.ones(tuple(a.size for a in axes), dtype=complex)
    for d, a in enumerate(axes):
        shape = [1] * len(axes)
        shape[d] = a.size
        line = np.exp(
            -((a - centers[d]) ** 2) / (4 * sigmas[d] ** 2) + 1j * momenta[d] * a
        )
        amp = amp * line.reshape(shape)
    return GridWaveFunction(axes, amp)


def two_lobe_packet(axis, separation, sigma, momenta=(0.0, 0.0)) -> GridWaveFunction:
    """Equal superposition of two 1-D Gaussian lobes at +- separation/2."""
    a = np.asarray(axis, dtype=float)
    half = separation / 2
    lobe_l = np.exp(-((a + half) ** 2) / (4 * sigma**2) + 1j * momenta[0] * a)
    lobe_r = np.exp(-((a - half) ** 2) / (4 * sigma**2) + 1j * momenta[1] * a)
    return GridWaveFunction((a,), lobe_l + lobe_r)


def plane_wave(axis, mode: int) -> GridWaveFunction:
    """Exact periodic grid mode exp(i k x) with k = 2 pi mode / L."""
    a = np.asarray(axis, dtype=float)
    length = (a[1] - a[0]) * a.size
    k = 2 * np.pi * mode / length
    return GridWaveFunction((a,), np.exp(1j * k * (a - a[0])))


def spectral_hamiltonian(axis, potential: Potential) -> np.ndarray:
    """Dense real symmetric 1-D Hamiltonian with the evolver's spectral kinetic operator.

    The kinetic part is the circulant matrix whose first column is
    ifft(k^2 / 2), made exactly symmetric; the potential sits on the
    diagonal.  Eigenvectors of this matrix are the stationary states of the
    discrete dynamics (up to split-step Trotter error), which makes it the
    natural source of box eigenstates.
    """
    a = np.asarray(axis, dtype=float)
    k = 2 * np.pi * np.fft.fftfreq(a.size, d=a[1] - a[0])
    column = np.fft.ifft(0.5 * k**2).real
    h = linalg.circulant(0.5 * (column + np.roll(column[::-1], 1)))
    h.flat[:: a.size + 1] += potential.on_grid((a,))
    return h


def stationary_state(
    axis, potential: Potential, level: int = 0, dt: float | None = None
) -> GridWaveFunction:
    """level-th eigenstate of the discrete 1-D Hamiltonian, phase-fixed real.

    Only the one eigenpair is computed.  With dt given, the Hamiltonian
    eigenvector v_H is replaced by the eigenvector of the one-step split
    propagator U for that dt that it overlaps most.  That state is
    stationary under the time-stepped dynamics itself, not just up to
    Trotter error, so densities and Bohmian trajectories built on it hold
    still to roundoff.  It is found by Rayleigh-quotient iteration on U
    started from v_H, and accepted only with a certificate: the residual
    |U v - mu v| is at most 1e-13 and |<v_H|v>|^2 exceeds 1/2.  U is
    unitary, so at most one of its orthonormal eigenvectors can overlap
    v_H that much, and an accepted v is that one.  If the iteration
    converges to another eigenvector, it restarts from v_H with the
    eigenvectors found so far projected out, at most twice.  A level
    without a certified vector raises ValueError, and a spec asking for it
    exits as invalid.  That happens only where v_H is a mixture with no
    propagator eigenvector that close: at high levels, whose phases alias
    around the unit circle, or at energies above a box wall (34 levels of
    the 512-point duel grid, the first being 84).
    Time-reversal symmetry of the propagator makes the eigenvector real up
    to a global phase, which is fixed the same way as the dt=None branch.
    """
    a = np.asarray(axis, dtype=float)
    _, v_h = linalg.eigh(
        spectral_hamiltonian(a, potential), subset_by_index=[level, level], overwrite_a=True
    )
    vec = v_h[:, 0].astype(complex)
    if dt is not None:
        vec = _propagator_eigenvector(a, potential, dt, vec, level)
    pivot = vec[np.argmax(np.abs(vec))]
    vec = vec * (abs(pivot) / pivot)
    if np.max(np.abs(vec.imag)) < 1e-9 * np.max(np.abs(vec.real)):
        vec = vec.real.astype(complex)
    return GridWaveFunction((a,), vec)


def _propagator_eigenvector(a, potential, dt, v_h, level) -> np.ndarray:
    """Certified eigenvector of the one-step split propagator nearest v_h."""
    evolver = _SplitStepEvolver((a,), potential, dt)
    # U = diag(h) circulant(ifft(kinetic)) diag(h), h the half-step potential phase
    u = linalg.circulant(np.fft.ifft(evolver.kinetic))
    u *= evolver.half_potential[:, None]
    u *= evolver.half_potential
    shifted = np.empty_like(u)
    found = []
    for restart in range(_RQI_RESTARTS + 1):
        # start from v_h, with the eigenvectors already converged to projected
        # out and renormalised (the first run starts from v_h as it is)
        v = v_h
        for f in found:
            v = v - np.vdot(f, v) * f
        if found:
            v = v / np.linalg.norm(v)
        for step in range(_RQI_MAX_STEPS + 1):
            uv = u @ v
            mu = np.vdot(v, uv)
            residual = np.linalg.norm(uv - mu * v)
            if residual <= _RQI_TOL or step == _RQI_MAX_STEPS:
                break
            np.copyto(shifted, u)
            shifted.flat[:: a.size + 1] -= mu
            w = linalg.lu_solve(linalg.lu_factor(shifted, overwrite_a=True), v)
            v = w / np.linalg.norm(w)
        overlap = abs(np.vdot(v_h, v)) ** 2
        if residual > _RQI_TOL or overlap > 0.5:
            break
        found.append(v)
    if not (residual <= _RQI_TOL and overlap > 0.5):
        raise ValueError(
            f"level {level} has no certified eigenvector of the dt={dt} step propagator "
            f"(residual {residual:.1e} after {step} Rayleigh-quotient steps and {restart} "
            f"restarts, overlap^2 {overlap:.3f} with its Hamiltonian eigenstate); "
            "choose another level"
        )
    return v


# ---------------------------------------------------------------------------
# split-step evolution
# ---------------------------------------------------------------------------


class _SplitStepEvolver:
    """Caches the phase factors for one (grid, potential, dt) combination."""

    def __init__(self, axes, potential: Potential, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.axes = axes
        self.dt = dt
        v = potential.on_grid(axes)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite at all grid points")
        self.half_potential = np.exp(-0.5j * dt * v)
        ksq = np.zeros(tuple(a.size for a in axes))
        for d, a in enumerate(axes):
            k = 2 * np.pi * np.fft.fftfreq(a.size, d=a[1] - a[0])
            shape = [1] * len(axes)
            shape[d] = a.size
            ksq = ksq + (k**2).reshape(shape)
        self.kinetic = np.exp(-0.5j * dt * ksq)

    def step(self, amps: np.ndarray) -> np.ndarray:
        out = self.half_potential * amps
        out = np.fft.ifftn(self.kinetic * np.fft.fftn(out))
        return self.half_potential * out


def _check_momentum_resolution(w: GridWaveFunction, mass_tol=1e-6):
    spectrum = np.abs(np.fft.fftn(w.amplitudes)) ** 2
    total = spectrum.sum()
    if total == 0:
        return
    outer = np.zeros(w.shape, dtype=bool)
    for d, a in enumerate(w.axes):
        k = np.abs(np.fft.fftfreq(a.size))
        shape = [1] * w.ndim
        shape[d] = a.size
        outer |= np.broadcast_to((k > 0.45).reshape(shape), w.shape)
    frac = spectrum[outer].sum() / total
    if frac > mass_tol:
        warnings.warn(
            f"momentum content near grid cutoff (mass fraction {frac:.2e}); "
            "refine the grid or lower the packet momentum",
            MomentumResolutionWarning,
            stacklevel=3,
        )


def evolve_step(w: GridWaveFunction, p: Potential, dt: float) -> GridWaveFunction:
    """One split-step update.  Norm is preserved to roundoff, not re-imposed."""
    _check_momentum_resolution(w)
    evolver = _SplitStepEvolver(w.axes, p, dt)
    return w.with_amplitudes(evolver.step(w.amplitudes), normalize=False)


def _index_at(times: np.ndarray, t: float, tol: float = 1e-9) -> int:
    i = int(np.argmin(np.abs(times - t)))
    if abs(float(times[i]) - t) > tol * max(1.0, abs(t)):
        raise ValueError(f"no stored frame at t={t}")
    return i


@dataclass(frozen=True)
class WaveFrames:
    """Wave function snapshots on a fixed time grid, ready for interpolation."""

    axes: tuple
    times: np.ndarray
    amplitudes: np.ndarray  # (n_frames, *grid_shape)

    @property
    def n_frames(self) -> int:
        return self.times.size

    @property
    def cell_volume(self) -> float:
        return float(np.prod([a[1] - a[0] for a in self.axes]))

    def wavefunction(self, i: int) -> GridWaveFunction:
        return GridWaveFunction(self.axes, self.amplitudes[i], normalize=False)

    def index_at(self, t: float, tol: float = 1e-9) -> int:
        return _index_at(self.times, t, tol)

    def bracket(self, t: float):
        """(i, blend) with times[i] <= t <= times[i+1]; clamped at the ends."""
        return _bracket(self.times, t)

    def density(self, i: int) -> np.ndarray:
        return np.abs(self.amplitudes[i]) ** 2

    def chunk(self, c: int) -> np.ndarray:
        """Amplitudes of stored frames c*_CHUNK up to (c+1)*_CHUNK."""
        return self.amplitudes[c * _CHUNK : (c + 1) * _CHUNK]


def _bracket(times: np.ndarray, t: float):
    if t <= times[0]:
        return 0, 0.0
    if t >= times[-1]:
        return max(times.size - 2, 0), 1.0
    i = int(np.searchsorted(times, t, side="right")) - 1
    return i, float((t - times[i]) / (times[i + 1] - times[i]))


class FrameSource:
    """The stored frames of one split-step evolution, evolved _CHUNK at a time.

    ``times`` lists every stored frame (the initial state, every
    store_every-th step and the last step) before any is evolved.
    ``chunk(c)`` evolves the chunks up to c, in order, and copies out the
    frames at the ``keep`` times as they pass (every frame when keep is
    None); ``drain()`` evolves whatever is left and returns the kept frames.
    Memory is one chunk plus the kept frames, whatever the run's length.
    """

    def __init__(
        self,
        w0: GridWaveFunction,
        p: Potential,
        dt: float,
        n_steps: int,
        store_every: int = 1,
        keep=None,
    ):
        if not isinstance(store_every, (int, np.integer)) or isinstance(store_every, bool) \
                or store_every < 1:
            raise ValueError(f"store_every must be a positive integer, got {store_every!r}")
        _check_momentum_resolution(w0)
        self.axes = w0.axes
        steps = [0] + [i for i in range(1, n_steps + 1) if i % store_every == 0 or i == n_steps]
        self.times = np.array([i * dt for i in steps])
        self._keep = None if keep is None else sorted({_index_at(self.times, t) for t in keep})
        self._kept = []
        self._next = 0
        self._frames = self._evolve(_SplitStepEvolver(w0.axes, p, dt), w0.amplitudes,
                                    n_steps, store_every)

    @property
    def n_frames(self) -> int:
        return self.times.size

    def index_at(self, t: float, tol: float = 1e-9) -> int:
        return _index_at(self.times, t, tol)

    @staticmethod
    def _evolve(evolver, amps, n_steps, store_every):
        yield amps.copy()
        for i in range(1, n_steps + 1):
            amps = evolver.step(amps)
            if i % store_every == 0 or i == n_steps:
                yield amps

    def chunk(self, c: int) -> np.ndarray:
        """Amplitudes (k, *grid_shape) of chunk c, evolving up to it; no going back."""
        if c < self._next:
            raise ValueError(f"frame chunks stream in order: chunk {c} is gone, next is {self._next}")
        while self._next <= c:
            amps = self._advance()
        return amps

    def _advance(self) -> np.ndarray:
        amps = np.array(list(itertools.islice(self._frames, _CHUNK)))
        start = self._next * _CHUNK
        self._next += 1
        if self._keep is None:
            self._kept.append(amps)
        else:
            here = [i - start for i in self._keep if start <= i < start + len(amps)]
            self._kept.append(amps[here])
        return amps

    def drain(self) -> WaveFrames:
        """Evolve the remaining chunks; the kept frames as WaveFrames."""
        while self._next * _CHUNK < self.n_frames:
            self._advance()
        times = self.times if self._keep is None else self.times[self._keep]
        return WaveFrames(self.axes, times, np.concatenate(self._kept))


def evolve_frames(
    w0: GridWaveFunction,
    p: Potential,
    dt: float,
    n_steps: int,
    store_every: int = 1,
) -> WaveFrames:
    """Evolve n_steps and stack every store_every-th state (plus the initial)."""
    return FrameSource(w0, p, dt, n_steps, store_every).drain()


# ---------------------------------------------------------------------------
# guiding velocity field
# ---------------------------------------------------------------------------


def _psi_and_gradient(axes, amps: np.ndarray) -> np.ndarray:
    """(k, 1+ndim, *grid) stack of psi and its spectral gradient for k frames."""
    grid_axes = tuple(range(1, amps.ndim))
    spectrum = np.fft.fftn(amps, axes=grid_axes)
    stack = [amps]
    for d, a in enumerate(axes):
        k = 2 * np.pi * np.fft.fftfreq(a.size, d=a[1] - a[0])
        if a.size % 2 == 0:
            # unpaired Nyquist mode has no well-defined odd derivative;
            # keeping it would leak an imaginary part into grad of real data
            k[a.size // 2] = 0.0
        shape = [1] * len(axes)
        shape[d] = a.size
        stack.append(np.fft.ifftn(1j * k.reshape(shape) * spectrum, axes=grid_axes))
    return np.stack(stack, axis=1)


class VelocityField:
    """Probability-current velocity Im(grad psi / psi) over stored frames.

    ``frames`` is a WaveFrames or a FrameSource.  Frames are read _CHUNK at
    a time; psi and its gradient are computed and prefiltered as one stack
    per chunk, and only the current and the previous chunk are held.  Any
    time can be asked of WaveFrames; a FrameSource only moves forward.
    Evaluation at intermediate times blends the bracketing frames linearly
    (blending commutes with spline evaluation).
    """

    def __init__(self, frames: WaveFrames | FrameSource, node_factor: float = EPS_NODE_FACTOR):
        self.frames = frames
        self.node_factor = node_factor
        self.ndim = len(frames.axes)
        self._chunks = {}  # chunk index -> (per-frame interpolators, max |psi| per frame)
        self._cache_t = None
        self._cache = None

    def _frame(self, i: int):
        """Interpolator of (psi, grad psi) at stored frame i, and max |psi| there."""
        c, j = divmod(i, _CHUNK)
        if c not in self._chunks:
            axes = self.frames.axes
            amps = self.frames.chunk(c)
            stack = CubicGridInterpolator(axes, _psi_and_gradient(axes, amps))
            self._chunks = {k: v for k, v in self._chunks.items() if k == c - 1}
            self._chunks[c] = (
                [CubicGridInterpolator(axes, coefficients=k) for k in stack.coefficients],
                np.max(np.abs(amps), axis=tuple(range(1, amps.ndim))),
            )
        interps, max_abs = self._chunks[c]
        return interps[j], max_abs[j]

    def _interpolators_at(self, t: float):
        if self._cache_t is not None and t == self._cache_t:
            return self._cache
        i, a = _bracket(self.frames.times, t)
        if a == 0.0:
            interp, max_abs = self._frame(i)
            threshold = self.node_factor * max_abs
        elif a == 1.0:
            interp, max_abs = self._frame(i + 1)
            threshold = self.node_factor * max_abs
        else:
            (f0, m0), (f1, m1) = self._frame(i), self._frame(i + 1)
            interp = f0.blend(f1, a)
            threshold = self.node_factor * ((1 - a) * m0 + a * m1)
        self._cache_t = t
        self._cache = (interp, threshold)
        return self._cache

    def velocity(self, points: np.ndarray, t: float):
        """Velocities (n, ndim) and the node mask (n,) at time t.

        Velocities on masked points are zeroed; callers decide whether a
        node is fatal (strict single-point path) or retried (batch path).
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        interp, threshold = self._interpolators_at(t)
        values = interp(pts)
        psi, grad = values[0], values[1:]
        mask = np.abs(psi) < threshold
        if not mask.any():
            return (grad / psi).imag.T, mask
        vel = (grad / np.where(mask, 1.0, psi)).imag.T
        vel[mask] = 0.0
        return vel, mask


def guiding_velocity(w: GridWaveFunction, q) -> np.ndarray:
    """Velocity vector at configuration q; raises NodeProximity at nodes."""
    frames = WaveFrames(w.axes, np.array([0.0]), w.amplitudes[None])
    field = VelocityField(frames)
    vel, mask = field.velocity(np.atleast_2d(np.asarray(q, dtype=float)), 0.0)
    if mask.any():
        raise NodeProximity(f"|psi| below node threshold at {q}")
    return vel[0]


# ---------------------------------------------------------------------------
# trajectory integration
# ---------------------------------------------------------------------------


def _periods(axes):
    return np.array([a[0] for a in axes]), np.array([(a[1] - a[0]) * a.size for a in axes])


def _wrap_positions(positions, lo, length, out=None):
    """Positions (..., ndim) wrapped into [lo, lo + length), the _periods of the axes."""
    out = np.subtract(positions, lo, out=out)
    return np.add(np.mod(out, length, out=out), lo, out=out)


def _rk4_batch(field: VelocityField, pos, t, h):
    """One RK4 step for the whole batch; returns (new_pos, touched_node)."""
    v1, m1 = field.velocity(pos, t)
    v2, m2 = field.velocity(pos + 0.5 * h * v1, t + 0.5 * h)
    v3, m3 = field.velocity(pos + 0.5 * h * v2, t + 0.5 * h)
    v4, m4 = field.velocity(pos + h * v3, t + h)
    return pos + (h / 6.0) * (v1 + 2 * v2 + 2 * v3 + v4), m1 | m2 | m3 | m4


def _velocity_strict(field, x, t):
    vel, mask = field.velocity(x[None], t)
    if mask[0]:
        raise NodeProximity
    return vel[0]


def _advance_adaptive(field, x, t, h, depth=0):
    """RK4 step that halves itself near nodes; underflows past MAX_HALVINGS."""
    try:
        v1 = _velocity_strict(field, x, t)
        v2 = _velocity_strict(field, x + 0.5 * h * v1, t + 0.5 * h)
        v3 = _velocity_strict(field, x + 0.5 * h * v2, t + 0.5 * h)
        v4 = _velocity_strict(field, x + h * v3, t + h)
        return x + (h / 6.0) * (v1 + 2 * v2 + 2 * v3 + v4)
    except NodeProximity:
        if depth >= MAX_HALVINGS:
            raise _StepUnderflow(t)
        mid = _advance_adaptive(field, x, t, h / 2, depth + 1)
        return _advance_adaptive(field, mid, t + h / 2, h / 2, depth + 1)


@dataclass(frozen=True)
class Trajectory:
    """Sampled particle path: one configuration per time stamp."""

    times: np.ndarray
    configurations: np.ndarray  # (n_times, ndim)
    seed: int = 0
    notes: tuple = ()


@dataclass(frozen=True)
class Ensemble:
    """Members on one shared time grid, one array per quantity.

    ``positions[i, j]`` is member j's configuration at ``times[i]``.
    ``seeds[j]`` is member j's seed, and ``frozen_at[j]`` the stored step
    at which its adaptive step underflowed (it holds its position from
    there on), or -1 if it never did.
    """

    times: np.ndarray  # (T,)
    positions: np.ndarray  # (T, N, D)
    seeds: np.ndarray  # (N,)
    frozen_at: np.ndarray  # (N,)
    spec_ref: str | None = None

    @property
    def size(self) -> int:
        return self.positions.shape[1]

    def positions_at(self, t: float, tol: float = 1e-9) -> np.ndarray:
        """(N, D) member positions at stored time t."""
        return self.positions[_index_at(self.times, t, tol)]

    def take(self, steps=slice(None), members=slice(None)) -> "Ensemble":
        """These stored steps of these members; frozen_at still counts steps of the full grid."""
        return Ensemble(
            self.times[steps], self.positions[steps, members], self.seeds[members],
            self.frozen_at[members], self.spec_ref,
        )


def _member_seeds(seed: int, n: int) -> np.ndarray:
    return np.array([derive_seed(seed, j) for j in range(n)], dtype=np.uint64)


def integrate_trajectory(
    w0: GridWaveFunction,
    p: Potential,
    q0,
    t_end: float,
    dt: float,
    store_every: int = 1,
    seed: int = 0,
) -> Trajectory:
    """Integrate the guiding equation against the concurrently evolved wave.

    A one-member ``run_bohm_ensemble`` over a streamed FrameSource.  If the
    member's adaptive step underflows at a node, the trajectory is
    truncated at the last completed time with a diagnostic note.
    """
    n_steps = int(round(t_end / dt))
    frames = FrameSource(w0, p, dt, n_steps, store_every, keep=())
    x = np.atleast_1d(np.asarray(q0, dtype=float))
    _require_inside(x, w0)
    e = run_bohm_ensemble(frames, x[None])
    stop = int(e.frozen_at[0])
    if stop < 0:
        return Trajectory(e.times, e.positions[:, 0], seed=seed)
    return Trajectory(
        e.times[: stop + 1], e.positions[: stop + 1, 0], seed=seed,
        notes=(f"truncated at t={e.times[stop]:.6g}: node step underflow",),
    )


def _require_inside(q, w: GridWaveFunction):
    for d, (lo, hi) in enumerate(w.bounds):
        if not (lo <= q[d] < hi):
            raise ValueError(f"coordinate {d} of {q} outside grid [{lo}, {hi})")


def run_bohm_ensemble(
    frames: WaveFrames | FrameSource,
    positions0: np.ndarray,
    seed: int = 0,
    spec_ref: str | None = None,
) -> Ensemble:
    """Integrate a batch of trajectories over shared frames.

    ``frames`` is stored (WaveFrames) or streamed (FrameSource); the march
    reads a stream once, forward, and its kept frames are then drained from
    it.  All members advance together; only members whose RK4 stages touch a
    node fall back to the per-member adaptive path for that step.  Members
    whose adaptive step underflows are frozen in place (keeping the shared
    time grid) and their step is recorded in ``frozen_at``.
    """
    field = VelocityField(frames)
    pos = np.atleast_2d(np.asarray(positions0, dtype=float))
    positions = np.empty((frames.n_frames,) + pos.shape)
    positions[0] = pos
    frozen_at, frozen = np.full(len(pos), -1), np.zeros(len(pos), dtype=bool)
    lo, length = _periods(frames.axes)
    for i in range(frames.n_frames - 1):
        t, h = float(frames.times[i]), float(frames.times[i + 1] - frames.times[i])
        new_pos, touched = _rk4_batch(field, pos, t, h)
        if touched.any():
            for j in np.flatnonzero(touched & ~frozen):
                try:
                    new_pos[j] = _advance_adaptive(field, pos[j], t, h)
                except _StepUnderflow:
                    frozen_at[j] = i
            frozen = frozen_at >= 0
        if frozen.any():
            new_pos[frozen] = pos[frozen]
        pos = _wrap_positions(new_pos, lo, length, out=positions[i + 1])
    return Ensemble(frames.times, positions, _member_seeds(seed, len(pos)), frozen_at, spec_ref)


# ---------------------------------------------------------------------------
# Born sampling and random-jump dynamics
# ---------------------------------------------------------------------------


class _BornSampler:
    """Inverse-CDF sampler over the flattened grid with intra-cell jitter."""

    def __init__(self, w: GridWaveFunction):
        p = born_density(w).ravel() * w.cell_volume
        total = p.sum()
        if total <= 0:
            raise ValueError("cannot sample from a zero density")
        self.cdf = np.cumsum(p / total)
        self.cdf[-1] = 1.0
        self.shape = w.shape
        self.axes = w.axes
        self.spacings = np.array(w.spacings)

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        return self.points(u, rng.random((n, len(self.axes))))

    def points(self, u: np.ndarray, jitter: np.ndarray) -> np.ndarray:
        """Points for uniforms u (n,), which pick the cells, and jitter (n, ndim) inside them."""
        flat = np.minimum(np.searchsorted(self.cdf, u, side="right"), self.cdf.size - 1)
        idx = np.unravel_index(flat, self.shape)
        pts = np.stack([a[idx[d]] for d, a in enumerate(self.axes)], axis=1)
        return _wrap_positions(pts + (jitter - 0.5) * self.spacings, *_periods(self.axes))


def born_sample(w: GridWaveFunction, seed: int) -> np.ndarray:
    """One configuration drawn from |psi|^2."""
    return born_sample_many(w, 1, seed)[0]


def born_sample_many(w: GridWaveFunction, n: int, seed: int) -> np.ndarray:
    """(n, ndim) configurations drawn from |psi|^2."""
    rng = np.random.default_rng(seed)
    return _BornSampler(w).draw(rng, n)


def _snap_sample_times(sample_times, dt):
    steps = np.round(np.asarray(sample_times, dtype=float) / dt).astype(int)
    if np.any(np.diff(steps) <= 0):
        raise ValueError("sample times must fall on strictly increasing steps of dt")
    return steps, steps * dt


def rdmp_trajectory(
    w0: GridWaveFunction,
    p: Potential,
    sample_times,
    seed: int,
    dt: float = 1e-3,
) -> Trajectory:
    """Independent Born draw at each sample time from the evolved density.

    Successive configurations carry no continuity; requested times snap to
    the wave-evolution step grid.  The draws are those of a one-member
    ensemble whose member seed is ``seed`` itself.
    """
    steps, snapped = _snap_sample_times(sample_times, dt)
    frames = FrameSource(w0, p, dt, int(steps.max(initial=0)), keep=snapped).drain()
    times, positions = _jumps(frames, snapped, [seed])
    return Trajectory(times, positions[:, 0], seed=seed)


def rdmp_ensemble(
    frames: WaveFrames,
    sample_times,
    n: int,
    seed: int,
    spec_ref: str | None = None,
) -> Ensemble:
    """n independent random-jump trajectories over shared frames."""
    seeds = _member_seeds(seed, n)
    times, positions = _jumps(frames, sample_times, seeds.tolist())
    return Ensemble(times, positions, seeds, np.full(n, -1), spec_ref)


def _jumps(frames: WaveFrames, sample_times, member_seeds):
    """(times (T,), positions (T, N, D)): an independent Born draw per member and sample time.

    Member j draws default_rng(member_seeds[j]).random((T, 1 + D)).  Row i
    holds the uniform that picks its cell at sample time i, then the D
    jitter uniforms: the order in which ``_BornSampler.draw(rng, 1)``
    takes them, time after time.
    """
    indices = [frames.index_at(t) for t in np.asarray(sample_times, dtype=float)]
    shape = (len(indices), 1 + len(frames.axes))
    draws = np.stack([np.random.default_rng(s).random(shape) for s in member_seeds], axis=1)
    positions = np.stack([
        _BornSampler(frames.wavefunction(i)).points(u[:, 0], u[:, 1:])
        for i, u in zip(indices, draws)
    ])
    return frames.times[indices], positions


# ---------------------------------------------------------------------------
# goodness-of-fit and comparison reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodnessOfFit:
    name: str
    statistic: float
    p_value: float
    passed: bool

    def to_json(self):
        return {
            "name": self.name,
            "statistic": self.statistic,
            "p_value": self.p_value,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class EquivarianceReport:
    time: float
    n_samples: int
    significance: float
    chi_square: GoodnessOfFit
    ks_marginals: tuple
    passed: bool

    def to_json(self):
        return {
            "time": self.time,
            "n_samples": self.n_samples,
            "significance": self.significance,
            "chi_square": self.chi_square.to_json(),
            "ks_marginals": [g.to_json() for g in self.ks_marginals],
            "passed": self.passed,
        }


def _grid_bin_edges(w: GridWaveFunction, n_bins_axis):
    edges = []
    for d, a in enumerate(w.axes):
        lo, hi = w.bounds[d]
        edges.append(np.linspace(lo, hi, n_bins_axis[d] + 1))
    return edges


def _axis_overlap_matrix(a, bounds, bin_edges):
    """(n_bins, n_cells) fraction of each cell interval inside each bin.

    Cells are centered on the grid points and wrap periodically, so the
    first cell's lower sliver re-enters just below the upper bound; images
    shifted by one period catch it.
    """
    a = np.asarray(a, dtype=float)
    dx = a[1] - a[0]
    period = bounds[1] - bounds[0]
    starts = a - dx / 2
    edges = np.asarray(bin_edges)
    total = np.zeros((edges.size - 1, a.size))
    for shift in (-period, 0.0, period):
        lo = np.maximum(starts[None, :] + shift, edges[:-1, None])
        hi = np.minimum(starts[None, :] + shift + dx, edges[1:, None])
        total += np.clip(hi - lo, 0.0, None)
    return total / dx


def _expected_counts(w: GridWaveFunction, edges, n_samples):
    """Exact bin masses of the cell-jittered |psi|^2 law."""
    density = born_density(w) * w.cell_volume
    out = density / density.sum()
    for d, a in enumerate(w.axes):
        m = _axis_overlap_matrix(a, w.bounds[d], edges[d])
        out = np.moveaxis(np.tensordot(m, out, axes=([1], [d])), 0, d)
    return out * n_samples


def chi_square_gof(
    samples: np.ndarray,
    w: GridWaveFunction,
    significance: float = CHI2_SIGNIFICANCE,
    min_expected: float = 5.0,
) -> GoodnessOfFit:
    """Binned chi-square of samples against |psi|^2, sqrt(N) bins total.

    Bins with expected count below ``min_expected`` are pooled into one
    class; degrees of freedom are classes minus one.
    """
    samples = np.atleast_2d(samples)
    n, ndim = samples.shape
    per_axis = max(2, int(round(np.sqrt(n) ** (1.0 / ndim))))
    edges = _grid_bin_edges(w, [per_axis] * ndim)
    observed, _ = np.histogramdd(samples, bins=edges)
    expected = _expected_counts(w, edges, n)
    obs, exp = observed.ravel(), expected.ravel()
    keep = exp >= min_expected
    obs_kept, exp_kept = obs[keep], exp[keep]
    pooled_obs, pooled_exp = obs[~keep].sum(), exp[~keep].sum()
    if pooled_exp > 0:
        obs_kept = np.append(obs_kept, pooled_obs)
        exp_kept = np.append(exp_kept, pooled_exp)
    exp_kept = exp_kept * (obs_kept.sum() / exp_kept.sum())
    stat = float(np.sum((obs_kept - exp_kept) ** 2 / exp_kept))
    dof = obs_kept.size - 1
    p = float(special.chdtrc(dof, stat))
    return GoodnessOfFit("chi-square", stat, p, p >= significance)


def _marginal_cdf(w: GridWaveFunction, axis_d: int):
    density = born_density(w) * w.cell_volume
    marg = density.sum(axis=tuple(i for i in range(w.ndim) if i != axis_d))
    marg = marg / marg.sum()
    a = w.axes[axis_d]
    dx = a[1] - a[0]
    lo, hi = w.bounds[axis_d]
    # wrap splits the first cell across the seam: half below lo lands at hi
    edges = np.concatenate([[lo], a + dx / 2, [hi]])
    masses = np.concatenate([[marg[0] / 2], marg[1:], [marg[0] / 2]])
    cum = np.concatenate([[0.0], np.cumsum(masses)])

    def cdf(x):
        return np.interp(x, edges, cum)

    return cdf


def ks_gof(
    samples: np.ndarray,
    w: GridWaveFunction,
    axis_d: int = 0,
    significance: float = CHI2_SIGNIFICANCE,
) -> GoodnessOfFit:
    """Kolmogorov-Smirnov test of one coordinate's marginal against |psi|^2.

    The reference CDF is the piecewise-linear integral of the gridded
    density, which is exactly the law the jittered Born sampler draws from.
    D and its exact p-value are computed as ``scipy.stats.kstest`` computes
    them, bit for bit.
    """
    x = np.sort(np.asarray(np.atleast_2d(samples)[:, axis_d], dtype=float))
    n = x.size
    if n == 0:
        raise ValueError("the KS test needs at least one sample")
    cdf = _marginal_cdf(w, axis_d)(x)
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf)
    d_minus = np.max(cdf - np.arange(0.0, n) / n)
    stat = float(d_plus if d_plus > d_minus else d_minus)
    p = kstwo_sf(n, stat)
    return GoodnessOfFit(f"ks-axis-{axis_d}", stat, p, bool(p >= significance))


def equivariance_test(
    e: Ensemble,
    w_t: GridWaveFunction,
    t: float,
    significance: float = CHI2_SIGNIFICANCE,
) -> EquivarianceReport:
    """Are ensemble positions at time t still Born-distributed for psi_t?"""
    if e.size < 100:
        raise ValueError(f"ensemble of {e.size} is underpowered; need >= 100")
    samples = e.positions_at(t)
    chi = chi_square_gof(samples, w_t, significance)
    ks = tuple(ks_gof(samples, w_t, d, significance) for d in range(w_t.ndim))
    passed = chi.passed and all(g.passed for g in ks)
    return EquivarianceReport(
        time=t,
        n_samples=e.size,
        significance=significance,
        chi_square=chi,
        ks_marginals=ks,
        passed=passed,
    )


def mean_step_displacement(traj: Trajectory) -> float:
    """Mean |Q(t_{i+1}) - Q(t_i)| along one trajectory."""
    return float(_member_mean_steps(traj.configurations[:, None])[0])


def _member_mean_steps(positions: np.ndarray) -> np.ndarray:
    """(N,) mean step of each member of (T, N, D) rows.

    Each member's steps are averaged along a contiguous axis, so the sum
    is the pairwise one numpy takes over a single member's path.
    """
    paths = np.ascontiguousarray(positions.swapaxes(0, 1))
    return np.linalg.norm(np.diff(paths, axis=1), axis=2).mean(axis=1)


@dataclass(frozen=True)
class DivergenceReport:
    """Pilot-wave vs random-jump ensembles over shared wave frames."""

    times: np.ndarray
    tv_distance: np.ndarray
    tv_threshold: float
    tv_passed: bool
    bohm_mean_step: float
    rdmp_mean_step: float

    def to_json(self):
        return {
            "times": self.times.tolist(),
            "tv_distance": self.tv_distance.tolist(),
            "tv_threshold": self.tv_threshold,
            "tv_passed": self.tv_passed,
            "bohm_mean_step": self.bohm_mean_step,
            "rdmp_mean_step": self.rdmp_mean_step,
        }


def _tv_between_samples(a: np.ndarray, b: np.ndarray, edges) -> float:
    ha, _ = np.histogramdd(a, bins=edges)
    hb, _ = np.histogramdd(b, bins=edges)
    return float(0.5 * np.sum(np.abs(ha / ha.sum() - hb / hb.sum())))


def compare_bohm_rdmp(
    frames: WaveFrames,
    sample_times,
    bohm: Ensemble,
    rdmp: Ensemble,
    tv_factor: float = 3.0,
) -> DivergenceReport:
    """Compare a pilot-wave and a random-jump ensemble over the same frames.

    Total-variation distance between the binned single-particle marginals
    is reported per sample time against a sampling-noise threshold
    tv_factor * sqrt(n_bins / n); both ensembles are Born-distributed, so
    the distance is pure noise when equivariance holds.  The mean per-step
    displacement separates continuous from jump motion.  Both ensembles
    need a snapshot at every sample time.
    """
    if bohm.size != rdmp.size:
        raise ValueError(f"ensemble sizes differ: {bohm.size} vs {rdmp.size}")
    ensemble_size = bohm.size
    ts = np.asarray(sample_times, dtype=float)
    w0 = frames.wavefunction(0)
    ndim = len(frames.axes)
    per_axis = max(2, int(round(np.sqrt(ensemble_size) ** (1.0 / ndim))))
    edges = _grid_bin_edges(w0, [per_axis] * ndim)
    n_bins = int(np.prod([len(e) - 1 for e in edges]))
    threshold = tv_factor * np.sqrt(n_bins / ensemble_size)
    tv = np.array(
        [
            _tv_between_samples(bohm.positions_at(t), rdmp.positions_at(t), edges)
            for t in ts
        ]
    )
    rows = [_index_at(bohm.times, t) for t in ts]
    bohm_step = float(np.mean(_member_mean_steps(bohm.positions[rows])))
    rdmp_step = float(np.mean(_member_mean_steps(rdmp.positions)))
    return DivergenceReport(
        times=ts,
        tv_distance=tv,
        tv_threshold=float(threshold),
        tv_passed=bool(np.all(tv < threshold)),
        bohm_mean_step=bohm_step,
        rdmp_mean_step=rdmp_step,
    )
