"""Wave evolution, pilot-wave trajectories, and random-jump particle dynamics.

Natural units hbar = m = 1 throughout.

Wave evolution is second-order symmetric split-step on a periodic grid:

    psi -> exp(-i V dt/2) psi          half step, position space
    psi -> IFFT exp(-i k^2 dt/2) FFT   full kinetic step, momentum space
    psi -> exp(-i V dt/2) psi          half step, position space

Particle velocities follow the probability current, v = Im(grad psi / psi),
evaluated off-grid by separable cubic interpolation of psi and its spectral
gradient.  Trajectories integrate that field with RK4 against wave frames
stored on a fixed dt grid.  A step spans 2m stored frames from a frame i
that is a multiple of 2m, its stages on frames i, i + m, i + m and i + 2m
at their stored times: the march is fourth order in time and reads no
field between frames.  The march picks m, a power of two.  The velocity
at a step's new positions is the next step's first stage, so the step
gets an error estimate at no extra call: against the embedded third-order
formula on (v1, v2, v3, v(t1, y1)), e = (h/6) max |v4 - v(t1, y1)|
(Hairer, Norsett & Wanner, Solving ODEs I, section II.4).  A step at
m > 1 with e > MARCH_TOL, or with a member on a node, is taken again at
half the stride; after a step with e < MARCH_TOL / 16, m doubles, up to a
chunk (64 frames), as far as the step's start allows.  MARCH_TOL is 1e-6:
some 150 steps sum to about 1.5e-4, two orders below the 3e-2 shift the
equivariance verdicts resolve.
A step at m = 1, a frame pair, is never taken again: the members whose
step touches a node (|psi| < 1e-8 max|psi|) take it again as two half
steps, together; those that touch one again are halved again, and a member
that still does after 10 halvings is frozen.  Only a one-frame step (before
a shorter last gap) and the halves of the node fallback blend two frames
linearly for their middle stages.  A kept frame inside a step is read off
that step, at no velocity call, by cubic Hermite interpolation between its
ends.  One RK4 formula, ``_rk4_batch``, serves every step and every half
step.

Frames stream: a FrameSource evolves a chunk at a time, chunk c being
stored frames c * _CHUNK to (c + 1) * _CHUNK, whose last frame is the
first of chunk c + 1.  Each frame is evolved in place in its slot of the
chunk (the step's multiplies and FFTs write there).  With no potential on
the grid the split step is psi^ <- K psi^, so the chunk is evolved as
spectra, one multiply a split step, and then inverted by one batched
inverse FFT.  A step, its retries at shorter strides and the halves of its
node fallback all lie inside one chunk, since _CHUNK is a multiple of
every span.  The velocity field takes the spline coefficients of psi and
its gradient for a frame the first time the march reads it, from one FFT,
divided by the B-spline symbol, and one inverse FFT, so a march that
strides over frames converts only the ones it reads.  It holds one
chunk's amplitudes and the coefficients built from them.  Only the frames
a caller asks to keep (a run keeps its sample times) outlive their chunk,
copied into one array sized up front.  ``evolve_frames`` drains the same
source and keeps every frame.

The march holds O(N) positions: the members' current ones, the rows it is
asked to keep (every row by default), optionally the full paths of the
first few members and the running maximum of their distance from their
start.  Velocities are evaluated _BLOCK members at a time, so that a
block's spline taps and terms stay in cache.

The random-jump alternative draws an independent Born sample at each
requested time, with no continuity between successive configurations.

Goodness of fit against |psi|^2 is a binned chi-square test and a
Kolmogorov-Smirnov test per axis.  Their p-values take numpy and ``math``
alone, and qflab imports no scipy module.  The chi-square p-value is the
regularized upper incomplete gamma function, from its series or its
continued fraction (``_chi2_sf``), within 1e-12 relative of an exact
evaluation.  The KS p-value comes from ``_kstwo.kstwo_sf``, a trimmed copy
of scipy's exact KS survival function that returns scipy's bits in every
branch but the one-sided tail, which is within 1e-11.  Stationary states
take one eigenvalue from ``np.linalg.eigvalsh`` and their vectors from
``np.linalg.solve``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
# numpy loads these on first use; every run uses them, so they load with qflab
import numpy.fft  # noqa: F401
import numpy.random  # noqa: F401

from ._kstwo import _stirling_remainder, kstwo_sf
from .interpolation import CubicGridInterpolator, _grid_fft, _inverse_symbol
from .states import GridWaveFunction, born_density, fix_global_phase

EPS_NODE_FACTOR = 1e-8
MAX_HALVINGS = 10
# the largest error estimate of a step the Bohm march takes at a stride over a
# frame pair.  Budget: a run's ~150 steps sum to ~1.5e-4, two orders below the
# ~3e-2 position shift the equivariance verdicts resolve
MARCH_TOL = 1e-6
WALL_HEIGHT = 1e4
CHI2_SIGNIFICANCE = 1e-3
_MASK64 = (1 << 64) - 1
# the stored frame intervals one chunk of the streamed pipeline spans (it
# holds their _CHUNK + 1 frames), and the most one step of the march spans.
# It must stay a power of two (at least 2, a frame pair): then it is a
# multiple of every span 2m, and a step from a multiple of 2m reads one chunk
_CHUNK = 64
# members whose velocities are evaluated together: a block's spline taps and
# terms fit in cache, where one pass over 10^5 members does not
_BLOCK = 4096
# Rayleigh-quotient iteration of stationary_state: the residual that certifies
# a propagator eigenvector, the most linear solves one run of it may take, and
# how often it restarts after converging to an eigenvector far from v_H
_RQI_TOL = 1e-13
_RQI_MAX_STEPS = 12
_RQI_RESTARTS = 2

__all__ = [
    "Potential",
    "Ensemble",
    "MarchRecord",
    "WaveFrames",
    "FrameSource",
    "VelocityField",
    "MomentumResolutionWarning",
    "derive_seed",
    "gaussian_packet",
    "two_lobe_packet",
    "plane_wave",
    "stationary_state",
    "spectral_hamiltonian",
    "evolve_frames",
    "run_bohm_ensemble",
    "born_sample_many",
    "rdmp_ensemble",
    "equivariance_test",
    "compare_bohm_rdmp",
    "chi_square_gof",
    "ks_gof",
    "GoodnessOfFit",
    "EquivarianceReport",
    "DivergenceReport",
]


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

    Every kind (free / box / slit-barrier / table) serializes to JSON for
    experiment specs.
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
        raise ValueError(f"unknown potential kind {self.kind!r}")

    def to_json(self) -> dict:
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
    h = _circulant(0.5 * (column + np.roll(column[::-1], 1)))
    h.flat[:: a.size + 1] += potential.on_grid((a,))
    return h


def _circulant(column) -> np.ndarray:
    """The circulant matrix C[i, j] = column[(i - j) % n], copied from a
    sliding-window view of the column reversed and wrapped."""
    c = np.asarray(column)
    wrapped = np.concatenate((c[::-1], c[:0:-1]))
    return np.lib.stride_tricks.sliding_window_view(wrapped, c.size)[::-1].copy()


def stationary_state(axis, potential: Potential, level: int, dt: float) -> GridWaveFunction:
    """level-th stationary state of the dt split step on a 1-D grid, phase-fixed real.

    The level's energy comes from ``np.linalg.eigvalsh`` of the discrete
    Hamiltonian, and its eigenvector v_H from one solve of inverse
    iteration at that energy: no other eigenvector is computed.  v_H is
    then replaced by the eigenvector of the one-step split propagator U
    for dt that it overlaps most.  That state is
    stationary under the time-stepped dynamics itself, not just up to
    Trotter error, so densities and Bohmian trajectories built on it hold
    still to roundoff.  It is found by Rayleigh-quotient iteration on U
    started from v_H, and accepted only with a certificate: the residual
    |U v - mu v| is at most 1e-13 and |<v_H|v>|^2 exceeds 1/2.  U is
    unitary, so at most one of its orthonormal eigenvectors can overlap
    v_H that much, and an accepted v is that one.  If the iteration
    converges to another eigenvector, it restarts from v_H with the
    eigenvectors found so far projected out, at most twice.  A shift that
    makes U - mu I singular in floating point has converged to an
    eigenvalue of U: the step solves at a shift a few ulps off it instead,
    which gives the eigenvalue's vector, and the certificate judges that as
    any other.  A level without a certified vector raises ValueError, and
    a spec asking for it exits as invalid.  That happens only where v_H is
    a mixture with no propagator eigenvector that close: at high levels,
    whose phases alias around the unit circle, or at energies above a box
    wall (34 levels of the 512-point duel grid, the first being 84).
    Time-reversal symmetry of the propagator makes the eigenvector real up
    to a global phase, which ``fix_global_phase`` fixes.
    """
    a = np.asarray(axis, dtype=float)
    h = spectral_hamiltonian(a, potential)
    vec = _inverse_iteration(h, np.linalg.eigvalsh(h)[level]).astype(complex)
    vec = fix_global_phase(_propagator_eigenvector(a, potential, dt, vec, level))
    if np.max(np.abs(vec.imag)) < 1e-9 * np.max(np.abs(vec.real)):
        vec = vec.real.astype(complex)
    return GridWaveFunction((a,), vec)


def _inverse_iteration(h, energy) -> np.ndarray:
    """Unit eigenvector of the real symmetric h (overwritten) for its
    eigenvalue energy, by one solve of (h - energy) x = b from a fixed
    random b.  The eigenvalue is exact to roundoff, so x is the eigenvector
    to roundoff over the level's distance to the next one."""
    b = np.random.default_rng(0).standard_normal(len(h))
    h.flat[:: len(h) + 1] -= energy
    try:
        x = np.linalg.solve(h, b)
    except np.linalg.LinAlgError:
        # energy is an eigenvalue in floating point: move it off by a few ulps of h
        h.flat[:: len(h) + 1] -= 8 * np.finfo(float).eps * np.abs(h).max()
        x = np.linalg.solve(h, b)
    return x / np.linalg.norm(x)


def _propagator_eigenvector(a, potential, dt, v_h, level) -> np.ndarray:
    """Certified eigenvector of the one-step split propagator nearest v_h."""
    evolver = _SplitStepEvolver((a,), potential, dt)
    # U = diag(h) circulant(ifft(kinetic)) diag(h), h the half-step potential phase
    u = _circulant(np.fft.ifft(evolver.kinetic))
    u *= evolver.half_potential[:, None]
    u *= evolver.half_potential
    diagonal = u.diagonal().copy()
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
            # U - mu I is solved in the place of U, whose diagonal is put back
            u.flat[:: a.size + 1] = diagonal - mu
            try:
                w = np.linalg.solve(u, v)
            except np.linalg.LinAlgError:
                # U - mu I is singular in floating point: mu has converged to
                # an eigenvalue, whose vector a shift a few ulps off it gives
                u.flat[:: a.size + 1] = diagonal - mu * (1 + 8 * np.finfo(float).eps)
                w = np.linalg.solve(u, v)
            finally:
                u.flat[:: a.size + 1] = diagonal
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
        # with no potential on the grid a step is psi^ <- kinetic psi^ in k-space
        self.free = not np.any(v)
        self.ndim = len(axes)

    def step(self, amps: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        out = np.multiply(self.half_potential, amps, out=out)  # out may be amps
        np.multiply(self.kinetic, _grid_fft(out, self.ndim, out=out), out=out)
        _grid_fft(out, self.ndim, out=out, inverse=True)
        return np.multiply(self.half_potential, out, out=out)


def _momentum_resolution_problem(w: GridWaveFunction) -> str | None:
    """What is wrong when over 1e-6 of w's momentum mass lies near the grid cutoff."""
    spectrum = np.abs(_grid_fft(w.amplitudes, w.ndim)) ** 2
    total = spectrum.sum()
    if total == 0:
        return None
    outer = np.zeros(w.shape, dtype=bool)
    for d, a in enumerate(w.axes):
        k = np.abs(np.fft.fftfreq(a.size))
        shape = [1] * w.ndim
        shape[d] = a.size
        outer |= np.broadcast_to((k > 0.45).reshape(shape), w.shape)
    frac = spectrum[outer].sum() / total
    if frac > 1e-6:
        return (f"momentum content near grid cutoff (mass fraction {frac:.2e}); "
                "refine the grid or lower the packet momentum")
    return None


def _index_at(times: np.ndarray, t: float) -> int:
    i = int(np.argmin(np.abs(times - t)))
    if abs(float(times[i]) - t) > 1e-9 * max(1.0, abs(t)):
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

    def wavefunction(self, i: int) -> GridWaveFunction:
        return GridWaveFunction(self.axes, self.amplitudes[i], normalize=False)

    def index_at(self, t: float) -> int:
        return _index_at(self.times, t)

    def density(self, i: int) -> np.ndarray:
        return np.abs(self.amplitudes[i]) ** 2

    def chunk(self, c: int) -> np.ndarray:
        """Amplitudes of stored frames c*_CHUNK to (c+1)*_CHUNK, the last one included."""
        return self.amplitudes[c * _CHUNK : (c + 1) * _CHUNK + 1]


def _kept_rows(times: np.ndarray, keep) -> list:
    """Sorted distinct indices of the stored times at ``keep``; all of them when keep is None."""
    if keep is None:
        return list(range(times.size))
    return sorted({_index_at(times, t) for t in keep})


def _bracket(times, t: float):
    if t <= times[0]:
        return 0, 0.0
    if t >= times[-1]:
        return max(len(times) - 2, 0), 1.0
    i = bisect.bisect_right(times, t) - 1
    return i, float((t - times[i]) / (times[i + 1] - times[i]))


class FrameSource:
    """The stored frames of one split-step evolution, evolved _CHUNK at a time.

    ``times`` lists every stored frame (the initial state, every
    store_every-th step and the last step) before any is evolved.  The
    frames at the ``keep`` times (every frame when keep is None) go into
    one array, allocated up front.  ``chunk(c)`` evolves the chunks up to
    c, in order, and copies each one's kept frames into that array as they
    pass; ``drain()`` evolves whatever is left and returns the array.
    Chunk c is frames c * _CHUNK to (c + 1) * _CHUNK, the last included:
    it starts on a copy of the last frame of chunk c - 1, and chunk 0 on
    w0's amplitudes as given.  Memory is one chunk plus the kept frames,
    whatever the run's length.  Where the potential is zero at every grid
    point, a chunk is evolved in k-space, psi^ <- K psi^ for each split
    step in the chunk's own slots, then inverted by one batched ``ifft``
    (``ifftn`` over the grid axes on more than one axis).
    """

    def __init__(self, w0: GridWaveFunction, p: Potential, dt: float, n_steps: int,
                 store_every: int = 1, keep=None):
        if not isinstance(store_every, (int, np.integer)) or isinstance(store_every, bool) \
                or store_every < 1:
            raise ValueError(f"store_every must be a positive integer, got {store_every!r}")
        if problem := _momentum_resolution_problem(w0):
            warnings.warn(problem, MomentumResolutionWarning, stacklevel=2)
        self.axes = w0.axes
        self._shape = w0.amplitudes.shape
        steps = [0] + [i for i in range(1, n_steps + 1) if i % store_every == 0 or i == n_steps]
        self.times = np.array([i * dt for i in steps])
        self._rows = np.array(_kept_rows(self.times, keep), dtype=np.intp)
        self._kept = np.empty((len(self._rows),) + self._shape, dtype=complex)
        self._next = 0
        self._evolver = _SplitStepEvolver(w0.axes, p, dt)
        self._gaps = np.diff(steps, prepend=0).tolist()  # split steps up to each stored frame
        self._last = w0.amplitudes  # the last frame evolved
        # what the next split step starts from: that frame, its spectrum on a free grid
        self._state = _grid_fft(w0.amplitudes, w0.ndim) if self._evolver.free else w0.amplitudes

    @property
    def n_frames(self) -> int:
        return self.times.size

    def index_at(self, t: float) -> int:
        return _index_at(self.times, t)

    def chunk(self, c: int) -> np.ndarray:
        """Amplitudes (k, *grid_shape) of chunk c, evolving up to it; no going back."""
        if c < self._next:
            raise ValueError(f"frame chunks stream in order: chunk {c} is gone, next is {self._next}")
        while self._next <= c:
            amps = self._advance()
        return amps

    def _advance(self) -> np.ndarray:
        start = self._next * _CHUNK
        amps = np.empty((min(_CHUNK + 1, self.n_frames - start),) + self._shape, dtype=complex)
        amps[0] = self._last  # the chunk before's last frame; psi0 as given for chunk 0
        ev, frame = self._evolver, self._state
        # each frame is evolved in its own slot, from the one before; on a
        # free grid as spectra, one multiply a split step, inverted together
        step = functools.partial(np.multiply, ev.kinetic) if ev.free else ev.step
        for out, n_steps in zip(amps[1:], self._gaps[start + 1:]):
            for _ in range(n_steps):
                frame = step(frame, out=out)
        self._state = frame.copy()  # the next chunk's start, without holding this chunk
        if ev.free:
            spectra = amps[1:]
            _grid_fft(spectra, ev.ndim, out=spectra, inverse=True)
        self._last = amps[-1].copy() if ev.free else self._state
        self._next += 1
        lo, hi = np.searchsorted(self._rows, [start, start + len(amps)])
        # the rows are in range; "clip" writes straight into out, "raise" buffers
        np.take(amps, self._rows[lo:hi] - start, axis=0, out=self._kept[lo:hi], mode="clip")
        return amps

    def drain(self) -> WaveFrames:
        """Evolve the remaining chunks; the kept frames as WaveFrames."""
        while self._next * _CHUNK < max(self.n_frames - 1, 1):
            self._advance()
        return WaveFrames(self.axes, self.times[self._rows], self._kept)


def evolve_frames(w0: GridWaveFunction, p: Potential, dt: float, n_steps: int,
                  store_every: int = 1) -> WaveFrames:
    """Evolve n_steps and stack every store_every-th state (plus the initial)."""
    return FrameSource(w0, p, dt, n_steps, store_every).drain()


# ---------------------------------------------------------------------------
# guiding velocity field
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _derivative_symbols(grid: tuple) -> tuple:
    """The spectral derivative symbols i k_d on a periodic grid of (size, spacing) per axis,
    each shaped to broadcast along its axis."""
    symbols = []
    for d, (n, spacing) in enumerate(grid):
        k = 2 * np.pi * np.fft.fftfreq(n, d=spacing)
        if n % 2 == 0:
            # unpaired Nyquist mode has no well-defined odd derivative;
            # keeping it would leak an imaginary part into grad of real data
            k[n // 2] = 0.0
        shape = [1] * len(grid)
        shape[d] = n
        symbol = 1j * k.reshape(shape)
        symbol.setflags(write=False)  # cached, so shared by every caller
        symbols.append(symbol)
    return tuple(symbols)


def _psi_and_gradient(axes, amps: np.ndarray) -> np.ndarray:
    """(k, 1+ndim, *grid) spline coefficients of psi and its spectral gradient for k frames.

    Each frame is transformed on its own, so a frame gives the same bits
    alone as in a batch.
    """
    stack = np.empty((len(amps), 1 + len(axes)) + amps.shape[1:], dtype=complex)
    spectrum = _grid_fft(amps, len(axes), out=stack[:, 0])
    spectrum *= _inverse_symbol(amps.shape[1:])
    grid = tuple((a.size, float(a[1] - a[0])) for a in axes)
    for d, symbol in enumerate(_derivative_symbols(grid)):
        np.multiply(symbol, spectrum, out=stack[:, 1 + d])
    return _grid_fft(stack, len(axes), out=stack, inverse=True)


class VelocityField:
    """Probability-current velocity Im(grad psi / psi) over stored frames.

    ``frames`` is a WaveFrames or a FrameSource.  Frames are read a chunk
    at a time (see FrameSource), but a frame's spline coefficients of psi
    and its gradient, and its max |psi|, are built when the field first
    reads it, and kept while its chunk is the one held: a march that
    strides over frames builds only the ones it reads.  The field holds one
    chunk and the entries built from it; loading the next keeps the entry
    of the frame the two share.  A march step lies inside one chunk, so the
    march reads each chunk once.
    Any time can be asked of WaveFrames (a chunk read again is built again); a
    FrameSource only moves forward.  At a stored time the field is that
    frame's; between stored times it blends the bracketing frames linearly
    (blending commutes with spline evaluation), once per time.  Points are
    evaluated _BLOCK at a time.
    """

    def __init__(self, frames: WaveFrames | FrameSource):
        self.frames = frames
        self._times = frames.times.tolist()  # bisect on a list is cheaper than searchsorted
        self._chunk = None  # (its first frame index, its amplitudes)
        self._built = {}  # frame index: (interpolator, max |psi|), for frames of the chunk
        self._grid = None  # an interpolator whose grid set-up every frame's shares
        self._cache_t = self._cache = None  # the last time asked and its interpolator

    def _frame(self, i: int):
        """Interpolator of (psi, grad psi) at stored frame i, and max |psi| there."""
        entry = self._built.get(i)
        if entry is None:
            if self._chunk is None or not 0 <= i - self._chunk[0] < len(self._chunk[1]):
                start = i - i % _CHUNK
                self._built = {j: e for j, e in self._built.items()
                               if start <= j <= start + _CHUNK}  # the frame they share
                self._chunk = None  # the old chunk goes before the new one is read
                self._chunk = (start, self.frames.chunk(start // _CHUNK))
            amp = self._chunk[1][i - self._chunk[0]]
            coefficients = _psi_and_gradient(self.frames.axes, amp[None])[0]
            self._grid = CubicGridInterpolator(self.frames.axes, coefficients=coefficients) \
                if self._grid is None else self._grid._on_grid(coefficients)
            entry = self._built[i] = self._grid, np.max(np.abs(amp))
        return entry

    def _interpolators_at(self, t: float):
        if self._cache_t is not None and t == self._cache_t:
            return self._cache
        i, a = _bracket(self._times, t)
        if a == 0.0:
            interp, max_abs = self._frame(i)
            threshold = EPS_NODE_FACTOR * max_abs
        elif a == 1.0:
            interp, max_abs = self._frame(i + 1)
            threshold = EPS_NODE_FACTOR * max_abs
        else:
            f0, m0 = self._frame(i)
            f1, m1 = self._frame(i + 1)
            interp = f0.blend(f1, a)
            threshold = EPS_NODE_FACTOR * ((1 - a) * m0 + a * m1)
        self._cache_t = t
        self._cache = (interp, threshold)
        return self._cache

    def velocity(self, points: np.ndarray, t: float):
        """Velocities (n, ndim) and the node mask (n,) at time t.

        Velocities on masked points are zeroed; the march takes a step
        that touches a node again, shorter.
        """
        pts = points if isinstance(points, np.ndarray) and points.ndim == 2 \
            else np.atleast_2d(np.asarray(points, dtype=float))  # the march's are (n, ndim)
        interp, threshold = self._interpolators_at(t)
        # a block's taps and terms stay in cache; the values are the same bits
        vel, mask = np.empty(pts.shape), np.empty(len(pts), dtype=bool)
        for s in range(0, len(pts), _BLOCK):
            vel[s : s + _BLOCK], mask[s : s + _BLOCK] = _velocity_from_values(
                interp(pts[s : s + _BLOCK]), threshold)
        return vel, mask


def _velocity_from_values(values: np.ndarray, threshold):
    """Velocities Im(grad psi / psi) and node mask from interpolated (psi, grad psi) rows."""
    psi, grad = values[0], values[1:]
    mask = np.abs(psi) < threshold
    if not mask.any():
        return (grad / psi).imag.T, mask
    vel = (grad / np.where(mask, 1.0, psi)).imag.T
    vel[mask] = 0.0
    return vel, mask


# ---------------------------------------------------------------------------
# trajectory integration
# ---------------------------------------------------------------------------


def _periods(axes):
    return np.array([a[0] for a in axes]), np.array([(a[1] - a[0]) * a.size for a in axes])


def _wrap_positions(positions, lo, length, out=None):
    """Positions (..., ndim) wrapped into [lo, lo + length), the _periods of the axes."""
    out = np.subtract(positions, lo, out=out)
    return np.add(np.mod(out, length, out=out), lo, out=out)


def _rk4_batch(field: VelocityField, pos, stages, h, first=None):
    """One RK4 step of h for the whole batch; returns (new_pos, touched_node, v1, v4).

    ``stages`` are the times (t0, tm, t1) of the first stage, of the two
    middle ones and of the last.  ``first``, if given, is the first stage's
    (velocities, node mask), already evaluated: the march's last call of
    the step before.  The step is pos + (h/6)(v1 + 2 v2 + 2 v3 + v4),
    summed in that order in one buffer, and the stage points share
    another.  The first and last stage velocities are returned too, for
    the march's error estimate and for the frames it reads off the step.
    """
    t0, tm, t1 = stages
    v1, touched = field.velocity(pos, t0) if first is None else first
    x = np.multiply(v1, 0.5 * h)
    x += pos
    v2, mask = field.velocity(x, tm)
    touched = touched | mask  # not in place: a step taken again reuses ``first``
    total = np.multiply(v2, 2.0)
    total += v1
    np.multiply(v2, 0.5 * h, out=x)
    x += pos
    v3, mask = field.velocity(x, tm)
    touched |= mask
    np.multiply(v3, 2.0, out=x)
    total += x
    np.multiply(v3, h, out=x)
    x += pos
    v4, mask = field.velocity(x, t1)
    touched |= mask
    total += v4
    total *= h / 6.0
    total += pos
    return total, touched, v1, v4


def _halve(field, pos, stages, h, depth=1):
    """Two RK4 half steps of h for members (n, D) whose step touched a node.

    The halves split the step at its middle stage time: a frame-pair step
    at its stored middle frame.  Inside each half step the members that
    touch a node again are halved again; one that still touches a node at
    depth MAX_HALVINGS underflows and leaves the batch at once.  Overwrites
    pos and returns it with the (n,) underflow mask, and a copy of it at the
    end of the first half; the march discards an underflowed member's rows.
    """
    t0, tm, t1 = stages
    h = h / 2
    under = np.zeros(len(pos), dtype=bool)
    first = None
    for s0, s1 in ((t0, tm), (tm, t1)):
        live = np.flatnonzero(~under)
        if not live.size:
            break
        half = (s0, s0 + 0.5 * h, s1)
        new, touched, _, _ = _rk4_batch(field, pos[live], half, h)
        if touched.any():
            j = live[touched]
            if depth == MAX_HALVINGS:
                under[j] = True
            else:
                new[touched], u, _ = _halve(field, pos[j], half, h, depth + 1)
                under[j[u]] = True
        pos[live] = new
        if first is None:
            first = pos.copy()
    return pos, under, first


def _stride(times, i: int, m: int) -> int:
    """Half the span of the march's step from frame i, asked to span 2m frames.

    That is the largest m' <= m, halving, whose step starts on a multiple
    of its span 2m', ends by the last frame and has two halves of equal
    length, compared to a relative 1e-9 (stored times are i * dt, whose
    differences round apart); or 0, a one-frame step, where there is none,
    as before a shorter last gap.  m is a power of two, at most _CHUNK / 2,
    so the step lies inside chunk i // _CHUNK.
    """
    last = len(times) - 1
    while m:
        k = i + 2 * m
        if i % (2 * m) == 0 and k <= last:
            g0, g1 = times[i + m] - times[i], times[k] - times[i + m]
            if abs(g1 - g0) <= 1e-9 * max(g0, g1):
                return m
        m //= 2
    return 0


def _hermite(x0, x1, v0, v1, h, s):
    """The cubic Hermite interpolant of a step of h from x0 to x1 with slopes v0 and v1.

    It is read at s = 2 theta - 1, theta the fraction of the step, as
    (x0 + x1)/2 + (h/8)(v0 - v1)(1 - s^2) + s ((x1 - x0)/2 + g (s^2 - 1)),
    with g = (h/8)(v0 + v1) - (x1 - x0)/4.  At the middle, s = 0, the odd
    part is left out: the middle is (x0 + x1)/2 + (h/8)(v0 - v1).
    """
    out = np.multiply(np.subtract(v0, v1), h / 8.0)
    out *= 1.0 - s * s
    out += 0.5 * (x0 + x1)
    if s:
        d = 0.5 * (x1 - x0)
        g = np.multiply(np.add(v0, v1), h / 8.0)
        g -= 0.5 * d
        g *= s * s - 1.0
        g += d
        g *= s
        out += g
    return out


@dataclass(frozen=True)
class MarchRecord:
    """What one Bohm march did (run_bohm_ensemble).

    ``steps`` it took and ``steps_taken_again`` at half the stride (an
    attempt that touched a node or whose error estimate passed
    ``tolerance``, MARCH_TOL); the fewest and most stored frames a step
    spanned; ``max_error``, the largest error estimate of a step taken
    (None if no step had one); ``node_fallback_member_steps``, the members
    of steps that took the node fallback, summed over the steps; and
    ``frozen_members``, the members with ``frozen_at`` set.
    """

    steps: int
    steps_taken_again: int
    min_stride: int
    max_stride: int
    max_error: float | None
    tolerance: float
    node_fallback_member_steps: int
    frozen_members: int


@dataclass(frozen=True)
class Ensemble:
    """Members on one shared time grid, one array per quantity.

    ``positions[i, j]`` is member j's configuration at ``times[i]``, and
    ``frozen_at[j]`` the stored frame from which its halved step
    underflowed (it holds its position from there on), or -1 if it never
    did.  A march can also record its first
    members' paths over the frames its steps end on (``head``),
    ``max_drift`` (see run_bohm_ensemble) and what it did (``march``).
    """

    times: np.ndarray  # (T,)
    positions: np.ndarray  # (T, N, D)
    frozen_at: np.ndarray  # (N,)
    head: Ensemble | None = None  # the first members at every step of the march
    max_drift: float | None = None  # largest |Q_j(t) - Q_j(0)| over the march's steps
    march: MarchRecord | None = None

    @property
    def size(self) -> int:
        return self.positions.shape[1]

    def positions_at(self, t: float) -> np.ndarray:
        """(N, D) member positions at stored time t."""
        return self.positions[_index_at(self.times, t)]


def _member_seeds(seed: int, n: int) -> np.ndarray:
    """(n,) uint64 seeds derive_seed(seed, j) of members j = 0 .. n-1."""
    return _derive_seeds(seed, np.arange(n, dtype=np.uint64))


def _derive_seeds(seed: int, indices: np.ndarray) -> np.ndarray:
    """derive_seed(seed, j) for each uint64 index j; uint64 arithmetic wraps mod 2**64."""
    z = indices + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    z ^= z >> np.uint64(31)
    return z ^ np.uint64(seed & _MASK64)


def run_bohm_ensemble(
    frames: WaveFrames | FrameSource,
    positions0: np.ndarray,
    keep=None,
    head: int = 0,
    drift: bool = False,
) -> Ensemble:
    """Integrate a batch of trajectories over shared frames.

    ``frames`` is stored (WaveFrames) or streamed (FrameSource); the march
    reads a stream once, forward, one chunk after another, and its kept
    frames are then drained from it.  All members advance together, by RK4
    steps over 2m stored frames i, i + m and i + 2m, at their stored times,
    so no step blends frames.  The march picks m, a power of two, and i is
    a multiple of 2m, so a step never leaves its chunk.  m starts at 1, a
    frame pair.  After each step it evaluates the velocity at the members'
    new positions, which is the next step's first stage, and so costs no
    extra call.  With it the step has a free error estimate, e = (h/6) max
    |v4 - v(t1, y1)|, the difference from the embedded third-order formula
    with weights (1/6, 1/3, 1/3, 1/6) on (v1, v2, v3, v(t1, y1)) (Hairer,
    Norsett & Wanner, Solving ODEs I, section II.4), over the members whose
    stages touched no node.  A step at m > 1 is taken again at half the stride when e
    exceeds MARCH_TOL (1e-6, a budget set by what the verdicts resolve) or
    when any member touches a node; after a step with e < MARCH_TOL / 16,
    m doubles, up to a span of _CHUNK frames.  A step never passes the last
    frame, starts on a multiple of its span and has halves of equal length
    (see _stride): a stride that does not fit is halved.  Where even a
    frame pair does not fit, as before a shorter last gap, the step spans
    one frame and its middle stages blend.

    A step at m = 1, or of one frame, is never taken again.  Its members
    whose stages touch a node redo it as a batch of two half steps, split
    at the middle stage time, and halve again where a half step touches a
    node (see _halve).  A member that still touches one after MAX_HALVINGS
    halvings is frozen in place (keeping the shared time grid), the frame
    the step started from is recorded in ``frozen_at``, and it leaves the
    batch.

    The march holds the members' current positions, not their paths.  The
    ensemble keeps the rows at the ``keep`` times (every row when keep is
    None).  A kept frame inside a step is read off that step with no
    velocity call, by cubic Hermite interpolation between the step's ends
    with v1 and v4 as the slopes (Hairer, Norsett & Wanner, section II.6;
    see _hermite); a member that halved the step is where its first half
    ends, and a member the step froze holds its place.  It does not feed
    back, so the steps, and every row they give, are the same whatever is
    kept.  ``head`` > 0 also keeps the first ``head`` members at every
    frame a step ends on, as ``Ensemble.head``, and ``drift`` records the
    largest distance of any member from its start over those frames as
    ``Ensemble.max_drift``.  ``Ensemble.march`` records what the march did.
    """
    field = VelocityField(frames)
    times = frames.times.tolist()
    last, top = len(times) - 1, _CHUNK // 2
    start = np.atleast_2d(np.asarray(positions0, dtype=float))
    rows = _kept_rows(frames.times, keep)
    kept = np.empty((len(rows),) + start.shape)
    row = 0  # the next kept row to fill
    if rows and rows[0] == 0:
        kept[0], row = start, 1
    ends, paths = [0], [start[:head].copy()]
    max_drift = _max_distance(start, start) if drift else None
    frozen_at = np.full(len(start), -1)
    lo, length = _periods(frames.axes)
    pos, live = start, np.arange(len(start))
    first = field.velocity(pos, times[0]) if live.size else None
    spans, errors, retaken, fallback = [], [], 0, 0
    i, m = 0, 1
    while i < last:
        half = _stride(times, i, m)
        k = i + 2 * half if half else i + 1
        t0, t1 = times[i], times[k]
        h = t1 - t0
        x = pos[live]
        new, under, err = x, np.zeros(len(x), dtype=bool), None
        if live.size:
            stages = (t0, times[i + half] if half else t0 + 0.5 * h, t1)
            new, touched, v1, v4 = _rk4_batch(field, x, stages, h, first)
            if half > 1 and touched.any():
                m, retaken = half // 2, retaken + 1
                continue
            j = np.flatnonzero(touched)  # only at half <= 1: the node fallback
            if j.size:
                new[j], under[j], first_half = _halve(field, x[j], stages, h)
                new[under] = x[under]
                fallback += j.size
        end = pos.copy()
        end[live] = new
        _wrap_positions(end, lo, length, out=end)
        stay = live[~under]
        if stay.size and (k < last or half > 1):
            nxt = field.velocity(end[stay], t1)
            ok = ~touched[~under] & ~nxt[1]
            err = h / 6.0 * float(np.max(np.abs(v4[~under][ok] - nxt[0][ok]), initial=0.0))
            if half > 1 and err > MARCH_TOL:
                m, retaken = half // 2, retaken + 1
                continue
            first = nxt
        # the kept frames inside the step: a frame pair's middle is the one
        # a halved member has, where its first half ends
        while row < len(rows) and rows[row] < k:
            kept[row] = pos
            if live.size:
                s = (2 * (rows[row] - i) - (k - i)) / (k - i)
                kept[row][live] = _hermite(x, new, v1, v4, h, s)
                if j.size:
                    kept[row][live[j]] = np.where(under[j, None], x[j], first_half)
            _wrap_positions(kept[row], lo, length, out=kept[row])
            row += 1
        frozen_at[live[under]] = i
        pos, live = end, stay
        if row < len(rows) and rows[row] == k:
            kept[row], row = pos, row + 1
        if head:
            ends.append(k)
            paths.append(pos[:head].copy())
        if drift:
            max_drift = max(max_drift, _max_distance(pos, start))
        spans.append(k - i)
        if err is not None:
            errors.append(err)
        m = max(half, 1)
        if err is not None and err < MARCH_TOL / 16:
            m = min(2 * m, top)
        i = k
    record = MarchRecord(
        steps=len(spans),
        steps_taken_again=retaken,
        min_stride=min(spans, default=0),
        max_stride=max(spans, default=0),
        max_error=max(errors, default=None),
        tolerance=MARCH_TOL,
        node_fallback_member_steps=fallback,
        frozen_members=int(np.count_nonzero(frozen_at >= 0)),
    )
    head_paths = Ensemble(frames.times[ends], np.array(paths), frozen_at[:head]) if head else None
    return Ensemble(frames.times[rows], kept, frozen_at, head_paths, max_drift, record)


def _max_distance(pos: np.ndarray, start: np.ndarray) -> float:
    # sqrt is monotone and correctly rounded: the bits of the largest norm
    d = pos - start
    return float(np.sqrt(np.add.reduce(d * d, axis=1).max()))


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


def born_sample_many(w: GridWaveFunction, n: int, seed: int) -> np.ndarray:
    """(n, ndim) configurations drawn from |psi|^2."""
    rng = np.random.default_rng(seed)
    return _BornSampler(w).draw(rng, n)


def rdmp_ensemble(
    frames: WaveFrames,
    sample_times,
    n: int,
    seed: int,
) -> Ensemble:
    """n independent random-jump trajectories over shared frames.

    An independent Born draw per member and sample time: member j draws
    default_rng(derive_seed(seed, j)).random((T, 1 + D)).  Row i holds the
    uniform that picks its cell at sample time i, then the D jitter
    uniforms: the order in which ``_BornSampler.draw(rng, 1)`` takes them,
    time after time.
    """
    seeds = _member_seeds(seed, n)
    indices = [frames.index_at(t) for t in np.asarray(sample_times, dtype=float)]
    shape = (len(indices), 1 + len(frames.axes))
    draws = np.stack([np.random.default_rng(s).random(shape) for s in seeds.tolist()], axis=1)
    positions = np.stack([
        _BornSampler(frames.wavefunction(i)).points(u[:, 0], u[:, 1:])
        for i, u in zip(indices, draws)
    ])
    return Ensemble(frames.times[indices], positions, np.full(n, -1))


# ---------------------------------------------------------------------------
# goodness-of-fit and comparison reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GoodnessOfFit:
    name: str
    statistic: float
    p_value: float
    passed: bool


@dataclass(frozen=True)
class EquivarianceReport:
    time: float
    n_samples: int
    significance: float
    chi_square: GoodnessOfFit
    ks_marginals: tuple
    passed: bool


def _grid_bin_edges(w: GridWaveFunction, n_samples: int):
    """Bin edges over each axis of w's box, sqrt(n_samples) bins in all."""
    per_axis = max(2, int(round(np.sqrt(n_samples) ** (1.0 / w.ndim))))
    return [np.linspace(lo, hi, per_axis + 1) for lo, hi in w.bounds]


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
) -> GoodnessOfFit:
    """Binned chi-square of samples against |psi|^2, sqrt(N) bins total.

    Bins with expected count below 5 are pooled into one class; degrees
    of freedom are classes minus one.
    """
    samples = np.atleast_2d(samples)
    n = len(samples)
    edges = _grid_bin_edges(w, n)
    observed, _ = np.histogramdd(samples, bins=edges)
    expected = _expected_counts(w, edges, n)
    obs, exp = observed.ravel(), expected.ravel()
    keep = exp >= 5.0
    obs_kept, exp_kept = obs[keep], exp[keep]
    pooled_obs, pooled_exp = obs[~keep].sum(), exp[~keep].sum()
    if pooled_exp > 0:
        obs_kept = np.append(obs_kept, pooled_obs)
        exp_kept = np.append(exp_kept, pooled_exp)
    exp_kept = exp_kept * (obs_kept.sum() / exp_kept.sum())
    stat = float(np.sum((obs_kept - exp_kept) ** 2 / exp_kept))
    dof = obs_kept.size - 1
    p = _chi2_sf(dof, stat)
    return GoodnessOfFit("chi-square", stat, p, p >= significance)


def _chi2_sf(dof: int, stat: float) -> float:
    """Pr(chi^2_dof >= stat): the regularized upper incomplete gamma Q(a, x),
    a = dof / 2, x = stat / 2.

    Below x = a + 1 it is 1 - P(a, x), P from its power series; above, Q
    from its continued fraction, evaluated by Lentz's method (Numerical
    Recipes, section 6.2; DiDonato & Morris, ACM TOMS 12, 377, 1986).  Both
    scale x^a e^-x / Gamma(a), whose log is taken as a (log1p(u) - u) +
    log(a / 2 pi) / 2 - R(a) with u = (x - a) / a and R the Stirling
    remainder, so that large dof do not cancel (log1p(u) is log(x / a) for
    x < a / 2).  Within 1e-12 relative of an exact evaluation wherever the
    value is at least 1e-300, for dof up to 5000 and stat up to 1e4.  No
    degrees of freedom, or a negative statistic, give NaN.
    """
    if not (dof >= 1 and stat >= 0):
        return float("nan")
    a, x = dof / 2, stat / 2
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    u = (x - a) / a
    # log(x / a), from u near x = a; far below a, u rounds towards -1
    log_ratio = math.log1p(u) if u > -0.5 else math.log(x / a)
    front = math.exp(
        a * (log_ratio - u) + 0.5 * math.log(a / (2 * math.pi)) - float(_stirling_remainder(a))
    )
    eps = np.finfo(float).eps
    if x < a + 1:
        # P(a, x) = front / a * sum_k x^k / ((a + 1) ... (a + k))
        term = total = 1.0
        k = a
        while term > total * eps:
            k += 1
            term *= x / k
            total += term
        return 1.0 - front / a * total
    tiny = np.finfo(float).tiny
    b = x + 1 - a
    c, d = 1 / tiny, 1 / b
    h = d
    for i in itertools.count(1):
        an = -i * (i - a)
        b += 2
        d = an * d + b
        d = 1 / (d if abs(d) >= tiny else tiny)
        c = b + an / c
        c = c if abs(c) >= tiny else tiny
        h *= d * c
        if abs(d * c - 1) <= eps:
            return front * h


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
    D is computed as ``scipy.stats.kstest`` computes it, bit for bit, and
    so is its exact p-value, but in the one-sided tail, where it is within
    1e-11 (see ``_kstwo``).
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


def _tv_between_samples(a: np.ndarray, b: np.ndarray, edges) -> float:
    ha, _ = np.histogramdd(a, bins=edges)
    hb, _ = np.histogramdd(b, bins=edges)
    return float(0.5 * np.sum(np.abs(ha / ha.sum() - hb / hb.sum())))


def compare_bohm_rdmp(
    frames: WaveFrames,
    sample_times,
    bohm: Ensemble,
    rdmp: Ensemble,
) -> DivergenceReport:
    """Compare a pilot-wave and a random-jump ensemble over the same frames.

    Total-variation distance between the binned single-particle marginals
    is reported per sample time against a sampling-noise threshold
    3 * sqrt(n_bins / n); both ensembles are Born-distributed, so
    the distance is pure noise when equivariance holds.  The mean per-step
    displacement separates continuous from jump motion.  Both ensembles
    need a snapshot at every sample time.
    """
    if bohm.size != rdmp.size:
        raise ValueError(f"ensemble sizes differ: {bohm.size} vs {rdmp.size}")
    ensemble_size = bohm.size
    ts = np.asarray(sample_times, dtype=float)
    edges = _grid_bin_edges(frames.wavefunction(0), ensemble_size)
    n_bins = int(np.prod([len(e) - 1 for e in edges]))
    threshold = 3.0 * np.sqrt(n_bins / ensemble_size)
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
