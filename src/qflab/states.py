"""Finite- and grid-dimensional quantum states, tensor products, and Born-rule
probabilities.

Conventions (natural units, hbar = m = 1):
  * Kronecker ordering: the leftmost tensor factor is the most significant
    index, i.e. (a (x) b)[i*db + j] = a[i] * b[j].
  * Grid quadrature: plain Riemann sum with the uniform cell volume, so the
    discrete L2 norm is sqrt(sum |psi|^2 * dV).  This matches the discrete
    Parseval identity of the spectral evolver.
  * Normalization tolerance: 1e-12 for finite-dimensional states.
"""

from __future__ import annotations

import numpy as np

NORM_TOL_FINITE = 1e-12

__all__ = [
    "NORM_TOL_FINITE",
    "FiniteState",
    "ProjectiveMeasurement",
    "GridWaveFunction",
    "basis_state",
    "plus_state",
    "tensor",
    "born_probability",
    "measurement_distribution",
    "grid_norm",
    "born_density",
    "uniform_axis",
    "cell_volume",
    "fix_global_phase",
    "l2_distance",
]


class FiniteState:
    """Normalized complex amplitude vector in a d-dimensional Hilbert space.

    Zero vectors are rejected at construction rather than silently
    normalized; anything else is rescaled to unit norm.
    """

    __slots__ = ("amplitudes",)

    def __init__(self, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        if amps.size == 0:
            raise ValueError("state needs at least one amplitude")
        norm = np.linalg.norm(amps)
        if norm < 1e-15:
            raise ValueError("zero vector cannot be normalized into a state")
        amps = amps / norm
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteState is immutable")

    @property
    def dimension(self) -> int:
        return self.amplitudes.size

    def inner(self, other: "FiniteState") -> complex:
        """<self|other> with the conjugate on self."""
        if self.dimension != other.dimension:
            raise ValueError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def to_json(self) -> list:
        """JSON-friendly list of [re, im] pairs."""
        return [[float(a.real), float(a.imag)] for a in self.amplitudes]

    def __repr__(self):
        return f"FiniteState(dim={self.dimension})"


def basis_state(dimension: int, index: int) -> FiniteState:
    """Computational basis vector |index> in the given dimension."""
    if not 0 <= index < dimension:
        raise ValueError(f"index {index} outside dimension {dimension}")
    amps = np.zeros(dimension, dtype=complex)
    amps[index] = 1.0
    return FiniteState(amps)


def plus_state() -> FiniteState:
    """(|0> + |1>) / sqrt(2)"""
    return FiniteState([1.0, 1.0])


class ProjectiveMeasurement:
    """Complete orthonormal basis; outcome k projects onto basis[k]."""

    __slots__ = ("basis",)

    def __init__(self, basis):
        basis = tuple(basis)
        if not basis:
            raise ValueError("measurement needs at least one outcome")
        d = basis[0].dimension
        if any(s.dimension != d for s in basis):
            raise ValueError("all outcome states must share one dimension")
        if len(basis) != d:
            raise ValueError(f"need {d} outcomes for a complete basis, got {len(basis)}")
        mat = np.array([s.amplitudes for s in basis])
        gram = mat.conj() @ mat.T
        dev = np.max(np.abs(gram - np.eye(d)))
        if dev > NORM_TOL_FINITE:
            raise ValueError(f"basis is not orthonormal (Gram deviation {dev:.3e})")
        object.__setattr__(self, "basis", basis)

    def __setattr__(self, name, value):
        raise AttributeError("ProjectiveMeasurement is immutable")

    @property
    def dimension(self) -> int:
        return self.basis[0].dimension

    def gram_deviation(self) -> float:
        mat = np.array([s.amplitudes for s in self.basis])
        gram = mat.conj() @ mat.T
        return float(np.max(np.abs(gram - np.eye(self.dimension))))


def uniform_axis(lo: float, hi: float, n: int) -> np.ndarray:
    """Uniform periodic axis on [lo, hi): n cells of width (hi-lo)/n.

    The right endpoint is excluded -- the domain is treated as periodic by
    the spectral evolver, and including both endpoints would double-count
    one cell in the Riemann quadrature.
    """
    if n < 2:
        raise ValueError("axis needs at least 2 points")
    if not hi > lo:
        raise ValueError("axis extent must be positive")
    return lo + (hi - lo) / n * np.arange(n)


def cell_volume(axes) -> float:
    """Volume of one cell of the uniform grid spanned by ``axes``."""
    return float(np.prod([a[1] - a[0] for a in axes]))


def _check_axis(axis: np.ndarray) -> float:
    """Validate strict monotonicity + uniform spacing; return the spacing."""
    diffs = np.diff(axis)
    if axis.size < 2 or np.any(diffs <= 0):
        raise ValueError("axis must be strictly increasing with >= 2 points")
    dx = float(diffs[0])
    if np.max(np.abs(diffs - dx)) > 1e-9 * max(abs(dx), 1.0):
        raise ValueError("axis spacing must be uniform")
    return dx


class GridWaveFunction:
    """Complex amplitudes over a uniform configuration-space grid.

    ``axes`` is one 1-D coordinate array per configuration coordinate;
    ``amplitudes`` has shape ``(len(axes[0]), ..., len(axes[-1]))``.

    By default construction normalizes to unit discrete L2 norm and rejects
    all-zero input.  ``normalize=False`` keeps the raw amplitudes; that form
    carries branch residuals and other intermediates that are not states.
    """

    __slots__ = ("axes", "amplitudes")

    def __init__(self, axes, amplitudes, normalize=True):
        axes = tuple(np.asarray(a, dtype=float) for a in axes)
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.shape != tuple(a.size for a in axes):
            raise ValueError(
                f"amplitude shape {amps.shape} does not match axes "
                f"{tuple(a.size for a in axes)}"
            )
        for a in axes:
            _check_axis(a)
        if normalize:
            norm = np.sqrt(np.sum(np.abs(amps) ** 2) * cell_volume(axes))
            if norm < 1e-15:
                raise ValueError("zero grid function cannot be normalized")
            amps = amps / norm
        amps = np.ascontiguousarray(amps)
        amps.setflags(write=False)
        for a in axes:
            a.setflags(write=False)
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "amplitudes", amps)

    def __setattr__(self, name, value):
        raise AttributeError("GridWaveFunction is immutable")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple:
        return self.amplitudes.shape

    @property
    def spacings(self) -> tuple:
        return tuple(float(a[1] - a[0]) for a in self.axes)

    @property
    def cell_volume(self) -> float:
        return cell_volume(self.axes)

    @property
    def bounds(self) -> tuple:
        """Per-axis (lo, hi) with hi one cell past the last grid point."""
        return tuple(
            (float(a[0]), float(a[-1]) + (a[1] - a[0])) for a in self.axes
        )

    def norm(self) -> float:
        return grid_norm(self)

    def __repr__(self):
        return f"GridWaveFunction(shape={self.shape})"


def tensor(a: FiniteState, b: FiniteState) -> FiniteState:
    """Kronecker product state; leftmost factor is the most significant index."""
    return FiniteState(np.kron(a.amplitudes, b.amplitudes))


def born_probability(state: FiniteState, outcome: FiniteState) -> float:
    """|<outcome|state>|^2, clipped into [0, 1] against roundoff."""
    amp = outcome.inner(state)
    return float(min(1.0, abs(amp) ** 2))


def measurement_distribution(
    state: FiniteState, m: ProjectiveMeasurement
) -> np.ndarray:
    """Vector of Born probabilities for each outcome of ``m``."""
    if state.dimension != m.dimension:
        raise ValueError(
            f"dimension mismatch: state {state.dimension}, measurement {m.dimension}"
        )
    mat = np.array([s.amplitudes for s in m.basis])
    probs = np.abs(mat.conj() @ state.amplitudes) ** 2
    return probs


def grid_norm(w: GridWaveFunction) -> float:
    """Discrete L2 norm: sqrt(sum |psi|^2 * cell volume)."""
    return float(np.sqrt(np.sum(np.abs(w.amplitudes) ** 2) * w.cell_volume))


def born_density(w: GridWaveFunction) -> np.ndarray:
    """|psi|^2 pointwise on the grid; integrates to 1 for normalized input."""
    return np.abs(w.amplitudes) ** 2


def fix_global_phase(amps: np.ndarray) -> np.ndarray:
    """Rotate a complex array so its largest-modulus entry is real positive.

    Deterministic gauge for L2 comparisons of states that differ by a
    global phase.
    """
    amps = np.asarray(amps, dtype=complex)
    idx = np.unravel_index(np.argmax(np.abs(amps)), amps.shape)
    pivot = amps[idx]
    if abs(pivot) < 1e-300:
        return amps.copy()
    return amps * (abs(pivot) / pivot)


def l2_distance(a: GridWaveFunction, b: GridWaveFunction) -> float:
    """Discrete L2 distance between two grid functions on the same grid, each
    phase-fixed by ``fix_global_phase``."""
    if a.shape != b.shape:
        raise ValueError("grid shapes differ")
    fa, fb = fix_global_phase(a.amplitudes), fix_global_phase(b.amplitudes)
    return float(np.sqrt(np.sum(np.abs(fa - fb) ** 2) * a.cell_volume))
