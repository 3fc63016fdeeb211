"""Conditional and effective wave functions of a subsystem.

For a bipartite configuration (x, y) the conditional wave function of the
x-subsystem at actual environment configuration Y is the slice

    psi^A(x) = Psi(x, Y),

normalized on the x-grid.  The split into x and y coordinates is always
given by the caller, and the slice is read off the cubic spline of Psi
along the environment coordinates, on the grid and off it alike: at a grid
Y the spline gives back the samples to roundoff.  When Psi decomposes into
branches

    Psi(x, y) = sum_j w_j f_j(x) g_j(y) + residual

whose environment factors g_j occupy mutually disjoint regions of y-space,
the branch containing Y acts as an effective wave function: it alone drives
the subsystem, and it obeys its own Schrodinger dynamics for as long as
the branches stay separated and nothing couples x to y.

Branches come from the singular value decomposition of Psi reshaped across
the x|y split.  "Macroscopically disjoint" is quantified as min-sum mass
overlap of the environment densities below EPS_SUPPORT; modes that
fail pairwise disjointness are folded into the residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Ensemble, FrameSource, Potential, WaveFrames
from .interpolation import CubicGridInterpolator
from .states import GridWaveFunction, born_density, cell_volume, grid_norm, l2_distance

EPS_SUPPORT = 1e-6
EPS_ZERO_SLICE = 1e-12  # slice norm below which Psi(., Y) has no conditional
WEIGHT_THRESHOLD = 1e-10  # squared Schmidt weight below which a mode is dust
N_AUTONOMY_CHECKS = 8

__all__ = [
    "SubsystemSplit",
    "ZeroConditional",
    "conditional_wavefunction",
    "Branch",
    "BranchDecomposition",
    "branch_decompose",
    "EffectiveResult",
    "detect_effective",
    "mass_overlap",
    "separable_potential",
    "AutonomyReport",
    "schrodinger_autonomy_check",
]


class ZeroConditional(Exception):
    """The slice Psi(., Y) has no usable norm at this Y."""


@dataclass(frozen=True)
class SubsystemSplit:
    """Partition of grid coordinates into subsystem (x) and environment (y)."""

    x_coords: tuple
    y_coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "x_coords", tuple(int(i) for i in self.x_coords))
        object.__setattr__(self, "y_coords", tuple(int(i) for i in self.y_coords))
        if not self.x_coords or not self.y_coords:
            raise ValueError("both sides of the split need at least one coordinate")
        n = len(self.x_coords) + len(self.y_coords)
        if sorted(self.x_coords + self.y_coords) != list(range(n)):
            raise ValueError("split must cover each grid coordinate exactly once")

    def validate(self, w: GridWaveFunction):
        if len(self.x_coords) + len(self.y_coords) != w.ndim:
            raise ValueError(
                f"split covers {len(self.x_coords) + len(self.y_coords)} coordinates, grid has {w.ndim}"
            )

    def x_grid(self, w: GridWaveFunction) -> tuple:
        return tuple(w.axes[i] for i in self.x_coords)

    def y_grid(self, w: GridWaveFunction) -> tuple:
        return tuple(w.axes[i] for i in self.y_coords)


def conditional_wavefunction(
    w: GridWaveFunction, split: SubsystemSplit, y_value
) -> GridWaveFunction:
    """Slice Psi at environment configuration Y, normalized on the x-grid.

    The slice comes from the cubic spline trajectories use, at any Y.
    Raises ZeroConditional when the slice norm falls below EPS_ZERO_SLICE.
    """
    split.validate(w)
    y_value = np.atleast_1d(np.asarray(y_value, dtype=float))
    if y_value.size != len(split.y_coords):
        raise ValueError(
            f"Y has {y_value.size} coordinates, split expects {len(split.y_coords)}"
        )

    x_grid = split.x_grid(w)
    # at the x grid points the spline of Psi is the spline along y of Psi
    # stacked over x, which is all that is prefiltered and read here
    stack = np.transpose(w.amplitudes, split.x_coords + split.y_coords)
    grid = CubicGridInterpolator(split.y_grid(w))
    values = grid(y_value[None], grid.prefilter(stack))[..., 0]
    if grid_norm(GridWaveFunction(x_grid, values, normalize=False)) < EPS_ZERO_SLICE:
        raise ZeroConditional(f"slice norm below {EPS_ZERO_SLICE} at Y={y_value.tolist()}")
    return GridWaveFunction(x_grid, values)


def mass_overlap(density_a: np.ndarray, density_b: np.ndarray, d_v: float) -> float:
    """Min-sum overlap of two densities on cells of volume d_v: the mass they can share."""
    return float(np.minimum(density_a, density_b).sum() * d_v)


@dataclass(frozen=True)
class Branch:
    """One emitted product mode w * f(x) * g(y)."""

    x_factor: GridWaveFunction
    y_factor: GridWaveFunction
    weight: complex


@dataclass(frozen=True)
class BranchDecomposition:
    """Schmidt modes of Psi across the x|y split, sorted into branches.

    branches hold the significant modes whose environment densities are
    pairwise disjoint (mass overlap < EPS_SUPPORT); everything else, from
    overlapping modes down to numerical dust, lives in the residual, so

        sum_j weight_j f_j(x) (x) g_j(y)  +  residual  =  Psi

    holds to roundoff by construction.  all_weights lists every Schmidt
    weight for diagnostics; weights satisfy sum w^2 = |Psi|^2 on the grid.
    """

    split: SubsystemSplit
    branches: tuple
    residual: GridWaveFunction
    all_weights: np.ndarray

    @property
    def n_branches(self) -> int:
        return len(self.branches)

    def weights(self) -> np.ndarray:
        return np.array([b.weight for b in self.branches])

    def reconstruct(self) -> GridWaveFunction:
        acc = self.residual.amplitudes.copy()
        for b in self.branches:
            acc += _joint_product(b, self.split)
        return GridWaveFunction(self.residual.axes, acc, normalize=False)

    def residual_mass(self) -> float:
        return float(grid_norm(self.residual) ** 2)


def _joint_product(branch: Branch, split: SubsystemSplit) -> np.ndarray:
    outer = branch.weight * np.multiply.outer(
        branch.x_factor.amplitudes, branch.y_factor.amplitudes
    )
    return np.transpose(outer, np.argsort(split.x_coords + split.y_coords))


def branch_decompose(w: GridWaveFunction, split: SubsystemSplit) -> BranchDecomposition:
    """Schmidt-decompose Psi across the split and emit the disjoint modes.

    Modes with squared weight above WEIGHT_THRESHOLD are candidates,
    taken in descending weight order; a candidate is emitted as a branch
    only if its environment density overlaps every already-emitted branch
    by less than EPS_SUPPORT.  The residual absorbs everything else.
    """
    split.validate(w)
    x_grid, y_grid = split.x_grid(w), split.y_grid(w)
    n_x = int(np.prod([a.size for a in x_grid]))
    n_y = int(np.prod([a.size for a in y_grid]))
    matrix = np.transpose(w.amplitudes, split.x_coords + split.y_coords).reshape(n_x, n_y)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)

    d_vx, d_vy = cell_volume(x_grid), cell_volume(y_grid)
    all_weights = s * np.sqrt(d_vx * d_vy)
    x_shape = tuple(a.size for a in x_grid)
    y_shape = tuple(a.size for a in y_grid)

    candidates = np.flatnonzero(all_weights**2 > WEIGHT_THRESHOLD)
    branches = []
    kept_densities = []
    for j in candidates:  # svd returns descending s, so this is weight order
        y_factor = GridWaveFunction(
            y_grid, (vh[j] / np.sqrt(d_vy)).reshape(y_shape), normalize=False
        )
        dens = born_density(y_factor)
        if all(
            mass_overlap(dens, other, d_vy) < EPS_SUPPORT for other in kept_densities
        ):
            x_factor = GridWaveFunction(
                x_grid, (u[:, j] / np.sqrt(d_vx)).reshape(x_shape), normalize=False
            )
            branches.append(Branch(x_factor, y_factor, complex(all_weights[j])))
            kept_densities.append(dens)

    residual_amps = w.amplitudes.astype(complex).copy()
    for b in branches:
        residual_amps -= _joint_product(b, split)
    residual = GridWaveFunction(w.axes, residual_amps, normalize=False)
    return BranchDecomposition(split, tuple(branches), residual, all_weights)


@dataclass(frozen=True)
class EffectiveResult:
    """Outcome of effective-wave-function detection at a given Y.

    status is "effective" when exactly one disjoint branch claims Y and
    that branch stays clear of the residual's environment marginal; the
    wavefunction is then the branch's subsystem factor.  Otherwise status
    is "conditional-only" and the wavefunction is the plain conditional
    slice at Y.
    """

    status: str
    wavefunction: GridWaveFunction
    branch_index: int | None
    weight: complex | None
    residual_overlap: float

    @property
    def effective(self) -> bool:
        return self.status == "effective"


def detect_effective(w: GridWaveFunction, split: SubsystemSplit, y_value) -> EffectiveResult:
    """Decide whether the conditional wave function at Y is effective."""
    decomp = branch_decompose(w, split)
    y_value = np.atleast_1d(np.asarray(y_value, dtype=float))

    # a mass tolerance of eps corresponds to an amplitude scale sqrt(eps),
    # which also absorbs the O(<f_i|f_j>) mode mixing of the decomposition
    claim_factor = np.sqrt(EPS_SUPPORT)
    claims = []
    grid = CubicGridInterpolator(split.y_grid(w))  # every branch's environment grid
    for idx, b in enumerate(decomp.branches):
        mode = b.y_factor
        amp = grid(y_value[None], grid.prefilter(mode.amplitudes))[0]
        if abs(amp) > claim_factor * np.max(np.abs(mode.amplitudes)):
            claims.append(idx)

    idx = claims[0] if len(claims) == 1 else None
    res_overlap = float("nan")
    if idx is not None:
        b = decomp.branches[idx]
        x_first = split.x_coords + split.y_coords
        res_density = np.abs(np.transpose(decomp.residual.amplitudes, x_first)) ** 2
        d_vx, d_vy = cell_volume(split.x_grid(w)), cell_volume(split.y_grid(w))
        res_marginal = res_density.sum(axis=tuple(range(len(split.x_coords)))) * d_vx
        res_overlap = mass_overlap(born_density(b.y_factor), res_marginal, d_vy)
        if res_overlap < EPS_SUPPORT:
            return EffectiveResult(
                status="effective",
                wavefunction=GridWaveFunction(b.x_factor.axes, b.x_factor.amplitudes),
                branch_index=idx,
                weight=b.weight,
                residual_overlap=res_overlap,
            )

    return EffectiveResult(
        status="conditional-only",
        wavefunction=conditional_wavefunction(w, split, y_value),
        branch_index=idx,
        weight=None,
        residual_overlap=res_overlap,
    )


def separable_potential(
    potential_x: Potential,
    potential_y: Potential,
    x_grid,
    y_grid,
    split: SubsystemSplit,
) -> Potential:
    """Non-interacting joint potential V(x) + V(y) as a grid table."""
    vx = potential_x.on_grid(x_grid)
    vy = potential_y.on_grid(y_grid)
    joint = np.add.outer(vx, vy)
    return Potential.table(np.transpose(joint, np.argsort(split.x_coords + split.y_coords)))


@dataclass(frozen=True)
class AutonomyReport:
    """Conditional slice vs independently evolved effective wave, over time."""

    times: np.ndarray
    distances: np.ndarray
    branch_index: int
    max_distance: float


def schrodinger_autonomy_check(
    frames: WaveFrames,
    split: SubsystemSplit,
    y_path: Ensemble,
    potential_x: Potential,
) -> AutonomyReport:
    """Does the effective wave function obey its own Schrodinger equation?

    The joint frames must come from an interaction-free x-y Hamiltonian
    and the environment path Y(t) from the caller: a one-member Ensemble
    over the environment coordinates, whose times must be a subset of the
    frame times.  The effective wave function is extracted once at the
    first frame, evolved independently under V(x) with the frame spacing
    as its own dt, keeping only the frames it is compared at, and compared
    at N_AUTONOMY_CHECKS times with the conditional wave function sliced at Y(t).
    """
    ys = y_path.positions[:, 0]
    w0 = frames.wavefunction(0)
    eff = detect_effective(w0, split, ys[0])
    if not eff.effective:
        raise ValueError("initial wave is not in effective form at Y(0)")

    dt = float(frames.times[1] - frames.times[0])
    t_span = float(y_path.times[-1] - y_path.times[0])
    check_ids = np.unique(
        np.linspace(0, y_path.times.size - 1, N_AUTONOMY_CHECKS).round().astype(int)
    )
    sub_frames = FrameSource(
        eff.wavefunction, potential_x, dt, int(round(t_span / dt)), keep=y_path.times[check_ids]
    ).drain()
    times, dists = [], []
    for i in check_ids:
        t = float(y_path.times[i])
        j = frames.index_at(t)
        cond = conditional_wavefunction(frames.wavefunction(j), split, ys[i])
        auto = GridWaveFunction(
            sub_frames.axes, sub_frames.amplitudes[sub_frames.index_at(t)]
        )
        times.append(t)
        dists.append(l2_distance(cond, auto))
    times = np.array(times)
    dists = np.array(dists)
    return AutonomyReport(
        times=times,
        distances=dists,
        branch_index=eff.branch_index,
        max_distance=float(dists.max()),
    )
