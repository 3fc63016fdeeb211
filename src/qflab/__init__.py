"""Grid wave functions, pilot-wave and random-jump dynamics, conditional
wave functions, and finite ontological models, with a reproducible
experiment CLI on top."""

from .experiments import TOOL_VERSION as __version__
from .states import (
    FiniteState,
    GridWaveFunction,
    ProjectiveMeasurement,
    basis_state,
    born_density,
    born_probability,
    fix_global_phase,
    grid_norm,
    l2_distance,
    measurement_distribution,
    plus_state,
    tensor,
    uniform_axis,
)
from .dynamics import (
    Ensemble,
    FrameSource,
    MomentumResolutionWarning,
    Potential,
    VelocityField,
    WaveFrames,
    born_sample_many,
    chi_square_gof,
    compare_bohm_rdmp,
    derive_seed,
    equivariance_test,
    evolve_frames,
    gaussian_packet,
    ks_gof,
    plane_wave,
    rdmp_ensemble,
    run_bohm_ensemble,
    spectral_hamiltonian,
    stationary_state,
    two_lobe_packet,
)
from .conditional import (
    AutonomyReport,
    Branch,
    BranchDecomposition,
    EffectiveResult,
    SubsystemSplit,
    ZeroConditional,
    branch_decompose,
    conditional_wavefunction,
    detect_effective,
    mass_overlap,
    schrodinger_autonomy_check,
    separable_potential,
)
from .onticmodels import (
    OnticSpace,
    OntologicalModel,
    PbrConstruction,
    PbrOutcome,
    build_box_nomological_model,
    build_pbr_states,
    build_revised_overlap_model,
    build_trivial_ontic_model,
    check_consistency,
    classify,
    distribution_overlap,
    double_sum_diagnostic,
    orthogonal_distinctness_check,
    pbr_contradiction,
    random_epistemic_model,
    standard_projection,
)
from .experiments import (
    ExperimentSpec,
    RunManifest,
    SpecValidationError,
    preset,
    preset_names,
    run,
    validate,
)

__all__ = [name for name in dir() if not name.startswith("_")]
