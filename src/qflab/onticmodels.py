"""Finite ontological models and the overlap argument against them.

An ontological model for a finite-dimensional system assigns each prepared
state psi a distribution p(lambda | psi) over a finite space of ontic
states, and each measurement M response probabilities that reproduce the
Born rule when averaged:

    sum_lambda p(k | lambda, M) p(lambda | psi)  =  |<k|psi>|^2.

Two response conventions are supported.  In ``standard`` mode the response
depends only on (k, lambda, M).  In ``revised`` mode it may also depend on
the prepared state, p(k | lambda, psi, M), which changes what can be
derived: the overlap argument below needs the response at a fixed lambda
to be the same no matter which preparation produced it.

The overlap argument runs on two single-system preparations (|0> and |+>)
whose distributions share support.  Two independent systems prepared this
way give four product preparations on Lambda x Lambda; a four-outcome
entangled-basis measurement exists in which each outcome has Born
probability zero for exactly one of the four preparations.  Any
lambda-pair lying in the common support of all four preparations would
force all four response probabilities to vanish there, so they cannot sum
to one: no standard response function exists.  In revised mode each
preparation can carry its own response, the forced zeros never meet, and
the argument does not go through.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .states import (
    FiniteState,
    ProjectiveMeasurement,
    basis_state,
    born_probability,
    measurement_distribution,
    plus_state,
    tensor,
)

CONSISTENCY_TOL = 1e-9
OVERLAP_TOL = 1e-12
DIST_TOL = 1e-9

__all__ = [
    "OnticSpace",
    "OntologicalModel",
    "ConsistencyReport",
    "check_consistency",
    "OverlapReport",
    "classify",
    "distribution_overlap",
    "PbrConstruction",
    "build_pbr_states",
    "PbrOutcome",
    "pbr_contradiction",
    "build_box_nomological_model",
    "standard_projection",
    "double_sum_diagnostic",
    "DistinctnessReport",
    "orthogonal_distinctness_check",
    "build_trivial_ontic_model",
    "build_revised_overlap_model",
    "random_epistemic_model",
]


@dataclass(frozen=True)
class OnticSpace:
    """Finite set of ontic states, addressed by label."""

    labels: tuple

    def __post_init__(self):
        object.__setattr__(self, "labels", tuple(str(s) for s in self.labels))
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("ontic state labels must be unique")
        if not self.labels:
            raise ValueError("ontic space must not be empty")

    @property
    def size(self) -> int:
        return len(self.labels)


def _as_distribution(values, size, what) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (size,):
        raise ValueError(f"{what}: expected {size} probabilities, got shape {arr.shape}")
    if np.any(arr < -DIST_TOL):
        raise ValueError(f"{what}: negative probability")
    arr = np.clip(arr, 0.0, None)
    total = arr.sum()
    if abs(total - 1.0) > DIST_TOL:
        raise ValueError(f"{what}: probabilities sum to {total}, not 1")
    return arr / total


def _as_response(values, n_outcomes, size, what) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n_outcomes, size):
        raise ValueError(f"{what}: expected shape {(n_outcomes, size)}, got {arr.shape}")
    if np.any(arr < -DIST_TOL) or np.any(arr > 1 + DIST_TOL):
        raise ValueError(f"{what}: response probabilities outside [0, 1]")
    arr = np.clip(arr, 0.0, 1.0)
    col = arr.sum(axis=0)
    if np.any(np.abs(col - 1.0) > DIST_TOL):
        raise ValueError(f"{what}: responses at some lambda sum to {col[np.argmax(np.abs(col - 1))]}, not 1")
    return arr / col


@dataclass(frozen=True)
class OntologicalModel:
    """Preparations and responses over a finite ontic space.

    catalog maps each preparation name to the quantum state it prepares;
    measurements map names to projective bases of matching dimension.
    responses: standard mode keys are measurement names; revised mode
    nests per-preparation tables under each measurement name.
    """

    space: OnticSpace
    catalog: dict
    preparations: dict
    measurements: dict
    responses: dict
    mode: str = "standard"

    def __post_init__(self):
        if self.mode not in ("standard", "revised"):
            raise ValueError(f"mode must be 'standard' or 'revised', not {self.mode!r}")
        if set(self.preparations) != set(self.catalog):
            raise ValueError("preparations and catalog must name the same states")
        n = self.space.size
        preps = {
            name: _as_distribution(p, n, f"preparation {name!r}")
            for name, p in self.preparations.items()
        }
        object.__setattr__(self, "preparations", preps)
        dims = {name: s.dimension for name, s in self.catalog.items()}
        resp = {}
        for m_name, m in self.measurements.items():
            k = len(m.basis)
            for name, d in dims.items():
                if d != k:
                    raise ValueError(
                        f"measurement {m_name!r} has {k} outcomes but state {name!r} has dimension {d}"
                    )
            if m_name not in self.responses:
                raise ValueError(f"no response table for measurement {m_name!r}")
            if self.mode == "standard":
                resp[m_name] = _as_response(self.responses[m_name], k, n, f"response {m_name!r}")
            else:
                table = self.responses[m_name]
                if set(table) != set(self.catalog):
                    raise ValueError(
                        f"revised response for {m_name!r} must cover every preparation"
                    )
                resp[m_name] = {
                    p_name: _as_response(t, k, n, f"response {m_name!r}|{p_name!r}")
                    for p_name, t in table.items()
                }
        object.__setattr__(self, "responses", resp)

    def response(self, measurement: str, preparation: str | None = None) -> np.ndarray:
        """(n_outcomes, n_lambda) response table for this measurement."""
        table = self.responses[measurement]
        if self.mode == "standard":
            return table
        if preparation is None:
            raise ValueError("revised mode needs the preparation to look up a response")
        return table[preparation]

    def predicted_distribution(self, preparation: str, measurement: str) -> np.ndarray:
        """Model-side outcome distribution: response averaged over p(lambda|psi)."""
        r = self.response(measurement, preparation)
        return r @ self.preparations[preparation]

    def to_json(self) -> dict:
        if self.mode == "standard":
            resp = {m: r.tolist() for m, r in self.responses.items()}
        else:
            resp = {
                m: {p: t.tolist() for p, t in table.items()}
                for m, table in self.responses.items()
            }
        return {
            "mode": self.mode,
            "labels": list(self.space.labels),
            "catalog": {name: s.to_json() for name, s in self.catalog.items()},
            "preparations": {name: p.tolist() for name, p in self.preparations.items()},
            "measurements": {
                name: [s.to_json() for s in m.basis]
                for name, m in self.measurements.items()
            },
            "responses": resp,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "OntologicalModel":
        return cls(
            space=OnticSpace(tuple(obj["labels"])),
            catalog={name: FiniteState.from_json(v) for name, v in obj["catalog"].items()},
            preparations=dict(obj["preparations"]),
            measurements={
                name: ProjectiveMeasurement(
                    tuple(FiniteState.from_json(v) for v in basis)
                )
                for name, basis in obj["measurements"].items()
            },
            responses=obj["responses"],
            mode=obj["mode"],
        )


# ---------------------------------------------------------------------------
# consistency and overlap classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConsistencyReport:
    """Model predictions against the Born rule, per (preparation, measurement)."""

    deviations: dict
    max_deviation: float
    tol: float
    passed: bool

    def to_json(self):
        return {
            "deviations": {f"{p}|{m}": v for (p, m), v in self.deviations.items()},
            "max_deviation": self.max_deviation,
            "tol": self.tol,
            "passed": self.passed,
        }


def check_consistency(model: OntologicalModel, tol: float = CONSISTENCY_TOL) -> ConsistencyReport:
    """Does averaging responses over p(lambda|psi) reproduce the Born rule?"""
    deviations = {}
    for p_name, state in model.catalog.items():
        for m_name, m in model.measurements.items():
            predicted = model.predicted_distribution(p_name, m_name)
            born = measurement_distribution(state, m)
            deviations[(p_name, m_name)] = float(np.max(np.abs(predicted - born)))
    worst = max(deviations.values())
    return ConsistencyReport(deviations, worst, tol, worst <= tol)


def distribution_overlap(p: np.ndarray, q: np.ndarray) -> float:
    """Min-sum overlap: the mass two distributions can share."""
    return float(np.minimum(p, q).sum())


@dataclass(frozen=True)
class OverlapReport:
    """Pairwise preparation overlaps and the resulting classification.

    A model is psi-ontic when every pair of distinct preparations has
    disjoint distributions, psi-epistemic as soon as one pair overlaps.
    """

    overlaps: dict
    epistemic_pairs: tuple
    classification: str
    tol: float

    def to_json(self):
        return {
            "overlaps": {f"{a}|{b}": v for (a, b), v in self.overlaps.items()},
            "epistemic_pairs": [list(p) for p in self.epistemic_pairs],
            "classification": self.classification,
            "tol": self.tol,
        }


def classify(model: OntologicalModel) -> OverlapReport:
    """psi-epistemic when some pair of preparations overlaps by more than OVERLAP_TOL (1e-12)."""
    names = sorted(model.preparations)
    overlaps = {}
    pairs = []
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            o = distribution_overlap(model.preparations[a], model.preparations[b])
            overlaps[(a, b)] = o
            if o > OVERLAP_TOL:
                pairs.append((a, b))
    label = "psi-epistemic" if pairs else "psi-ontic"
    return OverlapReport(overlaps, tuple(pairs), label, OVERLAP_TOL)


# ---------------------------------------------------------------------------
# the two-system overlap argument
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PbrConstruction:
    """Four product preparations and the entangled basis that frustrates them.

    pairing[i] is the outcome index with Born probability zero for the
    i-th preparation.
    """

    preparations: tuple  # ((name, FiniteState), ...) in fixed order
    measurement: ProjectiveMeasurement
    pairing: tuple
    _table: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = np.stack([measurement_distribution(s, self.measurement) for _, s in self.preparations], 1)
        table.setflags(write=False)  # shared by every caller of the cached construction
        object.__setattr__(self, "_table", table)

    def probability_table(self) -> np.ndarray:
        """[k, j] = Born probability of outcome k for preparation j (read-only)."""
        return self._table

    def zero_diagonal_max(self) -> float:
        table = self.probability_table()
        return float(max(table[k, j] for j, k in enumerate(self.pairing)))


def build_pbr_states() -> PbrConstruction:
    """Two-qubit overlap-argument construction, built once per process.

    Preparations: |0>|0>, |0>|+>, |+>|0>, |+>|+>.  The measurement basis
    pairs each preparation with one outcome it can never trigger:

        f1 = (|0 1> + |1 0>) / sqrt(2)   blocks |0>|0>
        f2 = (|0 -> + |1 +>) / sqrt(2)   blocks |0>|+>
        f3 = (|+ 1> + |- 0>) / sqrt(2)   blocks |+>|0>
        f4 = (|+ -> + |- +>) / sqrt(2)   blocks |+>|+>
    """
    return _pbr_construction()


@functools.lru_cache(maxsize=1)
def _pbr_construction() -> PbrConstruction:
    zero = basis_state(2, 0)
    one = basis_state(2, 1)
    plus = plus_state()
    minus = FiniteState(np.array([1.0, -1.0]) / np.sqrt(2))

    preps = (
        ("0x0", tensor(zero, zero)),
        ("0x+", tensor(zero, plus)),
        ("+x0", tensor(plus, zero)),
        ("+x+", tensor(plus, plus)),
    )
    basis = (
        FiniteState(tensor(zero, one).amplitudes + tensor(one, zero).amplitudes),
        FiniteState(tensor(zero, minus).amplitudes + tensor(one, plus).amplitudes),
        FiniteState(tensor(plus, one).amplitudes + tensor(minus, zero).amplitudes),
        FiniteState(tensor(plus, minus).amplitudes + tensor(minus, plus).amplitudes),
    )
    return PbrConstruction(preps, ProjectiveMeasurement(basis), (0, 1, 2, 3))


@dataclass(frozen=True)
class PbrOutcome:
    """Result of running the overlap argument against a single-system model."""

    derivable: bool
    reason: str
    witness: tuple | None = None
    common_support_size: int = 0
    response_sum_bound: float | None = None


def pbr_contradiction(model: OntologicalModel) -> PbrOutcome:
    """Can the contradiction be derived against this single-system model?

    Two copies of the modelled system are prepared independently, so the
    joint distribution for preparation psi_a x psi_b is the product
    p(. | psi_a) p(. | psi_b) on Lambda x Lambda.  For any lambda-pair in
    the common support of all four product preparations, consistency with
    the Born rule forces each paired outcome's response to be (nearly)
    zero there; their sum is then bounded away from the 1 that response
    normalization demands.  A revised-mode model never reaches that step
    because each preparation carries its own response function, so the
    four zeros constrain four different functions.  The model prepares |0>
    as ``zero`` and |+> as ``plus``; the bound must fall below 1 - CONSISTENCY_TOL (1e-9).
    """
    if model.mode == "revised":
        return PbrOutcome(
            derivable=False,
            reason=(
                "responses depend on the prepared state: the four forced zeros "
                "apply to four different response functions and never combine"
            ),
        )

    for name in ("zero", "plus"):
        if name not in model.preparations:
            raise ValueError(f"model has no preparation named {name!r}")
    construction = build_pbr_states()
    if construction.zero_diagonal_max() > CONSISTENCY_TOL:
        raise ValueError("construction lost its zero diagonal")

    for name, state in (("zero", basis_state(2, 0)), ("plus", plus_state())):
        if born_probability(model.catalog[name], state) < 1 - 1e-9:
            raise ValueError(
                f"preparation {name!r} must prepare the corresponding qubit state"
            )

    p_zero = model.preparations["zero"]
    p_plus = model.preparations["plus"]
    singles = (p_zero, p_zero, p_plus, p_plus)
    partners = (p_zero, p_plus, p_zero, p_plus)
    products = [np.outer(a, b) for a, b in zip(singles, partners)]

    common = np.ones_like(products[0], dtype=bool)
    for q in products:
        common &= q > 0
    size = int(common.sum())
    if size == 0:
        return PbrOutcome(
            derivable=False,
            reason="no lambda-pair is shared by all four product preparations",
            common_support_size=0,
        )

    born_diag = construction.probability_table()[
        list(construction.pairing), range(4)
    ]
    q_stack = np.stack([q[common] for q in products])
    bounds = (born_diag[:, None] / q_stack).sum(axis=0)
    best = int(np.argmin(bounds))
    bound = float(bounds[best])
    flat = np.flatnonzero(common.ravel())[best]
    i, j = np.unravel_index(flat, common.shape)
    witness = (model.space.labels[i], model.space.labels[j])
    if bound < 1 - CONSISTENCY_TOL:
        return PbrOutcome(
            derivable=True,
            reason=(
                "responses at the witness lambda-pair can sum to at most "
                f"{bound:.3e}, violating normalization"
            ),
            witness=witness,
            common_support_size=size,
            response_sum_bound=bound,
        )
    return PbrOutcome(
        derivable=False,
        reason="forced response bounds too loose to contradict normalization",
        witness=witness,
        common_support_size=size,
        response_sum_bound=bound,
    )


# ---------------------------------------------------------------------------
# concrete models
# ---------------------------------------------------------------------------


def build_box_nomological_model(n_cells: int = 64, levels=(1, 2)) -> OntologicalModel:
    """Revised-mode model of a particle at rest inside a box.

    The ontic state is the particle's position cell.  Preparing energy
    level n distributes position as sin^2(n pi x) over the unit box, and
    an energy measurement on a level-n preparation always returns that
    level's eigenvalue, whatever the position: the response must cite the
    prepared state.  Energy eigenstates are mutually orthogonal yet share
    position support, so the model is psi-epistemic by construction.
    """
    levels = tuple(int(n) for n in levels)
    if len(set(levels)) != len(levels) or any(n < 1 for n in levels):
        raise ValueError("levels must be distinct positive integers")
    centers = (np.arange(n_cells) + 0.5) / n_cells
    labels = tuple(f"cell-{i:03d}" for i in range(n_cells))
    names = [f"E{n}" for n in levels]

    preparations = {}
    for name, n in zip(names, levels):
        weights = np.sin(n * np.pi * centers) ** 2
        preparations[name] = weights / weights.sum()

    dim = len(levels)
    catalog = {name: basis_state(dim, i) for i, name in enumerate(names)}
    measurement = ProjectiveMeasurement(tuple(basis_state(dim, i) for i in range(dim)))

    responses = {
        "energy": {
            name: np.tile(
                np.eye(dim)[:, [i]], (1, n_cells)
            )
            for i, name in enumerate(names)
        }
    }
    return OntologicalModel(
        space=OnticSpace(labels),
        catalog=catalog,
        preparations=preparations,
        measurements={"energy": measurement},
        responses=responses,
        mode="revised",
    )


def standard_projection(model: OntologicalModel) -> OntologicalModel:
    """Forget the preparation dependence by averaging responses over psi.

    This is the cheapest way to force a revised model into standard form;
    for the box model it breaks Born-rule consistency, showing the
    preparation dependence was doing real work.
    """
    if model.mode != "revised":
        raise ValueError("only revised models can be projected")
    responses = {
        m_name: np.mean([t for t in table.values()], axis=0)
        for m_name, table in model.responses.items()
    }
    return OntologicalModel(
        space=model.space,
        catalog=model.catalog,
        preparations={k: v.copy() for k, v in model.preparations.items()},
        measurements=model.measurements,
        responses=responses,
        mode="standard",
    )


def double_sum_diagnostic(model: OntologicalModel, measurement: str) -> dict:
    """Sum of revised responses over outcomes AND preparations, per lambda.

    Each preparation's response column is normalized on its own, so this
    double sum equals the number of preparations, not 1.  Reported as a
    diagnostic of how the revised normalization bookkeeping differs from
    the standard one; nothing in the model enforces it to be 1.
    """
    if model.mode != "revised":
        raise ValueError("double-sum diagnostic applies to revised models")
    table = model.responses[measurement]
    per_lambda = np.zeros(model.space.size)
    for t in table.values():
        per_lambda += t.sum(axis=0)
    return {
        "per_lambda": {s: float(v) for s, v in zip(model.space.labels, per_lambda)},
        "n_preparations": len(table),
        "equals_one": bool(np.allclose(per_lambda, 1.0)),
    }


@dataclass(frozen=True)
class DistinctnessReport:
    """Overlap of preparation distributions for orthogonal state pairs.

    Each row is (name_a, name_b, overlap, distinguishing_measurement); the
    measurement entry is None when the model contains no measurement whose
    Born outcome supports separate the pair, in which case nothing can be
    concluded about that pair and it does not count against ``passed``.
    """

    pairs: tuple
    worst_overlap: float
    tol: float
    passed: bool


def _distinguishing_measurement(model, a, b):
    """Name of a measurement whose outcome supports (Born probabilities above
    1e-12) split states a and b."""
    for m_name, m in model.measurements.items():
        born_a = measurement_distribution(model.catalog[a], m)
        born_b = measurement_distribution(model.catalog[b], m)
        if np.all(np.minimum(born_a, born_b) <= 1e-12):
            return m_name
    return None


def orthogonal_distinctness_check(model: OntologicalModel) -> DistinctnessReport:
    """Orthogonal states must get disjoint distributions in a standard model.

    The argument needs a measurement that distinguishes the pair with
    certainty (disjoint Born outcome supports): consistency then forces
    the response at any shared lambda to answer both ways at once.  Pairs
    with such a measurement and overlapping distributions are violations;
    a model carrying them cannot satisfy the Born rule, and consistency
    checking locates the failure.  Revised-mode models escape the
    argument, so they are rejected here.  Orthogonal means |<a|b>| <= 1e-12,
    overlapping sharing more than OVERLAP_TOL (1e-12).
    """
    if model.mode != "standard":
        raise ValueError(
            "distinctness of orthogonal states is only derivable in standard mode"
        )
    names = sorted(model.catalog)
    pairs = []
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            if abs(model.catalog[a].inner(model.catalog[b])) <= 1e-12:
                o = distribution_overlap(model.preparations[a], model.preparations[b])
                m_name = _distinguishing_measurement(model, a, b)
                pairs.append((a, b, o, m_name))
                if m_name is not None:
                    worst = max(worst, o)
    return DistinctnessReport(tuple(pairs), worst, OVERLAP_TOL, worst <= OVERLAP_TOL)


def build_trivial_ontic_model(catalog: dict, measurements: dict) -> OntologicalModel:
    """One ontic state per preparation, responses read off the Born rule.

    The maximally psi-ontic model: distributions never overlap, so the
    two-system argument finds an empty common support.
    """
    names = sorted(catalog)
    space = OnticSpace(tuple(f"lambda-{n}" for n in names))
    preparations = {n: np.eye(len(names))[i] for i, n in enumerate(names)}
    responses = {}
    for m_name, m in measurements.items():
        table = np.zeros((len(m.basis), len(names)))
        for i, n in enumerate(names):
            table[:, i] = measurement_distribution(catalog[n], m)
        responses[m_name] = table
    return OntologicalModel(
        space=space,
        catalog=dict(catalog),
        preparations=preparations,
        measurements=dict(measurements),
        responses=responses,
        mode="standard",
    )


def build_revised_overlap_model(catalog: dict, measurements: dict) -> OntologicalModel:
    """Single shared ontic state, responses cite the preparation.

    Every preparation gets the same (trivial) distribution, the maximal
    overlap an epistemic reading could want, yet the Born rule holds
    because each response table simply quotes the prepared state's
    statistics.  The two-system argument reports not-derivable.
    """
    space = OnticSpace(("lambda-shared",))
    preparations = {n: np.array([1.0]) for n in catalog}
    responses = {}
    for m_name, m in measurements.items():
        responses[m_name] = {
            n: measurement_distribution(catalog[n], m).reshape(-1, 1)
            for n in catalog
        }
    return OntologicalModel(
        space=space,
        catalog=dict(catalog),
        preparations=preparations,
        measurements=dict(measurements),
        responses=responses,
        mode="revised",
    )


def random_epistemic_model(
    overlap: float,
    seed: int,
    n_shared: int = 4,
    n_exclusive: int = 6,
) -> OntologicalModel:
    """Random consistent standard model for |0> and |+> with a set overlap.

    Lambda splits into shared cells (carrying exactly ``overlap`` of both
    distributions, cell by cell), |0>-only cells, and |+>-only cells.  A
    computational-basis measurement is included and answered exactly: it
    forces outcome 0 wherever |0> has support, which caps the achievable
    overlap at 1/2 (the Born probability of outcome 0 for |+>).
    """
    if not 0 < overlap <= 0.5:
        raise ValueError(f"overlap must lie in (0, 0.5], got {overlap}")
    rng = np.random.default_rng(seed)
    n_total = n_shared + 2 * n_exclusive
    labels = tuple(f"lambda-{i:02d}" for i in range(n_total))
    shared = slice(0, n_shared)
    only_zero = slice(n_shared, n_shared + n_exclusive)
    only_plus = slice(n_shared + n_exclusive, n_total)

    def random_mass(n, total):
        w = rng.dirichlet(np.ones(n))
        return w * total

    shared_mass = random_mass(n_shared, overlap)
    p_zero = np.zeros(n_total)
    p_plus = np.zeros(n_total)
    p_zero[shared] = shared_mass
    p_plus[shared] = shared_mass
    p_zero[only_zero] = random_mass(n_exclusive, 1 - overlap)
    p_plus[only_plus] = random_mass(n_exclusive, 1 - overlap)

    # outcome 0 is certain on supp(|0>); the |+>-only cells absorb the rest
    r0 = np.zeros(n_total)
    r0[shared] = 1.0
    r0[only_zero] = 1.0
    r0[only_plus] = (0.5 - overlap) / (1 - overlap)
    responses = {"z": np.stack([r0, 1 - r0])}

    catalog = {"zero": basis_state(2, 0), "plus": plus_state()}
    measurement = ProjectiveMeasurement((basis_state(2, 0), basis_state(2, 1)))
    return OntologicalModel(
        space=OnticSpace(labels),
        catalog=catalog,
        preparations={"zero": p_zero, "plus": p_plus},
        measurements={"z": measurement},
        responses=responses,
        mode="standard",
    )
