import numpy as np
import pytest

import qflab as qf
from qflab.onticmodels import OnticSpace, OntologicalModel


def z_measurement():
    return qf.ProjectiveMeasurement((qf.basis_state(2, 0), qf.basis_state(2, 1)))


def zero_plus_catalog():
    return {"zero": qf.basis_state(2, 0), "plus": qf.plus_state()}


def injected_overlap_model():
    """Orthogonal pair forced to share an ontic cell; breaks consistency."""
    space = OnticSpace(("l0", "l1", "shared"))
    catalog = {"zero": qf.basis_state(2, 0), "one": qf.basis_state(2, 1)}
    preparations = {
        "zero": np.array([0.8, 0.0, 0.2]),
        "one": np.array([0.0, 0.8, 0.2]),
    }
    responses = {"z": np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])}
    return OntologicalModel(
        space, catalog, preparations, {"z": z_measurement()}, responses, mode="standard"
    )


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestModelValidation:
    def test_negative_mass_rejected(self):
        space = OnticSpace(("a", "b"))
        with pytest.raises(ValueError):
            OntologicalModel(
                space,
                zero_plus_catalog(),
                {"zero": np.array([1.2, -0.2]), "plus": np.array([0.5, 0.5])},
                {"z": z_measurement()},
                {"z": np.array([[1.0, 0.0], [0.0, 1.0]])},
                mode="standard",
            )

    def test_unnormalized_distribution_rejected(self):
        space = OnticSpace(("a", "b"))
        with pytest.raises(ValueError):
            OntologicalModel(
                space,
                zero_plus_catalog(),
                {"zero": np.array([0.7, 0.7]), "plus": np.array([0.5, 0.5])},
                {"z": z_measurement()},
                {"z": np.array([[1.0, 0.0], [0.0, 1.0]])},
                mode="standard",
            )

    def test_response_columns_must_normalize(self):
        space = OnticSpace(("a", "b"))
        with pytest.raises(ValueError):
            OntologicalModel(
                space,
                zero_plus_catalog(),
                {"zero": np.array([1.0, 0.0]), "plus": np.array([0.0, 1.0])},
                {"z": z_measurement()},
                {"z": np.array([[1.0, 0.3], [0.0, 0.3]])},
                mode="standard",
            )

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            OnticSpace(("a", "a"))


# ---------------------------------------------------------------------------
# consistency and classification
# ---------------------------------------------------------------------------


class TestConsistency:
    def test_trivial_model_consistent(self):
        m = qf.build_trivial_ontic_model(zero_plus_catalog(), {"z": z_measurement()})
        rep = qf.check_consistency(m)
        assert rep.passed and rep.max_deviation <= 1e-12

    def test_violation_is_located(self):
        rep = qf.check_consistency(injected_overlap_model())
        assert not rep.passed
        assert abs(rep.max_deviation - 0.2) < 1e-12
        bad = {k for k, v in rep.deviations.items() if v > 1e-9}
        assert bad == {("one", "z")}

    def test_trivial_model_is_psi_ontic(self):
        m = qf.build_trivial_ontic_model(zero_plus_catalog(), {"z": z_measurement()})
        rep = qf.classify(m)
        assert rep.classification == "psi-ontic"
        assert rep.epistemic_pairs == ()

    def test_shared_support_is_psi_epistemic(self):
        m = qf.build_revised_overlap_model(zero_plus_catalog(), {"z": z_measurement()})
        rep = qf.classify(m)
        assert rep.classification == "psi-epistemic"
        assert len(rep.epistemic_pairs) == 1


class TestRandomEpistemicModel:
    def test_exact_overlap_and_consistency(self):
        for seed in range(5):
            m = qf.random_epistemic_model(0.3, seed=seed)
            assert qf.check_consistency(m, tol=1e-12).passed
            got = qf.distribution_overlap(
                m.preparations["zero"], m.preparations["plus"]
            )
            assert abs(got - 0.3) < 1e-12

    def test_overlap_bounds_enforced(self):
        for bad in (0.0, -0.1, 0.6, 1.0):
            with pytest.raises(ValueError):
                qf.random_epistemic_model(bad, seed=0)

    def test_classified_epistemic(self):
        m = qf.random_epistemic_model(0.2, seed=3)
        assert qf.classify(m).classification == "psi-epistemic"


# ---------------------------------------------------------------------------
# antidistinguishing construction and the contradiction engine
# ---------------------------------------------------------------------------


class TestPbrConstruction:
    def test_basis_orthonormal(self):
        c = qf.build_pbr_states()
        assert c.measurement.gram_deviation() <= 1e-12

    def test_zero_diagonal_and_column_sums(self):
        c = qf.build_pbr_states()
        t = c.probability_table()
        assert c.zero_diagonal_max() <= 1e-12
        assert np.max(np.abs(t.sum(axis=0) - 1.0)) <= 1e-12

    def test_off_diagonal_values(self):
        # each unpaired outcome carries 1/4 or 1/2
        t = qf.build_pbr_states().probability_table()
        off = t[~np.eye(4, dtype=bool)]
        assert set(np.round(off, 12)) == {0.25, 0.5}


class TestContradiction:
    def test_epistemic_models_yield_witness(self):
        for seed in range(20):
            m = qf.random_epistemic_model(0.1 + 0.02 * seed, seed=seed)
            out = qf.pbr_contradiction(m)
            assert out.derivable, f"seed {seed}: {out.reason}"
            assert out.witness is not None
            assert out.response_sum_bound < 1.0 - 1e-9
            assert out.common_support_size > 0

    def test_trivial_ontic_model_not_derivable(self):
        m = qf.build_trivial_ontic_model(zero_plus_catalog(), {"z": z_measurement()})
        out = qf.pbr_contradiction(m)
        assert not out.derivable
        assert out.witness is None

    def test_revised_mode_blocks_the_argument(self):
        m = qf.build_revised_overlap_model(zero_plus_catalog(), {"z": z_measurement()})
        out = qf.pbr_contradiction(m)
        assert not out.derivable
        assert "depend on the prepared state" in out.reason


class TestBoxNomologicalModel:
    def test_consistent_to_1e12(self):
        m = qf.build_box_nomological_model()
        rep = qf.check_consistency(m, tol=1e-12)
        assert rep.passed

    def test_eigenstate_pairs_epistemic(self):
        m = qf.build_box_nomological_model()
        rep = qf.classify(m)
        assert rep.classification == "psi-epistemic"
        assert len(rep.epistemic_pairs) == 1

    def test_not_derivable(self):
        out = qf.pbr_contradiction(qf.build_box_nomological_model())
        assert not out.derivable

    def test_standard_projection_breaks_consistency(self):
        m = qf.build_box_nomological_model()
        flat = qf.standard_projection(m)
        assert flat.mode == "standard"
        rep = qf.check_consistency(flat)
        assert not rep.passed
        assert any(v > 1e-3 for v in rep.deviations.values())

    def test_double_sum_diagnostic_counts_preparations(self):
        m = qf.build_box_nomological_model()
        d = qf.double_sum_diagnostic(m, "energy")
        assert d["n_preparations"] == 2
        assert not d["equals_one"]
        vals = np.array(list(d["per_lambda"].values()))
        assert np.allclose(vals, 2.0)


class TestOrthogonalDistinctness:
    def test_consistent_model_has_zero_overlap(self):
        catalog = {"zero": qf.basis_state(2, 0), "one": qf.basis_state(2, 1)}
        m = qf.build_trivial_ontic_model(catalog, {"z": z_measurement()})
        rep = qf.orthogonal_distinctness_check(m)
        assert rep.passed
        assert rep.worst_overlap <= 1e-12
        assert any(p[3] == "z" for p in rep.pairs)

    def test_counter_model_rejected_and_located(self):
        m = injected_overlap_model()
        rep = qf.orthogonal_distinctness_check(m)
        assert not rep.passed
        assert rep.worst_overlap > 0.1
        cons = qf.check_consistency(m)
        assert not cons.passed
        located = {k for k, v in cons.deviations.items() if v > 1e-9}
        assert located == {("one", "z")}

    def test_revised_mode_rejected(self):
        with pytest.raises(ValueError):
            qf.orthogonal_distinctness_check(qf.build_box_nomological_model())
