import gc
import json
import weakref

import numpy as np
import pytest

from htfoliation import checks, cli, models
from htfoliation.errors import InvalidModelError, NotApplicableError
from htfoliation.foliation import FoliationModel
from htfoliation.geometry import Polynomial, PolyField


def sheared_heisenberg():
    """Heisenberg model whose vertical field is tilted into the horizontal
    directions, breaking the bundle-like property."""
    heis = models.get_model("heisenberg")
    N = heis.ambient_dim
    bad_vertical = PolyField([
        Polynomial.from_dict(N, {(1, 0, 0): 0.3}),
        Polynomial.zero(N),
        Polynomial.constant(N, 1.0)])
    return FoliationModel("sheared", "group", heis.chart, heis.n, heis.m, 1.0,
                          [bad_vertical], heis.horizontal_fields,
                          generators=heis.generators)


def degenerate_two_step():
    """A two-step group from a rank-deficient skew matrix; still a totally
    geodesic foliation, but not of H-type."""
    A = np.zeros((1, 3, 3))
    A[0, 0, 1], A[0, 1, 0] = 1.0, -1.0
    return models.group_model_from_matrices(A, name="rank-deficient",
                                            require_htype=False)


class TestFoliationAxioms:
    def test_all_catalog_models_pass(self, catalog_models):
        for name, model in catalog_models.items():
            rep = checks.check_foliation_axioms(model, points=16, seed=1)
            assert rep.status == "pass", name

    def test_heisenberg_residual_exactly_zero(self, heis):
        rep = checks.check_foliation_axioms(heis, points=16, seed=1)
        assert rep.max_residual == 0.0

    def test_sheared_vertical_fails(self):
        rep = checks.check_foliation_axioms(sheared_heisenberg(),
                                            points=16, seed=1)
        assert rep.status == "fail"


class TestHType:
    def test_round_spheres_report_lambda_four(self, round_s3, round_s7):
        for model in (round_s3, round_s7):
            rep = checks.check_h_type(model, points=16, seed=1)
            assert rep.status == "fail"
            assert abs(rep.details["lambda"] - 4.0) < 1e-9

    def test_normalized_models_pass(self, catalog_models):
        for name in ("heisenberg", "heisenberg-quat", "heisenberg-oct",
                     "heisenberg-quat-mixed", "complex-hopf-s3",
                     "complex-hopf-s5", "quaternionic-hopf-s7"):
            rep = checks.check_h_type(catalog_models[name], points=16, seed=1)
            assert rep.status == "pass", name
            assert abs(rep.details["lambda"] - 1.0) < 1e-12

    def test_non_h_type_group_fails(self):
        rep = checks.check_h_type(degenerate_two_step(), points=8, seed=1)
        assert rep.status == "fail"


class TestYangMills:
    def test_groups_exact_zero(self, heis_quat, heis_oct):
        for model in (heis_quat, heis_oct):
            rep = checks.check_yang_mills(model, points=8, seed=1)
            assert rep.max_residual == 0.0

    def test_hopf_models(self, s3, s7):
        for model in (s3, s7):
            rep = checks.check_yang_mills(model, points=8, seed=1)
            assert rep.status == "pass"

    def test_non_h_type_group_reports_residual(self):
        # no structural claim here; the trace is measured and reported
        rep = checks.check_yang_mills(degenerate_two_step(), points=8, seed=1)
        assert rep.max_residual < 1e-12


class TestTorsionClass:
    def test_groups_completely_parallel(self, heis, heis_quat, heis_oct):
        for model in (heis, heis_quat, heis_oct):
            label, _ = checks.classify_torsion(model, points=8, seed=1)
            assert label == "completely-parallel"

    def test_complex_hopf_measures_completely_parallel(self, s3):
        label, details = checks.classify_torsion(s3, points=8, seed=1)
        assert label == "completely-parallel"

    def test_quaternionic_hopf_horizontally_parallel_only(self, s7):
        label, details = checks.classify_torsion(s7, points=8, seed=1)
        assert label == "horizontally-parallel"
        assert details["full_residual"] > 1.0          # vertical derivative lives
        assert details["horizontal_residual"] < 1e-12

    def test_expected_class_comparison(self, s7):
        rep = checks.check_torsion_class(s7, expected="horizontally-parallel",
                                         points=8, seed=1)
        assert rep.status == "pass"
        rep = checks.check_torsion_class(s7, expected="completely-parallel",
                                         points=8, seed=1)
        assert rep.status == "fail"


class TestParallelClifford:
    def test_groups_have_kappa_zero(self, heis_quat, heis_oct):
        for model in (heis_quat, heis_oct):
            rep = checks.check_parallel_clifford(model, points=8, seed=1)
            assert rep.status == "pass"
            assert abs(rep.details["kappa"]) < 1e-12

    def test_s7_kappa_two(self, s7):
        rep = checks.check_parallel_clifford(s7, points=8, seed=1)
        assert rep.status == "pass"
        assert abs(rep.details["kappa"] - 2.0) < 1e-12

    def test_m1_reports_zero_map(self, s3):
        rep = checks.check_parallel_clifford(s3, points=8, seed=1)
        assert rep.status == "pass"
        assert rep.details["kappa"] is None
        assert rep.details["psi"] == "zero"

    def test_unnormalized_model_rejected(self, round_s7):
        with pytest.raises(InvalidModelError):
            checks.check_parallel_clifford(round_s7, points=8, seed=1)


class TestQuaternionicDetection:
    def test_group_pure_is_quaternionic(self, heis_quat):
        rep = checks.detect_quaternionic(heis_quat, points=4, seed=1)
        assert rep.status == "quaternionic"
        assert rep.sigma_scalar in (1, -1)

    def test_group_mixed_splits_evenly(self, heis_mixed):
        rep = checks.detect_quaternionic(heis_mixed, points=4, seed=1)
        assert rep.status == "non-quaternionic"
        assert (rep.dim_plus, rep.dim_minus) == (4, 4)

    def test_s7_is_quaternionic(self, s7):
        rep = checks.detect_quaternionic(s7, points=4, seed=1)
        assert rep.status == "quaternionic"

    def test_m_not_three_not_applicable(self, s3, heis_oct):
        for model in (s3, heis_oct):
            assert checks.detect_quaternionic(model).status == "not-applicable"


class TestEinstein:
    def test_s7_constant_twelve(self, s7):
        rep = checks.check_einstein(s7, points=8, seed=1)
        assert rep.status == "pass"
        assert abs(rep.details["measured_constant"] - 12.0) < 1e-9

    def test_groups_ricci_flat(self, heis_quat, heis_oct, heis_mixed):
        for model in (heis_quat, heis_oct, heis_mixed):
            rep = checks.check_einstein(model, points=8, seed=1)
            assert rep.status == "pass"
            assert abs(rep.details["measured_constant"]) < 1e-12

    def test_mixed_uses_involution_formula(self, heis_mixed):
        rep = checks.check_einstein(heis_mixed, points=8, seed=1)
        assert "sigma" in rep.details["formula"]

    def test_m1_not_applicable(self, s3):
        with pytest.raises(NotApplicableError):
            checks.check_einstein(s3, points=8, seed=1)


class TestCurvatureConstancy:
    def test_s3_round_scale(self, s3):
        rep = checks.check_curvature_constancy(s3, kappa=2.0, points=8, seed=1)
        assert rep.status == "pass"
        assert rep.details["ghat_round_residual"] < 1e-12

    def test_zero_kappa_rejected(self, heis):
        with pytest.raises(InvalidModelError):
            checks.check_curvature_constancy(heis, kappa=0.0)


class TestONeill:
    def test_groups(self, heis, heis_quat):
        for model in (heis, heis_quat):
            rep = checks.check_oneill(model, points=8, seed=1)
            assert rep.status == "pass"

    def test_complex_hopf(self, s3):
        rep = checks.check_oneill(s3, points=8, seed=1)
        assert rep.status == "pass"


class TestLemmaIdentities:
    def test_groups_exact(self, heis_quat):
        reports = checks.check_lemma_identities(heis_quat, points=8, seed=1,
                                                kappa=0.0)
        for rep in reports:
            assert rep.status == "pass", rep.check_name
            assert rep.max_residual == 0.0, rep.check_name

    def test_complex_hopf(self, s3):
        for rep in checks.check_lemma_identities(s3, points=8, seed=1):
            assert rep.status == "pass", rep.check_name


class TestReportSerialization:
    def test_schema_and_invariant(self, heis):
        rep = checks.check_h_type(heis, points=8, seed=1)
        blob = json.loads(checks.reports_to_json([rep]))[0]
        assert set(blob) == {"check", "status", "max_residual", "tolerance",
                             "points", "details"}
        assert (blob["status"] == "pass") == \
            (blob["max_residual"] <= blob["tolerance"])


class TestFrameBatchCache:
    def test_finished_model_is_freed_without_gc(self):
        model = models.get_model("complex-hopf-s3")
        rows = cli.run_checks(model, cli.DEFAULT_CHECKS,
                              cli.RunConfig(points=4, heavy_points=4))
        assert {r["status"] for r in rows} == {"pass", "skipped"}
        # three-index tensors are cached only as values in the point batch
        assert not {"nabla_t", "curvature", "lc_curvature"} & model._tables.keys()
        ref = weakref.ref(model)
        gc.disable()
        try:
            del model
            assert ref() is None
        finally:
            gc.enable()

    def test_copy_outlives_the_model_that_built_the_batch(self):
        model = models.get_model("heisenberg-quat")
        first = checks.check_yang_mills(model, points=4)
        # the copy shares the batch cache, whose batch for this key was
        # built for (and refers to) the model deleted here
        copy = model.with_epsilon(model.epsilon)
        del model
        again = checks.check_yang_mills(copy, points=4)
        assert again.status == "pass"
        assert again.to_json() == first.to_json()
