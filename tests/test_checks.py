import gc
import itertools
import json
import weakref

import numpy as np
import pytest

from htfoliation import checks, cli, models
from htfoliation import foliation as fol
from htfoliation.clifford import build_representation
from htfoliation.errors import (DegenerateFrameError, InvalidModelError,
                                NotApplicableError)
from htfoliation.foliation import FoliationModel
from htfoliation.geometry import Polynomial, PolyField, sample_points
from symbolic_oracles import from_terms


def sheared_heisenberg():
    """Heisenberg model whose vertical field is tilted into the horizontal
    directions, breaking the bundle-like property."""
    heis = models.get_model("heisenberg")
    N = heis.ambient_dim
    bad_vertical = PolyField([
        from_terms(N, {(1, 0, 0): 0.3}),
        Polynomial.zero(N),
        Polynomial.constant(N, 1.0)])
    return FoliationModel("sheared", "group", heis.chart, heis.n, heis.m, 1.0,
                          [bad_vertical], heis.horizontal_fields)


def sheared_s3():
    """S^3 whose circle action is sheared (Z = A p with A no longer skew), so
    Z is no Killing field, the metric is not bundle-like, and the horizontal
    spanning fields have rank 3 where n = 2."""
    shear = models._complex_structure(4)
    shear[0, 2] = 0.5
    return models._sphere_model("sheared-s3", shear[None], 4.0)


def tilted_heisenberg_quat():
    """Quaternionic Heisenberg model with Z_0 tilted by 0.3 z_0 d/dx_0, so
    that the vertical span is no longer the centre of the group."""
    hq = models.get_model("heisenberg-quat")
    N, n = hq.ambient_dim, hq.n
    z0 = tuple(1 if i == n else 0 for i in range(N))
    comps = list(hq.vertical_fields[0].components)
    comps[0] = from_terms(N, {z0: 0.3})
    vertical = [PolyField(comps)] + list(hq.vertical_fields[1:])
    return FoliationModel("tilted", "group", hq.chart, hq.n, hq.m, 1.0,
                          vertical, hq.horizontal_fields)


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

    def test_sheared_sphere_fails_without_a_frame(self):
        # this model has no adapted frame, and the check builds none
        model = sheared_s3()
        with pytest.raises(DegenerateFrameError,
                           match="horizontal span has rank 3, expected 2, "
                                 "at point 0"):
            model.frame_batch(sample_points(model.chart, 16, 1))
        rep = checks.check_foliation_axioms(model, points=16, seed=1)
        assert rep.status == "fail"

    def test_indefinite_metric_is_named(self):
        # at point 5 of the sample the sheared metric is indefinite on the
        # tangent space p^perp (the ambient G reads -0.189 there)
        model = sheared_s3()
        with pytest.raises(InvalidModelError,
                           match=r"metric is not positive definite at point "
                                 r"0: smallest eigenvalue -1\.498e-01 on the "
                                 r"tangent space"):
            model.frame_batch(sample_points(model.chart, 16, 1)[5:6])


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

    @pytest.mark.parametrize("name", [
        "heisenberg", "heisenberg-quat", "heisenberg-quat-mixed",
        "heisenberg-oct", "complex-hopf-s3", "complex-hopf-s5",
        "quaternionic-hopf-s7", "quaternionic-hopf-s11"])
    def test_products_match_einsum(self, name, catalog_models):
        # sym(J_a^T J_b) from one product J^T J per point
        model = catalog_models[name]
        J = fol.j_endomorphisms(checks.frame_batch_for(model, 16, 3))
        want = 0.5 * (np.einsum("pakl,pbkm->pablm", J, J)
                      + np.einsum("pbkl,pakm->pablm", J, J))
        got = checks._sym_products(J)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()

    def test_non_h_type_group_fails(self):
        rep = checks.check_h_type(degenerate_two_step(), points=8, seed=1)
        assert rep.status == "fail"

    def test_fit_made_once_per_batch(self, monkeypatch):
        # parallel-clifford reads the fit that h-type made on its batch; a
        # new model has no batch yet
        model = models.get_model("heisenberg-quat")
        fits = []
        sym_products = checks._sym_products
        monkeypatch.setattr(checks, "_sym_products",
                            lambda J: fits.append(1) or sym_products(J))
        assert checks.check_h_type(model, points=8, seed=1).status == "pass"
        rep = checks.check_parallel_clifford(model, points=8, seed=1)
        assert rep.status == "pass"
        assert len(fits) == 1


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


class TestCliffordFit:
    """The fit of check_parallel_clifford on synthetic arrays.

    No model input makes the check fail: it reaches the fit only on models
    that pass the H-type fit and have horizontally parallel torsion, and it
    rejects every other model with InvalidModelError before the fit.  Those
    are the hypotheses of the paper's structure result, under which the
    vertical Clifford derivative is -kappa z_a . z_b with one constant
    kappa, so the fit is fed arrays that break that conclusion."""

    J = build_representation(3, 1).generators              # (3, 4, 4)

    def inputs(self, kappas, J=None):
        """J at len(kappas) points and nt_v with (nabla_{z_a} J)_{z_b} =
        -kappa J_a J_b for a != b (as the transposed endomorphism)."""
        J = self.J if J is None else J
        m, n = J.shape[:2]
        nt_v = np.zeros((len(kappas), m, m, n, n))
        for p, kappa in enumerate(kappas):
            for a in range(m):
                for b in range(m):
                    if a != b:
                        nt_v[p, a, b] = (-kappa * J[a] @ J[b]).T
        return np.broadcast_to(J, (len(kappas),) + J.shape), nt_v

    @staticmethod
    def report(J, nt_v):
        worst, details = checks.clifford_fit(J, nt_v)
        return checks.CheckReport.from_residual(
            "parallel-clifford", worst, checks.TOL_CURVATURE, J.shape[0],
            details)

    def test_constant_kappa_passes(self):
        rep = self.report(*self.inputs([2.0, 2.0]))
        assert rep.status == "pass"
        assert abs(rep.details["kappa"] - 2.0) < 1e-12

    def test_off_blade_component_fails(self):
        J, nt_v = self.inputs([2.0, 2.0])
        nt_v[:, 0, 1] += 0.1 * (self.J[1] @ self.J[2]).T   # blade (1, 2)
        rep = self.report(J, nt_v)
        assert rep.status == "fail"
        assert abs(rep.details["off_blade"] - 0.1) < 1e-12

    def test_varying_kappa_fails(self):
        rep = self.report(*self.inputs([2.0, 3.0]))
        assert rep.status == "fail"
        assert abs(rep.details["kappa_spread"] - 0.5) < 1e-12

    def test_rank_deficient_design_raises(self):
        J = self.J.copy()
        J[1] = J[0]                         # J_0 J_2 and J_1 J_2 coincide
        with pytest.raises(InvalidModelError, match="rank deficient"):
            checks.clifford_fit(*self.inputs([2.0], J))


def clifford_fit_loop(J, nt_v):
    """The fit of check_parallel_clifford as it was first written, one
    lstsq per point and per (a, b); a test oracle for the batched fit."""
    P, m = J.shape[:2]
    pairs = [(c, d) for c in range(m) for d in range(c + 1, m)]
    worst_fit = 0.0
    off_blade = 0.0
    kappa_estimates = []
    for p in range(P):
        design = np.stack([(J[p, c] @ J[p, d]).ravel() for (c, d) in pairs],
                          axis=1)
        if np.linalg.matrix_rank(design, tol=1e-8) < len(pairs):
            raise InvalidModelError(
                "grade-two operator images are rank deficient; the vertical "
                "Clifford fit is not identifiable on this model")
        for a in range(m):
            for b in range(m):
                target = nt_v[p, a, b].T.ravel()
                psi, *_ = np.linalg.lstsq(design, target, rcond=None)
                worst_fit = max(worst_fit,
                                float(np.abs(design @ psi - target).max()))
                for idx, (c, d) in enumerate(pairs):
                    if a != b and (c, d) == (min(a, b), max(a, b)):
                        sign = 1.0 if a < b else -1.0
                        kappa_estimates.append(-sign * float(psi[idx]))
                    else:
                        off_blade = max(off_blade, abs(float(psi[idx])))
    kappa = float(np.mean(kappa_estimates))
    spread = float(np.abs(np.asarray(kappa_estimates) - kappa).max())
    return max(worst_fit, off_blade, spread), {
        "kappa": kappa, "kappa_spread": spread, "fit_residual": worst_fit,
        "off_blade": off_blade}


class TestCliffordFitAgainstLoop:
    """The batched fit reproduces the per-point loop within 1e-12."""

    @staticmethod
    def assert_same_fit(J, nt_v):
        worst, details = checks.clifford_fit(J, nt_v)
        want_worst, want = clifford_fit_loop(J, nt_v)
        assert abs(worst - want_worst) <= 1e-12
        for key in ("kappa", "kappa_spread", "off_blade", "fit_residual"):
            assert abs(details[key] - want[key]) <= 1e-12, key

    def test_synthetic_inputs(self):
        fit = TestCliffordFit()
        J, nt_v = fit.inputs([2.0, 2.0])
        self.assert_same_fit(J, nt_v)
        self.assert_same_fit(*fit.inputs([2.0, 3.0]))
        nt_v = nt_v.copy()
        nt_v[:, 0, 1] += 0.1 * (fit.J[1] @ fit.J[2]).T
        self.assert_same_fit(J, nt_v)

    @pytest.mark.parametrize("name", ["heisenberg-oct",
                                      "quaternionic-hopf-s7"])
    def test_catalog_models(self, name, catalog_models):
        fb = checks.frame_batch_for(catalog_models[name], 8, 5)
        J = checks.j_endomorphisms(fb)
        nt_v = checks.nabla_t_components(fb, "v")
        self.assert_same_fit(J, nt_v)
        # a perturbed nt_v, so that every detail is away from zero
        rng = np.random.default_rng(0)
        self.assert_same_fit(J, nt_v + 1e-3 * rng.standard_normal(nt_v.shape))

    def test_rank_deficient_raises_the_same_error(self):
        fit = TestCliffordFit()
        J = fit.J.copy()
        J[1] = J[0]
        inputs = fit.inputs([2.0, 2.0], J)
        errors = []
        for fn in (checks.clifford_fit, clifford_fit_loop):
            with pytest.raises(InvalidModelError) as exc:
                fn(*inputs)
            errors.append(str(exc.value))
        assert errors[0] == errors[1]


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


def commutator_by_einsum(rh_endo, J, t_comp, nt_v, kappa):
    """The residuals of ``checks._commutator_residuals`` from their
    definition, one einsum per term over every (i, j, a) at once, in the
    layout [p, i, j, a, k, u]: [R_H(x_i, x_j), J_a] against
    sum_b T^b_ij (nabla_b J)_a + sum_b (nabla_a T)^b_ij J_b and against
    kappa sum_{b != a} ((J_b)_ji J_a J_b - (J_a J_b)_ji J_b)."""
    m = J.shape[1]
    comm = (np.einsum("pijkl,palu->pijaku", rh_endo, J)
            - np.einsum("pakl,pijlu->pijaku", J, rh_endo))
    cov = (np.einsum("pbij,pbauk->pijaku", t_comp, nt_v)
           + np.einsum("pabij,pbku->pijaku", nt_v, J))
    pairs = np.einsum("pakl,pblu->pabku", J, J)
    pairs[:, np.arange(m), np.arange(m)] = 0.0
    kap = (np.einsum("pbji,pabku->pijaku", J, pairs)
           - np.einsum("pabji,pbku->pijaku", pairs, J))
    return (float(np.abs(comm - cov).max()),
            0.0 if kappa is None else float(np.abs(comm - kappa * kap).max()))


@pytest.mark.parametrize("n, m", [(2, 1), (4, 3), (8, 3), (8, 7)])
@pytest.mark.parametrize("kappa", [None, 2.0])
def test_commutator_residuals_match_their_definition(n, m, kappa):
    # seeded random inputs, so that no term is zero, with R_H read through
    # the same transposed view of a curvature array as the check reads it
    rng = np.random.default_rng(100 * n + m)
    P = 5
    R = rng.standard_normal((P, n, n + m, n + m, n + m))
    rh_endo = R[:, :, :n, :n, :n].transpose(0, 1, 2, 4, 3)
    J, t_comp = rng.standard_normal((2, P, m, n, n))
    nt_v = rng.standard_normal((P, m, m, n, n))
    got = checks._commutator_residuals(rh_endo, J, t_comp, nt_v, kappa)
    want = commutator_by_einsum(rh_endo, J, t_comp, nt_v, kappa)
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-13 * max(1.0, w), (got, want)
    assert want[0] > 1.0 and (kappa is None or want[1] > 1.0)



def bits(residuals):
    return np.array(residuals, dtype=np.float64).view(np.int64).tolist()


@pytest.mark.parametrize("n, m", [(4, 3), (8, 7)])
@pytest.mark.parametrize("kappa", [None, 0.0, 0.7])
def test_dropped_terms_change_no_bits(n, m, kappa):
    # R_H and nabla T as dense zeros, as zero-strided zeros (which the check
    # does not multiply) or random, with random finite J and torsion: a
    # zero-strided zero gives the residuals of the dense one bit for bit,
    # and a NaN planted in J gives NaN on both routes
    rng = np.random.default_rng(10 * n + m)
    P = 3
    J, t_comp = rng.standard_normal((2, P, m, n, n))
    shapes = ((P, n, n + m, n + m, n + m), (P, m, m, n, n))

    def residuals(J, R, nt_v):
        rh_endo = R[:, :, :n, :n, :n].transpose(0, 1, 2, 4, 3)
        return checks._commutator_residuals(rh_endo, J, t_comp, nt_v, kappa)
    for kinds in itertools.product(("dense", "strided", "random"), repeat=2):
        dense, strided = [], []
        for kind, shape in zip(kinds, shapes):
            a = rng.standard_normal(shape) if kind == "random" \
                else np.zeros(shape)
            dense.append(a)
            strided.append(np.broadcast_to(0.0, shape)
                           if kind == "strided" else a)
        assert bits(residuals(J, *strided)) == bits(residuals(J, *dense)), \
            kinds
        planted = J.copy()
        planted[0, 0, 0, 1] = np.nan
        with np.errstate(invalid="ignore"):
            for args in (strided, dense):
                cov, kap = residuals(planted, *args)
                assert np.isnan(cov) and np.isnan(kap) == (kappa is not None)



def test_residuals_are_combined_keeping_a_nan():
    # the builtin max keeps its first argument against a NaN, so a check
    # that combined its residuals with it could pass on a NaN
    assert max(0.0, np.nan) == 0.0
    assert np.isnan(checks._worst(0.0, np.nan, 1.0))
    assert checks._worst(0.5, np.float64(2.0), 1.0) == 2.0


# Each connection-dependent check on a model or a kappa that breaks it.
BROKEN_INPUTS = {
    "yang-mills-sheared": lambda s7: [
        checks.check_yang_mills(sheared_heisenberg(), points=8, seed=1)],
    "torsion-class-sheared": lambda s7: [
        checks.check_torsion_class(sheared_heisenberg(), points=8, seed=1)],
    "oneill-sheared": lambda s7: [
        checks.check_oneill(sheared_heisenberg(), points=8, seed=1)],
    "lemma-identities-tilted": lambda s7: checks.check_lemma_identities(
        tilted_heisenberg_quat(), points=8, seed=1, kappa=0.0),
    "einstein-s7-kappa-1": lambda s7: [
        checks.check_einstein(s7, points=8, seed=1, kappa=1.0)],
    # not S^3 or S^5: on a circle fibration (m = 1) curvature constancy
    # holds at every kappa, so only an m = 3 model shows a wrong one
    "curvature-constancy-s7-kappa-1": lambda s7: [
        checks.check_curvature_constancy(s7, 1.0, points=8, seed=1)],
    # as verify runs it: K 1e-9 below the sampled minimum of Ric_H (-0.5007)
    "cd-sheared": lambda s7: [cli.CHECKS["cd"](
        sheared_heisenberg(), cli.RunConfig(points=8, seed=1, heavy_points=8),
        None)],
}


@pytest.mark.parametrize("case", sorted(BROKEN_INPUTS))
def test_connection_dependent_checks_can_fail(case, s7):
    reports = BROKEN_INPUTS[case](s7)
    assert len(reports) == (6 if case == "lemma-identities-tilted" else 1)
    for rep in reports:
        assert rep.status == "fail", rep.check_name
        assert rep.max_residual > 100 * rep.tolerance, rep.check_name


def test_lemma_residuals_cover_every_component():
    # on the tilted model, each reported residual is the largest entry of
    # the identity evaluated as one array over every component
    model = tilted_heisenberg_quat()
    reports = {r.check_name: r.max_residual for r in
               checks.check_lemma_identities(model, points=8, seed=1,
                                             kappa=0.5)}
    fb = checks.frame_batch_for(model, 8, 1)
    n = model.n
    full = fol.curvature_components(fb, "all", "all", "all")
    nt = fol.nabla_t_frame(fb)
    resid = full.copy()
    resid[:, :n, :n, :n] = 0.0
    resid[:, n:, n:, n:] = 0.0
    resid -= nt.transpose(0, 2, 3, 1, 4)
    T, J = fol.torsion_components(fb), fol.j_endomorphisms(fb)
    nt_v = fol.nabla_t_components(fb, "v")
    rh = full[:, :n, :n, :n, :n].transpose(0, 1, 2, 4, 3)
    comm = (np.einsum("pijkl,palu->pijaku", rh, J)
            - np.einsum("pakl,pijlu->pijaku", J, rh))
    cov = (np.einsum("pbij,pbaku->pijaku", T, nt_v.transpose(0, 1, 2, 4, 3))
           + np.einsum("pabij,pbku->pijaku", nt_v, J))
    kap = np.zeros_like(comm)
    for a in range(model.m):
        for b in set(range(model.m)) - {a}:
            jab = J[:, a] @ J[:, b]
            kap[:, :, :, a] += 0.5 * (
                np.einsum("pji,pkl->pijkl", J[:, b], jab)
                - np.einsum("pji,pkl->pijkl", jab, J[:, b]))
    for name, want in (("curvature-decomposition", np.abs(resid).max()),
                       ("commutator-covariant", np.abs(comm - cov).max()),
                       ("commutator-kappa", np.abs(comm - kap).max())):
        assert want > 1e-3, name
        assert reports[name] == pytest.approx(want, rel=1e-12), name


def test_decomposition_subtracts_nabla_t_on_every_block(monkeypatch):
    # with R replaced by zero, the decomposition residual is the largest
    # entry of (nabla_W T)(U, V) over every component; on the tilted model
    # it lies in the all-horizontal and all-vertical blocks, which R_H and
    # R_V cancel in R but not in nabla T
    model = tilted_heisenberg_quat()
    fb = checks.frame_batch_for(model, 8, 1)
    n = model.n
    nt = fol.nabla_t_frame(fb).transpose(0, 2, 3, 1, 4)    # [p, u, v, w]
    same = np.zeros(nt.shape[1:4], dtype=bool)
    same[:n, :n, :n] = same[n:, n:, n:] = True
    assert np.abs(nt[:, same]).max() > 1.5 * np.abs(nt[:, ~same]).max()
    real = checks.curvature_components
    monkeypatch.setattr(checks, "curvature_components",
                        lambda *args: np.zeros_like(real(*args)))
    reports = {r.check_name: r.max_residual for r in
               checks.check_lemma_identities(model, points=8, seed=1)}
    assert reports["curvature-decomposition"] == pytest.approx(
        np.abs(nt).max(), rel=1e-12)


@pytest.mark.parametrize("kinds", ["".join(k) for k in
                                   itertools.product("hv", repeat=3)])
def test_decomposition_cancels_only_same_kind_blocks_of_r(kinds, monkeypatch):
    # R is one unit entry R(U, V)W with U, V, W of the given kinds, and nabla T
    # is zero: R_H and R_V cancel it only when all three are of one kind
    model = models.get_model("heisenberg-quat")
    n = model.n
    real_r, real_nt = checks.curvature_components, checks.nabla_t_frame
    pos = [0 if k == "h" else n for k in kinds]

    def spike(fb, domain, *rest):
        out = np.zeros_like(real_r(fb, domain, *rest))
        if domain == kinds[0]:
            out[:, 0, pos[1], pos[2], 0] = 1.0
        return out
    monkeypatch.setattr(checks, "curvature_components", spike)
    monkeypatch.setattr(checks, "nabla_t_frame",
                        lambda *args: np.zeros_like(real_nt(*args)))
    reports = {r.check_name: r.max_residual for r in
               checks.check_lemma_identities(model, points=4, seed=1)}
    want = 0.0 if len(set(kinds)) == 1 else 1.0
    assert reports["curvature-decomposition"] == want


class TestReportSerialization:
    def test_schema_and_invariant(self, heis):
        rep = checks.check_h_type(heis, points=8, seed=1)
        blob = json.loads(json.dumps(rep.to_json()))
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
