import importlib.util
from pathlib import Path

import numpy as np
import pytest

from htfoliation import analysis, models
from htfoliation.errors import (BoundNotApplicableError, InvalidModelError,
                                UnsupportedBackendError)
from htfoliation.geometry import (MonomialCache, Polynomial, sample_points)


def _load_oracle():
    # the closed-form Hopf spectra, coded apart from the package
    path = Path(__file__).resolve().parents[1] / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("hopf_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()


class TestSubLaplacian:
    def test_linear_eigenfunctions(self, s3, s7):
        p3 = sample_points(s3.chart, 1, 5)[0]
        x = Polynomial.variable(4, 0)
        assert abs(analysis.sub_laplacian_apply(s3, x, p3) + 2 * p3[0]) < 1e-12
        p7 = sample_points(s7.chart, 1, 5)[0]
        x8 = Polynomial.variable(8, 0)
        assert abs(analysis.sub_laplacian_apply(s7, x8, p7) + 4 * p7[0]) < 1e-12

    def test_constants_killed(self, s7):
        p7 = sample_points(s7.chart, 1, 5)[0]
        one = Polynomial.constant(8, 1.0)
        assert analysis.sub_laplacian_apply(s7, one, p7) == 0.0

    def test_decomposition_oracle(self, s3, s7):
        # the two pieces separately: round Laplacian gives -(N-1) x on
        # coordinates, each vertical square gives -x
        from htfoliation.geometry import directional_derivative, sphere_laplacian
        for model, N in ((s3, 4), (s7, 8)):
            x = Polynomial.variable(N, 0)
            pts = sample_points(model.chart, 8, 5)
            lap_round = sphere_laplacian(x, N).evaluate(pts)
            np.testing.assert_allclose(lap_round, -(N - 1) * pts[:, 0],
                                       atol=1e-13)
            for Z in model.vertical_fields:
                zz = directional_derivative(Z, directional_derivative(Z, x))
                np.testing.assert_allclose(zz.evaluate(pts), -pts[:, 0],
                                           atol=1e-13)

    def test_off_sphere_point_rejected(self, s3):
        with pytest.raises(InvalidModelError):
            analysis.sub_laplacian_apply(s3, Polynomial.variable(4, 0),
                                         np.array([2.0, 0.0, 0.0, 0.0]))

    def test_group_backend(self, heis):
        x = Polynomial.variable(3, 0)
        p = np.array([0.1, 0.2, 0.3])
        assert analysis.sub_laplacian_apply(heis, x, p) == 0.0
        assert analysis.sub_laplacian_apply(heis, x * x, p) == 2.0


class TestGammaCalculus:
    def test_constant_vanishes(self, heis):
        vals = analysis.gamma_calculus(heis, Polynomial.constant(3, 1.0),
                                       np.zeros(3))
        assert all(v == 0.0 for v in vals.values())

    def test_heisenberg_coordinate(self, heis):
        vals = analysis.gamma_calculus(heis, Polynomial.variable(3, 0),
                                       np.array([0.2, -0.4, 0.1]))
        assert vals["gamma"] == 1.0
        assert vals["gamma_v"] == 0.0
        assert vals["delta_f"] == 0.0

    def test_gradient_decomposition_on_sphere(self, s7):
        # |grad f|^2 splits into horizontal + vertical + normal parts; the
        # vertical part in the model metric carries the factor epsilon
        f = Polynomial.variable(8, 0)
        pts = sample_points(s7.chart, 8, 6)
        for p in pts:
            vals = analysis.gamma_calculus(s7, f, p)
            total = vals["gamma"] + vals["gamma_v"] / s7.epsilon + p[0] ** 2
            assert abs(total - 1.0) < 1e-12


class TestRayleighRitz:
    def test_degree_zero(self, s3):
        result = analysis.rayleigh_ritz(s3, 0)
        assert result.eigenvalues == [0.0]

    def test_s3_degree_one_all_twos(self, s3):
        result = analysis.rayleigh_ritz(s3, 1)
        nonzero = [v for v in result.eigenvalues if v > 1e-10]
        np.testing.assert_allclose(nonzero, 2.0, atol=1e-10)

    def test_s3_degree_two_spectrum(self, s3):
        result = analysis.rayleigh_ritz(s3, 2)
        distinct = sorted(set(np.round(result.eigenvalues, 8)))
        assert distinct == [0.0, 2.0, 4.0, 8.0]

    def test_s5_first_eigenvalue_scales_with_base_dimension(self, s5):
        # the circle fibration of S^{2k+1} has lambda_1 = 2k
        result = analysis.rayleigh_ritz(s5, 1)
        assert abs(result.smallest_nonzero() - 4.0) < 1e-10

    def test_spectrum_invariants(self, s3, s7):
        # nonnegative spectrum; constants contribute the zero eigenvalue
        for model in (s3, s7):
            result = analysis.rayleigh_ritz(model, 2)
            assert result.eigenvalues == sorted(result.eigenvalues)
            assert result.eigenvalues[0] >= -1e-10
            assert abs(result.eigenvalues[0]) < 1e-10

    def test_eigenfunctions_satisfy_equation_pointwise(self, s3):
        result = analysis.rayleigh_ritz(s3, 2)
        pts = sample_points(s3.chart, 16, 3)
        cache = MonomialCache(pts)
        for lam, f in zip(result.eigenvalues, result.eigenfunctions):
            lap = analysis.sub_laplacian_poly(s3, f).evaluate(pts, cache)
            residual = np.abs(lap + lam * f.evaluate(pts, cache)).max()
            assert residual < 1e-8

    def test_min_max_monotonicity(self, s3, s7):
        for model in (s3, s7):
            lam_d1 = analysis.rayleigh_ritz(model, 1).smallest_nonzero()
            lam_d2 = analysis.rayleigh_ritz(model, 2).smallest_nonzero()
            assert lam_d2 <= lam_d1 + 1e-10

    def test_group_backend_unsupported(self, heis):
        with pytest.raises(UnsupportedBackendError):
            analysis.rayleigh_ritz(heis, 1)


class TestClosedFormSpectra:
    @pytest.mark.parametrize("name, degree, closed_form, base_dim", [
        ("complex-hopf-s3", 6, oracle.complex_hopf_spectrum, 1),
        ("complex-hopf-s5", 4, oracle.complex_hopf_spectrum, 2),
        ("quaternionic-hopf-s7", 3, oracle.quaternionic_hopf_spectrum, 1),
        ("quaternionic-hopf-s11", 3, oracle.quaternionic_hopf_spectrum, 2),
    ])
    def test_eigenvalues_and_multiplicities(self, name, degree, closed_form,
                                            base_dim, catalog_models):
        result = analysis.rayleigh_ritz(catalog_models[name], degree)
        expected = closed_form(base_dim, degree)
        assert len(result.eigenvalues) == len(expected)
        np.testing.assert_allclose(result.eigenvalues, expected, rtol=0,
                                   atol=1e-12)

    def test_non_killing_vertical_field_is_asymmetric(self, s3):
        # a sheared circle action is not an isometry, so its square is not
        # self-adjoint
        shear = models._complex_structure(4)
        shear[0, 2] = 0.5
        model = models._sphere_model("sheared-s3", shear[None], 4.0)
        assert analysis.rayleigh_ritz(model, 2).gram_asymmetry > 0.1
        assert analysis.rayleigh_ritz(s3, 2).gram_asymmetry < 1e-12


class TestIntegrationByParts:
    @pytest.mark.parametrize("name", ["complex-hopf-s3", "quaternionic-hopf-s7"])
    def test_symmetry_and_dirichlet_form(self, name, catalog_models):
        model = catalog_models[name]
        from htfoliation.foliation import Split
        from htfoliation.geometry import integrate_sphere
        rng = np.random.Generator(np.random.Philox(key=17))
        for _ in range(20):
            f = analysis._sparse_random_polynomial(model.ambient_dim, 3, rng)
            g = analysis._sparse_random_polynomial(model.ambient_dim, 3, rng)
            lf = analysis.sub_laplacian_poly(model, f)
            lg = analysis.sub_laplacian_poly(model, g)
            sym = abs(integrate_sphere(f * lg) - integrate_sphere(g * lf))
            assert sym < 1e-10
            gh = analysis.horizontal_gradient(model, f)
            gamma = model.metric_poly(Split(h=gh), Split(h=gh))
            dirichlet = abs(-integrate_sphere(f * lf) - integrate_sphere(gamma))
            assert dirichlet < 1e-10


class TestCurvatureDimension:
    def test_heisenberg_quat_k_zero(self, heis_quat):
        rep = analysis.check_cd_inequality(heis_quat, K=0.0, fs=10,
                                           points=16, seed=4)
        assert rep.status == "pass"

    def test_heisenberg_quadratics(self, heis):
        rng = np.random.Generator(np.random.Philox(key=3))
        fs = [analysis.random_polynomial(3, 2, rng) for _ in range(20)]
        rep = analysis.check_cd_inequality(heis, K=0.0, fs=fs,
                                           nus=(0.1, 1.0, 10.0),
                                           points=16, seed=4)
        assert rep.status == "pass"

    def test_constant_function_margin_zero(self, heis_quat):
        one = Polynomial.constant(heis_quat.ambient_dim, 1.0)
        rep = analysis.check_cd_inequality(heis_quat, K=0.0, fs=[one],
                                           nus=(1.0,), points=8, seed=4)
        assert rep.details["min_margin"] == 0.0

    def test_nan_k_fails(self, heis):
        rep = analysis.check_cd_inequality(heis, K=float("nan"), fs=2,
                                           points=8, seed=4)
        assert rep.status == "fail"

    def test_excessive_k_rejected(self, heis_quat):
        with pytest.raises(InvalidModelError):
            analysis.check_cd_inequality(heis_quat, K=5.0, fs=2,
                                         points=8, seed=4)


class TestBounds:
    def test_general_arithmetic(self):
        res = analysis.bounds_general(4, 3, 12.0)
        assert abs(res.lambda1_bound - 4.0) < 1e-12
        assert abs(res.diameter_bound - 29.4707513866861) < 1e-10

    def test_clifford_quaternionic(self):
        res = analysis.bounds_clifford(4, 3, 2.0, quaternionic=True)
        assert abs(res.lambda1_bound - 4.0) < 1e-12
        assert analysis.bounds_clifford(8, 3, 2.0, True).lambda1_bound == 8.0

    def test_branch_agreement(self):
        # K = kappa (n/2 + 4) makes the two corollary branches coincide
        for n in (4, 8, 12):
            kappa = 2.0
            K = kappa * (n / 2 + 4)
            a = analysis.bounds_general(n, 3, K)
            b = analysis.bounds_clifford(n, 3, kappa, quaternionic=True)
            assert abs(a.lambda1_bound - b.lambda1_bound) < 1e-12
            assert abs(a.diameter_bound - b.diameter_bound) < 1e-10

    def test_clifford_general_branch(self):
        res = analysis.bounds_clifford(8, 2, 1.5)
        expected = 1.5 / 4 * 8 * (8 + 8) / (8 + 6 - 1)
        assert abs(res.lambda1_bound - expected) < 1e-12
        assert res.formula_used == "clifford-general"

    def test_invalid_inputs(self):
        with pytest.raises(BoundNotApplicableError):
            analysis.bounds_general(4, 3, 0.0)
        with pytest.raises(BoundNotApplicableError):
            analysis.bounds_clifford(4, 1, 2.0)
        with pytest.raises(BoundNotApplicableError):
            analysis.bounds_clifford(4, 2, 2.0, quaternionic=True)
        for n in (-4, 0):
            with pytest.raises(BoundNotApplicableError):
                analysis.bounds_clifford(n, 3, 2.0, quaternionic=True)
