import importlib.util
import itertools
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from htfoliation import analysis, models
from htfoliation.errors import (BoundNotApplicableError, InvalidModelError,
                                SizeLimitError, UnsupportedBackendError)
from htfoliation.foliation import POINT_CHUNK
from htfoliation.geometry import (MonomialCache, Polynomial,
                                  directional_derivative, integrate_sphere,
                                  sample_points)
from symbolic_oracles import (defining_matrices, degree_block,
                              degree_block_dense, eigenpairs, from_terms,
                              gamma_calculus, gamma_polys, gamma_reference,
                              poly_jets, random_polynomial,
                              sparse_random_polynomial, sphere_laplacian,
                              sub_laplacian, sub_laplacian_apply)
from test_checks import sheared_s3


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
        assert abs(sub_laplacian_apply(s3, x, p3) + 2 * p3[0]) < 1e-12
        p7 = sample_points(s7.chart, 1, 5)[0]
        x8 = Polynomial.variable(8, 0)
        assert abs(sub_laplacian_apply(s7, x8, p7) + 4 * p7[0]) < 1e-12

    def test_constants_killed(self, s7):
        p7 = sample_points(s7.chart, 1, 5)[0]
        one = Polynomial.constant(8, 1.0)
        assert sub_laplacian_apply(s7, one, p7) == 0.0

    def test_decomposition_oracle(self, s3, s7):
        # the two pieces separately: round Laplacian gives -(N-1) x on
        # coordinates, each vertical square gives -x
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
            sub_laplacian_apply(s3, Polynomial.variable(4, 0),
                                np.array([2.0, 0.0, 0.0, 0.0]))

    @pytest.mark.parametrize("name", [s.name for s in models.catalog()
                                      if s.kind != "htype-group"])
    def test_operator_list_matches_round_laplacian(self, name,
                                                   catalog_models):
        # Delta - E^2 - (N - 2) E is Delta - k (k + N - 2) on degree k, so
        # the list gives the homogeneous-decomposition polynomial exactly
        model = catalog_models[name]
        N = model.ambient_dim
        for k in range(5):
            for combo in itertools.combinations_with_replacement(range(N), k):
                g = from_terms(N, {tuple(map(combo.count, range(N))): 1.0})
                got = analysis.sub_laplacian_poly(model, g)
                want = sub_laplacian(model, g)
                np.testing.assert_array_equal(got.keys, want.keys)
                np.testing.assert_array_equal(got.coeffs, want.coeffs)

    def test_group_backend(self, heis):
        x = Polynomial.variable(3, 0)
        p = np.array([0.1, 0.2, 0.3])
        assert sub_laplacian_apply(heis, x, p) == 0.0
        assert sub_laplacian_apply(heis, x * x, p) == 2.0


class TestGammaCalculus:
    def test_constant_vanishes(self, heis):
        vals = gamma_calculus(heis, Polynomial.constant(3, 1.0), np.zeros(3))
        assert all(v == 0.0 for v in vals.values())

    def test_heisenberg_coordinate(self, heis):
        vals = gamma_calculus(heis, Polynomial.variable(3, 0),
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
            vals = gamma_calculus(s7, f, p)
            total = vals["gamma"] + vals["gamma_v"] / s7.epsilon + p[0] ** 2
            assert abs(total - 1.0) < 1e-12

    def test_off_sphere_point_rejected(self, s3):
        # the sphere formulas, the 2-jet ones too, hold only at ||p|| = 1
        f = Polynomial.variable(4, 0) * Polynomial.variable(4, 1)
        with pytest.raises(InvalidModelError):
            gamma_calculus(s3, f, np.array([2.0, 0.0, 0.0, 0.0]))


class TestOperatorList:
    @pytest.mark.parametrize("name", [s.name for s in models.catalog()])
    def test_symbols_match_adapted_frames(self, name, catalog_models):
        # sum_k s_k D_k D_k^T and epsilon sum_a Z_a Z_a^T are the horizontal
        # and vertical blocks of the inverse of the one program metric
        model = catalog_models[name]
        fb = model.frame_batch(sample_points(model.chart, 8, 3))
        ops = analysis.operators(model)
        cache = MonomialCache(fb.points)
        v, _ = analysis.affine_jets(ops.fields, cache)
        w, _ = analysis.affine_jets(ops.vertical, cache)
        np.testing.assert_allclose(
            np.einsum("k,kpi,kpj->pij", np.asarray(ops.signs), v, v),
            np.einsum("pki,pkj->pij", fb.x, fb.x), rtol=0, atol=1e-13)
        np.testing.assert_allclose(
            ops.weight * np.einsum("kpi,kpj->pij", w, w),
            np.einsum("pki,pkj->pij", fb.z, fb.z), rtol=0, atol=1e-13)


class TestGammaJets:
    @pytest.mark.parametrize("name", [s.name for s in models.catalog()])
    def test_matches_symbolic_route(self, name, catalog_models):
        # two sparse cubics and a dense quadratic, at three points
        model = catalog_models[name]
        N = model.ambient_dim
        rng = np.random.Generator(np.random.Philox(key=43))
        fs = [sparse_random_polynomial(N, 3, rng) for _ in range(2)]
        fs.append(random_polynomial(N, 2, rng))
        pts = sample_points(model.chart, 3, 5)
        got = analysis.gamma_evaluator(model, MonomialCache(pts))(
            *poly_jets(fs, pts))
        for i, f in enumerate(fs):
            for key, poly in gamma_polys(model, f).items():
                want = poly.evaluate(pts)
                scale = max(1.0, np.abs(want).max())
                np.testing.assert_allclose(got[key][i], want, rtol=0,
                                           atol=1e-12 * scale,
                                           err_msg=f"{key} of f{i}")

    @pytest.mark.parametrize("name", [s.name for s in models.catalog()])
    def test_matches_the_einsum_reference(self, name, catalog_models):
        # random 2-jets at three point chunks, the last one partial
        model = catalog_models[name]
        pts = sample_points(model.chart, 2 * POINT_CHUNK + 3, 6)
        cache = MonomialCache(pts)
        grad, hess = random_jets(4, *pts.shape, seed=44)
        got = analysis.gamma_evaluator(model, cache)(grad, hess)
        want = gamma_reference(model, cache)(grad, hess)
        assert got.keys() == want.keys()
        for key, value in want.items():
            err = np.abs(got[key] - value)
            assert (err <= 1e-13 * np.maximum(1.0, np.abs(value))).all(), \
                (key, float(err.max()))


def random_jets(trials: int, points: int, N: int, seed: int):
    """Standard normal gradients (trials, points, N) and symmetrized
    standard normal Hessians (trials, points, N, N)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    grad = rng.standard_normal((trials, points, N))
    hess = rng.standard_normal((trials, points, N, N))
    return grad, 0.5 * (hess + hess.transpose(0, 1, 3, 2))


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
        lams, funcs = eigenpairs(s3, 2)
        pts = sample_points(s3.chart, 16, 3)
        cache = MonomialCache(pts)
        for lam, f in zip(lams, funcs):
            lap = analysis.sub_laplacian_poly(s3, f).evaluate(pts, cache)
            residual = np.abs(lap + lam * f.evaluate(pts, cache)).max()
            assert residual < 1e-8

    @pytest.mark.parametrize("name, degree", [("complex-hopf-s3", 2),
                                              ("quaternionic-hopf-s7", 3)])
    def test_eigenvalues_match_the_eigenpair_oracle(self, name, degree,
                                                    catalog_models):
        model = catalog_models[name]
        lams, funcs = eigenpairs(model, degree)
        assert len(funcs) == lams.size
        np.testing.assert_allclose(
            analysis.rayleigh_ritz(model, degree).eigenvalues, lams,
            rtol=0, atol=1e-12)

    def test_min_max_monotonicity(self, s3, s7):
        for model in (s3, s7):
            lam_d1 = analysis.rayleigh_ritz(model, 1).smallest_nonzero()
            lam_d2 = analysis.rayleigh_ritz(model, 2).smallest_nonzero()
            assert lam_d2 <= lam_d1 + 1e-10

    def test_group_backend_unsupported(self, heis):
        with pytest.raises(UnsupportedBackendError):
            analysis.rayleigh_ritz(heis, 1)

    def test_fischer_scale_beyond_int64(self):
        # 21! > 2**63: the scale must still be a float array, as it is below
        scale = analysis.fischer_scales([(21, 0, 0, 0), (20, 0, 0, 1)])
        assert scale.dtype == np.float64
        assert scale[0] == np.sqrt(float(math.factorial(21)))
        assert scale[1] == np.sqrt(np.array(math.factorial(20)))


class TestClosedFormSpectra:
    @pytest.mark.parametrize("name, degree, closed_form, base_dim", [
        ("complex-hopf-s3", 6, oracle.complex_hopf_spectrum, 1),
        ("complex-hopf-s5", 4, oracle.complex_hopf_spectrum, 2),
        ("quaternionic-hopf-s7", 3, oracle.quaternionic_hopf_spectrum, 1),
        ("quaternionic-hopf-s11", 3, oracle.quaternionic_hopf_spectrum, 2),
        ("quaternionic-hopf-s11", 6, oracle.quaternionic_hopf_spectrum, 2),
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
        assert analysis.rayleigh_ritz(sheared_s3(), 2).gram_asymmetry > 0.1
        assert analysis.rayleigh_ritz(s3, 2).gram_asymmetry < 1e-12


SPHERE_MODELS = [s.name for s in models.catalog() if s.kind != "htype-group"]


class TestMoveEngine:
    """The P_k matrices built by exponent moves, and their blocks."""

    @pytest.mark.parametrize("name", SPHERE_MODELS + ["sheared-s3"])
    def test_matches_the_per_monomial_route(self, name, catalog_models):
        model = sheared_s3() if name == "sheared-s3" else catalog_models[name]
        for k in range(4):
            keys, scale, want = degree_block_dense(model, k)
            got_keys, got_scale, rows, cols, vals = degree_block(model, k)
            np.testing.assert_array_equal(got_keys, keys)
            np.testing.assert_array_equal(got_scale, scale)
            assert np.unique(rows * keys.size + cols).size == rows.size
            assert vals.all()
            got = np.zeros_like(want)
            got[rows, cols] = vals
            assert np.array_equal(got, want), (name, k)

    def test_only_the_vertical_fields_take_moves(self, s3, s7, monkeypatch):
        # the round part is in closed form: each degree moves each Z_a twice
        # and no coordinate field, Euler field or drift, from vertical jets
        # read once per spectrum
        apply, read = analysis._apply_affine, analysis.affine_jets
        for model in (s3, s7):
            moved, jets = [], []
            monkeypatch.setattr(
                analysis, "_apply_affine",
                lambda A, *args: moved.append(A) or apply(A, *args))
            monkeypatch.setattr(
                analysis, "affine_jets",
                lambda F, cache: jets.append(F) or read(F, cache))
            analysis.rayleigh_ritz(model, 3)
            assert len(jets) == 1 and jets[0] is model.vertical_fields
            assert len(moved) == 2 * model.m * 2
            for A in moved:
                assert any(np.array_equal(A, Z)
                           for Z in defining_matrices(model.name))

    @pytest.mark.parametrize("name", ["complex-hopf-s3", "complex-hopf-s5",
                                      "quaternionic-hopf-s7",
                                      "quaternionic-hopf-s11"])
    def test_round_part_is_the_round_laplacian(self, name, catalog_models):
        # without the vertical moves the block is -Delta_S on P_k, the sum of
        # the harmonic spaces H_j, j = k, k - 2, ..., with j (j + N - 2) on
        # each
        model = catalog_models[name]
        N = model.ambient_dim
        no_fields = (np.zeros((0, 1, N)), np.zeros((0, N, N)))
        for k in range(5):
            keys, _, rows, cols, vals = analysis._degree_block(model, k,
                                                               no_fields)
            dense = np.zeros((keys.size, keys.size))
            dense[rows, cols] = vals
            want = [j * (j + N - 2) for j in range(k % 2, k + 1, 2)
                    for _ in range(math.comb(N + j - 1, j) - (
                        math.comb(N + j - 3, j - 2) if j > 1 else 0))]
            assert np.abs(dense - dense.T).max() < 1e-12
            np.testing.assert_allclose(np.linalg.eigvalsh(dense), want,
                                       rtol=0, atol=1e-10)

    def test_spectra_build_no_polynomial(self, s7, monkeypatch):
        def refuse(*args):
            raise AssertionError("sub_laplacian_poly called")
        monkeypatch.setattr(analysis, "sub_laplacian_poly", refuse)
        assert len(analysis.rayleigh_ritz(s7, 3).eigenvalues) == 156

    def test_monomial_count(self):
        for n_vars, k in [(1, 5), (4, 0), (4, 3), (12, 6)]:
            assert analysis.monomial_count(n_vars, k) == sum(
                1 for _ in itertools.combinations_with_replacement(
                    range(n_vars), k))

    @pytest.mark.parametrize("seed", range(4))
    def test_components_match_scipy(self, seed):
        csgraph = pytest.importorskip("scipy.sparse.csgraph")
        sparse = pytest.importorskip("scipy.sparse")
        rng = np.random.default_rng(seed)
        n = 60
        rows, cols = rng.integers(0, n, size=(2, 45))
        label = analysis._components(n, rows, cols)
        _, want = csgraph.connected_components(
            sparse.coo_matrix((np.ones(rows.size), (rows, cols)), (n, n)),
            directed=True, connection="weak")
        pairs = set(zip(label.tolist(), want.tolist()))
        assert len(pairs) == len(set(label.tolist())) == len(set(want.tolist()))
        for c in set(label.tolist()):     # labelled by the smallest member
            assert np.flatnonzero(label == c)[0] == c

    def test_blocks_reassemble_the_matrix(self, s7):
        keys, _, rows, cols, vals = degree_block(s7, 4)
        label = analysis._components(keys.size, rows, cols)
        dense = np.zeros((keys.size, keys.size))
        dense[rows, cols] = vals
        rebuilt = np.zeros_like(dense)
        seen = []
        for members, block in analysis._blocks(label, rows, cols, vals):
            assert (np.diff(members) > 0).all()
            rebuilt[np.ix_(members, members)] = block
            seen.append(members)
        assert len(seen) > 1
        np.testing.assert_array_equal(np.sort(np.concatenate(seen)),
                                      np.arange(keys.size))
        np.testing.assert_array_equal(rebuilt, dense)


class TestSizeLimits:
    @staticmethod
    def refuse(*args):
        raise AssertionError("ran past the size check")

    def test_degree_refused_before_enumeration(self, s3, monkeypatch):
        # dim P_3 in 4 variables is 20
        monkeypatch.setattr(analysis, "MAX_DEGREE_MONOMIALS", 19)
        monkeypatch.setattr(analysis, "_degree_block", self.refuse)
        with pytest.raises(SizeLimitError, match="20 monomials"):
            analysis.rayleigh_ritz(s3, 3)

    def test_blocks_refused_before_eigensolve(self, s3, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_BLOCK_ENTRIES", 10)
        monkeypatch.setattr(analysis.np.linalg, "eigh", self.refuse)
        monkeypatch.setattr(analysis.np.linalg, "eigvalsh", self.refuse)
        with pytest.raises(SizeLimitError, match="entries"):
            analysis.rayleigh_ritz(s3, 2)


class TestIntegrationByParts:
    @pytest.mark.parametrize("name", ["complex-hopf-s3", "quaternionic-hopf-s7"])
    def test_symmetry_and_dirichlet_form(self, name, catalog_models):
        model = catalog_models[name]
        ops = analysis.operators(model)
        rng = np.random.Generator(np.random.Philox(key=17))
        for _ in range(20):
            f = sparse_random_polynomial(model.ambient_dim, 3, rng)
            g = sparse_random_polynomial(model.ambient_dim, 3, rng)
            lf = analysis.sub_laplacian_poly(model, f)
            lg = analysis.sub_laplacian_poly(model, g)
            sym = abs(integrate_sphere(f * lg) - integrate_sphere(g * lf))
            assert sym < 1e-10
            # Gamma(f) = sum_k s_k (D_k f)^2 from the list, not the 2-jets
            gamma = Polynomial.sum_of(model.ambient_dim, [
                s * directional_derivative(D, f) ** 2
                for s, D in zip(ops.signs, ops.fields)])
            dirichlet = abs(-integrate_sphere(f * lf) - integrate_sphere(gamma))
            assert dirichlet < 1e-10


def polynomial_trials(monkeypatch, fs) -> int:
    """Make ``check_cd_inequality`` test the 2-jets of the polynomials
    ``fs`` in place of the ones it draws; returns the trial count to pass."""
    gamma_evaluator = analysis.gamma_evaluator

    def from_polynomials(model, cache):
        evaluate = gamma_evaluator(model, cache)
        return lambda grad, hess: evaluate(*poly_jets(fs, cache.points))
    monkeypatch.setattr(analysis, "gamma_evaluator", from_polynomials)
    return len(fs)


class TestCurvatureDimension:
    def test_heisenberg_quat_k_zero(self, heis_quat):
        rep = analysis.check_cd_inequality(heis_quat, K=0.0, trials=10,
                                           points=16, seed=4)
        assert rep.status == "pass"

    def test_heisenberg_quadratics(self, heis, monkeypatch):
        rng = np.random.Generator(np.random.Philox(key=3))
        trials = polynomial_trials(monkeypatch, [random_polynomial(3, 2, rng)
                                                 for _ in range(20)])
        rep = analysis.check_cd_inequality(heis, K=0.0, trials=trials,
                                           nus=(0.1, 1.0, 10.0),
                                           points=16, seed=4)
        assert rep.status == "pass"

    def test_constant_function_margin_zero(self, heis_quat, monkeypatch):
        one = Polynomial.constant(heis_quat.ambient_dim, 1.0)
        trials = polynomial_trials(monkeypatch, [one])
        rep = analysis.check_cd_inequality(heis_quat, K=0.0, trials=trials,
                                           nus=(1.0,), points=8, seed=4)
        assert rep.details["min_margin"] == 0.0

    def test_trial_chunks_match_one_draw(self, heis_quat):
        # the gradients of every trial are drawn first and the Hessians then
        # chunk by chunk from the same stream, so the margin is that of one
        # draw of every trial evaluated at once; the last chunk is partial
        model, K, nus, points, seed = heis_quat, 0.0, (0.1, 1.0, 10.0), 8, 4
        trials = 2 * analysis.CD_TRIAL_CHUNK + 3
        rep = analysis.check_cd_inequality(model, K, trials, nus, points,
                                           seed)
        rng = np.random.Generator(np.random.Philox(key=seed + 1))
        pts = sample_points(model.chart, points, seed)
        N, n, m = model.ambient_dim, model.n, model.m
        grad = rng.standard_normal((trials, points, N))
        hess = rng.standard_normal((trials, points, N, N))
        hess = 0.5 * (hess + hess.transpose(0, 1, 3, 2))
        vals = analysis.gamma_evaluator(model, MonomialCache(pts))(grad, hess)
        want = min(float(((vals["gamma2"] + nu * vals["gamma2_v"])
                          - ((vals["delta_f"] ** 2) / n
                             + (K - m / nu) * vals["gamma"]
                             + (n / 4.0) * vals["gamma_v"])).min())
                   for nu in nus)
        assert rep.details["trials"] == trials
        assert rep.details["min_margin"] == want

    @pytest.mark.parametrize("name", [s.name for s in models.catalog()])
    def test_values_do_not_depend_on_the_trial_batch(self, name,
                                                     catalog_models):
        # each trial is a stack entry of every product, so the first three
        # of a batch equal a batch of those three, bit for bit
        model = catalog_models[name]
        pts = sample_points(model.chart, POINT_CHUNK + 3, 8)
        evaluate = analysis.gamma_evaluator(model, MonomialCache(pts))
        grad, hess = random_jets(analysis.CD_TRIAL_CHUNK, *pts.shape, seed=45)
        every, first = evaluate(grad, hess), evaluate(grad[:3], hess[:3])
        for key, value in first.items():
            assert np.array_equal(every[key][:3], value), key

    @pytest.mark.parametrize("name", ["heisenberg-oct",
                                      "quaternionic-hopf-s7"])
    def test_transient_scales_with_the_chunk(self, name, catalog_models):
        # the traced peak of one evaluation above its inputs and outputs: at
        # 4 chunks of points it stays near that of one chunk (it grew about
        # 4x when the forms were built over the whole sample)
        model = catalog_models[name]

        def transient(points):
            pts = sample_points(model.chart, points, 29)
            evaluate = analysis.gamma_evaluator(model, MonomialCache(pts))
            jets = random_jets(analysis.CD_TRIAL_CHUNK, *pts.shape, seed=46)
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                out = evaluate(*jets)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak - base - sum(v.nbytes for v in out.values())
        one, four = transient(POINT_CHUNK), transient(4 * POINT_CHUNK)
        assert 0 < four <= 1.5 * one, (one, four)

    def test_no_trial_functions_rejected(self, heis):
        # no sampled f would make a vacuous pass
        with pytest.raises(ValueError):
            analysis.check_cd_inequality(heis, K=0.0, trials=0, points=8,
                                         seed=4)

    def test_nan_k_fails(self, heis):
        rep = analysis.check_cd_inequality(heis, K=float("nan"), trials=2,
                                           points=8, seed=4)
        assert rep.status == "fail"

    def test_excessive_k_rejected(self, heis_quat):
        with pytest.raises(InvalidModelError):
            analysis.check_cd_inequality(heis_quat, K=5.0, trials=2,
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
        # bounds outside the float range, and ranks beyond it
        for K in (1e308, 1e-320):
            with pytest.raises(BoundNotApplicableError):
                analysis.bounds_general(4, 3, K)
        for quaternionic in (False, True):
            with pytest.raises(BoundNotApplicableError):
                analysis.bounds_clifford(4, 3, 1e308, quaternionic)
        big = 10 ** 400
        with pytest.raises(BoundNotApplicableError):
            analysis.bounds_general(big, 3, 1.0)
        with pytest.raises(BoundNotApplicableError):
            analysis.bounds_general(4, big, 1.0)
        with pytest.raises(BoundNotApplicableError):
            analysis.bounds_clifford(big, 3, 2.0, quaternionic=True)
