import json

import numpy as np
import pytest

from htfoliation import checks, models
from htfoliation.clifford import build_representation
from htfoliation.errors import InvalidModelError
from htfoliation.foliation import FoliationModel
from htfoliation.geometry import sample_points


def rescaled(model, epsilon: float):
    """The same fields under a new vertical metric scale."""
    return FoliationModel(model.name, model.backend, model.chart, model.n,
                          model.m, epsilon, model.vertical_fields,
                          model.horizontal_fields, model.generators,
                          model.vertical_matrices)


def normalize_to_htype(model, points: int = 16, seed: int = 7,
                       tol: float = 1e-9):
    """Rescale the vertical metric so the H-type fit gives lambda = 1.

    The measured lambda scales inversely with epsilon, so the normalizing
    scale is epsilon * lambda.  Raises InvalidModelError when lambda is not
    constant across points and vertical directions.
    """
    report = checks.check_h_type(model, points=points, seed=seed, tol=tol)
    lam = report.details["lambda"]
    anisotropy = max(report.details["lambda_spread"],
                     report.details["fit_residual"])
    if anisotropy > tol * max(1.0, abs(lam)):
        raise InvalidModelError(
            f"model is not uniformly of H-type: anisotropy {anisotropy:.3e}")
    if abs(lam - 1.0) <= tol:
        return model, lam
    return rescaled(model, model.epsilon * lam), lam


class TestCatalog:
    def test_has_expected_entries(self):
        specs = models.catalog()
        names = [s.name for s in specs]
        assert len(specs) >= 6
        assert len(set(names)) == len(names)
        assert "quaternionic-hopf-s7" in names
        spec = models.get_spec("quaternionic-hopf-s7")
        assert (spec.n, spec.m) == (4, 3)
        assert spec.expected_class == "horizontally-parallel"
        assert spec.expected_kappa == 2.0

    def test_every_entry_builds(self, catalog_models):
        for spec in models.catalog():
            model = catalog_models[spec.name]
            assert (model.n, model.m) == (spec.n, spec.m)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            models.get_spec("klein-bottle")


class TestConstructors:
    def test_group_dimensions(self):
        assert models.htype_group(build_representation(1)).ambient_dim == 3
        assert models.htype_group(build_representation(3)).ambient_dim == 7
        assert models.htype_group(build_representation(7)).ambient_dim == 15

    def test_sphere_dimensions(self):
        m = models.complex_hopf(2, 4.0)
        assert (m.n, m.m, m.ambient_dim) == (4, 1, 6)
        q = models.quaternionic_hopf(2, 4.0)
        assert (q.n, q.m, q.ambient_dim) == (8, 3, 12)

    def test_invalid_parameters(self):
        with pytest.raises(InvalidModelError):
            models.complex_hopf(0)
        with pytest.raises(InvalidModelError):
            models.quaternionic_hopf(1, epsilon=-1.0)
        with pytest.raises(InvalidModelError):
            models.htype_group(build_representation(1), epsilon=0.0)

    def test_quaternionic_vertical_structure(self, s7):
        # the stored round-unit fields are orthonormal on the sphere and
        # close under brackets with the documented factor-2 normalization:
        # [Z_a, Z_b] = 2 eps_abc Z_c
        from htfoliation.geometry import bracket
        pts = sample_points(s7.chart, 8, 3)
        Z = s7.vertical_fields
        vals = np.stack([z.evaluate(pts) for z in Z], axis=1)
        gram = np.einsum("pan,pbn->pab", vals, vals)
        np.testing.assert_allclose(gram, np.broadcast_to(np.eye(3), gram.shape),
                                   atol=1e-12)
        eps = np.zeros((3, 3, 3))
        for (a, b, c), s in (((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
                             ((1, 0, 2), -1), ((2, 1, 0), -1), ((0, 2, 1), -1)):
            eps[a, b, c] = s
        for a in range(3):
            for b in range(3):
                br = bracket(Z[a], Z[b]).evaluate(pts)
                expect = 2.0 * np.einsum("c,pcn->pn", eps[a, b], vals)
                np.testing.assert_allclose(br, expect, atol=1e-12)


class TestNormalization:
    def test_round_s7_normalizes_to_four(self, round_s7):
        normalized, lam = normalize_to_htype(round_s7)
        assert abs(lam - 4.0) < 1e-9
        assert abs(normalized.epsilon - 4.0) < 1e-12
        rep = checks.check_h_type(normalized, points=8, seed=1)
        assert rep.status == "pass"

    def test_already_normalized_identity(self, s7):
        normalized, lam = normalize_to_htype(s7)
        assert abs(lam - 1.0) < 1e-12
        assert normalized is s7

    def test_anisotropic_model_rejected(self):
        A = np.zeros((1, 4, 4))
        A[0, 0, 1], A[0, 1, 0] = 1.0, -1.0
        A[0, 2, 3], A[0, 3, 2] = 2.0, -2.0   # two different scales
        bad = models.group_model_from_matrices(A, name="aniso",
                                               require_htype=False)
        with pytest.raises(InvalidModelError):
            normalize_to_htype(bad)


class TestLoadModel:
    def test_group_json_round_trip(self):
        rep = build_representation(3)
        doc = {"kind": "htype-group", "name": "from-json", "epsilon": 1.0,
               "rep": rep.to_json()}
        model = models.load_model(json.dumps(doc))
        assert model.name == "from-json"
        assert checks.check_h_type(model, points=8, seed=1).status == "pass"

    def test_sphere_json(self):
        model = models.load_model({"kind": "quaternionic-hopf", "k": 1,
                                   "epsilon": 4.0, "name": "s7-json"})
        assert (model.n, model.m) == (4, 3)

    def test_non_skew_generator_rejected(self):
        rep = build_representation(1)
        doc = rep.to_json()
        doc["generators"][0][0][0] = 1.0
        with pytest.raises(ValueError):
            models.load_model({"kind": "htype-group", "epsilon": 1.0,
                               "rep": doc})

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidModelError):
            models.load_model({"kind": "moebius", "epsilon": 1.0})

    def test_custom_kind_skips_htype_requirement(self):
        A = np.zeros((1, 3, 3))
        A[0, 0, 1], A[0, 1, 0] = 1.0, -1.0
        doc = {"kind": "custom", "name": "rank-deficient", "epsilon": 1.0,
               "rep": {"m": 1, "n": 3, "generators": A.tolist()}}
        model = models.load_model(doc)   # axioms hold even off H-type
        assert checks.check_h_type(model, points=8, seed=1).status == "fail"

    def test_custom_kind_still_requires_skew(self):
        A = np.zeros((1, 2, 2))
        A[0, 0, 1] = 1.0                 # not skew
        doc = {"kind": "custom", "epsilon": 1.0,
               "rep": {"m": 1, "n": 2, "generators": A.tolist()}}
        with pytest.raises(InvalidModelError):
            models.load_model(doc)
