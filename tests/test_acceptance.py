"""Acceptance criteria, one test per criterion.

Every numbered criterion is checked at its stated tolerance and prints one
summary line (run pytest with -s to see the lines as they pass).  Point
counts and seeds are fixed so reports are reproducible.
"""

import itertools

import numpy as np

import clifford_algebra as ca
from htfoliation import analysis, checks, clifford as cl
from htfoliation.foliation import (nabla_t_components, ricci_horizontal,
                                   vertical_sectional)
from htfoliation.geometry import integrate_sphere
from symbolic_oracles import from_terms
from test_models import normalize_to_htype

SEED = 42
GROUP_NAMES = ["heisenberg", "heisenberg-quat", "heisenberg-quat-mixed",
               "heisenberg-oct"]
HOPF_NAMES = ["complex-hopf-s3", "complex-hopf-s5", "quaternionic-hopf-s7",
              "quaternionic-hopf-s11"]
ROUND_NAMES = ["round-s3-unnormalized", "round-s7-unnormalized"]


def announce(num: int, text: str) -> None:
    print(f"criterion {num:>2}: PASS  {text}")


def test_criterion_01_clifford_relations():
    worst = 0.0
    for m in range(1, 9):
        for mult in (1, 2):
            rep = cl.build_representation(m, mult)
            eye = np.eye(rep.n)
            for i in range(m):
                worst = max(worst, np.abs(rep.generators[i]
                                          + rep.generators[i].T).max())
                for j in range(m):
                    anti = rep.generators[i] @ rep.generators[j] \
                        + rep.generators[j] @ rep.generators[i]
                    target = -2.0 * eye if i == j else 0.0
                    worst = max(worst, np.abs(anti - target).max())
    assert worst < 1e-12
    assert [ca.minimal_dimension(m) for m in range(1, 9)] == \
        [2, 4, 4, 8, 8, 8, 8, 16]
    for m in range(1, 9):
        assert ca.minimal_dimension(m + 8) == 16 * ca.minimal_dimension(m)
    announce(1, f"anticommutation/skewness exact (residual {worst:.1e}), "
                "minimal dimensions follow the doubling recursion")


def test_criterion_02_axioms_and_h_type(catalog_models):
    worst_ax = 0.0
    worst_lam = 0.0
    for name, model in catalog_models.items():
        ax = checks.check_foliation_axioms(model, points=64, seed=SEED)
        assert ax.status == "pass", name
        worst_ax = max(worst_ax, ax.max_residual)
        normalized, _ = normalize_to_htype(model)
        ht = checks.check_h_type(normalized, points=64, seed=SEED)
        assert ht.status == "pass", name
        worst_lam = max(worst_lam, abs(ht.details["lambda"] - 1.0))
    for name in ROUND_NAMES:
        ht = checks.check_h_type(catalog_models[name], points=64, seed=SEED)
        assert abs(ht.details["lambda"] - 4.0) < 1e-9, name
    announce(2, f"{len(catalog_models)} models: axioms residual "
                f"{worst_ax:.1e}, normalized lambda-1 within {worst_lam:.1e}, "
                "round spheres report lambda = 4")


def test_criterion_03_yang_mills(catalog_models):
    worst = 0.0
    for name, model in catalog_models.items():
        rep = checks.check_yang_mills(model, points=64, seed=SEED)
        assert rep.status == "pass", name
        worst = max(worst, rep.max_residual)
    assert worst < 1e-9
    announce(3, f"horizontal torsion divergence < {worst:.1e} "
                f"on all {len(catalog_models)} models at 64 points")


def test_criterion_04_torsion_classes(catalog_models):
    for name in GROUP_NAMES:
        label, details = checks.classify_torsion(catalog_models[name],
                                                 points=64, seed=SEED)
        assert label == "completely-parallel", name
        assert details["full_residual"] < 1e-9
    for name in HOPF_NAMES:
        label, details = checks.classify_torsion(catalog_models[name],
                                                 points=64, seed=SEED)
        assert details["horizontal_residual"] < 1e-9, name
        assert label in ("horizontally-parallel", "completely-parallel")
    announce(4, "groups completely parallel, Hopf models horizontally "
                "parallel, residuals < 1e-9")


def test_criterion_05_parallel_clifford_kappa(catalog_models):
    for name, expected in (("quaternionic-hopf-s7", 2.0),
                           ("quaternionic-hopf-s11", 2.0)):
        model = catalog_models[name]
        rep = checks.check_parallel_clifford(model, points=64, seed=SEED)
        assert rep.status == "pass", name
        assert rep.max_residual < 1e-9
        kappa = rep.details["kappa"]
        assert abs(kappa - expected) < 1e-8, name
        fb = checks.frame_batch_for(model, 64, SEED)
        sect = vertical_sectional(fb)
        off = ~np.eye(model.m, dtype=bool)
        assert np.abs(sect[:, off] - kappa ** 2).max() < 1e-8, name
        nt_v = nabla_t_components(fb, "v")
        norms = (nt_v ** 2).sum(axis=-1)      # ||(nabla_a J)_b x_i||^2
        target = np.broadcast_to(sect[..., None], norms.shape)
        assert np.abs((norms - target)[:, off]).max() < 1e-8, name
    for name in ("heisenberg-quat", "heisenberg-oct"):
        rep = checks.check_parallel_clifford(catalog_models[name],
                                             points=32, seed=SEED)
        assert abs(rep.details["kappa"]) < 1e-9, name
    announce(5, "kappa = 2 on both quaternionic fibrations (fit residual "
                "< 1e-9), kappa = 0 on groups, leaf sectional curvature "
                "= kappa^2 by both routes")


def test_criterion_06_horizontal_einstein(catalog_models):
    for name, constant in (("quaternionic-hopf-s7", 12.0),
                           ("quaternionic-hopf-s11", 16.0)):
        model = catalog_models[name]
        fb = checks.frame_batch_for(model, 64, SEED)
        ric = ricci_horizontal(fb)
        assert np.abs(ric - constant * np.eye(model.n)).max() < 1e-8, name
        rep = checks.check_einstein(model, points=64, seed=SEED)
        assert rep.status == "pass", name
    for name in ("heisenberg-quat", "heisenberg-quat-mixed", "heisenberg-oct"):
        model = catalog_models[name]
        fb = checks.frame_batch_for(model, 32, SEED)
        assert np.abs(ricci_horizontal(fb)).max() < 1e-9, name
        rep = checks.check_einstein(model, points=32, seed=SEED)
        assert rep.status == "pass", name
    announce(6, "Ric_H = 12 g on S7 and 16 g on S11 within 1e-8 "
                "(constant kappa(n/2+4)); groups horizontally Ricci flat")


def test_criterion_07_curvature_constancy(s7):
    rep = checks.check_curvature_constancy(s7, kappa=2.0, points=32, seed=SEED)
    assert rep.status == "pass"
    assert rep.max_residual < 1e-9
    assert rep.details["ghat_round_residual"] < 1e-9
    oneill = checks.check_oneill(s7, points=32, seed=SEED)
    assert oneill.status == "pass"
    assert oneill.max_residual < 1e-9
    announce(7, f"R(V,X)Y = (kappa/2)(<X,Y> V - <V,Y> X) for the 2*kappa "
                f"vertical rescaling (residual {rep.max_residual:.1e}); the "
                f"rescaled metric is the round one; two-route variation "
                f"formula residual {oneill.max_residual:.1e}")


def test_criterion_08_lemma_identity_suite(catalog_models):
    worst = 0.0
    targets = ["quaternionic-hopf-s7"] + GROUP_NAMES
    for name in targets:
        model = catalog_models[name]
        kappa = 2.0 if name == "quaternionic-hopf-s7" else 0.0
        for rep in checks.check_lemma_identities(model, points=32, seed=SEED,
                                                 kappa=kappa):
            assert rep.status == "pass", (name, rep.check_name)
            worst = max(worst, rep.max_residual)
    assert worst < 1e-9
    announce(8, f"nablaJ skew-symmetry, curvature decomposition, commutator "
                f"identity (covariant and kappa forms), sectional-norm and "
                f"trace-helper identities all < {worst:.1e} on the "
                f"quaternionic fibration and every group")


def test_criterion_09_spectrum_sharpness(s7, s3):
    result7 = analysis.rayleigh_ritz(s7, 2)
    lam1 = result7.smallest_nonzero()
    clifford_bound = analysis.bounds_clifford(4, 3, 2.0, True).lambda1_bound
    general_bound = analysis.bounds_general(4, 3, 12.0).lambda1_bound
    assert abs(lam1 - 4.0) < 1e-8
    assert abs(lam1 - clifford_bound) < 1e-8
    assert abs(lam1 - general_bound) < 1e-8
    result3 = analysis.rayleigh_ritz(s3, 2)
    assert abs(result3.smallest_nonzero() - 2.0) < 1e-8
    announce(9, f"S7 first nonzero eigenvalue {lam1:.9f} equals both "
                f"closed-form bounds (zero gap); S3 gives "
                f"{result3.smallest_nonzero():.9f}")


def test_criterion_10_cd_inequality(heis_quat, s7):
    rep_g = analysis.check_cd_inequality(heis_quat, K=0.0, trials=20,
                                         nus=(0.1, 1.0, 10.0), points=32,
                                         seed=SEED)
    assert rep_g.status == "pass"
    assert rep_g.details["min_margin"] >= -1e-9
    rep_s = analysis.check_cd_inequality(s7, K=12.0, trials=20,
                                         nus=(0.1, 1.0, 10.0), points=32,
                                         seed=SEED)
    assert rep_s.status == "pass"
    assert rep_s.details["min_margin"] >= -1e-9
    announce(10, f"curvature-dimension margin >= {min(rep_g.details['min_margin'], rep_s.details['min_margin']):.3e} "
                 "over 20 random 2-jets x 3 parameters x 32 points "
                 "(group at K = 0, fibration at K = 12)")


def test_criterion_11_bound_arithmetic():
    a = analysis.bounds_general(4, 3, 12.0)
    b = analysis.bounds_clifford(4, 3, 2.0, quaternionic=True)
    assert abs(a.diameter_bound - 29.471) < 1e-3
    assert abs(b.diameter_bound - 29.471) < 1e-3
    assert abs(a.diameter_bound - b.diameter_bound) < 1e-10
    assert a.lambda1_bound == b.lambda1_bound == 4.0
    announce(11, f"diameter bound {a.diameter_bound:.6f} from both corollary "
                 "branches (they coincide when K = kappa (n/2 + 4))")


def _dirichlet_asymmetry(model, degree):
    # A[f, g] = -integral of f Delta_H g over the monomials of bounded
    # degree, with exact sphere moments
    N = model.ambient_dim
    combos = itertools.chain.from_iterable(
        itertools.combinations_with_replacement(range(N), total)
        for total in range(degree + 1))
    basis = [from_terms(N, {tuple(map(c.count, range(N))): 1.0})
             for c in combos]
    lap = [analysis.sub_laplacian_poly(model, g) for g in basis]
    A = np.array([[-integrate_sphere(f * lg) for lg in lap] for f in basis])
    return float(np.abs(A - A.T).max())


def test_criterion_12_integration_by_parts(s3, s7):
    worst = max(_dirichlet_asymmetry(s3, 3), _dirichlet_asymmetry(s7, 3))
    assert worst < 1e-10
    announce(12, f"Dirichlet-form matrices symmetric to {worst:.1e} on "
                 "degree <= 3 bases (self-adjointness of the horizontal "
                 "Laplacian under exact sphere moments)")
