"""Relations that every correct run obeys, whatever the coordinates: an
isometric copy of a model verifies as the model does, and on a homogeneous
model every per-point invariant of the kept entries is the same at every
sample point."""

import itertools

import numpy as np
import pytest

from htfoliation import cli, models
from htfoliation import foliation as fol
from htfoliation.geometry import sample_points
from test_foliation import ghat_scales

HOPF = ["complex-hopf-s3", "complex-hopf-s5", "quaternionic-hopf-s7",
        "quaternionic-hopf-s11"]
GROUPS = ["heisenberg", "heisenberg-quat", "heisenberg-quat-mixed",
          "heisenberg-oct"]
STRICT = [s.name for s in models.catalog() if s.strict_htype]


def orthogonal(k: int, seed: int) -> np.ndarray:
    """A seeded random orthogonal (k, k) matrix: the Q of a QR
    factorization, with the signs fixed by the diagonal of R."""
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((k, k)))
    return q * np.sign(np.diag(r))


def verify(model, points: int = 32) -> list[dict]:
    spec = models.get_spec(model.name)
    return cli.run_checks(model, cli.DEFAULT_CHECKS,
                          cli.RunConfig(points=points, heavy_points=points),
                          spec.expected_class, spec.expected_kappa)


class TestIsometricCopies:
    """Conjugating a model's defining matrices by orthogonal ones gives an
    isometric copy of the same foliation, in other coordinates."""

    @pytest.mark.parametrize("name", HOPF)
    def test_sphere_copies_keep_every_verdict_at_rounding_level(
            self, name, catalog_models):
        # the vertical fields Q A_a Q^T p: the horizontal spanning family
        # pi_H e_mu is overcomplete in any coordinates, and the weights of
        # the frame over it must not amplify rounding (at the greedy
        # Gram-Schmidt weights, up to 540, rows reached 8.6e-9 and failed)
        model = catalog_models[name]
        spec = models.get_spec(name)
        want = verify(model)
        A = model.vertical_matrices
        for seed in range(3):
            Q = orthogonal(model.ambient_dim, seed)
            copy = models._sphere_model(name, Q @ A @ Q.T, spec.epsilon)
            for row, orig in zip(verify(copy), want, strict=True):
                assert (row["check"], row["status"]) == (orig["check"],
                                                         orig["status"])
                assert row.get("max_residual", 0.0) <= 1e-11, (seed, row)

    @pytest.mark.parametrize("name", GROUPS)
    def test_group_copies_match_the_original(self, name, catalog_models):
        # the generators sum_b P_ab Q G_b Q^T for orthogonal P and Q: the
        # spanning family is the frame, so no weight can amplify rounding
        model = catalog_models[name]
        spec = models.get_spec(name)
        want = verify(model)
        G = model.generators
        for seed in range(3):
            P, Q = orthogonal(model.m, seed), orthogonal(model.n, seed + 10)
            gens = np.einsum("ab,bij->aij", P, Q @ G @ Q.T)
            copy = models.group_model_from_matrices(gens, spec.epsilon, name)
            for row, orig in zip(verify(copy), want, strict=True):
                assert (row["check"], row["status"]) == (orig["check"],
                                                         orig["status"])
                assert abs(row.get("max_residual", 0.0)
                           - orig.get("max_residual", 0.0)) <= 1e-14, row


def block_norms(fb, values: np.ndarray, axes=()) -> np.ndarray:
    """Per-point Frobenius norms (P, blocks) of frame components over every
    combination of the horizontal and vertical frame ranges of ``axes``,
    the axes that run over the whole frame: invariant under O(n) x O(m)
    changes of frame."""
    n = fb.model.n
    ranges = (slice(0, n), slice(n, None))
    norms = []
    for blocks in itertools.product(ranges, repeat=len(axes)):
        at = [slice(None)] * values.ndim
        for axis, block in zip(axes, blocks):
            at[axis] = block
        norms.append(np.sqrt((values[tuple(at)] ** 2).reshape(
            len(values), -1).sum(axis=1)))
    return np.stack(norms, axis=1)


#: largest spread of an invariant over the sample, as a multiple of its
#: largest value (at least 1).  On the strict catalog at 40 points (seed 7)
#: the largest is 4.5e-15 (R^ghat of quaternionic-hopf-s11); with the
#: greedy Gram-Schmidt weights of the horizontal frame it was 1.08e-12
#: (nabla T of complex-hopf-s5, which is 0).
HOMOGENEITY_BOUND = 1e-13


class TestHomogeneity:
    """Every catalog model is homogeneous, so each per-point O(n) x O(m)
    invariant of a kept entry is constant over the sample.  The sample
    spans three point chunks, so the relation also guards the point
    indexing of the chunked builds and of their per-chunk frame Hessians."""

    @pytest.mark.parametrize("name", STRICT)
    def test_invariants_are_constant_over_the_sample(self, name,
                                                     catalog_models):
        model = catalog_models[name]
        points = 40
        assert points > 2 * fol.POINT_CHUNK
        fb = model.frame_batch(sample_points(model.chart, points, 7))
        n = model.n
        invariants = {
            "T": block_norms(fb, fol.torsion_components(fb)),
            "nabla T": block_norms(fb, fol.nabla_t_components(fb), (1,)),
            "R": block_norms(fb, fol.curvature_components(fb), (1, 2, 3, 4)),
            "Ric_H": np.linalg.eigvalsh(fol.ricci_horizontal(fb)),
        }
        for eps_rel in ghat_scales(name):
            ghat = fb.components(fol.lc_curvature_ambient(fb, eps_rel))
            invariants[f"R^ghat {eps_rel}"] = block_norms(fb, ghat,
                                                          (2, 3, 4))
        assert invariants["T"].shape[1] == 1
        assert invariants["R"].shape == (points, 16)
        assert fb.frame.shape[1] == n + model.m
        for label, values in invariants.items():
            spread = float((values.max(axis=0) - values.min(axis=0)).max())
            scale = max(1.0, float(np.abs(values).max()))
            assert spread <= HOMOGENEITY_BOUND * scale, (label, spread)
