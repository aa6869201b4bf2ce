import numpy as np
import pytest

import clifford_algebra as ca
from htfoliation import clifford as cl
from htfoliation.errors import DimensionMismatchError

# hand-built multiplication table of Cl(R^2) over the blade basis
# (1, e0, e1, e0e1), used as an independent oracle for the product
CL2_TABLE = {
    ((), ()): ((), 1), ((), (0,)): ((0,), 1), ((), (1,)): ((1,), 1),
    ((), (0, 1)): ((0, 1), 1),
    ((0,), ()): ((0,), 1), ((0,), (0,)): ((), -1), ((0,), (1,)): ((0, 1), 1),
    ((0,), (0, 1)): ((1,), -1),
    ((1,), ()): ((1,), 1), ((1,), (0,)): ((0, 1), -1), ((1,), (1,)): ((), -1),
    ((1,), (0, 1)): ((0,), 1),
    ((0, 1), ()): ((0, 1), 1), ((0, 1), (0,)): ((1,), 1),
    ((0, 1), (1,)): ((0,), -1), ((0, 1), (0, 1)): ((), -1),
}


class TestGeometricProduct:
    def test_defining_relations(self):
        e0 = ca.CliffordElement.generator(2, 0)
        e1 = ca.CliffordElement.generator(2, 1)
        assert (e0 * e0).approx_eq(ca.CliffordElement.scalar(2, -1))
        assert (e0 * e1).approx_eq(-(e1 * e0))
        b = e0 * e1
        assert (b * b).approx_eq(ca.CliffordElement.scalar(2, -1))

    def test_against_blade_table_oracle(self):
        for (ba, bb), (bc, sign) in CL2_TABLE.items():
            a = ca.CliffordElement(2, {ba: 1.0})
            b = ca.CliffordElement(2, {bb: 1.0})
            expect = ca.CliffordElement(2, {bc: float(sign)})
            assert (a * b).approx_eq(expect), (ba, bb)

    def test_associativity_random(self):
        rng = np.random.default_rng(2)
        blades = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        for _ in range(50):
            a, b, c = (ca.CliffordElement(
                3, {bl: float(rng.integers(-2, 3)) for bl in blades})
                for _ in range(3))
            assert ((a * b) * c).approx_eq(a * (b * c))

    def test_mismatched_m(self):
        with pytest.raises(DimensionMismatchError):
            ca.geometric_product(ca.CliffordElement.generator(2, 0),
                                 ca.CliffordElement.generator(3, 0))


class TestWedge:
    def test_orthogonal_pair(self):
        w = ca.wedge_to_cl2([1, 0, 0], [0, 1, 0])
        assert w.approx_eq(ca.CliffordElement(3, {(0, 1): 1.0}))
        assert w.grades() == {2}

    def test_self_wedge_vanishes(self):
        assert ca.wedge_to_cl2([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]).max_abs_coeff() == 0

    def test_bilinear_expansion(self):
        # (e0 + e1) ^ e1 = e0 e1 + <e0+e1, e1> + e1 e1 + ... = e0.e1 by the oracle
        w = ca.wedge_to_cl2([1, 1], [0, 1])
        direct = ca.geometric_product(ca.CliffordElement.from_vector([1, 1]),
                                      ca.CliffordElement.from_vector([0, 1])) + 1.0
        assert w.approx_eq(direct)
        assert w.approx_eq(ca.CliffordElement(2, {(0, 1): 1.0}))


class TestRepresentations:
    @pytest.mark.parametrize("m", range(1, 9))
    @pytest.mark.parametrize("mult", [1, 2])
    def test_relations_exact(self, m, mult):
        rep = cl.build_representation(m, mult)
        assert rep.n == mult * ca.minimal_dimension(m)
        eye = np.eye(rep.n)
        for i in range(m):
            assert np.abs(rep.generators[i] + rep.generators[i].T).max() == 0.0
            for j in range(m):
                anti = rep.generators[i] @ rep.generators[j] \
                    + rep.generators[j] @ rep.generators[i]
                target = -2.0 * eye if i == j else 0.0
                assert np.abs(anti - target).max() == 0.0

    def test_minimal_dimension_table_and_recursion(self):
        assert [ca.minimal_dimension(m) for m in range(1, 9)] == \
            [2, 4, 4, 8, 8, 8, 8, 16]
        for m in range(1, 9):
            assert ca.minimal_dimension(m + 8) == 16 * ca.minimal_dimension(m)

    def test_minimal_dimension_lower_bounds(self):
        # independent impossibility arguments below d(m):
        # (a) odd d never carries a complex structure: det(J)^2 = det(-I) < 0
        for d in (3, 5, 7):
            assert np.linalg.det(-np.eye(d)) < 0
        # (b) d = 2: skew 2x2 matrices are multiples of the quarter rotation,
        #     and two such with square -I can never anticommute; with (a)
        #     this pins d(2) = d(3) = 4
        iota = np.array([[0.0, -1.0], [1.0, 0.0]])
        for a in (1.0, -1.0):
            for b in (1.0, -1.0):
                anti = (a * iota) @ (b * iota) + (b * iota) @ (a * iota)
                assert np.abs(anti).max() == 2.0      # never zero
        # (c) m = 7: blade images of grade <= 3 are trace-orthogonal (their
        #     pairwise quotients are non-scalar blades, which are traceless),
        #     hence 64 independent matrices are needed: d^2 >= 64 rules out
        #     d in {4, 6}, and with (a) the minimum is d(7) = 8
        import itertools
        rep = cl.build_representation(7)
        d = rep.n
        images = []
        for size in range(4):
            for blade in itertools.combinations(range(7), size):
                mat = np.eye(d)
                for i in blade:
                    mat = mat @ rep.generators[i]
                images.append(mat.ravel())
        gram = np.array(images) @ np.array(images).T
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() < 1e-12
        assert len(images) == 64 > 6 ** 2

    def test_unit_vectors_act_isometrically(self):
        rng = np.random.default_rng(5)
        for m in (2, 3, 5, 7):
            rep = cl.build_representation(m)
            for _ in range(10):
                z = rng.standard_normal(m)
                z /= np.linalg.norm(z)
                Jz = ca.represent(rep, ca.CliffordElement.from_vector(z))
                assert np.abs(Jz.T @ Jz - np.eye(rep.n)).max() < 1e-12

    def test_represent_is_homomorphism(self):
        rep = cl.build_representation(3)
        rng = np.random.default_rng(6)
        blades = [(), (0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
        for _ in range(200):
            a = ca.CliffordElement(3, {b: float(rng.integers(-3, 4))
                                       for b in blades})
            b = ca.CliffordElement(3, {b2: float(rng.integers(-3, 4))
                                       for b2 in blades})
            lhs = ca.represent(rep, a * b)
            rhs = ca.represent(rep, a) @ ca.represent(rep, b)
            assert np.abs(lhs - rhs).max() < 1e-12

    def test_represent_identity_and_generators(self):
        rep = cl.build_representation(2)
        np.testing.assert_array_equal(
            ca.represent(rep, ca.CliffordElement.scalar(2, 1.0)), np.eye(4))
        np.testing.assert_array_equal(
            ca.represent(rep, ca.CliffordElement.generator(2, 0)),
            rep.generators[0])
        np.testing.assert_array_equal(
            ca.represent(rep, ca.CliffordElement(2, {(0, 1): 1.0})),
            rep.generators[0] @ rep.generators[1])

    def test_chirality_blocks(self):
        for m in (3, 7):
            plus = cl.build_representation(m, 1, [1])
            minus = cl.build_representation(m, 1, [-1])
            vp = np.eye(plus.n)
            vm = np.eye(plus.n)
            for g in plus.generators:
                vp = vp @ g
            for g in minus.generators:
                vm = vm @ g
            np.testing.assert_allclose(vp, np.eye(plus.n), atol=1e-12)
            np.testing.assert_allclose(vm, -np.eye(plus.n), atol=1e-12)

    def test_mixed_chirality_block_diag(self):
        rep = cl.build_representation(3, 2, [1, -1])
        sigma = rep.generators[0] @ rep.generators[1] @ rep.generators[2]
        expected = np.block([[np.eye(4), np.zeros((4, 4))],
                             [np.zeros((4, 4)), -np.eye(4)]])
        np.testing.assert_allclose(sigma, expected, atol=1e-12)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            cl.build_representation(0)
        with pytest.raises(ValueError):
            cl.build_representation(3, 2, [1])
        with pytest.raises(ValueError, match=r"1\.\.8"):
            cl.build_representation(9)

    def test_json_round_trip_and_rejection(self):
        rep = cl.build_representation(3)
        again = cl.CliffordRepresentation.from_json(rep.to_json())
        np.testing.assert_array_equal(rep.generators, again.generators)
        bad = rep.to_json()
        bad["generators"][0][0][0] = 1.0   # no longer skew
        with pytest.raises(ValueError):
            cl.CliffordRepresentation.from_json(bad)

    def test_nan_generators_fail_closed(self):
        # a NaN makes every ``> tol`` comparison false, so each bound must
        # be written to fail on NaN, in the skew test and in the relation
        nan_skew = cl.CliffordRepresentation(
            1, 2, np.array([[[0.0, np.nan], [np.nan, 0.0]]]))
        with pytest.raises(ValueError, match="skew"):
            nan_skew.validate()
        rep = cl.build_representation(3)
        for i, j, k in ((0, 0, 1), (2, 3, 3)):
            bad = rep.to_json()
            bad["generators"][i][j][k] = float("nan")
            with pytest.raises(ValueError):
                cl.CliffordRepresentation.from_json(bad)


class TestJAlgebra:
    def test_m1_is_line(self):
        rep = ca.analyze_j_algebra(cl.build_representation(1))
        assert rep.lie_dimension == 1 and rep.closed_under_bracket

    def test_m2_closes_to_so3(self):
        rep = ca.analyze_j_algebra(cl.build_representation(2))
        assert rep.lie_dimension == 3
        assert not rep.closed_under_bracket

    def test_m3_pure_is_quaternionic(self):
        rep = ca.analyze_j_algebra(cl.build_representation(3))
        assert rep.lie_dimension == 3
        assert rep.closed_under_bracket
        assert rep.sigma_scalar in (1, -1)

    def test_m3_mixed_is_so4(self):
        rep = ca.analyze_j_algebra(cl.build_representation(3, 2, [1, -1]))
        assert rep.lie_dimension == 6
        assert rep.sigma_scalar is None

    @pytest.mark.parametrize("m", [2, 4, 5, 6, 7])
    def test_generic_dimension_is_so_m_plus_1(self, m):
        rep = ca.analyze_j_algebra(cl.build_representation(m))
        assert rep.lie_dimension == m * (m + 1) // 2
