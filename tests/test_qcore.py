"""Tests for the Hilbert-space primitives.

Oracles used here: direct matrix arithmetic for projector and density
properties, basis-expansion partial sums for block measurements, and seeded
Monte Carlo for collapse sampling frequencies.
"""

import copy

import numpy as np
import pytest

from qforage.errors import (
    DenseCapExceeded,
    DimensionMismatch,
    EmptyInput,
    NotNormalized,
    ShapeMismatch,
    WeightNotNormalized,
)
from qforage.qcore import (
    DENSE_CAP,
    DensityMatrix,
    Observable,
    basis_vector,
    born_probability,
    build_density,
    collapse_sample,
    projector,
    tensor_product,
)


def random_unit(rng, dim, complex_field=False):
    v = rng.standard_normal(dim)
    if complex_field:
        v = v + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_density(rng, dim, components=None):
    count = components or int(rng.integers(1, 5))
    weights = rng.random(count) + 0.1
    weights /= weights.sum()
    vectors = [random_unit(rng, dim, complex_field=True) for _ in range(count)]
    return build_density(weights, vectors)


class TestTensorProduct:
    def test_single_factor_is_identity(self):
        v = basis_vector(3, 0)
        np.testing.assert_array_equal(tensor_product([v]), v)

    def test_basis_kronecker(self):
        out = tensor_product([basis_vector(2, 0), basis_vector(2, 1)])
        np.testing.assert_array_equal(out, np.array([0.0, 1.0, 0.0, 0.0]))

    def test_row_major_index_order(self):
        # Entry (b1, b2) of the product lands at flat position b1*d2 + b2.
        rng = np.random.default_rng(7)
        a, b = rng.standard_normal(3), rng.standard_normal(4)
        out = tensor_product([a, b])
        for i in range(3):
            for j in range(4):
                assert out[i * 4 + j] == a[i] * b[j]

    def test_norm_multiplicativity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            vs = [random_unit(rng, 3) for _ in range(3)]
            out = tensor_product(vs)
            assert out.shape == (27,)
            assert abs(np.linalg.norm(out) - 1.0) <= 1e-12

    def test_associativity(self):
        rng = np.random.default_rng(13)
        a, b, c = (rng.standard_normal(d) for d in (2, 3, 2))
        left = tensor_product([tensor_product([a, b]), c])
        right = tensor_product([a, tensor_product([b, c])])
        np.testing.assert_allclose(left, right, atol=1e-12)

    def test_empty_input_rejected(self):
        with pytest.raises(EmptyInput):
            tensor_product([])

    def test_dense_cap_enforced(self):
        vs = [np.ones(17)] * 3  # 4913 entries > 4096
        with pytest.raises(DenseCapExceeded):
            tensor_product(vs)
        assert 17 ** 3 > DENSE_CAP

    def test_matrix_operand_rejected(self):
        with pytest.raises(ShapeMismatch):
            tensor_product([np.eye(2)])


class TestProjector:
    def test_basis_projector(self):
        np.testing.assert_array_equal(
            projector(basis_vector(2, 0)), np.array([[1.0, 0.0], [0.0, 0.0]])
        )

    def test_plus_state_projector(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(projector(plus), np.full((2, 2), 0.5), atol=1e-15)

    def test_random_complex_projector_properties(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p = projector(random_unit(rng, 4, complex_field=True))
            assert abs(np.trace(p) - 1.0) <= 1e-12
            assert np.max(np.abs(p @ p - p)) <= 1e-12
            assert np.max(np.abs(p - p.conj().T)) <= 1e-12

    def test_unnormalized_input_rejected(self):
        with pytest.raises(NotNormalized):
            projector(np.array([1.0, 1.0]))

    def test_nan_input_rejected(self):
        with pytest.raises(NotNormalized):
            projector(np.array([np.nan, 0.0]))


class TestBornProbability:
    def test_projector_onto_own_state(self):
        p = projector(basis_vector(2, 0))
        rho = DensityMatrix(p)
        assert born_probability(p, rho) == 1.0

    def test_orthogonal_component(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        rho = DensityMatrix(projector(plus))
        assert abs(born_probability(projector(basis_vector(2, 0)), rho) - 0.5) <= 1e-12

    def test_block_projector_is_diagonal_partial_sum(self):
        rng = np.random.default_rng(19)
        p = np.zeros((4, 4), dtype=np.complex128)
        p[[0, 1], [0, 1]] = 1.0
        for _ in range(50):
            rho = random_density(rng, 4)
            expected = sum(
                float(rho.matrix[i, i].real) for i in (0, 1)
            )
            assert abs(born_probability(p, rho) - expected) <= 1e-12

    def test_shape_mismatch_rejected(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ShapeMismatch):
            born_probability(np.eye(3), rho)

    def test_accepts_raw_matrix_state(self):
        p = projector(basis_vector(2, 1))
        assert born_probability(p, np.eye(2) / 2) == pytest.approx(0.5, abs=1e-15)


class TestCollapseSample:
    def test_basis_state_always_collapses_to_itself(self):
        rng = np.random.default_rng(23)
        psi = basis_vector(4, 0)
        for _ in range(50):
            index, collapsed = collapse_sample(psi, rng)
            assert index == 0
            np.testing.assert_array_equal(collapsed, psi)

    def test_equal_superposition_frequency(self):
        rng = np.random.default_rng(29)
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        hits = sum(collapse_sample(psi, rng)[0] == 0 for _ in range(100_000))
        assert abs(hits / 100_000 - 0.5) <= 0.01

    def test_unbalanced_amplitude_frequency(self):
        rng = np.random.default_rng(31)
        psi = np.array([0.6, 0.8])
        hits = sum(collapse_sample(psi, rng)[0] == 0 for _ in range(100_000))
        assert abs(hits / 100_000 - 0.36) <= 0.01

    def test_identical_seeds_identical_sequences(self):
        psi = np.array([0.3, 0.5, 0.2, 0.7])
        psi = psi / np.linalg.norm(psi)
        rng_a, rng_b = np.random.default_rng(37), np.random.default_rng(37)
        seq_a = [collapse_sample(psi, rng_a)[0] for _ in range(200)]
        seq_b = [collapse_sample(psi, rng_b)[0] for _ in range(200)]
        assert seq_a == seq_b

    def test_collapsed_vector_is_basis_state(self):
        rng = np.random.default_rng(41)
        psi = rng.standard_normal(5)
        psi = psi / np.linalg.norm(psi)
        index, collapsed = collapse_sample(psi, rng)
        np.testing.assert_array_equal(collapsed, basis_vector(5, index, dtype=psi.dtype))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(NotNormalized):
            collapse_sample(np.array([1.0, 1.0]), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "psi",
        [np.array([np.nan, 0.0]), np.array([np.inf, 0.0]), np.array([1.0 + 0j, np.nan])],
    )
    def test_non_finite_state_rejected(self, psi):
        with pytest.raises(NotNormalized):
            collapse_sample(psi, np.random.default_rng(0))

    def test_empty_state_rejected(self):
        with pytest.raises(NotNormalized):
            collapse_sample(np.array([]), np.random.default_rng(0))

    def test_matrix_state_rejected(self):
        with pytest.raises(ShapeMismatch):
            collapse_sample(np.eye(2) / np.sqrt(2), np.random.default_rng(0))

    @pytest.mark.parametrize("complex_field", [False, True])
    @pytest.mark.parametrize("dim", [1, 2, 3, 17, 500, DENSE_CAP])
    def test_matches_inverse_cdf_reference(self, dim, complex_field):
        # Reference: searchsorted over the full cumulative sum of |psi|^2, with
        # the uniform draw taken from a clone of the generator before each call.
        rng = np.random.default_rng(43 + dim)
        states = [random_unit(rng, dim, complex_field)]
        if dim > 1:
            sparse = random_unit(rng, dim, complex_field)
            sparse[rng.random(dim) < 0.5] = 0.0
            sparse[0] = sparse[-1] = 0.0
            sparse[dim // 2] = 1.0
            states.append(sparse / np.linalg.norm(sparse))
        for psi in states:
            cdf = np.cumsum(np.abs(psi) ** 2)
            for _ in range(30):
                clone = copy.deepcopy(rng)
                u = clone.random() * cdf[-1]
                expected = min(int(np.searchsorted(cdf, u, side="right")), dim - 1)
                index, collapsed = collapse_sample(psi, rng)
                assert index == expected
                assert collapsed.dtype == psi.dtype
                np.testing.assert_array_equal(collapsed, basis_vector(dim, expected, dtype=psi.dtype))
                assert rng.bit_generator.state == clone.bit_generator.state

    class FixedDraw:
        """Stand-in generator whose uniform draw is chosen by the test."""

        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    @pytest.mark.parametrize(
        "psi, u",
        [
            # u = 0 lands on the edge of an empty first bin.
            (np.array([0.0, 1.0]), 0.0),
            # u lands exactly on the first bin's upper edge.
            (np.array([0.6, 0.8]), 0.36),
            # Norm just inside the tolerance and a trailing zero amplitude:
            # only the draw scaled by the total stays inside the last live bin.
            (np.array([0.6, 0.8 - 1e-9, 0.0]), np.nextafter(1.0, 0.0)),
            # u = 1 lies outside random()'s range; the index is clamped in bounds.
            (np.array([0.6, 0.8]), 1.0),
        ],
    )
    def test_matches_inverse_cdf_reference_at_bin_edges(self, psi, u):
        cdf = np.cumsum(np.abs(psi) ** 2)
        expected = min(int(np.searchsorted(cdf, u * cdf[-1], side="right")), psi.shape[0] - 1)
        index, _ = collapse_sample(psi, self.FixedDraw(u))
        assert index == expected
        assert psi[index] != 0.0


class TestDensityMatrix:
    def test_non_hermitian_rejected(self):
        m = np.array([[0.5, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_wrong_trace_rejected(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(2))

    def test_negative_eigenvalue_rejected(self):
        m = np.diag([1.5, -0.5])
        with pytest.raises(ValueError):
            DensityMatrix(m)

    def test_non_square_rejected(self):
        with pytest.raises(ShapeMismatch):
            DensityMatrix(np.ones((2, 3)) / 6)

    @pytest.mark.parametrize(
        "m",
        [
            [[np.nan, 0.0], [0.0, 0.5]],
            [[0.5, np.nan], [np.nan, 0.5]],
            [[np.inf, 0.0], [0.0, 0.5]],
            [[0.5 + 1j * np.nan, 0.0], [0.0, 0.5]],
        ],
    )
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_non_finite_matrix_rejected(self, m):
        with pytest.raises(ValueError):
            DensityMatrix(np.array(m))

    def test_array_is_frozen(self):
        rho = DensityMatrix(np.eye(2) / 2)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.9

    def test_pure_state_has_zero_purity_defect(self):
        rng = np.random.default_rng(43)
        rho = DensityMatrix(projector(random_unit(rng, 4, complex_field=True)))
        assert rho.purity_defect() <= 1e-12

    def test_eigenvalues_ascending_and_simplex(self):
        rng = np.random.default_rng(47)
        rho = random_density(rng, 6)
        eigs = rho.eigenvalues()
        assert np.all(np.diff(eigs) >= 0)
        assert abs(eigs.sum() - 1.0) <= 1e-10
        assert eigs[0] >= -1e-8


class TestBuildDensity:
    def test_single_component_is_pure(self):
        rng = np.random.default_rng(53)
        rho = build_density([1.0], [random_unit(rng, 4, complex_field=True)])
        assert rho.purity_defect() <= 1e-12

    def test_equal_mixture_of_orthogonal_states(self):
        rho = build_density([0.5, 0.5], [basis_vector(4, 0), basis_vector(4, 1)])
        eigs = rho.eigenvalues()
        np.testing.assert_allclose(np.sort(eigs)[-2:], [0.5, 0.5], atol=1e-12)

    def test_validity_over_random_mixtures(self):
        rng = np.random.default_rng(59)
        for _ in range(50):
            dim = int(rng.choice([3, 6, 9]))
            rho = random_density(rng, dim)
            m = rho.matrix
            assert np.max(np.abs(m - m.conj().T)) <= 1e-10
            assert abs(complex(np.trace(m)) - 1.0) <= 1e-10
            assert float(np.linalg.eigvalsh(m)[0]) >= -1e-8

    def test_weights_must_sum_to_one(self):
        v = basis_vector(2, 0)
        with pytest.raises(WeightNotNormalized):
            build_density([0.5, 0.4], [v, basis_vector(2, 1)])

    def test_negative_weight_rejected(self):
        with pytest.raises(WeightNotNormalized):
            build_density([1.5, -0.5], [basis_vector(2, 0), basis_vector(2, 1)])

    def test_mixed_dimensions_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_density([0.5, 0.5], [basis_vector(2, 0), basis_vector(3, 0)])

    def test_empty_mixture_rejected(self):
        with pytest.raises(EmptyInput):
            build_density([], [])

    def test_unnormalized_component_rejected(self):
        with pytest.raises(NotNormalized):
            build_density([1.0], [np.array([1.0, 1.0])])

    def test_nan_component_rejected(self):
        with pytest.raises(NotNormalized):
            build_density([1.0], [np.array([np.nan, 0.0])])


class TestObservable:
    def test_coordinate_blocks_resolve_identity(self):
        obs = Observable.coordinate_blocks(6, 3, (-1.0, 0.0, 1.0))
        total = sum(obs.projectors)
        np.testing.assert_allclose(total, np.eye(6), atol=1e-12)

    def test_probabilities_form_distribution(self):
        rng = np.random.default_rng(61)
        obs = Observable.coordinate_blocks(6, 3, (-1.0, 0.0, 1.0))
        for _ in range(50):
            probs = obs.probabilities(random_density(rng, 6))
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) <= 1e-10

    def test_expectation_matches_weighted_sum(self):
        rng = np.random.default_rng(67)
        obs = Observable.coordinate_blocks(6, 3, (-1.0, 0.0, 1.0))
        rho = random_density(rng, 6)
        probs = obs.probabilities(rho)
        assert obs.expectation(rho) == pytest.approx(float(np.dot(obs.eigenvalues, probs)))

    def test_indivisible_dimension_rejected(self):
        with pytest.raises(ValueError):
            Observable.coordinate_blocks(7, 3, (-1.0, 0.0, 1.0))

    def test_non_orthogonal_projectors_rejected(self):
        p = projector(basis_vector(2, 0))
        with pytest.raises(ValueError):
            Observable(projectors=(p, p), eigenvalues=np.array([0.0, 1.0]))

    def test_incomplete_resolution_rejected(self):
        p = projector(basis_vector(3, 0))
        q = projector(basis_vector(3, 1))
        with pytest.raises(ValueError):
            Observable(projectors=(p, q), eigenvalues=np.array([0.0, 1.0]))

    def test_eigenvalue_count_must_match(self):
        p = projector(basis_vector(2, 0))
        q = projector(basis_vector(2, 1))
        with pytest.raises(ShapeMismatch):
            Observable(projectors=(p, q), eigenvalues=np.array([1.0]))
