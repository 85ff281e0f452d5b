"""Tests for query representations and the factored semantic space.

The projection is checked against a dense oracle (full materialization of
both tensors followed by an inner product), and the decomposition is checked
against constructed ground truth built from known factors.
"""

import numpy as np
import pytest

from qforage import qcore, qrep
from qforage.errors import (
    DenseCapExceeded,
    EmptyQuery,
    RankTooLarge,
    ShapeMismatch,
)
from qforage.qrep import (
    NULL_ID,
    UNK_ID,
    AmplitudeTable,
    GlobalRepresentation,
    QueryState,
    cp_decompose,
    cp_reconstruct,
    embed_query,
    materialize_local,
    product_pool,
    project,
    renormalize_rows,
    segment_unique,
)

VOCAB = ("cats", "chase", "dogs", "mice", "run")


def make_table(rng, basis_dim=3):
    return AmplitudeTable.from_vocab(VOCAB, basis_dim, rng)


def random_state(rng, order, basis_dim):
    rows = rng.standard_normal((order, basis_dim))
    renormalize_rows(rows)
    return QueryState(word_ids=np.arange(order, dtype=np.int64), rows=rows)


def random_global(rng, rank, order, basis_dim):
    factors = rng.standard_normal((rank, order, basis_dim))
    renormalize_rows(factors.reshape(-1, basis_dim))
    weights = rng.standard_normal(rank)
    return GlobalRepresentation(weights=weights, factors=factors)


class TestAmplitudeTable:
    def test_rows_are_unit_norm(self):
        table = make_table(np.random.default_rng(3))
        norms = np.linalg.norm(table.amplitudes, axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_padding_row_is_first_basis_vector(self):
        table = make_table(np.random.default_rng(5))
        np.testing.assert_array_equal(table.amplitudes[NULL_ID], [1.0, 0.0, 0.0])

    def test_word_lookup(self):
        table = make_table(np.random.default_rng(7))
        assert table.word_id("cats") == 2
        assert table.word_id("zzzunseen") == UNK_ID

    def test_renormalize_is_noop_on_normalized_rows(self):
        table = make_table(np.random.default_rng(11))
        before = table.amplitudes.tobytes()
        table.renormalize()
        assert table.amplitudes.tobytes() == before

    def test_renormalize_restores_units_and_pins_padding(self):
        table = make_table(np.random.default_rng(13))
        table.amplitudes += 0.3
        table.renormalize()
        np.testing.assert_allclose(
            np.linalg.norm(table.amplitudes, axis=1), 1.0, atol=1e-9
        )
        np.testing.assert_array_equal(table.amplitudes[NULL_ID], [1.0, 0.0, 0.0])

    def test_row_count_must_match_vocabulary(self):
        with pytest.raises(ShapeMismatch):
            AmplitudeTable(words=VOCAB, amplitudes=np.ones((3, 4)))

    def test_descend_touches_only_its_rows(self):
        rng = np.random.default_rng(15)
        table = make_table(rng)
        table.amplitudes[3] *= np.sqrt(1.0 + 5e-14)  # inside the dead band, and not stepped
        ids = np.array([0, 2, 3, 4])                  # the padding row among them
        grad = rng.standard_normal((4, 3))
        grad[2] = 0.0
        expected = descend_reference(table.amplitudes, ids, 0.3, grad)
        before = table.amplitudes.copy()
        table.descend(ids, 0.3, grad)
        assert table.amplitudes.tobytes() == expected.tobytes()
        np.testing.assert_allclose(np.linalg.norm(table.amplitudes[ids], axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(table.amplitudes[NULL_ID], [1.0, 0.0, 0.0])
        assert table.amplitudes[3].tobytes() == before[3].tobytes()
        untouched = np.setdiff1d(np.arange(table.num_rows), ids)
        assert table.amplitudes[untouched].tobytes() == before[untouched].tobytes()


def per_row_reference(rows, ids=None):
    """The per-row loop renormalize_rows replaced, limited to `ids`."""
    sq = np.einsum("ij,ij->i", rows, rows)
    for i in range(rows.shape[0]) if ids is None else ids:
        if abs(sq[i] - 1.0) > 1e-13:
            rows[i] /= np.sqrt(sq[i])


def descend_reference(amplitudes, ids, lr, grad):
    """AmplitudeTable.descend one row at a time: step, per-row scaling, padding pinned."""
    stepped = amplitudes.copy()
    for r, i in enumerate(ids):
        stepped[i] = amplitudes[i] - lr * grad[r]
    per_row_reference(stepped, ids)
    stepped[NULL_ID] = qcore.basis_vector(stepped.shape[1], 0)
    return stepped


def word_table(rows):
    """An AmplitudeTable over the given (V + 2, k) rows, without copying them."""
    return AmplitudeTable(words=tuple(f"w{i}" for i in range(rows.shape[0] - 2)), amplitudes=rows)


class TestRenormalizeRows:
    def rows_around_the_dead_band(self, rng, basis_dim):
        rows = rng.standard_normal((40, basis_dim))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        rows[1] *= np.sqrt(1.0 + 5e-14)   # squared norm just inside the band
        rows[2] *= np.sqrt(1.0 - 5e-14)
        rows[3] *= np.sqrt(1.0 + 3e-13)   # just outside
        rows[4] *= np.sqrt(1.0 - 3e-13)
        rows[5] = np.nan
        rows[7:20] *= rng.uniform(0.2, 3.0, (13, 1))
        return rows

    @pytest.mark.parametrize("basis_dim", [1, 3, 4, 12])
    def test_all_rows_match_per_row_loop_bitwise(self, basis_dim):
        rows = self.rows_around_the_dead_band(np.random.default_rng(basis_dim), basis_dim)
        expected = rows.copy()
        per_row_reference(expected)
        renormalize_rows(rows)
        assert rows.tobytes() == expected.tobytes()
        assert rows[1:3].tobytes() != rows[3:5].tobytes()

    @pytest.mark.parametrize("basis_dim", [1, 3, 4, 12])
    def test_selected_rows_match_per_row_loop_bitwise(self, basis_dim):
        # AmplitudeTable.descend is the one update of selected rows.
        rng = np.random.default_rng(50 + basis_dim)
        rows = self.rows_around_the_dead_band(rng, basis_dim)
        before = rows.copy()
        ids = np.array([1, 3, 4, 5, 6, 9, 17, 30])
        grad = rng.standard_normal((len(ids), basis_dim))
        grad[:4] = 0.0  # the band edges and the NaN row keep their norms
        expected = descend_reference(rows, ids, 0.05, grad)
        word_table(rows).descend(ids, 0.05, grad)
        assert rows.tobytes() == expected.tobytes()
        assert rows[1].tobytes() == before[1].tobytes()
        assert rows[3].tobytes() != before[3].tobytes()
        assert np.isnan(rows[5]).all()

    def test_band_edges_and_non_finite_rows(self):
        rows = self.rows_around_the_dead_band(np.random.default_rng(71), 4)
        before = rows.copy()
        renormalize_rows(rows)
        assert rows[1:3].tobytes() == before[1:3].tobytes()
        assert rows[3].tobytes() != before[3].tobytes()
        assert rows[4].tobytes() != before[4].tobytes()
        assert np.isnan(rows[5]).all()
        np.testing.assert_allclose(np.linalg.norm(rows[3:5], axis=1), 1.0, atol=1e-15)

    def rows_with_special_values(self, rng, basis_dim):
        rows = self.rows_around_the_dead_band(rng, basis_dim)
        rows[21, 0] = np.inf
        rows[22, -1] = -np.inf
        rows[23, :] = np.inf
        rows[24] = 0.0
        rows[25, 0] = np.nan       # one NaN among finite values
        rows[26] = 1e-170          # squared norm underflows to 0
        return rows

    @pytest.mark.parametrize("basis_dim", [1, 3, 4, 12])
    @pytest.mark.parametrize("selected", [False, True])
    def test_special_rows_match_per_row_loop_bitwise(self, basis_dim, selected):
        rows = self.rows_with_special_values(np.random.default_rng(90 + basis_dim), basis_dim)
        with np.errstate(invalid="ignore", divide="ignore"):
            if selected:  # Through AmplitudeTable.descend, padding row 0 among the ids.
                ids = np.array([0, 1, 2, 3, 4, 5, 8, 21, 22, 23, 24, 25, 26, 33])
                grad = np.zeros((len(ids), basis_dim))
                grad[[6, 13]] = np.random.default_rng(basis_dim).standard_normal((2, basis_dim))
                expected = descend_reference(rows, ids, 0.05, grad)
                word_table(rows).descend(ids, 0.05, grad)
            else:
                expected = rows.copy()
                per_row_reference(expected)
                renormalize_rows(rows)
        assert rows.tobytes() == expected.tobytes()
        # Rows inside the band and NaN rows keep their bits; the loop divides the rest.
        before = self.rows_with_special_values(np.random.default_rng(90 + basis_dim), basis_dim)
        assert rows[[1, 2, 5, 25]].tobytes() == before[[1, 2, 5, 25]].tobytes()
        assert np.isnan(rows[[23, 24]]).all() and np.isinf(rows[26]).all()

    def test_writes_through_a_reshaped_view(self):
        factors = np.random.default_rng(73).standard_normal((3, 2, 4))
        expected = factors.reshape(-1, 4).copy()
        per_row_reference(expected)
        renormalize_rows(factors.reshape(-1, 4))
        assert factors.tobytes() == expected.tobytes()
        np.testing.assert_allclose(np.linalg.norm(factors, axis=2), 1.0, atol=1e-15)


class TestSegmentUnique:
    """segment_unique against np.unique(..., return_inverse=True) on each segment alone."""

    @staticmethod
    def assert_matches_np_unique(values, counts):
        unique, unique_counts, inverse = segment_unique(values, counts)
        assert len(unique_counts) == len(counts)
        starts = np.cumsum(counts) - counts
        unique_starts = np.cumsum(unique_counts) - unique_counts
        for s, c, us, uc in zip(starts, counts, unique_starts, unique_counts):
            expected, expected_inverse = np.unique(values[s : s + c], return_inverse=True)
            assert uc == len(expected)
            assert unique[us : us + uc].tolist() == expected.tolist()
            assert inverse[s : s + c].tolist() == expected_inverse.tolist()

    @pytest.mark.parametrize("seed", range(6))
    def test_every_segment_equals_np_unique(self, seed):
        rng = np.random.default_rng(seed)
        counts = rng.integers(0, 16, size=rng.integers(1, 30))
        values = rng.integers(0, rng.integers(1, 40), size=int(counts.sum()))
        self.assert_matches_np_unique(values, counts)

    def test_repeats_within_and_across_segments(self):
        values = np.array([7, 7, 0, 3, 3, 3, 0, 9, 7, 2, 2])
        self.assert_matches_np_unique(values, np.array([3, 0, 4, 1, 3]))

    @pytest.mark.parametrize("values", [[5], [4, 4, 4], [9, 2, 9, 0, 2, 11]])
    def test_one_segment_is_np_unique(self, values):
        values = np.array(values)
        unique, unique_counts, inverse = segment_unique(values)
        expected, expected_inverse = np.unique(values, return_inverse=True)
        assert unique.tolist() == expected.tolist()
        assert unique_counts.tolist() == [len(expected)]
        assert inverse.tolist() == expected_inverse.tolist()
        assert inverse.dtype == expected_inverse.dtype

    def test_empty_values(self):
        values = np.array([], dtype=np.int64)
        unique, unique_counts, inverse = segment_unique(values)
        assert unique.tolist() == [] and unique_counts.tolist() == [0] and inverse.tolist() == []
        self.assert_matches_np_unique(values, np.array([0, 0, 0]))

    def test_segments_of_count_zero(self):
        values = np.array([4, 1, 4, 0, 0, 2])
        self.assert_matches_np_unique(values, np.array([0, 3, 0, 0, 2, 1, 0]))

    def test_values_next_to_the_width_at_the_plans_largest_segment_count(self):
        # A wide-bandit-sized critic side: 6000 pairs over 10 001 rows, the
        # largest value at the end of one segment and 0 at the start of the
        # next, so adjacent segments' keys differ by one.
        rng = np.random.default_rng(3)
        width = 10_001
        counts = rng.integers(0, 12, size=6000)
        pool = np.array([0, 1, width - 2, width - 1])
        values = pool[rng.integers(0, len(pool), size=int(counts.sum()))]
        self.assert_matches_np_unique(values, counts)

    def test_packed_key_bound(self):
        # 2 segments of one value each take 1 position bit, so
        # 2 * width * 2**1 < 2**63 holds for values up to 2**61 - 2 and no larger.
        widest = np.array([2**61 - 2, 0])
        self.assert_matches_np_unique(widest, np.array([1, 1]))
        with pytest.raises(ValueError, match="packed int64 sort key"):
            segment_unique(widest + np.array([1, 0]), np.array([1, 1]))


class TestEmbedQuery:
    def test_short_query_pads_with_null(self):
        table = make_table(np.random.default_rng(17))
        q = embed_query(["cats"], table, order=3)
        assert list(q.word_ids) == [table.word_id("cats"), NULL_ID, NULL_ID]
        np.testing.assert_array_equal(q.rows[0], table.amplitudes[table.word_id("cats")])
        np.testing.assert_array_equal(q.rows[1], table.amplitudes[NULL_ID])

    def test_exact_length_keeps_order(self):
        table = make_table(np.random.default_rng(19))
        q = embed_query(["dogs", "chase", "cats"], table, order=3)
        expected = [table.word_id(t) for t in ("dogs", "chase", "cats")]
        assert list(q.word_ids) == expected

    def test_unknown_token_maps_to_unk_row(self):
        table = make_table(np.random.default_rng(23))
        q = embed_query(["dogs", "zzzunseen", "cats"], table, order=3)
        assert q.word_ids[1] == UNK_ID
        np.testing.assert_array_equal(q.rows[1], table.amplitudes[UNK_ID])

    def test_long_query_truncates(self):
        table = make_table(np.random.default_rng(29))
        q = embed_query(list(VOCAB), table, order=3)
        assert q.order == 3
        assert list(q.word_ids) == [table.word_id(t) for t in VOCAB[:3]]

    def test_empty_query_rejected(self):
        table = make_table(np.random.default_rng(31))
        with pytest.raises(EmptyQuery):
            embed_query([], table, order=3)

    def test_rows_are_snapshots(self):
        table = make_table(np.random.default_rng(37))
        q = embed_query(["cats", "dogs"], table, order=2)
        saved = q.rows.copy()
        table.amplitudes[:] = 0.0
        np.testing.assert_array_equal(q.rows, saved)


class TestMaterializeLocal:
    def test_order_one_is_the_row_itself(self):
        rng = np.random.default_rng(41)
        q = random_state(rng, order=1, basis_dim=4)
        np.testing.assert_array_equal(materialize_local(q), q.rows[0])

    def test_basis_rows_give_single_entry(self):
        q = QueryState(
            word_ids=np.array([0, 1]),
            rows=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        t = materialize_local(q)
        expected = np.zeros((2, 2))
        expected[0, 1] = 1.0
        np.testing.assert_array_equal(t, expected)

    def test_frobenius_norm_of_unit_rows(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            q = random_state(rng, order=3, basis_dim=2)
            assert abs(np.linalg.norm(materialize_local(q)) - 1.0) <= 1e-12

    def test_entries_are_amplitude_products(self):
        rng = np.random.default_rng(47)
        q = random_state(rng, order=3, basis_dim=2)
        t = materialize_local(q)
        for b1 in range(2):
            for b2 in range(2):
                for b3 in range(2):
                    expected = q.rows[0, b1] * q.rows[1, b2] * q.rows[2, b3]
                    assert t[b1, b2, b3] == expected

    def test_dense_cap_enforced(self):
        rng = np.random.default_rng(53)
        q = random_state(rng, order=5, basis_dim=8)  # 8^5 = 32768 entries
        with pytest.raises(DenseCapExceeded):
            materialize_local(q)


class TestCPReconstruct:
    def test_rank_one_basis_factors(self):
        factors = np.zeros((1, 3, 2))
        factors[0, :, 0] = 1.0
        g = GlobalRepresentation(weights=np.array([1.0]), factors=factors)
        t = cp_reconstruct(g)
        expected = np.zeros((2, 2, 2))
        expected[0, 0, 0] = 1.0
        np.testing.assert_array_equal(t, expected)

    def test_opposite_weights_cancel(self):
        rng = np.random.default_rng(59)
        factors = np.broadcast_to(
            random_state(rng, 3, 2).rows, (2, 3, 2)
        ).copy()
        g = GlobalRepresentation(weights=np.array([1.5, -1.5]), factors=factors)
        np.testing.assert_allclose(cp_reconstruct(g), 0.0, atol=1e-15)

    def test_entries_match_direct_sum(self):
        rng = np.random.default_rng(61)
        g = random_global(rng, rank=2, order=3, basis_dim=2)
        t = cp_reconstruct(g)
        for b1 in range(2):
            for b2 in range(2):
                for b3 in range(2):
                    expected = sum(
                        g.weights[r]
                        * g.factors[r, 0, b1]
                        * g.factors[r, 1, b2]
                        * g.factors[r, 2, b3]
                        for r in range(2)
                    )
                    assert abs(t[b1, b2, b3] - expected) <= 1e-12


class TestProjection:
    def test_order_one_is_weighted_dot(self):
        rng = np.random.default_rng(67)
        g = random_global(rng, rank=3, order=1, basis_dim=4)
        q = random_state(rng, order=1, basis_dim=4)
        expected = float(np.dot(cp_reconstruct(g), q.rows[0]))
        assert abs(project(g, q) - expected) <= 1e-12

    def test_aligned_unit_vectors_sum_weights(self):
        factors = np.zeros((2, 3, 2))
        factors[:, :, 0] = 1.0
        g = GlobalRepresentation(weights=np.array([2.0, 3.0]), factors=factors)
        rows = np.zeros((3, 2))
        rows[:, 0] = 1.0
        q = QueryState(word_ids=np.zeros(3, dtype=np.int64), rows=rows)
        assert project(g, q) == 5.0

    def test_matches_dense_inner_product(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            order = int(rng.integers(1, 5))
            basis_dim = int(rng.integers(2, 5))
            rank = int(rng.integers(1, 6))
            g = random_global(rng, rank, order, basis_dim)
            q = random_state(rng, order, basis_dim)
            dense = float(
                np.vdot(cp_reconstruct(g).ravel(), materialize_local(q).ravel())
            )
            assert abs(project(g, q) - dense) <= 1e-10

    def test_incompatible_shapes_rejected(self):
        rng = np.random.default_rng(73)
        g = random_global(rng, rank=2, order=3, basis_dim=2)
        q = random_state(rng, order=2, basis_dim=2)
        with pytest.raises(ShapeMismatch):
            project(g, q)


class TestProductPool:
    def test_orthogonal_position_annihilates_component(self):
        factors = np.zeros((1, 2, 2))
        factors[0, 0] = [1.0, 0.0]
        factors[0, 1] = [1.0, 0.0]
        g = GlobalRepresentation(weights=np.array([1.0]), factors=factors)
        rows = np.array([[1.0, 0.0], [0.0, 1.0]])
        q = QueryState(word_ids=np.zeros(2, dtype=np.int64), rows=rows)
        assert product_pool(g, q)[0] == 0.0

    def test_order_one_components_are_dots(self):
        rng = np.random.default_rng(79)
        g = random_global(rng, rank=4, order=1, basis_dim=3)
        q = random_state(rng, order=1, basis_dim=3)
        pool = product_pool(g, q)
        for r in range(4):
            assert pool[r] == pytest.approx(float(np.dot(g.factors[r, 0], q.rows[0])), abs=1e-15)

    def test_weighted_sum_is_projection_bitwise(self):
        rng = np.random.default_rng(83)
        for _ in range(20):
            g = random_global(rng, rank=3, order=3, basis_dim=3)
            q = random_state(rng, order=3, basis_dim=3)
            assert float(np.dot(g.weights, product_pool(g, q))) == project(g, q)


class TestGlobalRepresentation:
    def test_random_init_invariants(self):
        rng = np.random.default_rng(89)
        g = GlobalRepresentation.from_random(order=4, basis_dim=3, rank=5, rng=rng)
        norms = np.linalg.norm(g.factors.reshape(-1, 3), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)
        assert np.all(np.isfinite(g.weights))
        assert np.all(g.weights > 0.0)
        assert (g.rank, g.order, g.basis_dim) == (5, 4, 3)

    def test_renormalize_restores_unit_factors(self):
        rng = np.random.default_rng(97)
        g = GlobalRepresentation.from_random(order=3, basis_dim=4, rank=2, rng=rng)
        g.factors += 0.2
        g.renormalize()
        norms = np.linalg.norm(g.factors.reshape(-1, 4), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_descend_matches_a_per_row_reference(self):
        rng = np.random.default_rng(98)
        g = GlobalRepresentation.from_random(order=3, basis_dim=4, rank=2, rng=rng)
        g.factors[1, 2] *= np.sqrt(1.0 + 5e-14)  # inside the dead band, and not stepped
        weights_grad = rng.standard_normal(2)
        factors_grad = rng.standard_normal((2, 3, 4))
        factors_grad[1, 2] = 0.0
        expected_weights = g.weights - 0.1 * weights_grad
        expected = (g.factors - 0.1 * factors_grad).reshape(-1, 4)
        per_row_reference(expected)
        before = g.factors[1, 2].copy()
        g.descend(0.1, weights_grad, factors_grad)
        assert g.weights.tobytes() == expected_weights.tobytes()
        assert g.factors.tobytes() == expected.tobytes()
        assert g.factors[1, 2].tobytes() == before.tobytes()

    def test_weight_factor_count_mismatch_rejected(self):
        with pytest.raises(ShapeMismatch):
            GlobalRepresentation(weights=np.ones(2), factors=np.ones((3, 2, 2)))


class TestCPDecompose:
    def test_exact_rank_one(self):
        rng = np.random.default_rng(101)
        g_true = random_global(rng, rank=1, order=3, basis_dim=3)
        t = cp_reconstruct(g_true)
        fitted, report = cp_decompose(t, rank=1, rng=np.random.default_rng(0))
        assert report.relative_error < 1e-10
        np.testing.assert_allclose(cp_reconstruct(fitted), t, atol=1e-9)

    def test_constructed_rank_two(self):
        rng = np.random.default_rng(103)
        g_true = random_global(rng, rank=2, order=3, basis_dim=2)
        t = cp_reconstruct(g_true)
        fitted, report = cp_decompose(t, rank=2, rng=np.random.default_rng(1))
        assert report.relative_error < 1e-6
        err = np.linalg.norm(cp_reconstruct(fitted) - t) / np.linalg.norm(t)
        assert err < 1e-6

    def test_zero_tensor_yields_zero_weights(self):
        fitted, report = cp_decompose(
            np.zeros((2, 2, 2)), rank=2, rng=np.random.default_rng(2)
        )
        np.testing.assert_array_equal(fitted.weights, 0.0)
        assert report.relative_error == 0.0

    def test_fitted_factors_are_unit(self):
        rng = np.random.default_rng(107)
        g_true = random_global(rng, rank=2, order=3, basis_dim=3)
        fitted, _ = cp_decompose(
            cp_reconstruct(g_true), rank=2, rng=np.random.default_rng(3)
        )
        norms = np.linalg.norm(fitted.factors.reshape(-1, 3), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-9)

    def test_rank_guard(self):
        with pytest.raises(RankTooLarge):
            cp_decompose(np.ones((2, 2)), rank=3, rng=np.random.default_rng(4))

    def test_non_uniform_modes_rejected(self):
        with pytest.raises(ShapeMismatch):
            cp_decompose(np.ones((2, 3)), rank=1, rng=np.random.default_rng(5))

    def test_dense_cap_enforced(self):
        with pytest.raises(DenseCapExceeded):
            cp_decompose(np.ones((9, 9, 9, 9)), rank=1, rng=np.random.default_rng(6))

    def test_invalid_rank_rejected(self):
        with pytest.raises(ValueError):
            cp_decompose(np.ones((2, 2)), rank=0, rng=np.random.default_rng(7))

    def test_recovery_panel_from_unit_factors(self):
        for seed in range(10):
            rng = np.random.default_rng(1000 + seed)
            order = int(rng.integers(2, 4))
            basis_dim = int(rng.integers(2, 4))
            rank = int(rng.integers(1, min(3, basis_dim) + 1))
            factors = rng.standard_normal((rank, order, basis_dim))
            renormalize_rows(factors.reshape(-1, basis_dim))
            g_true = GlobalRepresentation(
                weights=0.5 + rng.random(rank), factors=factors
            )
            t = cp_reconstruct(g_true)
            fitted, _ = cp_decompose(t, rank=rank, rng=np.random.default_rng(seed))
            err = np.linalg.norm(cp_reconstruct(fitted) - t) / np.linalg.norm(t)
            assert err < 1e-6

    def test_options_respected(self, monkeypatch):
        rng = np.random.default_rng(109)
        g_true = random_global(rng, rank=2, order=3, basis_dim=3)
        t = cp_reconstruct(g_true)
        for name, value in (("CP_RESTARTS", 1), ("CP_MAX_SWEEPS", 3), ("CP_EARLY_STOP", 0.0)):
            monkeypatch.setattr(qrep, name, value)
        _, report = cp_decompose(t, rank=2, rng=np.random.default_rng(8))
        assert report.restarts_run == 1
        assert report.sweeps <= 3
