"""Tests for query representations and the factored semantic space.

The projection is checked against a dense oracle (full materialization of
both tensors followed by an inner product), and the decomposition is checked
against constructed ground truth built from known factors.
"""

import numpy as np
import pytest

from qforage import qcore
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
    CPOptions,
    GlobalRepresentation,
    QueryState,
    cp_decompose,
    cp_reconstruct,
    embed_query,
    materialize_local,
    product_pool,
    project,
    renormalize_rows,
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

    def test_renormalize_with_ids_touches_only_those_rows(self):
        table = make_table(np.random.default_rng(15))
        table.amplitudes[1:] *= 1.5
        table.amplitudes[NULL_ID] = 0.5
        before = table.amplitudes.copy()
        ids = np.array([0, 2, 4])
        table.renormalize(ids)
        np.testing.assert_allclose(np.linalg.norm(table.amplitudes[ids], axis=1), 1.0, atol=1e-9)
        np.testing.assert_array_equal(table.amplitudes[NULL_ID], [1.0, 0.0, 0.0])
        untouched = np.setdiff1d(np.arange(table.num_rows), ids)
        assert table.amplitudes[untouched].tobytes() == before[untouched].tobytes()


def per_row_reference(rows, ids=None):
    """The per-row loop renormalize_rows replaced, limited to `ids`."""
    sq = np.einsum("ij,ij->i", rows, rows)
    for i in range(rows.shape[0]) if ids is None else ids:
        if abs(sq[i] - 1.0) > 1e-13:
            rows[i] /= np.sqrt(sq[i])


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
        rng = np.random.default_rng(50 + basis_dim)
        rows = self.rows_around_the_dead_band(rng, basis_dim)
        ids = np.array([1, 3, 4, 5, 6, 9, 17, 30])
        expected = rows.copy()
        per_row_reference(expected, ids)
        renormalize_rows(rows, ids)
        assert rows.tobytes() == expected.tobytes()

    def test_band_edges_and_non_finite_rows(self):
        rows = self.rows_around_the_dead_band(np.random.default_rng(71), 4)
        before = rows.copy()
        renormalize_rows(rows)
        assert rows[1:3].tobytes() == before[1:3].tobytes()
        assert rows[3].tobytes() != before[3].tobytes()
        assert rows[4].tobytes() != before[4].tobytes()
        assert np.isnan(rows[5]).all()
        np.testing.assert_allclose(np.linalg.norm(rows[3:5], axis=1), 1.0, atol=1e-15)

    def test_writes_through_a_reshaped_view(self):
        factors = np.random.default_rng(73).standard_normal((3, 2, 4))
        renormalize_rows(factors.reshape(-1, 4), np.array([1, 4]))
        norms = np.linalg.norm(factors, axis=2)
        np.testing.assert_allclose(norms[[0, 2], [1, 0]], 1.0, atol=1e-15)
        assert abs(norms[0, 0] - 1.0) > 1e-3


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

    def test_options_respected(self):
        rng = np.random.default_rng(109)
        g_true = random_global(rng, rank=2, order=3, basis_dim=3)
        t = cp_reconstruct(g_true)
        opts = CPOptions(restarts=1, max_sweeps=3, early_stop=0.0)
        _, report = cp_decompose(t, rank=2, rng=np.random.default_rng(8), options=opts)
        assert report.restarts_run == 1
        assert report.sweeps <= 3
