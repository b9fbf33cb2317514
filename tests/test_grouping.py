"""Block matching and group filtering."""

import numpy as np
import pytest
from conftest import block_match_oracle, group_adjoint_oracle, group_filter_oracle, synthetic_image

from proxdenoise import grouping
from proxdenoise.conv import FilterBank, conv_adjoint, conv_forward
from proxdenoise.errors import BadArgument, DegenerateWeights, ShapeMismatch
from proxdenoise.grouping import (
    GroupIndexTable,
    GroupWeights,
    block_match,
    group_filter,
    group_filter_adjoint,
    group_weight_backward,
    nonlocal_adjoint,
    nonlocal_forward,
    raw_weight_backward,
)
from proxdenoise.verify import fd_inplace, rel_error


class TestBlockMatch:
    def test_reference_always_first(self, rng):
        y = rng.uniform(0, 255, (10, 10, 1))
        for group_size in (4, 1):
            table = block_match(y, (3, 3), (5, 5), group_size)
            assert table.group_size == group_size
            np.testing.assert_array_equal(table.indices[:, 0], np.arange(table.sites))

    def test_constant_image_tie_break(self):
        # all distances are zero: after the reference come the smallest
        # row-major site indices inside the window
        y = np.full((8, 8, 1), 9.0)
        table = block_match(y, (3, 3), (5, 5), 3)
        gw = table.grid_w
        # site in the middle of the grid: window corner has the lowest index
        k = 3 * gw + 3
        assert table.indices[k, 0] == k
        np.testing.assert_array_equal(table.indices[k, 1:], [k - 2 * gw - 2, k - 2 * gw - 1])
        # top-left site: itself, then its right neighbor, which beats the
        # site below on row-major order
        np.testing.assert_array_equal(table.indices[0], [0, 1, 2])

    def test_exact_duplicate_found_first(self):
        rng = np.random.default_rng(5)
        y = rng.uniform(0, 255, (12, 12, 1))
        y[6:9, 6:9] = y[1:4, 1:4]  # duplicate patch at offset (5, 5)
        table = block_match(y, (3, 3), (11, 11), 4)
        gw = table.grid_w
        ref = 1 * gw + 1
        assert table.indices[ref, 1] == 6 * gw + 6

    @pytest.mark.parametrize(
        "channels, levels, patch, window, group_size, chunk_bytes",
        [
            pytest.param(1, None, (5, 5), (11, 11), 4, None, id="1"),
            pytest.param(3, None, (5, 5), (11, 11), 4, None, id="3"),
            # pixel values in {0..3}: most distances tie, which a selection
            # that is not tie-exact (plain argpartition) gets wrong
            pytest.param(1, 4, (5, 5), (11, 11), 6, None, id="ties-1"),
            pytest.param(3, 4, (5, 5), (11, 11), 6, None, id="ties-3"),
            pytest.param(1, 4, (3, 5), (7, 13), 6, None, id="ties-nonsquare"),
            # a one-byte budget makes every grid row its own chunk
            pytest.param(3, 4, (4, 3), (9, 5), 6, 1, id="ties-row-chunks"),
        ],
    )
    def test_matches_exhaustive_oracle(self, monkeypatch, channels, levels, patch, window,
                                       group_size, chunk_bytes):
        if chunk_bytes is not None:
            monkeypatch.setattr(grouping, "_CHUNK_BYTES", chunk_bytes)
        for seed in range(6):
            rng = np.random.default_rng([7, seed])
            if levels is None:
                y = rng.uniform(0, 255, (16, 16, channels))
            else:
                y = rng.integers(0, levels, (16, 16, channels)).astype(np.float64)
            table = block_match(y, patch, window, group_size)
            want = block_match_oracle(y, patch, window, group_size)
            np.testing.assert_array_equal(table.indices, want)

    def test_natural_image_oracle(self):
        y = synthetic_image(3, 16, 16).astype(np.float64)
        table = block_match(y, (5, 5), (11, 11), 4)
        np.testing.assert_array_equal(table.indices, block_match_oracle(y, (5, 5), (11, 11), 4))

    def test_group_too_large(self, rng):
        y = rng.uniform(0, 255, (8, 8, 1))
        for group_size in (10, 0, 2.5, np.float64(3.0)):  # corner population is 9
            with pytest.raises(BadArgument):
                block_match(y, (3, 3), (5, 5), group_size)

    def test_even_window_rejected(self, rng):
        y = rng.uniform(0, 255, (8, 8, 1))
        for window in ((4, 5), (5, 0), (-1, 5), (3.0, 5)):
            with pytest.raises(BadArgument):
                block_match(y, (3, 3), window, 2)

    def test_patch_must_fit(self, rng):
        y = rng.uniform(0, 255, (4, 4, 1))
        for patch in ((5, 5), (0, 3), (3, -1), (2.5, 2)):
            with pytest.raises(BadArgument):
                block_match(y, patch, (3, 3), 2)

    def test_non_finite_image_rejected(self, rng):
        for bad in (np.nan, np.inf, -np.inf):
            y = rng.uniform(0, 255, (8, 8, 1))
            y[3, 4, 0] = bad
            with pytest.raises(BadArgument):
                block_match(y, (3, 3), (5, 5), 2)

    def test_indices_inside_window(self, rng):
        y = rng.uniform(0, 255, (14, 13, 1))
        table = block_match(y, (4, 3), (7, 7), 5)
        rows = table.indices // table.grid_w
        cols = table.indices % table.grid_w
        assert (np.abs(rows - rows[:, :1]) <= 3).all()
        assert (np.abs(cols - cols[:, :1]) <= 3).all()


class TestGroupWeights:
    def test_default_init(self):
        gw = GroupWeights.default_init(4)
        np.testing.assert_allclose(gw.raw, [1.0, 0.5, 1.0 / 3.0, 0.25], rtol=1e-6)
        np.testing.assert_allclose(gw.effective().sum(), 1.0, rtol=1e-6)

    def test_zero_sum_degenerate(self):
        with pytest.raises(DegenerateWeights):
            GroupWeights(np.array([1.0, -1.0])).effective()

    def test_normalization_jacobian_kills_constants(self, rng):
        # a constant effective-weight gradient must map to zero raw gradient
        gw = GroupWeights(rng.uniform(0.2, 1.0, 5))
        g = raw_weight_backward(np.full(5, 3.7), gw)
        np.testing.assert_allclose(g, 0.0, atol=1e-15)


class TestGroupFilter:
    def make_case(self, rng, filters=2):
        y = rng.uniform(0, 255, (9, 8, 1))
        table = block_match(y, (3, 3), (5, 5), 3)
        feats = rng.standard_normal((table.grid_h, table.grid_w, filters))
        return table, feats

    def test_identity_weights(self, rng):
        table, feats = self.make_case(rng)
        gw = GroupWeights(np.array([1.0, 0.0, 0.0]))
        np.testing.assert_allclose(group_filter(feats, table, gw), feats, rtol=1e-14)
        np.testing.assert_allclose(group_filter_adjoint(feats, table, gw), feats, rtol=1e-14)

    def test_constant_features_preserved(self, rng):
        # effective weights sum to one, so a constant field is untouched
        table, _ = self.make_case(rng)
        gw = GroupWeights(rng.uniform(0.1, 1.0, 3))
        feats = np.full((table.grid_h, table.grid_w, 2), 4.25)
        np.testing.assert_allclose(group_filter(feats, table, gw), feats, rtol=1e-12)

    def test_matches_gather_oracle(self, rng):
        table, feats = self.make_case(rng)
        gw = GroupWeights(rng.uniform(0.1, 1.0, 3))
        got = group_filter(feats, table, gw)
        want = group_filter_oracle(feats, table.indices, gw.effective())
        assert rel_error(got, want) < 1e-14

    def test_adjoint_matches_scatter_oracle(self, monkeypatch):
        # the left half is constant, so every tie breaks toward the window
        # corner: a few sites join many groups and many sites join none
        rng = np.random.default_rng(21)
        y = rng.integers(0, 4, (14, 16, 1)).astype(np.float64)
        y[:, :8] = 1.0
        table = block_match(y, (3, 3), (7, 7), 5)
        uses = np.bincount(table.indices.ravel(), minlength=table.sites)
        assert uses.min() == 1 and uses.max() >= 3 * table.group_size
        gw = GroupWeights(rng.uniform(0.1, 1.0, 5).astype(np.float32))
        z = rng.standard_normal((table.grid_h, table.grid_w, 3)).astype(np.float32)
        want = group_adjoint_oracle(z, table.indices, gw.effective())
        # both sides sum uses[t] float32 products in different orders
        scale = group_adjoint_oracle(np.abs(z).astype(np.float64), table.indices, gw.effective())
        tol = 2 * uses[:, None] * np.finfo(np.float32).eps * scale.reshape(-1, 3)
        for chunk_bytes in (grouping._CHUNK_BYTES, 1):  # one target per chunk
            monkeypatch.setattr(grouping, "_CHUNK_BYTES", chunk_bytes)
            got = group_filter_adjoint(z, table, gw)
            assert got.dtype == np.float32
            err = np.abs(got - want).reshape(-1, 3)
            assert (err <= tol).all()

    def test_adjoint_dot_identity(self, rng):
        for _ in range(25):
            table, a = self.make_case(rng, filters=int(rng.integers(1, 4)))
            gw = GroupWeights(rng.uniform(0.1, 1.0, 3))
            b = rng.standard_normal(a.shape)
            lhs = float(np.vdot(group_filter(a, table, gw), b))
            rhs = float(np.vdot(a, group_filter_adjoint(b, table, gw)))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))

    def test_weight_gradient_matches_fd(self, rng):
        for _ in range(5):
            table, feats = self.make_case(rng)
            gw = GroupWeights(rng.uniform(0.2, 1.5, 3))
            t = rng.standard_normal(feats.shape)
            grad = group_weight_backward(feats, table, gw, t)

            def f():
                return float(np.vdot(group_filter(feats, table, gw), t))

            assert rel_error(fd_inplace(f, gw.raw), grad) < 1e-6

    def test_grid_mismatch(self, rng):
        table, _ = self.make_case(rng)
        gw = GroupWeights(np.ones(3))
        with pytest.raises(ShapeMismatch):
            group_filter(rng.standard_normal((3, 3, 2)), table, gw)

    def test_table_row_count_checked(self):
        with pytest.raises(ShapeMismatch):
            GroupIndexTable(np.zeros((5, 2), dtype=np.int64), 2, 2)

    def test_table_indices_must_be_sites(self):
        for bad in (-1, 4):
            with pytest.raises(BadArgument):
                GroupIndexTable(np.array([[0, 1], [1, 0], [2, bad], [3, 2]]), 2, 2)


class TestNonlocalOperator:
    def test_identity_group_reduces_to_convolution(self, rng):
        y = rng.uniform(0, 255, (10, 9, 1))
        bank = FilterBank.random(rng, 3, 3, 3, 1, dtype=np.float64)
        table = block_match(y, (3, 3), (5, 5), 3)
        gw = GroupWeights(np.array([1.0, 0.0, 0.0]))
        x = rng.standard_normal(y.shape)
        np.testing.assert_allclose(
            nonlocal_forward(x, bank, table, gw), conv_forward(x, bank, "valid"), rtol=1e-12
        )
        z = rng.standard_normal((table.grid_h, table.grid_w, 3))
        np.testing.assert_allclose(
            nonlocal_adjoint(z, bank, table, gw), conv_adjoint(z, bank, "valid"), rtol=1e-12
        )

    def test_constant_image_zero_response(self, rng):
        y = rng.uniform(0, 255, (10, 9, 1))
        bank = FilterBank.random(rng, 3, 3, 3, 1, dtype=np.float64)
        table = block_match(y, (3, 3), (5, 5), 3)
        gw = GroupWeights(rng.uniform(0.1, 1.0, 3))
        out = nonlocal_forward(np.full((10, 9, 1), 11.0), bank, table, gw)
        np.testing.assert_allclose(out, 0.0, atol=1e-11)

    def test_composition_dot_identity(self, rng):
        for _ in range(10):
            channels = int(rng.integers(1, 4))
            y = rng.uniform(0, 255, (9, 10, channels))
            bank = FilterBank.random(rng, 2, 3, 3, channels, dtype=np.float64)
            table = block_match(y, (3, 3), (7, 7), 4)
            gw = GroupWeights(rng.uniform(0.1, 1.0, 4))
            x = rng.standard_normal(y.shape)
            z = rng.standard_normal((table.grid_h, table.grid_w, 2))
            lhs = float(np.vdot(nonlocal_forward(x, bank, table, gw), z))
            rhs = float(np.vdot(x, nonlocal_adjoint(z, bank, table, gw)))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs))
