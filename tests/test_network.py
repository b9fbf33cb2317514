"""Whole-cascade behavior: degeneracies, determinism, feasibility, tapes."""

import numpy as np
import pytest
from conftest import synthetic_image

from proxdenoise.errors import BadArgument, ShapeMismatch, TapeMismatch
from proxdenoise.network import (
    Architecture,
    cast_params,
    color_architecture,
    desk_architecture,
    forward_with_residuals,
    grayscale_architecture,
    init_network,
    match_table,
    network_backward,
    network_forward,
    noise_estimate_trace,
    parameter_count,
    parameters,
)
from proxdenoise.training import awgn


def tiny_arch(variant):
    return desk_architecture(
        variant=variant, stages=2, filters=4, kernel=(3, 3), group_size=3, window=(7, 7)
    )


def zero_potentials(params):
    for layer in params.layers:
        layer.rbf.coeffs[...] = 0.0
    return params


class TestArchitecture:
    def test_preset_shapes(self):
        g = grayscale_architecture()
        assert (g.channels, g.filters, g.kernel) == (1, 48, (7, 7))
        c = color_architecture()
        assert (c.channels, c.filters, c.kernel) == (3, 74, (5, 5))
        assert g.variant == c.variant == "nonlocal"

    def test_bad_variant(self):
        with pytest.raises(Exception):
            Architecture("global", 1, 2, 4, (3, 3))

    def test_parameter_count_formula(self):
        # per stage: filters * (kh*kw*channels + 1) for the bank, one
        # mixture of rbf_size coefficients per filter, one alpha, and,
        # when nonlocal, group_size weights
        arch = tiny_arch("nonlocal")
        params = init_network(arch)
        per_stage = 4 * (9 + 1) + 4 * arch.rbf_size + 1 + 3
        assert parameter_count(params) == 2 * per_stage
        local = init_network(tiny_arch("local"))
        assert parameter_count(local) == 2 * (4 * (9 + 1) + 4 * arch.rbf_size + 1)


class TestIdentityDegeneracy:
    @pytest.mark.parametrize("variant", ["local", "nonlocal"])
    def test_zero_potentials_pass_input_through(self, variant):
        # with every mixture coefficient at zero the update direction
        # vanishes, each stage returns its input, and the network is the
        # output clip
        rng = np.random.default_rng(11)
        params = zero_potentials(init_network(tiny_arch(variant), seed=3))
        y = rng.uniform(-20.0, 280.0, (12, 11, 1)).astype(np.float32)
        out = network_forward(y, 25.0, params)
        np.testing.assert_array_equal(out, np.clip(y, 0.0, 255.0))

    def test_in_range_input_survives_bitwise(self):
        rng = np.random.default_rng(12)
        params = zero_potentials(init_network(tiny_arch("local"), seed=3))
        y = rng.uniform(1.0, 254.0, (10, 10, 1)).astype(np.float32)
        np.testing.assert_array_equal(network_forward(y, 10.0, params), y)


class TestForward:
    @pytest.mark.parametrize("variant", ["local", "nonlocal"])
    def test_deterministic(self, variant):
        params = init_network(tiny_arch(variant), seed=7)
        y = synthetic_image(0, 14, 13) + awgn(synthetic_image(0, 14, 13) * 0, 15.0, 1)
        a = network_forward(y, 15.0, params)
        b = network_forward(y, 15.0, params)
        np.testing.assert_array_equal(a, b)

    def test_output_in_range(self):
        params = init_network(tiny_arch("nonlocal"), seed=2)
        rng = np.random.default_rng(4)
        y = rng.uniform(-30, 290, (13, 12, 1)).astype(np.float32)
        out = network_forward(y, 20.0, params)
        assert out.min() >= 0.0 and out.max() <= 255.0

    def test_shape_mismatch(self):
        params = init_network(tiny_arch("local"))
        with pytest.raises(ShapeMismatch):
            network_forward(np.zeros((8, 8, 3)), 10.0, params)
        with pytest.raises(ShapeMismatch):
            network_forward(np.zeros((8, 8)), 10.0, params)

    @pytest.mark.parametrize("variant", ["local", "nonlocal"])
    def test_non_finite_input_rejected(self, variant):
        # one bad pixel would otherwise turn the whole output into NaN
        params = init_network(tiny_arch(variant), seed=1)
        for bad in (np.nan, np.inf):
            y = synthetic_image(1, 12, 12)
            y[5, 6, 0] = bad
            with pytest.raises(BadArgument):
                network_forward(y, 15.0, params)

    def test_precomputed_table_matches(self):
        params = init_network(tiny_arch("nonlocal"), seed=5)
        y = synthetic_image(2, 12, 12)
        table = match_table(y, params.arch)
        np.testing.assert_array_equal(
            network_forward(y, 12.0, params),
            network_forward(y, 12.0, params, table=table),
        )

    def test_channels_color(self):
        arch = desk_architecture(
            variant="nonlocal", channels=3, filters=4, kernel=(3, 3), group_size=3, window=(7, 7)
        )
        params = init_network(arch, seed=1)
        y = synthetic_image(5, 12, 12, channels=3)
        out = network_forward(y, 10.0, params)
        assert out.shape == y.shape


class TestStageFeasibility:
    @pytest.mark.parametrize("variant", ["local", "nonlocal"])
    def test_every_stage_inside_its_ball(self, variant):
        # the projection guarantees ||y - x_t|| <= radius_t at every stage
        for seed in range(5):
            params = init_network(tiny_arch(variant), seed=seed)
            clean = synthetic_image(seed, 16, 15)
            y = clean + awgn(np.zeros_like(clean), 20.0, seed)
            trace = noise_estimate_trace(y, 20.0, params)
            assert len(trace) == params.arch.stages
            for norm, radius in trace:
                assert norm <= radius * (1 + 16 * np.finfo(np.float32).eps)

    def test_trace_with_zero_potentials(self):
        # x_t == y at every stage, so the residual norm is exactly zero
        params = zero_potentials(init_network(tiny_arch("local"), seed=1))
        y = synthetic_image(1, 12, 12)
        for norm, radius in noise_estimate_trace(y, 25.0, params):
            assert norm == 0.0 and radius > 0.0

    def test_forward_with_residuals_consistent(self):
        params = init_network(tiny_arch("nonlocal"), seed=9)
        y = synthetic_image(4, 13, 13)
        out, trace = forward_with_residuals(y, 18.0, params)
        np.testing.assert_array_equal(out, network_forward(y, 18.0, params))
        assert len(trace) == 2


class TestTape:
    def test_backward_requires_tape_coverage(self):
        params = init_network(tiny_arch("local"), seed=0)
        y = synthetic_image(0, 10, 10)
        out, tape = network_forward(y, 10.0, params, want_tape=True)
        tape.layers.pop()
        with pytest.raises(TapeMismatch):
            network_backward(params, tape, np.ones_like(out))

    def test_backward_checks_grad_shape(self):
        params = init_network(tiny_arch("local"), seed=0)
        y = synthetic_image(0, 10, 10)
        out, tape = network_forward(y, 10.0, params, want_tape=True)
        with pytest.raises(TapeMismatch):
            network_backward(params, tape, np.ones((3, 3, 1)))

    def test_backward_covers_every_parameter(self):
        for variant in ("local", "nonlocal"):
            params = init_network(tiny_arch(variant), seed=6)
            y = synthetic_image(3, 12, 12)
            out, tape = network_forward(y, 14.0, params, want_tape=True)
            grads = network_backward(params, tape, np.ones_like(out))
            assert set(grads) == set(parameters(params))
            for name, g in grads.items():
                assert g.shape == parameters(params)[name].shape, name
                assert np.isfinite(g).all(), name


class TestCastParams:
    def test_round_trip_dtypes(self):
        params = init_network(tiny_arch("nonlocal"), seed=8)
        doubled = cast_params(params, np.float64)
        for name, value in parameters(doubled).items():
            assert value.dtype == np.float64, name
        back = cast_params(doubled, np.float32)
        for name, value in parameters(back).items():
            assert value.dtype == np.float32, name
            np.testing.assert_array_equal(value, parameters(params)[name])

    def test_cast_is_a_copy(self):
        params = init_network(tiny_arch("local"), seed=8)
        doubled = cast_params(params, np.float64)
        doubled.layers[0].alpha[...] = 99.0
        assert float(params.layers[0].alpha) == 0.0
