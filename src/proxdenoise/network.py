"""The unrolled denoising cascade.

Each composite stage applies one constrained gradient step around the
noisy input y:

    x_t = project(x_{t-1} - A^T psi(clip(A x_{t-1})), y, radius_t)

where A is the stage's analysis operator (plain convolution for the local
variant; convolution followed by group filtering for the non-local
variant), psi is the per-channel RBF mixture, and the projection ball
radius is radius(alpha_t, sigma, N).  A and A^T share one parameter set,
so kernel gradients accumulate over both applications.  After the last
stage the output is clipped to the displayable range.

The backward pass consumes a tape recorded during the forward pass and
returns hand-derived gradients for every trainable tensor, keyed by
"layer{t}.{name}".  No automatic differentiation is involved anywhere.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import rbf as rbf_mod
from .conv import (
    FilterBank,
    conv_adjoint,
    conv_forward,
    conv_param_backward,
    weight_backward,
)
from .errors import BadArgument, ShapeMismatch, TapeMismatch
from .grouping import (
    GroupIndexTable,
    GroupWeights,
    block_match,
    group_bilinear,
    group_filter,
    group_filter_adjoint,
    raw_weight_backward,
)
from .projection import (
    ball_radius,
    project,
    project_input_backward,
    project_param_backward,
)

__all__ = [
    "Architecture",
    "CompositeLayer",
    "NetworkParams",
    "grayscale_architecture",
    "color_architecture",
    "desk_architecture",
    "init_network",
    "network_forward",
    "network_backward",
    "composite_forward",
    "composite_backward",
    "forward_with_residuals",
    "noise_estimate_trace",
    "parameters",
    "parameter_count",
    "cast_params",
]

OUTPUT_RANGE = (0.0, 255.0)


@dataclass(frozen=True)
class Architecture:
    """Static shape of a cascade; everything trainable lives elsewhere."""

    variant: str  # "local" | "nonlocal"
    channels: int
    stages: int
    filters: int
    kernel: tuple
    rbf_size: int = rbf_mod.DEFAULT_SIZE
    rbf_limit: float = rbf_mod.DEFAULT_LIMIT
    rbf_precision: float = rbf_mod.DEFAULT_PRECISION
    group_size: int = 8
    window: tuple = (31, 31)

    def __post_init__(self):
        if self.variant not in ("local", "nonlocal"):
            raise BadArgument(f"unknown variant {self.variant!r}")
        if min(self.channels, self.stages, self.filters) < 1:
            raise BadArgument("architecture sizes must be positive")


def grayscale_architecture(variant="nonlocal", stages=5):
    return Architecture(variant, channels=1, stages=stages, filters=48, kernel=(7, 7))


def color_architecture(variant="nonlocal", stages=5):
    return Architecture(variant, channels=3, stages=stages, filters=74, kernel=(5, 5))


def desk_architecture(variant="local", stages=2, channels=1, filters=16, kernel=(5, 5), **kw):
    """Small configuration for CPU-scale experiments and tests."""
    return Architecture(variant, channels, stages, filters, kernel, **kw)


@dataclass
class CompositeLayer:
    bank: FilterBank
    rbf: rbf_mod.RBFMixture
    alpha: np.ndarray  # 0-d array, log scale of the projection radius
    group: GroupWeights | None = None


@dataclass
class NetworkParams:
    arch: Architecture
    layers: list

    def __post_init__(self):
        if len(self.layers) != self.arch.stages:
            raise ShapeMismatch("layer count does not match architecture")


def init_network(arch: Architecture, seed=0, dtype=np.float32) -> NetworkParams:
    """Deterministic initialization.

    Raw filters are standard normal (the normalization makes their scale
    irrelevant), scales start at 1, mixtures start as a 0.1-slope linear
    shrinkage, alpha at 0 so the ball radius matches the expected noise
    norm, and group weights at 1/(1..P).
    """
    rng = np.random.default_rng(seed)
    centers = rbf_mod.make_centers(arch.rbf_size, -arch.rbf_limit, arch.rbf_limit)
    base = rbf_mod.shrink_coefficients(centers, arch.rbf_precision, dtype=dtype)
    kh, kw = arch.kernel
    layers = []
    for _ in range(arch.stages):
        bank = FilterBank.random(rng, arch.filters, kh, kw, arch.channels, dtype=dtype)
        mix = rbf_mod.RBFMixture(
            centers.astype(dtype), arch.rbf_precision, np.tile(base, (arch.filters, 1))
        )
        group = GroupWeights.default_init(arch.group_size, dtype) if arch.variant == "nonlocal" else None
        layers.append(CompositeLayer(bank, mix, np.zeros((), dtype=dtype), group))
    return NetworkParams(arch, layers)


def parameters(params: NetworkParams) -> dict:
    """Live views of every trainable array, keyed layer{t}.{name}.

    The returned arrays are the stored ones, so in-place optimizer updates
    mutate the network directly.
    """
    out = {}
    for t, layer in enumerate(params.layers):
        out[f"layer{t}.raw"] = layer.bank.raw
        out[f"layer{t}.scale"] = layer.bank.scale
        out[f"layer{t}.coeffs"] = layer.rbf.coeffs
        out[f"layer{t}.alpha"] = layer.alpha
        if layer.group is not None:
            out[f"layer{t}.group"] = layer.group.raw
    return out


def parameter_count(params: NetworkParams) -> int:
    return sum(a.size for a in parameters(params).values())


def cast_params(params: NetworkParams, dtype) -> NetworkParams:
    """Copy of the network with every trainable array cast to dtype."""
    layers = []
    for layer in params.layers:
        bank = FilterBank(
            layer.bank.raw.astype(dtype),
            layer.bank.scale.astype(dtype),
            layer.bank.kh,
            layer.bank.kw,
            layer.bank.in_channels,
        )
        mix = rbf_mod.RBFMixture(
            layer.rbf.centers.astype(dtype), layer.rbf.precision, layer.rbf.coeffs.astype(dtype)
        )
        group = None if layer.group is None else GroupWeights(layer.group.raw.astype(dtype))
        layers.append(CompositeLayer(bank, mix, layer.alpha.astype(dtype), group))
    return NetworkParams(params.arch, layers)


@dataclass
class LayerTape:
    x_prev: np.ndarray
    conv_feat: np.ndarray | None  # nonlocal only: features before grouping
    pre_clip: np.ndarray
    clipped: np.ndarray
    rbf_cache: np.ndarray
    psi: np.ndarray
    adj_pre: np.ndarray | None  # nonlocal only: group adjoint output fed to conv^T
    v: np.ndarray
    radius: float


@dataclass
class ForwardTape:
    y: np.ndarray
    sigma: float
    table: GroupIndexTable | None
    layers: list = field(default_factory=list)
    pre_output: np.ndarray | None = None


def match_table(y, arch: Architecture) -> GroupIndexTable:
    """Group indices for a noisy input, shared by every stage."""
    kh, kw = arch.kernel
    return block_match(y, (kh, kw), arch.window, arch.group_size)


def composite_forward(x_prev, y, sigma, layer: CompositeLayer, arch: Architecture,
                      table=None, want_tape=False):
    """One constrained gradient step; returns the new iterate (and a tape)."""
    if arch.variant == "nonlocal":
        if table is None:
            raise BadArgument("non-local stage needs a group index table")
        conv_feat = conv_forward(x_prev, layer.bank, mode="valid")
        pre_clip = group_filter(conv_feat, table, layer.group)
    else:
        conv_feat = None
        pre_clip = conv_forward(x_prev, layer.bank, mode="same")
    clipped = rbf_mod.clip_forward(pre_clip, -arch.rbf_limit, arch.rbf_limit)
    if want_tape:
        psi, cache = rbf_mod.rbf_forward(clipped, layer.rbf, want_cache=True)
    else:
        psi, cache = rbf_mod.rbf_forward(clipped, layer.rbf), None
    if arch.variant == "nonlocal":
        adj_pre = group_filter_adjoint(psi, table, layer.group)
        step = conv_adjoint(adj_pre, layer.bank, mode="valid")
    else:
        adj_pre = None
        step = conv_adjoint(psi, layer.bank, mode="same")
    v = x_prev - step
    radius = ball_radius(layer.alpha, sigma, v.size)
    x_t = project(v, y, radius)
    if not want_tape:
        return x_t, None
    tape = LayerTape(x_prev, conv_feat, pre_clip, clipped, cache, psi, adj_pre, v, radius)
    return x_t, tape


def composite_backward(layer: CompositeLayer, arch: Architecture, tape: LayerTape,
                       y, table, grad_out):
    """Gradients of one stage w.r.t. its parameters and its input iterate.

    Kernel gradients accumulate over the analysis and synthesis usages of
    the shared bank; group weight gradients likewise accumulate over the
    filter and its adjoint.
    """
    grad_v = project_input_backward(tape.v, y, tape.radius, grad_out)
    grad_alpha = project_param_backward(tape.v, y, tape.radius, grad_out)
    grad_step = -grad_v
    if arch.variant == "nonlocal":
        # synthesis: step = conv^T(group^T(psi))
        grad_adj_pre = conv_forward(grad_step, layer.bank, mode="valid")
        grad_kernels = conv_param_backward(grad_step, tape.adj_pre, layer.bank, mode="valid")
        grad_psi = group_filter(grad_adj_pre, table, layer.group)
        grad_g = group_bilinear(grad_adj_pre, tape.psi, table)
    else:
        grad_psi = conv_forward(grad_step, layer.bank, mode="same")
        grad_kernels = conv_param_backward(grad_step, tape.psi, layer.bank, mode="same")
        grad_g = None
    grad_clipped, grad_coeffs = rbf_mod.rbf_backward(
        tape.clipped, layer.rbf, grad_psi, cache=tape.rbf_cache
    )
    grad_pre_clip = rbf_mod.clip_backward(
        tape.pre_clip, grad_clipped, -arch.rbf_limit, arch.rbf_limit
    )
    if arch.variant == "nonlocal":
        # analysis: pre_clip = group(conv(x_prev))
        grad_conv_feat = group_filter_adjoint(grad_pre_clip, table, layer.group)
        grad_g = grad_g + group_bilinear(tape.conv_feat, grad_pre_clip, table)
        grad_x = grad_v + conv_adjoint(grad_conv_feat, layer.bank, mode="valid")
        grad_kernels += conv_param_backward(tape.x_prev, grad_conv_feat, layer.bank, mode="valid")
        grad_group = raw_weight_backward(grad_g, layer.group)
    else:
        grad_x = grad_v + conv_adjoint(grad_pre_clip, layer.bank, mode="same")
        grad_kernels += conv_param_backward(tape.x_prev, grad_pre_clip, layer.bank, mode="same")
        grad_group = None
    grad_raw, grad_scale = weight_backward(layer.bank, grad_kernels)
    grads = {
        "raw": grad_raw,
        "scale": grad_scale,
        "coeffs": grad_coeffs,
        "alpha": np.asarray(grad_alpha, dtype=tape.v.dtype),
    }
    if grad_group is not None:
        grads["group"] = grad_group
    return grads, grad_x


def network_forward(y, sigma, params: NetworkParams, want_tape=False, table=None):
    """Run the cascade on a noisy image; returns the denoised image.

    The group index table is built from y itself once and reused by every
    stage; pass a precomputed table to skip the matching.  Rejects a
    non-finite y, which would otherwise turn every output pixel into NaN.
    """
    y = np.asarray(y)
    if y.ndim != 3 or y.shape[2] != params.arch.channels:
        raise ShapeMismatch("input must be (H, W, C) matching the architecture")
    if not np.isfinite(y).all():
        raise BadArgument("input image must be finite")
    if params.arch.variant == "nonlocal" and table is None:
        table = match_table(y, params.arch)
    tape = ForwardTape(y, float(sigma), table)
    x = y
    for layer in params.layers:
        x, layer_tape = composite_forward(
            x, y, sigma, layer, params.arch, table=table, want_tape=want_tape
        )
        if want_tape:
            tape.layers.append(layer_tape)
    tape.pre_output = x
    out = rbf_mod.clip_forward(x, *OUTPUT_RANGE)
    return (out, tape) if want_tape else out


def network_backward(params: NetworkParams, tape: ForwardTape, grad_output) -> dict:
    """Gradients of <output, grad_output> for every trainable tensor."""
    if len(tape.layers) != len(params.layers) or tape.pre_output is None:
        raise TapeMismatch("tape does not cover every stage of this network")
    grad_output = np.asarray(grad_output)
    if grad_output.shape != tape.pre_output.shape:
        raise TapeMismatch("output gradient shape does not match the forward pass")
    g = rbf_mod.clip_backward(tape.pre_output, grad_output, *OUTPUT_RANGE)
    grads = {}
    for t in range(len(params.layers) - 1, -1, -1):
        layer_grads, g = composite_backward(
            params.layers[t], params.arch, tape.layers[t], tape.y, tape.table, g
        )
        for name, val in layer_grads.items():
            grads[f"layer{t}.{name}"] = val
    return grads


def forward_with_residuals(y, sigma, params: NetworkParams, table=None):
    """One forward pass returning the output and the per-stage noise
    estimates: a list of (||y - x_t||, radius_t) pairs."""
    y = np.asarray(y)
    if params.arch.variant == "nonlocal" and table is None:
        table = match_table(y, params.arch)
    x = y
    trace = []
    for layer in params.layers:
        x, _ = composite_forward(x, y, sigma, layer, params.arch, table=table)
        radius = ball_radius(layer.alpha, sigma, x.size)
        trace.append((float(np.linalg.norm(y - x)), radius))
    return rbf_mod.clip_forward(x, *OUTPUT_RANGE), trace


def noise_estimate_trace(y, sigma, params: NetworkParams, table=None):
    """Per-stage noise estimates y - x_t and their ball radii.

    Returns a list of (residual_norm, radius) pairs, one per stage; every
    norm is guaranteed (and checked on every evaluation run) to sit inside
    its ball.
    """
    return forward_with_residuals(y, sigma, params, table=table)[1]
