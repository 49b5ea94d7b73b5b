"""Parameterized neural layers.

Linear maps, (bi)directional multi-layer LSTMs, complex-valued convolutions,
the clue-conditioned complex LSTM enhancement block, and multi-head attention.
All parameters are initialized uniform(-1/sqrt(fan_in), +1/sqrt(fan_in)) from
a caller-supplied Generator; LSTM forget-gate biases start at 1.

The LSTM runs as one fused tape operation per layer, both directions in one
loop: the input projection is a single matmul over all timesteps, the
recurrence loops in python, and the backward rule replays the loop in reverse
(backpropagation through time) using cached gate activations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import ops
from .errors import ConfigError, ContractError, InputError
from .tensor import Tensor, make_node

# LSTM gate blocks are packed (input, forget, output, cell) along the last
# axis; sigmoid applies to the first three, tanh to the last.


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype=np.float64) -> Tensor:
    bound = 1.0 / np.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape).astype(dtype), requires_grad=True)


# ---------------------------------------------------------------------------
# linear


@dataclass
class LinearParams:
    w: Tensor
    b: Tensor

    @classmethod
    def init(cls, rng: np.random.Generator, d_in: int, d_out: int, dtype=np.float64):
        w = uniform_init(rng, (d_in, d_out), d_in, dtype)
        b = uniform_init(rng, (d_out,), d_in, dtype)
        return cls(w, b)

    def tensors(self) -> list[Tensor]:
        return [self.w, self.b]


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """Affine map x[L x Din] @ w[Din x Dout] + b[Dout]."""
    if x.data.ndim != 2 or w.data.ndim != 2 or x.data.shape[1] != w.data.shape[0]:
        raise ContractError(f"linear: x{x.shape} incompatible with w{w.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ContractError(f"linear: bias {b.shape} does not match w{w.shape}")
    out = x.data @ w.data + b.data

    def rule(g, sink):
        sink(x, g @ w.data.T)
        sink(w, x.data.T @ g)
        sink(b, g.sum(axis=0))

    return make_node(out, (x, w, b), rule)


def apply_linear(x: Tensor, p: LinearParams) -> Tensor:
    return linear(x, p.w, p.b)


# ---------------------------------------------------------------------------
# LSTM


@dataclass
class LstmDirection:
    wx: Tensor  # [Din x 4H]
    wh: Tensor  # [H x 4H]
    bias: Tensor  # [4H]


class LstmParams:
    """Weights for a (bi)directional multi-layer LSTM."""

    def __init__(
        self,
        rng: np.random.Generator,
        input_dim: int,
        hidden: int,
        num_layers: int = 2,
        bidirectional: bool = True,
        dtype=np.float64,
    ):
        if input_dim < 1 or hidden < 1 or num_layers < 1:
            raise ConfigError(
                f"lstm dims must be positive, got input={input_dim}, "
                f"hidden={hidden}, layers={num_layers}"
            )
        self.input_dim = input_dim
        self.hidden = hidden
        self.num_layers = num_layers
        self.bidirectional = bidirectional
        self.layers: list[list[LstmDirection]] = []
        d_in = input_dim
        for _ in range(num_layers):
            directions = []
            for _ in range(2 if bidirectional else 1):
                bias = np.zeros(4 * hidden, dtype=dtype)
                bias[hidden : 2 * hidden] = 1.0  # forget gate starts open
                directions.append(
                    LstmDirection(
                        wx=uniform_init(rng, (d_in, 4 * hidden), d_in, dtype),
                        wh=uniform_init(rng, (hidden, 4 * hidden), hidden, dtype),
                        bias=Tensor(bias, requires_grad=True),
                    )
                )
            self.layers.append(directions)
            d_in = hidden * len(directions)

    @property
    def out_dim(self) -> int:
        return self.hidden * (2 if self.bidirectional else 1)

    def tensors(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            for d in layer:
                out.extend([d.wx, d.wh, d.bias])
        return out


def _lstm_direction_op(x: Tensor, directions: list[LstmDirection]) -> Tensor:
    """Every direction of one layer over x[B x T x Din], fused with its BPTT rule.

    Direction 0 reads the sequence forward and direction 1 (if any) reads it
    backward; the output concatenates their hidden states along features. The
    directions run in one loop: each keeps its own matmuls, and the
    elementwise gate arithmetic runs once over a leading direction axis.
    """
    bsz, steps, d_in = x.data.shape
    nd = len(directions)
    h_dim = directions[0].wh.data.shape[0]
    xds = [x.data[:, ::-1] if k else x.data for k in range(nd)]
    xw = np.stack([
        (xd.reshape(bsz * steps, d_in) @ d.wx.data + d.bias.data).reshape(bsz, steps, 4 * h_dim)
        for xd, d in zip(xds, directions)
    ])

    # Gate activations are written in place, one [D x B x H] (or [D x B x 3H])
    # block per step; the cell state before step t is cs[t - 1] (zeros at 0).
    sig = np.empty((steps, nd, bsz, 3 * h_dim), dtype=xw.dtype)  # input, forget, output
    gi, gf, go = sig[..., :h_dim], sig[..., h_dim : 2 * h_dim], sig[..., 2 * h_dim :]
    gg = np.empty((steps, nd, bsz, h_dim), dtype=xw.dtype)
    cs = np.empty_like(gg)
    tc = np.empty_like(gg)
    hs = np.empty_like(gg)
    zero = np.zeros((nd, bsz, h_dim), dtype=xw.dtype)
    hw = np.empty((nd, bsz, 4 * h_dim), dtype=xw.dtype)

    h = c = zero
    for t in range(steps):
        for k, d in enumerate(directions):
            np.matmul(h[k], d.wh.data, out=hw[k])
        z = xw[:, :, t] + hw
        expit(z[..., : 3 * h_dim], out=sig[t])
        np.tanh(z[..., 3 * h_dim :], out=gg[t])
        c = np.add(gf[t] * c, gi[t] * gg[t], out=cs[t])
        h = np.multiply(go[t], np.tanh(c, out=tc[t]), out=hs[t])

    out = np.empty((bsz, steps, nd * h_dim), dtype=xw.dtype)
    for k in range(nd):
        seq = hs[:, k] if k == 0 else hs[::-1, k]
        out[:, :, k * h_dim : (k + 1) * h_dim] = seq.transpose(1, 0, 2)

    def rule(g, sink):
        # Per gate block (input, forget, output, cell) the pre-activation
        # gradient is ((u * fa) * fb) * fc with u = dct, dct, dht, dct. The
        # factors come from the forward alone, so they are gathered once and
        # cast to the precision the recurrence runs in (the values a
        # mixed-precision op would cast to in every step); each step is then
        # three in-place products over all directions and gate blocks.
        dt = np.result_type(g.dtype, hs.dtype)
        gh = np.empty((steps, nd, bsz, h_dim), dtype=g.dtype)
        for k in range(nd):
            part = g[:, :, k * h_dim : (k + 1) * h_dim]
            gh[:, k] = (part if k == 0 else part[:, ::-1]).transpose(1, 0, 2)
        c_prev = np.concatenate([zero[None], cs[:-1]])
        fa = np.concatenate([gg, c_prev, tc, gi], axis=3).astype(dt)
        fb = np.concatenate([gi, gf, go, 1.0 - gg * gg], axis=3).astype(dt)
        fc = np.concatenate([1.0 - sig, np.ones_like(gg)], axis=3).astype(dt)
        go_, gf_ = go.astype(dt), gf.astype(dt)
        dtanh_c = (1.0 - tc * tc).astype(dt)
        dz_all = np.empty((steps, nd, bsz, 4 * h_dim), dtype=dt)
        blocks = dz_all.reshape(steps, nd, bsz, 4, h_dim)
        dwh = [np.zeros_like(d.wh.data) for d in directions]
        dh = np.zeros((nd, bsz, h_dim), dtype=dt)
        dc = np.zeros_like(dh)
        for t in range(steps - 1, -1, -1):
            dht = gh[t] + dh
            dct = dc + dht * go_[t] * dtanh_c[t]
            dz = dz_all[t]
            blocks[t] = dct[:, :, None]
            blocks[t, :, :, 2] = dht
            dz *= fa[t]
            dz *= fb[t]
            dz *= fc[t]
            dc = dct * gf_[t]
            h_prev = hs[t - 1] if t else zero
            for k, d in enumerate(directions):
                dwh[k] += h_prev[k].T @ dz[k]
                np.matmul(dz[k], d.wh.data.T, out=dh[k])
        for k, d in enumerate(directions):
            dxw2 = np.ascontiguousarray(dz_all[:, k].transpose(1, 0, 2), dtype=g.dtype)
            dxw2 = dxw2.reshape(bsz * steps, 4 * h_dim)
            dx = (dxw2 @ d.wx.data.T).reshape(bsz, steps, d_in)
            if k:
                dx = np.ascontiguousarray(dx[:, ::-1])
            sink(x, dx)
            sink(d.wx, xds[k].reshape(bsz * steps, d_in).T @ dxw2)
            sink(d.wh, dwh[k])
            sink(d.bias, dxw2.sum(axis=0))

    params = tuple(p for d in directions for p in (d.wx, d.wh, d.bias))
    return make_node(out, (x,) + params, rule)


def lstm_forward_batch(x: Tensor, p: LstmParams) -> Tensor:
    """Run the full stack over x[B x T x Din] -> [B x T x out_dim]."""
    if x.data.ndim != 3:
        raise ContractError(f"lstm_forward_batch expects [B x T x Din], got {x.shape}")
    if x.data.shape[1] == 0:
        raise InputError("lstm got an empty sequence")
    if x.data.shape[2] != p.input_dim:
        raise ContractError(
            f"lstm input dim {x.data.shape[2]} does not match params ({p.input_dim})"
        )
    cur = x
    for layer in p.layers:
        cur = _lstm_direction_op(cur, layer)
    return cur


def lstm_forward(x: Tensor, p: LstmParams) -> Tensor:
    """Run the full stack over x[T x Din] -> [T x out_dim]."""
    if x.data.ndim != 2:
        raise ContractError(f"lstm_forward expects [T x Din], got {x.shape}")
    steps = x.data.shape[0]
    out = lstm_forward_batch(ops.reshape(x, (1, steps, x.data.shape[1])), p)
    return ops.reshape(out, (steps, p.out_dim))


# ---------------------------------------------------------------------------
# complex features and convolutions


@dataclass
class ComplexFeature:
    real: Tensor
    imag: Tensor

    def __post_init__(self):
        if self.real.data.shape != self.imag.data.shape:
            raise ContractError(
                f"complex parts differ: {self.real.shape} vs {self.imag.shape}"
            )

    @property
    def shape(self):
        return self.real.data.shape


def complex_conv2d(x: ComplexFeature, k: ComplexFeature, stride=(1, 1), padding=(0, 0)) -> ComplexFeature:
    """(x_r + i x_i) * (k_r + i k_i) as four real convolutions."""
    rr = ops.conv2d(x.real, k.real, stride, padding)
    ii = ops.conv2d(x.imag, k.imag, stride, padding)
    ri = ops.conv2d(x.real, k.imag, stride, padding)
    ir = ops.conv2d(x.imag, k.real, stride, padding)
    return ComplexFeature(rr - ii, ri + ir)


def complex_conv2d_transpose(x: ComplexFeature, k: ComplexFeature, stride=(1, 1), padding=(0, 0)) -> ComplexFeature:
    rr = ops.conv2d_transpose(x.real, k.real, stride, padding)
    ii = ops.conv2d_transpose(x.imag, k.imag, stride, padding)
    ri = ops.conv2d_transpose(x.real, k.imag, stride, padding)
    ir = ops.conv2d_transpose(x.imag, k.real, stride, padding)
    return ComplexFeature(rr - ii, ri + ir)


# ---------------------------------------------------------------------------
# complex LSTM enhancement


def _transform_pair(a: Tensor, b: Tensor, lstm: LstmParams | None, proj: LinearParams | None):
    """Apply one shared LSTM+projection to two sequences, batched together.

    Passing None for both applies the identity, which isolates the complex
    combination arithmetic (useful for testing and ablation).
    """
    if lstm is None and proj is None:
        return a, b
    if lstm is None or proj is None:
        raise ContractError("lstm and projection must be given together (or both None)")
    steps, width = a.data.shape
    stacked = ops.concat(
        [ops.reshape(a, (1, steps, width)), ops.reshape(b, (1, steps, width))], axis=0
    )
    run = lstm_forward_batch(stacked, lstm)
    flat = ops.reshape(run, (2 * steps, lstm.out_dim))
    projected = apply_linear(flat, proj)
    d_out = proj.w.data.shape[1]
    out_a = ops.slice_axis(ops.reshape(projected, (2, steps, d_out)), 0, 0, 1)
    out_b = ops.slice_axis(ops.reshape(projected, (2, steps, d_out)), 0, 1, 2)
    return ops.reshape(out_a, (steps, d_out)), ops.reshape(out_b, (steps, d_out))


def complex_lstm_enhance(
    y: ComplexFeature,
    clue: Tensor,
    lstm_r: LstmParams | None,
    lstm_i: LstmParams | None,
    proj_r: LinearParams | None,
    proj_i: LinearParams | None,
) -> ComplexFeature:
    """Clue-conditioned complex enhancement.

    Both complex parts are shifted by the clue, passed through two real LSTMs
    (each projected back to the feature width), and recombined by complex
    multiplication rules:

        out.real = ftr(Y_r + c) - fti(Y_i + c)
        out.imag = fti(Y_r + c) + ftr(Y_i + c)

    where ftr/fti are the two LSTM+projection transforms.
    """
    if y.real.data.ndim != 2:
        raise ContractError(f"enhance expects [T x D] features, got {y.real.shape}")
    if clue.data.shape != y.real.data.shape:
        t, d = y.real.data.shape
        raise ContractError(
            f"clue shape {clue.shape} does not match features [T x D] = [{t} x {d}]"
        )
    shifted_r = y.real + clue
    shifted_i = y.imag + clue
    f_rr, f_ir = _transform_pair(shifted_r, shifted_i, lstm_r, proj_r)
    f_ri, f_ii = _transform_pair(shifted_r, shifted_i, lstm_i, proj_i)
    return ComplexFeature(f_rr - f_ii, f_ri + f_ir)


# ---------------------------------------------------------------------------
# multi-head attention


@dataclass
class MhaParams:
    wq: Tensor
    wk: Tensor
    wv: Tensor
    wo: Tensor
    heads: int

    def __post_init__(self):
        d = self.wq.data.shape[0]
        for name, m in (("wq", self.wq), ("wk", self.wk), ("wv", self.wv), ("wo", self.wo)):
            if m.data.shape != (d, d):
                raise ContractError(f"attention {name} must be [{d} x {d}], got {m.shape}")
        if self.heads < 1 or d % self.heads:
            raise ConfigError(f"model dim {d} not divisible by {self.heads} heads")

    @classmethod
    def init(cls, rng: np.random.Generator, dim: int, heads: int, dtype=np.float64):
        if heads < 1 or dim % heads:
            raise ConfigError(f"model dim {dim} not divisible by {heads} heads")
        make = lambda: uniform_init(rng, (dim, dim), dim, dtype)
        return cls(make(), make(), make(), make(), heads)

    @property
    def dim(self) -> int:
        return self.wq.data.shape[0]

    def tensors(self) -> list[Tensor]:
        return [self.wq, self.wk, self.wv, self.wo]


def multi_head_attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    p: MhaParams,
    key_mask: np.ndarray | None = None,
) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention; returns (out[Tq x D], weights[h x Tq x Tk]).

    key_mask, when given, is a boolean vector over keys; True excludes the key
    (its attention weight becomes exactly 0). Queries and keys carry no
    positional encoding, so the result is invariant to key/value permutations.
    """
    d = p.dim
    for name, t in (("queries", q), ("keys", k), ("values", v)):
        if t.data.ndim != 2 or t.data.shape[1] != d:
            raise ContractError(f"attention {name} must be [L x {d}], got {t.shape}")
    tq, tk = q.data.shape[0], k.data.shape[0]
    if v.data.shape[0] != tk:
        raise ContractError(f"keys/values disagree: {k.shape} vs {v.shape}")
    bias = None
    if key_mask is not None:
        mask = np.asarray(key_mask, dtype=bool).reshape(-1)
        if mask.shape != (tk,):
            raise ContractError(f"key mask length {mask.shape[0]} != {tk} keys")
        if mask.all():
            raise ContractError("attention needs at least one unmasked key")
        if mask.any():
            row = np.where(mask, -np.inf, 0.0)
            bias = Tensor(np.tile(row, (tq, 1)).astype(p.wq.data.dtype))
    qp = ops.matmul(q, p.wq)
    kp = ops.matmul(k, p.wk)
    vp = ops.matmul(v, p.wv)
    dh = d // p.heads
    inv_scale = 1.0 / np.sqrt(dh)
    outs, weights = [], []
    for i in range(p.heads):
        lo, hi = i * dh, (i + 1) * dh
        qh = ops.slice_axis(qp, 1, lo, hi)
        kh = ops.slice_axis(kp, 1, lo, hi)
        vh = ops.slice_axis(vp, 1, lo, hi)
        scores = ops.scale(ops.matmul(qh, ops.transpose(kh)), inv_scale)
        if bias is not None:
            scores = scores + bias
        w = ops.softmax(scores, axis=1)
        weights.append(ops.reshape(w, (1, tq, tk)))
        outs.append(ops.matmul(w, vh))
    out = ops.matmul(ops.concat(outs, axis=1), p.wo)
    return out, ops.concat(weights, axis=0)
