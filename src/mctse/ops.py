"""Differentiable operations over Tensor.

Broadcasting is deliberately narrow: elementwise ops accept equal shapes or
a size-1 operand (python scalars are wrapped as constants). Convolutions use
the cross-correlation convention. relu/abs/sqrt use subgradient 0 at their
kinks.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np
from numpy.lib.stride_tricks import as_strided
from scipy.special import expit

from .errors import ContractError, InputError
from .tensor import Tensor, make_node

_LN10 = float(np.log(10.0))


def _as_tensor(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _bcast_ok(a: Tensor, b: Tensor) -> bool:
    return a.data.shape == b.data.shape or a.data.size == 1 or b.data.size == 1

def _reduce_to(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if g.shape == shape:
        return g
    return np.sum(g).reshape(shape) if shape else np.asarray(np.sum(g))


# ---------------------------------------------------------------------------
# elementwise family


def add(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    if not _bcast_ok(a, b):
        raise ContractError(f"add: incompatible shapes {a.shape} vs {b.shape}")

    def rule(g, sink):
        sink(a, _reduce_to(g, a.data.shape))
        sink(b, _reduce_to(g, b.data.shape))

    return make_node(a.data + b.data, (a, b), rule)


def sub(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    if not _bcast_ok(a, b):
        raise ContractError(f"sub: incompatible shapes {a.shape} vs {b.shape}")

    def rule(g, sink):
        sink(a, _reduce_to(g, a.data.shape))
        sink(b, _reduce_to(-g, b.data.shape))

    return make_node(a.data - b.data, (a, b), rule)


def mul(a: Tensor, b) -> Tensor:
    b = _as_tensor(b, a)
    if not _bcast_ok(a, b):
        raise ContractError(f"mul: incompatible shapes {a.shape} vs {b.shape}")

    def rule(g, sink):
        sink(a, _reduce_to(g * b.data, a.data.shape))
        sink(b, _reduce_to(g * a.data, b.data.shape))

    return make_node(a.data * b.data, (a, b), rule)


def scale(x: Tensor, s: float) -> Tensor:
    s = float(s)

    def rule(g, sink):
        sink(x, g * s)

    return make_node(x.data * s, (x,), rule)


def sigmoid(x: Tensor) -> Tensor:
    y = expit(x.data)

    def rule(g, sink):
        sink(x, g * y * (1.0 - y))

    return make_node(y, (x,), rule)


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)

    def rule(g, sink):
        sink(x, g * (1.0 - y * y))

    return make_node(y, (x,), rule)


def relu(x: Tensor) -> Tensor:
    def rule(g, sink):
        sink(x, g * (x.data > 0))

    return make_node(np.maximum(x.data, 0.0), (x,), rule)


def abs_(x: Tensor) -> Tensor:
    def rule(g, sink):
        sink(x, g * np.sign(x.data))

    return make_node(np.abs(x.data), (x,), rule)


def log10(x: Tensor) -> Tensor:
    if np.any(x.data <= 0):
        raise InputError("log10: nonpositive input")

    def rule(g, sink):
        sink(x, g / (x.data * _LN10))

    return make_node(np.log10(x.data), (x,), rule)


def square(x: Tensor) -> Tensor:
    def rule(g, sink):
        sink(x, g * (2.0 * x.data))

    return make_node(x.data * x.data, (x,), rule)


def sqrt(x: Tensor) -> Tensor:
    if np.any(x.data < 0):
        raise InputError("sqrt: negative input")
    y = np.sqrt(x.data)

    def rule(g, sink):
        # subgradient 0 at x == 0
        d = np.zeros_like(y)
        nz = y > 0
        d[nz] = 0.5 / y[nz]
        sink(x, g * d)

    return make_node(y, (x,), rule)


def prelu(x: Tensor, a: Tensor) -> Tensor:
    """max(x, 0) + a * min(x, 0) with a learnable slope a: size 1, or one slope
    per channel along x's first axis."""
    if a.data.size == 1:
        av = float(a.data.reshape(-1)[0])
        reduce = np.sum
    elif x.data.ndim and a.data.shape == x.data.shape[:1]:
        av = a.data.reshape(a.data.shape + (1,) * (x.data.ndim - 1))
        reduce = lambda v: v.reshape(v.shape[0], -1).sum(axis=1)
    else:
        raise ContractError(
            f"prelu: slope must be size-1 or one per channel of {x.shape}, got shape {a.shape}"
        )
    neg = np.minimum(x.data, 0.0)

    def rule(g, sink):
        sink(x, np.where(x.data > 0, g, g * av))  # keeps g's dtype
        sink(a, reduce(g * neg).reshape(a.data.shape))

    return make_node(np.maximum(x.data, 0.0) + av * neg, (x, a), rule)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    m = np.max(x.data, axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    y = e / np.sum(e, axis=axis, keepdims=True)

    def rule(g, sink):
        dot = np.sum(g * y, axis=axis, keepdims=True)
        sink(x, y * (g - dot))

    return make_node(y, (x,), rule)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    if x.data.ndim != 2:
        raise ContractError(f"layer_norm expects [L x D], got {x.shape}")
    d = x.data.shape[1]
    if gain.data.shape != (d,) or bias.data.shape != (d,):
        raise ContractError(
            f"layer_norm: gain/bias must be ({d},), got {gain.shape} / {bias.shape}"
        )
    if eps <= 0:
        raise ContractError("layer_norm: eps must be positive")
    mu = np.mean(x.data, axis=1, keepdims=True)
    xc = x.data - mu
    var = np.mean(xc * xc, axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xh = xc * inv
    y = xh * gain.data + bias.data

    def rule(g, sink):
        sink(gain, np.sum(g * xh, axis=0))
        sink(bias, np.sum(g, axis=0))
        dxh = g * gain.data
        dvar = np.sum(dxh * xc, axis=1, keepdims=True) * (-0.5) * inv**3
        dmu = -np.sum(dxh, axis=1, keepdims=True) * inv + dvar * np.mean(-2.0 * xc, axis=1, keepdims=True)
        sink(x, dxh * inv + dvar * (2.0 / d) * xc + dmu / d)

    return make_node(y, (x, gain, bias), rule)


# ---------------------------------------------------------------------------
# matmul / convolutions


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ContractError(f"matmul expects 2-D operands, got {a.shape} and {b.shape}")
    if a.data.shape[1] != b.data.shape[0]:
        raise ContractError(f"matmul: inner dims differ, {a.shape} vs {b.shape}")

    def rule(g, sink):
        sink(a, g @ b.data.T)
        sink(b, a.data.T @ g)

    return make_node(a.data @ b.data, (a, b), rule)


def _im2col(xp: np.ndarray, kh: int, kw: int, sh: int, sw: int, h2: int, w2: int) -> np.ndarray:
    c = xp.shape[0]
    s0, s1, s2 = xp.strides
    windows = as_strided(xp, (c, kh, kw, h2, w2), (s0, s1, s2, s1 * sh, s2 * sw), writeable=False)
    return np.ascontiguousarray(windows).reshape(c * kh * kw, h2 * w2)


def _scatter_taps(k: np.ndarray, m: np.ndarray, shape, sh: int, sw: int, h2: int, w2: int) -> np.ndarray:
    """The adjoint of im2col framing: a zero [C,H,W] array plus, for each
    kernel tap (i, j) in row-major order, k[:, :, i, j].T @ m added into the
    tap's strided window.

    k is [A, C, kh, kw] and m is [A, h2*w2]. One gemm per kernel row forms
    that row's kw products, [kw*C, h2*w2], never the [kh*kw*C, h2*w2] column
    matrix; per-tap gemms were slower on the model's layer shapes.
    """
    c = shape[0]
    _, _, kh, kw = k.shape
    rows = np.ascontiguousarray(k.transpose(2, 3, 1, 0)).reshape(kh, kw * c, -1)
    out = np.zeros(shape, dtype=np.result_type(k, m))
    for i in range(kh):
        row = (rows[i] @ m).reshape(kw, c, h2, w2)
        for j in range(kw):
            window = out[:, i : i + sh * (h2 - 1) + 1 : sh, j : j + sw * (w2 - 1) + 1 : sw]
            window += row[j]
    return out


def _conv_geometry(x: Tensor, k: Tensor, stride, padding, transpose: bool):
    sh, sw = stride
    ph, pw = padding
    if sh < 1 or sw < 1 or ph < 0 or pw < 0:
        raise ContractError(f"conv: bad stride {stride} or padding {padding}")
    if x.data.ndim != 3 or k.data.ndim != 4:
        raise ContractError(f"conv expects x[C,H,W], k 4-D, got {x.shape}, {k.shape}")
    return sh, sw, ph, pw


def conv2d(x: Tensor, k: Tensor, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Cross-correlate x[Cin,H,W] with k[Cout,Cin,kh,kw]."""
    sh, sw, ph, pw = _conv_geometry(x, k, stride, padding, False)
    cin, h, w = x.data.shape
    cout, kcin, kh, kw = k.data.shape
    if kcin != cin:
        raise ContractError(f"conv2d: channel mismatch x{x.shape} vs k{k.shape}")
    hp, wp = h + 2 * ph, w + 2 * pw
    if kh > hp or kw > wp:
        raise ContractError(
            f"conv2d: kernel ({kh},{kw}) larger than padded input ({hp},{wp})"
        )
    h2 = (hp - kh) // sh + 1
    w2 = (wp - kw) // sw + 1
    xp = np.zeros((cin, hp, wp), dtype=x.data.dtype)
    xp[:, ph : ph + h, pw : pw + w] = x.data
    cols = _im2col(xp, kh, kw, sh, sw, h2, w2)
    out = (k.data.reshape(cout, -1) @ cols).reshape(cout, h2, w2)

    def rule(g, sink):
        gm = np.ascontiguousarray(g.reshape(cout, -1))
        sink(k, (gm @ cols.T).reshape(k.data.shape))
        if not x.requires_grad:  # a constant input, such as a spectrum, takes no gradient
            return
        dxp = _scatter_taps(k.data, gm, (cin, hp, wp), sh, sw, h2, w2)
        sink(x, dxp[:, ph : ph + h, pw : pw + w])

    return make_node(out, (x, k), rule)


def conv2d_transpose(x: Tensor, k: Tensor, stride=(1, 1), padding=(0, 0)) -> Tensor:
    """Transposed convolution of x[Cin,H,W] with k[Cin,Cout,kh,kw].

    Spatially inverts conv2d's size formula: H' = (H-1)*sh - 2*ph + kh.
    """
    sh, sw, ph, pw = _conv_geometry(x, k, stride, padding, True)
    cin, h, w = x.data.shape
    kcin, cout, kh, kw = k.data.shape
    if kcin != cin:
        raise ContractError(f"conv2d_transpose: channel mismatch x{x.shape} vs k{k.shape}")
    hf = (h - 1) * sh + kh
    wf = (w - 1) * sw + kw
    h2 = hf - 2 * ph
    w2 = wf - 2 * pw
    if h2 < 1 or w2 < 1:
        raise ContractError(
            f"conv2d_transpose: padding {padding} swallows the ({hf},{wf}) output"
        )
    # The forward scatters each kernel tap's product into its output window;
    # the backward gathers windows of the padded gradient with im2col and
    # reduces to two gemms.
    kmat = k.data.reshape(cin, cout * kh * kw)
    xmat = x.data.reshape(cin, h * w)
    buf = _scatter_taps(k.data, xmat, (cout, hf, wf), sh, sw, h, w)
    out = buf[:, ph : ph + h2, pw : pw + w2]

    def rule(g, sink):
        gp = np.zeros((cout, hf, wf), dtype=g.dtype)
        gp[:, ph : ph + h2, pw : pw + w2] = g
        cols = _im2col(gp, kh, kw, sh, sw, h, w)
        sink(x, (kmat @ cols).reshape(x.data.shape))
        sink(k, (xmat @ cols.T).reshape(k.data.shape))

    return make_node(np.ascontiguousarray(out), (x, k), rule)


def channel_bias(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-channel bias b[C] to x[C,...]."""
    c = x.data.shape[0]
    if b.data.shape != (c,):
        raise ContractError(f"channel_bias: want ({c},), got {b.shape}")
    shape = (c,) + (1,) * (x.data.ndim - 1)

    def rule(g, sink):
        sink(x, g)
        sink(b, g.reshape(c, -1).sum(axis=1))

    return make_node(x.data + b.data.reshape(shape), (x, b), rule)


# ---------------------------------------------------------------------------
# shape family


def concat(tensors, axis: int = 0) -> Tensor:
    tensors = list(tensors)
    if not tensors:
        raise ContractError("concat: empty input list")
    nd = tensors[0].data.ndim
    if not -nd <= axis < nd:
        raise ContractError(f"concat: axis {axis} out of range for ndim {nd}")
    axis %= nd
    base = list(tensors[0].data.shape)
    for t in tensors[1:]:
        s = list(t.data.shape)
        if len(s) != nd or s[:axis] + s[axis + 1 :] != base[:axis] + base[axis + 1 :]:
            raise ContractError(
                f"concat: incompatible shapes {tensors[0].shape} vs {t.shape} on axis {axis}"
            )
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = list(accumulate(sizes, initial=0))

    def rule(g, sink):
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * nd
            idx[axis] = slice(lo, hi)
            sink(t, np.ascontiguousarray(g[tuple(idx)]))

    return make_node(np.concatenate([t.data for t in tensors], axis=axis), tuple(tensors), rule)


def slice_axis(x: Tensor, axis: int, start: int, stop: int) -> Tensor:
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ContractError(f"slice_axis: axis {axis} out of range for ndim {nd}")
    axis %= nd
    n = x.data.shape[axis]
    if not (0 <= start < stop <= n):
        raise ContractError(f"slice_axis: window [{start},{stop}) invalid for size {n}")
    idx = [slice(None)] * nd
    idx[axis] = slice(start, stop)
    idx = tuple(idx)

    def rule(g, sink):
        dx = np.zeros_like(x.data)
        dx[idx] = g
        sink(x, dx)

    return make_node(np.ascontiguousarray(x.data[idx]), (x,), rule)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if shape.count(-1) == 1:
        rest = math.prod(s for s in shape if s != -1)
        if rest == 0 or x.data.size % rest:
            raise ContractError(f"reshape: cannot infer -1 in {x.shape} -> {shape}")
        shape = tuple(x.data.size // rest if s == -1 else s for s in shape)
    if math.prod(shape) != x.data.size:
        raise ContractError(f"reshape: {x.shape} -> {shape} changes element count")

    def rule(g, sink):
        sink(x, g.reshape(x.data.shape))

    return make_node(x.data.reshape(shape), (x,), rule)


def transpose(x: Tensor, axes=None) -> Tensor:
    nd = x.data.ndim
    axes = tuple(range(nd))[::-1] if axes is None else tuple(axes)
    if sorted(axes) != list(range(nd)):
        raise ContractError(f"transpose: bad axes {axes} for ndim {nd}")
    inv = tuple(sorted(range(nd), key=axes.__getitem__))

    def rule(g, sink):
        sink(x, np.ascontiguousarray(g.transpose(inv)))

    return make_node(np.ascontiguousarray(x.data.transpose(axes)), (x,), rule)


def tile_rows(x: Tensor, n: int) -> Tensor:
    """Repeat a single row [1 x D] into [n x D]."""
    if x.data.ndim != 2 or x.data.shape[0] != 1:
        raise ContractError(f"tile_rows expects [1 x D], got {x.shape}")
    if n < 1:
        raise ContractError("tile_rows: n must be >= 1")

    def rule(g, sink):
        sink(x, g.sum(axis=0, keepdims=True))

    return make_node(np.tile(x.data, (n, 1)), (x,), rule)


def repeat_rows(x: Tensor, k: int) -> Tensor:
    """Repeat each row of [L x D] k times in place: [k*L x D]."""
    if x.data.ndim != 2:
        raise ContractError(f"repeat_rows expects [L x D], got {x.shape}")
    if k < 1:
        raise ContractError("repeat_rows: k must be >= 1")
    length, d = x.data.shape

    def rule(g, sink):
        sink(x, g.reshape(length, k, d).sum(axis=1))

    return make_node(np.repeat(x.data, k, axis=0), (x,), rule)


def reduce_sum(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        def rule(g, sink):
            sink(x, np.full(x.data.shape, float(g), dtype=x.data.dtype))

        return make_node(np.asarray(x.data.sum(), dtype=x.data.dtype), (x,), rule)
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ContractError(f"reduce_sum: axis {axis} out of range for ndim {nd}")
    axis %= nd

    def rule(g, sink):
        sink(x, np.broadcast_to(np.expand_dims(g, axis), x.data.shape).astype(x.data.dtype, copy=True))

    return make_node(x.data.sum(axis=axis), (x,), rule)


def mean(x: Tensor, axis: int | None = None) -> Tensor:
    if axis is None:
        n = x.data.size

        def rule(g, sink):
            sink(x, np.full(x.data.shape, float(g) / n, dtype=x.data.dtype))

        return make_node(np.asarray(x.data.mean(), dtype=x.data.dtype), (x,), rule)
    nd = x.data.ndim
    if not -nd <= axis < nd:
        raise ContractError(f"mean: axis {axis} out of range for ndim {nd}")
    axis %= nd
    n = x.data.shape[axis]

    def rule(g, sink):
        sink(x, np.broadcast_to(np.expand_dims(g / n, axis), x.data.shape).astype(x.data.dtype, copy=True))

    return make_node(x.data.mean(axis=axis), (x,), rule)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Row lookup table[ids]; gradients scatter-add back into the table."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 1:
        raise ContractError(f"gather_rows: ids must be 1-D, got shape {ids.shape}")
    if table.data.ndim != 2:
        raise ContractError(f"gather_rows: table must be 2-D, got {table.shape}")
    v = table.data.shape[0]
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise InputError(f"gather_rows: id out of range [0,{v})")

    def rule(g, sink):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        sink(table, dt)

    return make_node(table.data[ids], (table,), rule)
