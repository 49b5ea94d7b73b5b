"""Tests for neural layers: linear, LSTM, complex convolutions, enhancement, attention."""

import numpy as np
import pytest

from mctse import ops
from mctse.errors import ConfigError, ContractError, InputError
from mctse.gradcheck import check_gradients
from mctse.nn_blocks import (
    ComplexFeature,
    LinearParams,
    LstmParams,
    MhaParams,
    apply_linear,
    complex_conv2d,
    complex_conv2d_transpose,
    complex_kernel,
    complex_lstm_enhance,
    linear,
    lstm_forward,
    lstm_forward_batch,
    multi_head_attention,
)
from mctse.tensor import Tensor, constant, parameter

SEEDS = list(range(10))


def grads_all_nonzero(params):
    return all(p.grad is not None and np.any(p.grad != 0) for p in params)


class TestLinear:
    def test_identity(self):
        x = constant(np.arange(6.0).reshape(2, 3))
        y = linear(x, constant(np.eye(3)), constant(np.zeros(3)))
        np.testing.assert_array_equal(y.data, x.data)

    def test_one_hot_row_selects_weight_row(self):
        rng = np.random.default_rng(0)
        w = constant(rng.standard_normal((5, 4)))
        onehot = np.zeros((1, 5))
        onehot[0, 3] = 1.0
        y = linear(constant(onehot), w, constant(np.zeros(4)))
        np.testing.assert_allclose(y.data[0], w.data[3])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((4, 3)))
        p = LinearParams.init(rng, 3, 5)
        err = check_gradients(
            lambda: ops.reduce_sum(ops.square(apply_linear(x, p))), [x, p.w, p.b]
        )
        assert err <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            linear(constant(np.zeros((2, 3))), constant(np.zeros((4, 5))), constant(np.zeros(5)))


class TestLstm:
    def test_zero_params_zero_output(self):
        rng = np.random.default_rng(0)
        p = LstmParams(rng, input_dim=3, hidden=4, num_layers=2, bidirectional=True)
        for t in p.tensors():
            t.data[...] = 0.0
        x = constant(rng.standard_normal((6, 3)))
        np.testing.assert_array_equal(lstm_forward(x, p).data, 0.0)

    def test_single_step_matches_hand_computed_gates(self):
        rng = np.random.default_rng(1)
        p = LstmParams(rng, input_dim=2, hidden=2, num_layers=1, bidirectional=False)
        x = rng.standard_normal((1, 2))
        out = lstm_forward(constant(x), p).data

        d = p.layers[0][0]
        z = x @ d.wx.data + d.bias.data  # h0 = 0
        sig = 1.0 / (1.0 + np.exp(-z))
        i, f, o = sig[:, 0:2], sig[:, 2:4], sig[:, 4:6]
        g = np.tanh(z[:, 6:8])
        c = i * g  # c0 = 0, so the forget term vanishes
        h = o * np.tanh(c)
        np.testing.assert_allclose(out, h, atol=1e-12)

    def test_forget_bias_initialized_to_one(self):
        p = LstmParams(np.random.default_rng(0), 3, 4)
        for layer in p.layers:
            for d in layer:
                np.testing.assert_array_equal(d.bias.data[4:8], 1.0)
                np.testing.assert_array_equal(d.bias.data[:4], 0.0)
                np.testing.assert_array_equal(d.bias.data[8:], 0.0)

    def test_bidirectional_width_doubles(self):
        rng = np.random.default_rng(2)
        x = constant(rng.standard_normal((5, 3)))
        bi = LstmParams(rng, 3, 4, num_layers=1, bidirectional=True)
        uni = LstmParams(rng, 3, 4, num_layers=1, bidirectional=False)
        assert lstm_forward(x, bi).shape == (5, 8)
        assert lstm_forward(x, uni).shape == (5, 4)

    def test_reversed_direction_sees_reversed_input(self):
        # with tied weights, a palindromic input gives mirrored direction halves
        rng = np.random.default_rng(3)
        p = LstmParams(rng, 2, 3, num_layers=1, bidirectional=True)
        fwd_d, bwd_d = p.layers[0]
        bwd_d.wx.data[...] = fwd_d.wx.data
        bwd_d.wh.data[...] = fwd_d.wh.data
        bwd_d.bias.data[...] = fwd_d.bias.data
        seq = rng.standard_normal((4, 2))
        pal = np.concatenate([seq, seq[::-1]])
        out = lstm_forward(constant(pal), p).data
        fwd, bwd = out[:, :3], out[:, 3:]
        np.testing.assert_allclose(fwd, bwd[::-1], atol=1e-12)

    def test_batch_matches_separate_runs(self):
        rng = np.random.default_rng(4)
        p = LstmParams(rng, 3, 4, num_layers=2, bidirectional=True)
        a = rng.standard_normal((6, 3))
        b = rng.standard_normal((6, 3))
        both = lstm_forward_batch(constant(np.stack([a, b])), p).data
        np.testing.assert_allclose(both[0], lstm_forward(constant(a), p).data, atol=1e-12)
        np.testing.assert_allclose(both[1], lstm_forward(constant(b), p).data, atol=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gradients_single_layer(self, seed):
        rng = np.random.default_rng(seed)
        p = LstmParams(rng, 3, 4, num_layers=1, bidirectional=True)
        x = parameter(rng.standard_normal((5, 3)))
        err = check_gradients(
            lambda: ops.reduce_sum(ops.square(lstm_forward(x, p))), [x] + p.tensors()
        )
        assert err <= 1e-4

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_gradients_stacked(self, seed):
        rng = np.random.default_rng(seed)
        p = LstmParams(rng, 3, 3, num_layers=2, bidirectional=True)
        x = parameter(rng.standard_normal((4, 3)))
        err = check_gradients(
            lambda: ops.reduce_sum(ops.square(lstm_forward(x, p))), [x] + p.tensors()
        )
        assert err <= 1e-4

    def test_empty_sequence_rejected(self):
        p = LstmParams(np.random.default_rng(0), 3, 4)
        with pytest.raises(InputError):
            lstm_forward(constant(np.zeros((0, 3))), p)

    def test_input_dim_mismatch(self):
        p = LstmParams(np.random.default_rng(0), 3, 4)
        with pytest.raises(ContractError):
            lstm_forward(constant(np.zeros((5, 2))), p)


def _delta_kernel(co, ci, real=1.0, imag=0.0):
    kr = np.zeros((co, ci, 1, 1))
    ki = np.zeros((co, ci, 1, 1))
    for c in range(min(co, ci)):
        kr[c, c, 0, 0] = real
        ki[c, c, 0, 0] = imag
    return ComplexFeature(constant(kr), constant(ki))


class TestComplexConv:
    def test_real_delta_kernel_is_identity(self):
        rng = np.random.default_rng(0)
        x = ComplexFeature(
            constant(rng.standard_normal((2, 3, 3))), constant(rng.standard_normal((2, 3, 3)))
        )
        y = complex_conv2d(x, _delta_kernel(2, 2))
        np.testing.assert_allclose(y.real.data, x.real.data)
        np.testing.assert_allclose(y.imag.data, x.imag.data)

    def test_imaginary_delta_squares_to_minus_one(self):
        x = ComplexFeature(constant(np.zeros((1, 2, 2))), constant(np.ones((1, 2, 2))))
        y = complex_conv2d(x, _delta_kernel(1, 1, real=0.0, imag=1.0))
        np.testing.assert_allclose(y.real.data, -np.ones((1, 2, 2)))
        np.testing.assert_allclose(y.imag.data, np.zeros((1, 2, 2)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_matches_scalar_complex_oracle(self, seed):
        rng = np.random.default_rng(seed)
        xr, xi = rng.standard_normal((2, 2, 4, 4))
        kr, ki = rng.standard_normal((2, 3, 2, 2, 2))
        y = complex_conv2d(
            ComplexFeature(constant(xr), constant(xi)),
            ComplexFeature(constant(kr), constant(ki)),
        )
        xc, kc = xr + 1j * xi, kr + 1j * ki
        want = np.zeros((3, 3, 3), dtype=complex)
        for co in range(3):
            for i in range(3):
                for j in range(3):
                    want[co, i, j] = np.sum(xc[:, i : i + 2, j : j + 2] * kc[co])
        np.testing.assert_allclose(y.real.data + 1j * y.imag.data, want, atol=1e-10)

    def test_transpose_real_delta_identity(self):
        rng = np.random.default_rng(1)
        x = ComplexFeature(
            constant(rng.standard_normal((2, 3, 3))), constant(rng.standard_normal((2, 3, 3)))
        )
        y = complex_conv2d_transpose(x, _delta_kernel(2, 2))
        np.testing.assert_allclose(y.real.data, x.real.data)
        np.testing.assert_allclose(y.imag.data, x.imag.data)

    def test_transpose_linearity(self):
        rng = np.random.default_rng(2)
        k = ComplexFeature(
            constant(rng.standard_normal((2, 3, 2, 2))),
            constant(rng.standard_normal((2, 3, 2, 2))),
        )
        x1r, x1i, x2r, x2i = rng.standard_normal((4, 2, 3, 3))
        a, b = 1.7, -0.6

        def run(r, i):
            y = complex_conv2d_transpose(ComplexFeature(constant(r), constant(i)), k)
            return y.real.data, y.imag.data

        r1, i1 = run(x1r, x1i)
        r2, i2 = run(x2r, x2i)
        rs, is_ = run(a * x1r + b * x2r, a * x1i + b * x2i)
        np.testing.assert_allclose(rs, a * r1 + b * r2, atol=1e-10)
        np.testing.assert_allclose(is_, a * i1 + b * i2, atol=1e-10)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_transpose_matches_scalar_complex_oracle(self, seed):
        rng = np.random.default_rng(seed)
        xr, xi = rng.standard_normal((2, 2, 3, 3))
        kr, ki = rng.standard_normal((2, 2, 3, 2, 2))
        y = complex_conv2d_transpose(
            ComplexFeature(constant(xr), constant(xi)),
            ComplexFeature(constant(kr), constant(ki)),
            stride=(2, 1),
        )
        xc, kc = xr + 1j * xi, kr + 1j * ki
        want = np.zeros((3, 6, 4), dtype=complex)
        for ci in range(2):
            for i in range(3):
                for j in range(3):
                    want[:, 2 * i : 2 * i + 2, j : j + 2] += xc[ci, i, j] * kc[ci]
        np.testing.assert_allclose(y.real.data + 1j * y.imag.data, want, atol=1e-10)

    def test_part_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            ComplexFeature(constant(np.zeros((1, 2, 2))), constant(np.zeros((1, 2, 3))))

    def test_kernel_rejects_unequal_parts_and_uneven_groups(self):
        k = constant(np.zeros((3, 2, 1, 1)))
        with pytest.raises(ContractError, match="parts"):
            complex_kernel(k, constant(np.zeros((3, 2, 1, 2))))
        with pytest.raises(ContractError, match="groups"):
            complex_kernel(k, k, transposed=True, groups=2)


class TestComplexLstmEnhance:
    def test_identity_stubs_reduce_to_clue_algebra(self):
        rng = np.random.default_rng(0)
        a, b, c = rng.standard_normal((3, 4, 5))
        out = complex_lstm_enhance(
            ComplexFeature(constant(a), constant(b)), constant(c), None, None, None, None
        )
        np.testing.assert_allclose(out.real.data, a - b, atol=1e-14)
        np.testing.assert_allclose(out.imag.data, a + b + 2 * c, atol=1e-14)

    def test_identity_stubs_zero_clue(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((2, 4, 5))
        out = complex_lstm_enhance(
            ComplexFeature(constant(a), constant(b)),
            constant(np.zeros((4, 5))),
            None,
            None,
            None,
            None,
        )
        np.testing.assert_allclose(out.real.data, a - b, atol=1e-14)
        np.testing.assert_allclose(out.imag.data, a + b, atol=1e-14)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_full_gradients(self, seed):
        rng = np.random.default_rng(seed)
        lstm_r = LstmParams(rng, 4, 3, num_layers=1, bidirectional=True)
        lstm_i = LstmParams(rng, 4, 3, num_layers=1, bidirectional=True)
        proj_r = LinearParams.init(rng, 6, 4)
        proj_i = LinearParams.init(rng, 6, 4)
        yr = parameter(rng.standard_normal((3, 4)))
        yi = parameter(rng.standard_normal((3, 4)))
        clue = parameter(rng.standard_normal((3, 4)))
        params = (
            [yr, yi, clue]
            + lstm_r.tensors()
            + lstm_i.tensors()
            + proj_r.tensors()
            + proj_i.tensors()
        )

        def f():
            out = complex_lstm_enhance(
                ComplexFeature(yr, yi), clue, lstm_r, lstm_i, proj_r, proj_i
            )
            return ops.reduce_sum(ops.square(out.real)) + ops.reduce_sum(ops.square(out.imag))

        assert check_gradients(f, params) <= 1e-4

    def test_shape_preserved(self):
        rng = np.random.default_rng(2)
        lstm_r = LstmParams(rng, 5, 3, num_layers=1)
        lstm_i = LstmParams(rng, 5, 3, num_layers=1)
        proj_r = LinearParams.init(rng, 6, 5)
        proj_i = LinearParams.init(rng, 6, 5)
        y = ComplexFeature(
            constant(rng.standard_normal((7, 5))), constant(rng.standard_normal((7, 5)))
        )
        out = complex_lstm_enhance(y, constant(np.zeros((7, 5))), lstm_r, lstm_i, proj_r, proj_i)
        assert out.shape == (7, 5)

    def test_clue_mismatch_names_dims(self):
        y = ComplexFeature(constant(np.zeros((3, 4))), constant(np.zeros((3, 4))))
        with pytest.raises(ContractError, match=r"\[3 x 4\]"):
            complex_lstm_enhance(y, constant(np.zeros((3, 5))), None, None, None, None)

    def test_half_specified_transform_rejected(self):
        rng = np.random.default_rng(3)
        y = ComplexFeature(constant(np.zeros((3, 4))), constant(np.zeros((3, 4))))
        lstm_r = LstmParams(rng, 4, 3, num_layers=1)
        with pytest.raises(ContractError):
            complex_lstm_enhance(y, constant(np.zeros((3, 4))), lstm_r, None, None, None)


class TestMultiHeadAttention:
    def _setup(self, seed, tq=5, tk=6, dim=8, heads=4):
        rng = np.random.default_rng(seed)
        p = MhaParams.init(rng, dim, heads)
        q = constant(rng.standard_normal((tq, dim)))
        k = constant(rng.standard_normal((tk, dim)))
        v = constant(rng.standard_normal((tk, dim)))
        return rng, p, q, k, v

    def test_single_key_gives_unit_weights(self):
        _, p, q, _, _ = self._setup(0)
        rng = np.random.default_rng(9)
        k1 = constant(rng.standard_normal((1, 8)))
        v1 = constant(rng.standard_normal((1, 8)))
        out, w = multi_head_attention(q, k1, v1, p)
        assert np.all(w.data == 1.0)
        # with one key the output cannot depend on the query values
        np.testing.assert_allclose(out.data, np.tile(out.data[0], (5, 1)), atol=1e-12)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_weight_rows_sum_to_one(self, seed):
        _, p, q, k, v = self._setup(seed)
        _, w = multi_head_attention(q, k, v, p)
        np.testing.assert_allclose(w.data.sum(axis=2), 1.0, atol=1e-6)
        assert np.all(w.data >= 0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_key_value_permutation_invariance(self, seed):
        rng, p, q, k, v = self._setup(seed)
        out, _ = multi_head_attention(q, k, v, p)
        perm = rng.permutation(6)
        out_p, _ = multi_head_attention(
            q, constant(k.data[perm]), constant(v.data[perm]), p
        )
        scale = max(1.0, np.max(np.abs(out.data)))
        assert np.max(np.abs(out.data - out_p.data)) <= 1e-6 * scale

    @pytest.mark.parametrize("seed", SEEDS)
    def test_masking_equals_deletion(self, seed):
        rng, p, q, k, v = self._setup(seed)
        mask = np.zeros(6, dtype=bool)
        mask[rng.choice(6, size=2, replace=False)] = True
        masked, w = multi_head_attention(q, k, v, p, key_mask=mask)
        deleted, _ = multi_head_attention(
            q, constant(k.data[~mask]), constant(v.data[~mask]), p
        )
        assert np.max(np.abs(masked.data - deleted.data)) <= 1e-6
        assert np.all(w.data[:, :, mask] == 0.0)

    @pytest.mark.parametrize("seed", SEEDS[:5])
    def test_gradients(self, seed):
        rng = np.random.default_rng(seed)
        p = MhaParams.init(rng, 8, 2)
        q = parameter(rng.standard_normal((4, 8)))
        k = parameter(rng.standard_normal((5, 8)))
        v = parameter(rng.standard_normal((5, 8)))
        mask = np.array([False, True, False, False, False])

        def f():
            out, _ = multi_head_attention(q, k, v, p, key_mask=mask)
            return ops.reduce_sum(ops.square(out))

        assert check_gradients(f, [q, k, v] + p.tensors()) <= 1e-5

    def test_fully_masked_rejected(self):
        _, p, q, k, v = self._setup(0)
        with pytest.raises(ContractError):
            multi_head_attention(q, k, v, p, key_mask=np.ones(6, dtype=bool))

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ConfigError):
            MhaParams.init(np.random.default_rng(0), 6, 4)

    def test_dim_mismatch_rejected(self):
        _, p, q, k, v = self._setup(0)
        with pytest.raises(ContractError):
            multi_head_attention(constant(np.zeros((5, 7))), k, v, p)


class TestNoDeadParameters:
    def test_every_block_feeds_gradient_to_every_parameter(self):
        rng = np.random.default_rng(42)
        lstm = LstmParams(rng, 3, 4, num_layers=2, bidirectional=True)
        proj = LinearParams.init(rng, 3, 4)
        mha = MhaParams.init(rng, 8, 4)

        x = constant(rng.standard_normal((6, 3)))
        ops.reduce_sum(ops.square(lstm_forward(x, lstm))).backward()
        assert grads_all_nonzero(lstm.tensors())

        ops.reduce_sum(ops.square(apply_linear(x, proj))).backward()
        assert grads_all_nonzero(proj.tensors())

        q = constant(rng.standard_normal((4, 8)))
        kv = constant(rng.standard_normal((5, 8)))
        out, _ = multi_head_attention(q, kv, kv, mha)
        ops.reduce_sum(ops.square(out)).backward()
        assert grads_all_nonzero(mha.tensors())
