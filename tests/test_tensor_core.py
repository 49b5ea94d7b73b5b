"""Tests for the autodiff core: op semantics, backward rules, tape behavior."""

import numpy as np
import pytest

from mctse import ops
from mctse.errors import ContractError, InputError
from mctse.gradcheck import check_gradients
from mctse.tensor import Tape, Tensor, constant, no_grad, parameter, zero_grads

SEEDS = list(range(10))


class TestForwardValues:
    def test_matmul_identity(self):
        a = constant(np.eye(2))
        b = constant([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).data, b.data)

    def test_matmul_zero(self):
        a = constant([[1.0, 2.0]])
        b = constant([[0.0], [0.0]])
        np.testing.assert_array_equal(ops.matmul(a, b).data, [[0.0]])

    def test_conv2d_unit_kernel_is_identity(self):
        x = constant(np.arange(12.0).reshape(1, 3, 4))
        k = constant(np.ones((1, 1, 1, 1)))
        y = ops.conv2d(x, k, stride=(1, 1), padding=(0, 0))
        np.testing.assert_array_equal(y.data, x.data)

    def test_conv2d_all_ones_sums(self):
        x = constant(np.ones((1, 2, 2)))
        k = constant(np.ones((1, 1, 2, 2)))
        y = ops.conv2d(x, k, stride=(1, 1), padding=(0, 0))
        np.testing.assert_array_equal(y.data, [[[4.0]]])

    def test_conv2d_output_size_formula(self):
        x = constant(np.zeros((2, 11, 9)))
        k = constant(np.zeros((4, 2, 5, 2)))
        y = ops.conv2d(x, k, stride=(2, 1), padding=(2, 0))
        assert y.shape == (4, (11 + 4 - 5) // 2 + 1, (9 - 2) // 1 + 1)

    def test_conv2d_transpose_unit_kernel_is_identity(self):
        x = constant(np.arange(6.0).reshape(1, 2, 3))
        k = constant(np.ones((1, 1, 1, 1)))
        y = ops.conv2d_transpose(x, k, stride=(1, 1), padding=(0, 0))
        np.testing.assert_array_equal(y.data, x.data)

    def test_conv_transpose_inverts_conv_shape(self):
        rng = np.random.default_rng(0)
        x = constant(rng.standard_normal((2, 6, 5)))
        k = constant(rng.standard_normal((3, 2, 3, 3)))
        y = ops.conv2d(x, k, stride=(1, 1), padding=(1, 1))
        back = ops.conv2d_transpose(y, constant(k.data), stride=(1, 1), padding=(1, 1))
        assert back.shape == x.shape

    def test_softmax_symmetry(self):
        y = ops.softmax(constant([0.0, 0.0]))
        np.testing.assert_allclose(y.data, [0.5, 0.5])

    def test_softmax_no_overflow(self):
        y = ops.softmax(constant([1000.0, 0.0]))
        assert np.all(np.isfinite(y.data))
        np.testing.assert_allclose(y.data[0], 1.0)

    def test_layer_norm_constant_row(self):
        x = constant([[5.0, 5.0, 5.0]])
        y = ops.layer_norm(x, constant(np.ones(3)), constant(np.zeros(3)))
        np.testing.assert_allclose(y.data, np.zeros((1, 3)), atol=1e-12)

    def test_layer_norm_already_normalized(self):
        x = constant([[1.0, -1.0]])
        y = ops.layer_norm(x, constant(np.ones(2)), constant(np.zeros(2)))
        np.testing.assert_allclose(y.data, [[1.0, -1.0]], atol=1e-4)

    def test_layer_norm_moments(self):
        rng = np.random.default_rng(3)
        x = constant(rng.standard_normal((6, 32)) * 4 + 2)
        y = ops.layer_norm(x, constant(np.ones(32)), constant(np.zeros(32)))
        np.testing.assert_allclose(y.data.mean(axis=1), 0.0, atol=1e-6)
        np.testing.assert_allclose(y.data.var(axis=1), 1.0, atol=1e-5)

    def test_relu(self):
        np.testing.assert_array_equal(
            ops.relu(constant([-1.0, 0.0, 2.0])).data, [0.0, 0.0, 2.0]
        )

    def test_sigmoid_at_zero(self):
        assert ops.sigmoid(constant(0.0)).item() == 0.5

    def test_concat(self):
        y = ops.concat([constant([[1.0]]), constant([[2.0]])], axis=0)
        np.testing.assert_array_equal(y.data, [[1.0], [2.0]])

    def test_tile_rows(self):
        y = ops.tile_rows(constant([[1.0, 2.0]]), 3)
        np.testing.assert_array_equal(y.data, [[1.0, 2.0]] * 3)

    def test_repeat_rows_interleaves(self):
        y = ops.repeat_rows(constant([[1.0], [2.0]]), 2)
        np.testing.assert_array_equal(y.data, [[1.0], [1.0], [2.0], [2.0]])

    def test_gather_rows(self):
        table = constant(np.arange(10.0).reshape(5, 2))
        y = ops.gather_rows(table, [4, 0, 4])
        np.testing.assert_array_equal(y.data, [[8.0, 9.0], [0.0, 1.0], [8.0, 9.0]])


class TestBackwardAnalytic:
    def test_sum_of_squares_grad(self):
        x = parameter([1.0, -2.0, 3.0])
        loss = ops.reduce_sum(ops.square(x))
        loss.backward()
        np.testing.assert_allclose(x.grad, 2.0 * x.data)

    def test_matmul_grad_against_ones(self):
        rng = np.random.default_rng(1)
        a = parameter(rng.standard_normal((3, 4)))
        b = constant(rng.standard_normal((4, 2)))
        ops.reduce_sum(ops.matmul(a, b)).backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 2)) @ b.data.T)

    def test_reduce_sum_grad_is_ones(self):
        x = parameter(np.arange(6.0).reshape(2, 3))
        ops.reduce_sum(x).backward()
        np.testing.assert_array_equal(x.grad, np.ones((2, 3)))

    def test_relu_grad_zero_at_kink(self):
        x = parameter([-1.0, 0.0, 2.0])
        ops.reduce_sum(ops.relu(x)).backward()
        np.testing.assert_array_equal(x.grad, [0.0, 0.0, 1.0])

    def test_accumulation_is_additive(self):
        x = parameter([1.0, 2.0])
        ops.reduce_sum(ops.square(x)).backward()
        first = np.array(x.grad)
        ops.reduce_sum(ops.square(x)).backward()
        np.testing.assert_allclose(x.grad, 2.0 * first)

    def test_zero_grad_resets(self):
        x = parameter([1.0])
        ops.reduce_sum(x).backward()
        zero_grads([x])
        assert x.grad is None

    def test_grad_flows_through_shared_subexpression(self):
        x = parameter([2.0])
        y = ops.square(x)
        loss = ops.reduce_sum(y + y)
        loss.backward()
        np.testing.assert_allclose(x.grad, [8.0])

    def test_constant_gets_no_grad(self):
        x = constant([1.0, 2.0])
        w = parameter([3.0, 4.0])
        ops.reduce_sum(x * w).backward()
        assert x.grad is None
        np.testing.assert_array_equal(w.grad, x.data)


class TestFiniteDifferences:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_matmul(self, seed):
        rng = np.random.default_rng(seed)
        a = parameter(rng.standard_normal((3, 4)))
        b = parameter(rng.standard_normal((4, 2)))
        err = check_gradients(lambda: ops.reduce_sum(ops.square(ops.matmul(a, b))), [a, b])
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((2, 8, 8)))
        k = parameter(rng.standard_normal((3, 2, 3, 3)))
        err = check_gradients(
            lambda: ops.reduce_sum(ops.square(ops.conv2d(x, k, stride=(2, 1), padding=(1, 1)))),
            [x, k],
        )
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_conv2d_transpose(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((2, 4, 5)))
        k = parameter(rng.standard_normal((2, 3, 3, 2)))
        err = check_gradients(
            lambda: ops.reduce_sum(
                ops.square(ops.conv2d_transpose(x, k, stride=(2, 1), padding=(1, 0)))
            ),
            [x, k],
        )
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal(4))
        w = constant(rng.standard_normal(4))
        err = check_gradients(lambda: ops.reduce_sum(ops.softmax(x) * w), [x])
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_layer_norm(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((3, 6)))
        gain = parameter(rng.standard_normal(6))
        bias = parameter(rng.standard_normal(6))
        err = check_gradients(
            lambda: ops.reduce_sum(ops.square(ops.layer_norm(x, gain, bias))),
            [x, gain, bias],
        )
        assert err <= 1e-5

    @pytest.mark.parametrize("seed", SEEDS)
    def test_smooth_elementwise(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal(8))
        y = parameter(rng.standard_normal(8))

        def f():
            z = ops.tanh(x) * ops.sigmoid(y) + ops.square(x) - ops.scale(y, 0.3)
            return ops.mean(z)

        assert check_gradients(f, [x, y]) <= 1e-7

    @pytest.mark.parametrize("seed", SEEDS)
    def test_log10_sqrt(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.uniform(0.5, 3.0, size=6))
        err = check_gradients(lambda: ops.reduce_sum(ops.log10(x) + ops.sqrt(x)), [x])
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_abs_relu_away_from_kinks(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal(10)
        raw[np.abs(raw) < 0.1] = 0.5  # keep finite differences off the kink
        x = parameter(raw)
        err = check_gradients(lambda: ops.reduce_sum(ops.abs_(x) + ops.relu(x)), [x])
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_shape_ops(self, seed):
        rng = np.random.default_rng(seed)
        a = parameter(rng.standard_normal((2, 3)))
        b = parameter(rng.standard_normal((1, 3)))

        def f():
            t = ops.concat([a, ops.tile_rows(b, 2)], axis=0)
            t = ops.transpose(t)
            t = ops.reshape(t, (2, 6))
            t = ops.slice_axis(t, 1, 1, 5)
            t = ops.repeat_rows(t, 3)
            return ops.mean(ops.square(t))

        assert check_gradients(f, [a, b]) <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reductions_and_bias(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((3, 4, 5)))
        b = parameter(rng.standard_normal(3))

        def f():
            y = ops.channel_bias(x, b)
            y = ops.reduce_sum(y, axis=2)
            y = ops.mean(y, axis=0)
            return ops.reduce_sum(ops.square(y))

        assert check_gradients(f, [x, b]) <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_gather_rows(self, seed):
        rng = np.random.default_rng(seed)
        table = parameter(rng.standard_normal((6, 3)))
        ids = rng.integers(0, 6, size=5)
        err = check_gradients(
            lambda: ops.reduce_sum(ops.square(ops.gather_rows(table, ids))), [table]
        )
        assert err <= 1e-6

    @pytest.mark.parametrize("seed", SEEDS)
    def test_chain_rule_composite(self, seed):
        rng = np.random.default_rng(seed)
        x = parameter(rng.standard_normal((2, 5, 6)))
        k = parameter(rng.standard_normal((3, 2, 3, 3)) * 0.5)
        w = parameter(rng.standard_normal((3, 4)) * 0.5)
        gain = parameter(np.ones(4))
        bias = parameter(np.zeros(4))

        def f():
            y = ops.conv2d(x, k, stride=(1, 2), padding=(1, 1))
            y = ops.tanh(y)
            y = ops.reshape(ops.transpose(y, (1, 2, 0)), (-1, 3))
            y = ops.matmul(y, w)
            y = ops.layer_norm(y, gain, bias)
            y = ops.softmax(y, axis=1)
            return ops.mean(ops.square(y))

        assert check_gradients(f, [x, k, w, gain, bias]) <= 1e-5


class TestInvariants:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_softmax_rows_normalized(self, seed):
        rng = np.random.default_rng(seed)
        y = ops.softmax(constant(rng.standard_normal((5, 7)) * 10), axis=1).data
        np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(y >= 0) and np.all(y <= 1)

    def test_tape_visits_each_node_once(self):
        # diamond graph: x -> (a, b) -> loss; grad must not double-count
        x = parameter([3.0])
        a = ops.square(x)
        b = ops.scale(x, 2.0)
        loss = ops.reduce_sum(a * b)
        loss.backward()
        # d/dx (x^2 * 2x) = 6 x^2
        np.testing.assert_allclose(x.grad, [6.0 * 9.0])


class TestNoGrad:
    def test_ops_record_no_graph(self):
        x = parameter([1.0, 2.0])
        with no_grad():
            y = ops.reduce_sum(ops.square(x))
        assert y._parents == () and y._backward is None
        assert not y.requires_grad
        assert float(y.data) == 5.0

    def test_nests(self):
        x = parameter([3.0])
        with no_grad():
            with no_grad():
                inner = ops.square(x)
            after_inner = ops.square(x)
        assert inner._parents == () and after_inner._parents == ()
        assert ops.square(x)._parents == (x,)

    def test_state_restored_after_exception(self):
        x = parameter([3.0])
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert ops.square(x).requires_grad

    def test_backward_on_graphless_loss_rejected(self):
        x = parameter([1.0, 2.0])
        with no_grad():
            loss = ops.reduce_sum(ops.square(x))
        with pytest.raises(ContractError, match="no_grad"):
            loss.backward()
        assert x.grad is None

    def test_backward_on_constant_loss_rejected(self):
        with pytest.raises(ContractError, match="graph"):
            ops.reduce_sum(constant([1.0, 2.0])).backward()


class TestLeafGradients:
    def test_only_leaves_keep_grad(self):
        x = parameter([1.0, -2.0])
        w = parameter([3.0, 4.0])
        hidden = ops.mul(ops.square(x), w)
        loss = ops.reduce_sum(hidden)
        loss.backward()
        tape = Tape.trace(loss)
        assert all(n.grad is None for n in tape.nodes if n._backward is not None)
        np.testing.assert_array_equal(x.grad, 2.0 * x.data * w.data)
        np.testing.assert_array_equal(w.grad, x.data**2)

    def test_leaf_accumulation_over_shared_graph(self):
        # Two backwards through one graph accumulate on the leaf; the shared
        # intermediate keeps nothing between them.
        x = parameter([2.0])
        y = ops.square(x)
        loss = ops.reduce_sum(y + y)
        loss.backward()
        loss.backward()
        assert y.grad is None
        np.testing.assert_array_equal(x.grad, [16.0])


class TestErrors:
    def test_matmul_shape_mismatch_names_both(self):
        with pytest.raises(ContractError, match=r"\(2, 3\).*\(2, 2\)"):
            ops.matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 2))))

    def test_conv2d_kernel_too_large(self):
        with pytest.raises(ContractError):
            ops.conv2d(constant(np.zeros((1, 2, 2))), constant(np.zeros((1, 1, 5, 5))))

    def test_log10_domain(self):
        with pytest.raises(InputError):
            ops.log10(constant([1.0, 0.0]))

    def test_sqrt_domain(self):
        with pytest.raises(InputError):
            ops.sqrt(constant([-1.0]))

    def test_backward_requires_scalar(self):
        x = parameter(np.zeros((2, 2)))
        with pytest.raises(ContractError):
            ops.square(x).backward()

    def test_concat_incompatible(self):
        with pytest.raises(ContractError):
            ops.concat([constant(np.zeros((2, 3))), constant(np.zeros((2, 4)))], axis=0)

    def test_slice_out_of_range(self):
        with pytest.raises(ContractError):
            ops.slice_axis(constant(np.zeros((3,))), 0, 1, 5)

    def test_axis_out_of_range(self):
        with pytest.raises(ContractError):
            ops.reduce_sum(constant(np.zeros((2, 2))), axis=2)

    def test_add_shape_mismatch(self):
        with pytest.raises(ContractError):
            ops.add(constant(np.zeros(3)), Tensor(np.zeros(4)))

    def test_gather_rows_id_out_of_range(self):
        with pytest.raises(InputError):
            ops.gather_rows(constant(np.zeros((3, 2))), [0, 3])
