"""Tape-based reverse-mode differentiation: per-op finite-difference checks."""

import numpy as np
import pytest

from hcnet import autodiff as ad
from hcnet.errors import ShapeMismatch


def numeric_grad(fn, x, eps=1e-6):
    """Central differences of a scalar-valued fn of one array."""
    g = np.zeros_like(x, dtype=float)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        saved = flat_x[i]
        flat_x[i] = saved + eps
        up = fn(x)
        flat_x[i] = saved - eps
        down = fn(x)
        flat_x[i] = saved
        flat_g[i] = (up - down) / (2 * eps)
    return g


def check_unary(op, x, **kwargs):
    tape = ad.Tape()
    v = tape.leaf(x)
    out = op(tape, v, **kwargs)
    loss = ad.sum_all(tape, ad.mul(tape, out, out))
    ad.backward(tape, loss, 1.0)

    def f(arr):
        t = ad.Tape()
        o = op(t, t.leaf(arr), **kwargs)
        return float((o.value * o.value).sum())

    expected = numeric_grad(f, x.copy())
    np.testing.assert_allclose(v.grad, expected, rtol=1e-5, atol=1e-7)


class TestElementwiseOps:
    def test_add_broadcast(self):
        rng = np.random.default_rng(0)
        tape = ad.Tape()
        a = tape.leaf(rng.standard_normal((3, 4)))
        b = tape.leaf(rng.standard_normal(4))
        out = ad.add(tape, a, b)
        ad.backward(tape, ad.sum_all(tape, out), 1.0)
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full(4, 3.0))

    def test_mul_gradients(self):
        rng = np.random.default_rng(1)
        a_val = rng.standard_normal((2, 3))
        b_val = rng.standard_normal((2, 3))
        tape = ad.Tape()
        a, b = tape.leaf(a_val), tape.leaf(b_val)
        ad.backward(tape, ad.sum_all(tape, ad.mul(tape, a, b)), 1.0)
        np.testing.assert_allclose(a.grad, b_val)
        np.testing.assert_allclose(b.grad, a_val)

    def test_sub_scale_neg(self):
        tape = ad.Tape()
        a = tape.leaf(np.array([1.0, 2.0]))
        b = tape.leaf(np.array([3.0, 5.0]))
        out = ad.scale(tape, ad.sub(tape, a, ad.neg(tape, b)), 2.0)
        np.testing.assert_allclose(out.value, [8.0, 14.0])
        ad.backward(tape, ad.sum_all(tape, out), 1.0)
        np.testing.assert_allclose(a.grad, [2.0, 2.0])
        np.testing.assert_allclose(b.grad, [2.0, 2.0])

    def test_relu(self):
        check_unary(ad.relu, np.array([[-1.5, 0.7], [2.0, -0.1]]))

    def test_sigmoid(self):
        check_unary(ad.sigmoid, np.linspace(-4, 4, 7))

    def test_sigmoid_extreme_values_stable(self):
        tape = ad.Tape()
        out = ad.sigmoid(tape, tape.leaf(np.array([-800.0, 800.0])))
        assert np.all(np.isfinite(out.value))
        np.testing.assert_allclose(out.value, [0.0, 1.0], atol=1e-12)

    def test_softplus(self):
        check_unary(ad.softplus, np.linspace(-3, 3, 7))

    def test_softplus_matches_identity_for_large_x(self):
        tape = ad.Tape()
        out = ad.softplus(tape, tape.leaf(np.array([700.0])))
        np.testing.assert_allclose(out.value, [700.0])


class TestMatmulConcat:
    def test_matmul_last(self):
        rng = np.random.default_rng(2)
        x_val = rng.standard_normal((2, 3, 4))
        w_val = rng.standard_normal((5, 4))
        tape = ad.Tape()
        x, w = tape.leaf(x_val), tape.leaf(w_val)
        out = ad.matmul_last(tape, x, w)
        assert out.value.shape == (2, 3, 5)
        g = rng.standard_normal((2, 3, 5))
        loss = ad.sum_all(tape, ad.mul(tape, out, tape.constant(g)))
        ad.backward(tape, loss, 1.0)
        np.testing.assert_allclose(x.grad, g @ w_val, rtol=1e-12)
        np.testing.assert_allclose(
            w.grad, g.reshape(-1, 5).T @ x_val.reshape(-1, 4), rtol=1e-12
        )

    def test_matmul_shape_mismatch(self):
        tape = ad.Tape()
        with pytest.raises(ShapeMismatch):
            ad.matmul_last(tape, tape.leaf(np.ones((2, 3))), tape.leaf(np.ones((5, 4))))

    def test_concat_last_splits_gradient(self):
        tape = ad.Tape()
        a = tape.leaf(np.ones((2, 2)))
        b = tape.leaf(np.ones((2, 3)))
        out = ad.concat_last(tape, [a, b])
        assert out.value.shape == (2, 5)
        seed = np.arange(10.0).reshape(2, 5)
        ad.backward(tape, out, seed)
        np.testing.assert_allclose(a.grad, seed[:, :2])
        np.testing.assert_allclose(b.grad, seed[:, 2:])


class TestIndexingOps:
    def test_gather_nodes_duplicates_accumulate(self):
        tape = ad.Tape()
        h = tape.leaf(np.arange(12.0).reshape(1, 4, 3))
        idx = np.array([0, 0, 2])
        out = ad.gather_nodes(tape, h, idx)
        np.testing.assert_allclose(out.value[0, 0], out.value[0, 1])
        ad.backward(tape, ad.sum_all(tape, out), 1.0)
        np.testing.assert_allclose(h.grad[0, :, 0], [2.0, 0.0, 1.0, 0.0])

    def test_index_add_duplicates(self):
        tape = ad.Tape()
        base = tape.constant(np.zeros((1, 3, 2)))
        vals = tape.leaf(np.ones((1, 2, 2)))
        out = ad.index_add(tape, base, np.array([1, 1]), vals)
        np.testing.assert_allclose(out.value[0, 1], [2.0, 2.0])
        ad.backward(tape, ad.sum_all(tape, out), 1.0)
        np.testing.assert_allclose(vals.grad, np.ones((1, 2, 2)))

    def test_index_add_2d(self):
        tape = ad.Tape()
        base = tape.constant(np.zeros((2, 3, 2)))
        vals = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        rows = np.array([0, 0, 1])
        cols = np.array([2, 2, 0])
        out = ad.index_add_2d(tape, base, rows, cols, vals)
        np.testing.assert_allclose(out.value[0, 2], [4.0, 6.0])
        np.testing.assert_allclose(out.value[1, 0], [5.0, 6.0])
        ad.backward(tape, ad.sum_all(tape, out), 1.0)
        np.testing.assert_allclose(vals.grad, np.ones((3, 2)))

    def test_take_rows(self):
        tape = ad.Tape()
        table = tape.leaf(np.arange(6.0).reshape(3, 2))
        out = ad.take_rows(tape, table, np.array([2, 0, 2]))
        np.testing.assert_allclose(out.value[0], [4.0, 5.0])
        ad.backward(tape, ad.sum_all(tape, out), 1.0)
        np.testing.assert_allclose(table.grad, [[1, 1], [0, 0], [2, 2]])

    def test_gather_2d(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(6.0).reshape(2, 3))
        out = ad.gather_2d(tape, x, np.array([0, 1, 1]), np.array([2, 0, 0]))
        np.testing.assert_allclose(out.value, [2.0, 3.0, 3.0])
        ad.backward(tape, ad.sum_all(tape, out), 1.0)
        np.testing.assert_allclose(x.grad, [[0, 0, 1], [2, 0, 0]])

    def test_reshape_and_broadcast_middle(self):
        tape = ad.Tape()
        x = tape.leaf(np.arange(4.0).reshape(2, 2))
        r = ad.reshape(tape, x, (2, 1, 2))
        b = ad.broadcast_middle(tape, r, 3)
        assert b.value.shape == (2, 3, 2)
        ad.backward(tape, ad.sum_all(tape, b), 1.0)
        np.testing.assert_allclose(x.grad, np.full((2, 2), 3.0))


class TestReductionsAndNorm:
    def test_layer_norm_forward(self):
        tape = ad.Tape()
        x = tape.leaf(np.array([[1.0, 2.0, 3.0, 4.0]]))
        out = ad.layer_norm(
            tape, x, tape.constant(np.ones(4)), tape.constant(np.zeros(4))
        )
        np.testing.assert_allclose(out.value.mean(), 0.0, atol=1e-12)
        np.testing.assert_allclose(out.value.std(), 1.0, atol=1e-3)

    def test_layer_norm_gradients(self):
        rng = np.random.default_rng(3)
        x_val = rng.standard_normal((2, 5))
        g_val = rng.standard_normal(5)
        b_val = rng.standard_normal(5)

        def f(arrs):
            x, gam, bet = arrs
            t = ad.Tape()
            o = ad.layer_norm(t, t.leaf(x), t.leaf(gam), t.leaf(bet))
            return float((o.value**3).sum())

        tape = ad.Tape()
        x, gam, bet = tape.leaf(x_val), tape.leaf(g_val), tape.leaf(b_val)
        out = ad.layer_norm(tape, x, gam, bet)
        cube = ad.mul(tape, out, ad.mul(tape, out, out))
        ad.backward(tape, ad.sum_all(tape, cube), 1.0)
        for k, (var, val) in enumerate([(x, x_val), (gam, g_val), (bet, b_val)]):
            arrs = [x_val.copy(), g_val.copy(), b_val.copy()]

            def fk(v, k=k, arrs=arrs):
                arrs[k] = v
                return f(arrs)

            np.testing.assert_allclose(
                var.grad, numeric_grad(fk, val.copy()), rtol=1e-4, atol=1e-6
            )

    def test_dropout_zero_rate_is_identity(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(5))
        assert ad.dropout(tape, x, 0.0, np.random.default_rng(0)) is x

    def test_dropout_scales_kept_entries(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(10_000))
        out = ad.dropout(tape, x, 0.5, np.random.default_rng(0))
        kept = out.value[out.value > 0]
        np.testing.assert_allclose(kept, 2.0)
        assert 0.4 < kept.size / 10_000 < 0.6


def _brute_product(f, skip):
    """Product over axis -3 of f, leaving out the positions in `skip`."""
    out = np.ones(f.shape[:-3] + f.shape[-2:])
    for j in range(f.shape[-3]):
        if j not in skip:
            out = out * f[..., j, :, :]
    return out


class TestExclusiveProducts:
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_forward_leaves_out_own_position(self, k):
        rng = np.random.default_rng(k)
        f = rng.standard_normal((2, k, 3, 4))
        f[0, 0, 1] = 0.0  # zeros are exact: no division
        out = ad.exclusive_products(f)
        for i in range(k):
            np.testing.assert_allclose(out[:, i], _brute_product(f, {i}), rtol=1e-13)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
    def test_vjp_matches_double_exclusive_products(self, k):
        # d/df_j sum_i <g_i, prod_{l != i} f_l> = sum_{i != j} g_i prod_{l != i, j} f_l
        rng = np.random.default_rng(10 + k)
        f_val = rng.standard_normal((2, k, 3, 4))
        f_val[1, -1, 2] = 0.0
        g = rng.standard_normal(f_val.shape)
        tape = ad.Tape()
        f = tape.leaf(f_val)
        ad.backward(tape, ad.exclusive_prod(tape, f), g)
        expected = np.zeros_like(f_val)
        for j in range(k):
            for i in range(k):
                if i != j:
                    expected[:, j] += g[:, i] * _brute_product(f_val, {i, j})
        got = f.grad if f.grad is not None else np.zeros_like(f_val)
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)


class TestTapeSemantics:
    def test_zero_seed_gives_zero_grads(self):
        tape = ad.Tape()
        x = tape.leaf(np.ones(3))
        out = ad.mul(tape, x, x)
        ad.backward(tape, ad.sum_all(tape, out), 0.0)
        np.testing.assert_allclose(x.grad, np.zeros(3))

    def test_diamond_accumulation(self):
        # y = x*x + x*x: gradient must accumulate both paths (4x).
        tape = ad.Tape()
        x = tape.leaf(np.array([3.0]))
        y = ad.add(tape, ad.mul(tape, x, x), ad.mul(tape, x, x))
        ad.backward(tape, ad.sum_all(tape, y), 1.0)
        np.testing.assert_allclose(x.grad, [12.0])

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(9)
            tape = ad.Tape()
            x = tape.leaf(rng.standard_normal((4, 4)))
            w = tape.leaf(rng.standard_normal((4, 4)))
            out = ad.relu(tape, ad.matmul_last(tape, x, w))
            ad.backward(tape, ad.sum_all(tape, out), 1.0)
            return x.grad.copy(), w.grad.copy()

        a = run()
        b = run()
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
