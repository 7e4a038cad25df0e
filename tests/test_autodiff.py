"""Tape-based reverse-mode differentiation: per-op finite-difference checks."""

import ast
import ctypes
import glob
import os
import subprocess
import sys
from pathlib import Path

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
        vals = tape.leaf(np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
        rows = np.array([0, 0, 1])
        cols = np.array([2, 2, 0])
        out = ad.index_add_2d(tape, (2, 3, 2), rows, cols, vals)
        assert out.value.shape == (2, 3, 2) and [p for p, _ in out.parents] == [vals]
        np.testing.assert_allclose(out.value[0, 2], [4.0, 6.0])
        np.testing.assert_allclose(out.value[1, 0], [5.0, 6.0])
        assert out.value.sum() == 21.0
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

    @pytest.mark.parametrize("shape", [(3, 7, 5), (2, 1000, 32), (1, 9000, 1)])
    def test_normalize_is_the_np_var_formula_bitwise(self, shape):
        # `_normalize` sums the squares of the centred rows itself; its bits
        # must stay those of (x - mean) / sqrt(np.var + eps), whole or
        # written into a query block's rows.
        rng = np.random.default_rng(shape[-1])
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, shape[-1])
        inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
        xhat = (x - x.mean(axis=-1, keepdims=True)) * inv
        out = (np.empty(shape), np.empty(shape[:-1] + (1,)))
        for got in (ad._normalize(x), ad._normalize(x, out=out), out):
            assert all(_bitwise_equal(a, b) for a, b in zip(got, (xhat, inv)))


# The query blocks of `layer_tail` and `mlp_decoder` cut only the query axis
# of a stacked product (Q, V, n) @ (n, m), which NumPy runs as one matrix
# product per query. Cut by rows, a 2-D product need not keep its bits: on
# NumPy 2.4.6 with OpenBLAS, x @ W.T with x (2000, 128) and W (32, 128)
# differed in blocks of 1, 7, 16 and 64 rows, and (2000, 32) @ (32, 1) in
# blocks of 1, 7 and 250, so the k-ary decoder's 2-D input stays one block. Another BLAS may differ
# on the stacked products too: this pins the rule the blocks rest on.
_D = 32
_STACKED_PRODUCTS = {  # name: (left operand's width, right operand (n, m))
    "tail x @ W.T": (2 * _D, lambda w: w.T),
    "tail gy @ W": (_D, lambda w: w),
    "decoder x @ W1.T": (2 * _D, lambda w: w.T),
    "decoder hid @ W2.T": (_D, lambda w: w[:1, :_D].T),
    "decoder g @ W2": (1, lambda w: w[:1, :_D]),
    "decoder gp @ W1": (_D, lambda w: w),
}


@pytest.mark.parametrize("V", [7, 20, 999, 1000, 2000])
@pytest.mark.parametrize("name", list(_STACKED_PRODUCTS))
def test_query_slices_of_a_stacked_product_are_its_bits(name, V):
    n, right = _STACKED_PRODUCTS[name]
    rng = np.random.default_rng(V)
    w = right(rng.standard_normal((_D, 2 * _D)))
    x = rng.standard_normal((5, V, n))
    whole = x @ w
    for size in (1, 2, 4):
        out = np.empty(whole.shape)
        for lo in range(0, 5, size):
            np.matmul(x[lo:lo + size], w, out=out[lo:lo + size])
        assert _bitwise_equal(out, whole), size


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
        got = ad.exclusive_products_vjp(f_val, g)
        expected = np.zeros_like(f_val)
        for j in range(k):
            for i in range(k):
                if i != j:
                    expected[:, j] += g[:, i] * _brute_product(f_val, {i, j})
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=1e-14)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_vjp_is_the_two_full_sweeps_bitwise(self, k):
        # The sweeps skip the suffix S_0 and the prefix P_{k-1}, which no
        # term reads: the bits are those of sweeps that compute them.
        rng = np.random.default_rng(20 + k)
        f = rng.standard_normal((2, k, 3, 4)) * 10.0 ** rng.integers(-3, 3, (2, k, 3, 4))
        f[0, :, 0] = 0.0
        f[1, :, 1] = -0.0
        f[0, 0, 2] = -0.0
        g = rng.standard_normal(f.shape)
        g[1, -1, 2] = -0.0
        got, ref = ad.exclusive_products_vjp(f, g), _full_sweeps_vjp(f, g)
        assert np.array_equal(got, ref) and np.array_equal(np.signbit(got), np.signbit(ref))

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_vjp_of_a_broadcast_factor_row_is_the_full_vjp_bitwise(self, k):
        # One factor row per position (k, 1, d), as an all-zero input has,
        # broadcast against g (B, k, E, d): the bytes of the VJP of the
        # full f, in g's shape, C-ordered.
        rng = np.random.default_rng(30 + k)
        f0 = rng.standard_normal((k, 1, 4)) * 10.0 ** rng.integers(-3, 3, (k, 1, 4))
        f0[0, 0, 1] = -0.0
        g = rng.standard_normal((2, k, 3, 4))
        g[1, -1, 2] = -0.0
        got = ad.exclusive_products_vjp(f0, g)
        want = ad.exclusive_products_vjp(np.broadcast_to(f0, g.shape).copy(), g)
        assert got.shape == g.shape and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_vjp_keeps_a_full_factors_layout(self):
        # A full f laid out as a gather (k, E, B, d) seen as (B, k, E, d):
        # the gradient keeps that layout, so sums over it run in its order.
        f = np.random.default_rng(0).standard_normal((3, 5, 2, 4)).transpose(2, 0, 1, 3)
        out = ad.exclusive_products_vjp(f, np.ones(f.shape))
        assert out.strides == np.empty_like(f).strides != np.empty(f.shape).strides


def _full_sweeps_vjp(f, g):
    """exclusive_products_vjp with both sweeps run to their ends."""
    k = f.shape[-3]
    if k == 1:
        return np.zeros_like(f)
    out, bs = np.empty_like(f), {}
    s, b = f[..., k - 1, :, :], g[..., k - 1, :, :]
    for j in range(k - 2, 0, -1):
        out[..., j, :, :] = s
        bs[j] = b
        b = b * f[..., j, :, :] + g[..., j, :, :] * s
        s = f[..., j, :, :] * s
    out[..., 0, :, :] = b
    p, a = f[..., 0, :, :], g[..., 0, :, :]
    for j in range(1, k - 1):
        oj = out[..., j, :, :]
        oj *= a
        oj += p * bs[j]
        a = a * f[..., j, :, :] + g[..., j, :, :] * p
        p = p * f[..., j, :, :]
    out[..., k - 1, :, :] = a
    return out


def _add_at(base, idx, vals):
    out = base.copy()
    np.add.at(out, (Ellipsis, idx, slice(None)), vals)
    return out


IDX_CASES = [
    np.array([4, 0, 4, 4, 2, 0]),
    np.array([[1, 1, 3], [3, 0, 1]]),
    np.array([], dtype=np.intp),
]


def _bitwise_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


class TestScatterAdd:
    # 20 bins per slice: all slices in one bincount, two per call with a
    # shorter last chunk, or one per call.
    @pytest.mark.parametrize("strided", [False, True])
    @pytest.mark.parametrize("chunk_bins", [1 << 15, 40, 1])
    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("idx", IDX_CASES)
    def test_equals_add_at_bitwise(self, lead, idx, chunk_bins, strided, monkeypatch):
        # Values of very different magnitudes make the sum depend on the
        # order of the terms, so only the same order gives the same bits.
        # -0.0 values must give +0.0 in an otherwise empty bin. Strided
        # vals are every other row of a wider array, as a gather returns.
        monkeypatch.setattr(ad, "SCATTER_BINS", chunk_bins)
        rng = np.random.default_rng(len(lead) + idx.size)
        shape = lead + (5, 4)
        vals = rng.standard_normal(lead + idx.shape + (8,)) * 10.0 ** rng.integers(-8, 8, 8)
        vals = vals[..., ::2] if strided else np.ascontiguousarray(vals[..., :4])
        vals[..., 0] = -0.0
        assert vals.flags.c_contiguous != strided or not vals.size
        assert _bitwise_equal(ad.scatter_add(shape, idx, vals),
                              _add_at(np.zeros(shape), idx, vals))

    @pytest.mark.parametrize("lead", [(), (3,), (2, 3)])
    @pytest.mark.parametrize("idx", IDX_CASES)
    def test_index_add_equals_add_at_bitwise(self, lead, idx):
        # index_add keeps the non-zero base, summed into in index order.
        rng = np.random.default_rng(len(lead) + idx.size)
        base = rng.standard_normal(lead + (5, 4))
        vals = rng.standard_normal(lead + idx.shape + (4,)) * 10.0 ** rng.integers(-8, 8, 4)
        vals[..., 0] = -0.0
        tape = ad.Tape()
        out = ad.index_add(tape, tape.constant(base), idx, tape.constant(vals))
        assert _bitwise_equal(out.value, _add_at(base, idx, vals))

    def test_non_contiguous_vals_and_chained_calls(self):
        # A scatter into zeros, then index_add onto its result, as the
        # per-relation chain of index_adds starts from a zero array.
        rng = np.random.default_rng(3)
        h = rng.standard_normal((4, 6, 3))
        idx = np.array([[5, 0, 5], [2, 2, 5]])
        vals = h[..., idx, :]  # a gather's output is not C-contiguous
        assert not vals.flags.c_contiguous
        tape = ad.Tape()
        first = tape.constant(ad.scatter_add(h.shape, idx, vals))
        got = ad.index_add(tape, first, idx[::-1], tape.constant(vals * 3.0)).value
        want = _add_at(_add_at(np.zeros_like(h), idx, vals), idx[::-1], vals * 3.0)
        assert _bitwise_equal(got, want)

    def test_negative_zero(self):
        # -0.0 vals summed from +0.0 give +0.0, as np.add.at into zeros;
        # index_add keeps a base's signed zeros as np.add.at does.
        base = np.array([[-0.0, 0.0], [0.0, 2.0], [1.0, -0.0]])
        idx = np.array([0, 1, 1])
        vals = np.array([[-0.0, -0.0], [-0.0, 1.0], [-0.0, -1.0]])
        assert _bitwise_equal(ad.scatter_add(base.shape, idx, vals),
                              _add_at(np.zeros_like(base), idx, vals))
        tape = ad.Tape()
        out = ad.index_add(tape, tape.constant(base), idx, tape.constant(vals))
        assert _bitwise_equal(out.value, _add_at(base, idx, vals))
        assert np.signbit(out.value[0, 0]) and np.signbit(out.value[2, 1])

    @pytest.mark.parametrize("bad", [3, -1])
    def test_index_out_of_range(self, bad):
        with pytest.raises(IndexError):
            ad.scatter_add((2, 3, 2), np.array([0, bad]), np.ones((2, 2, 2)))

    @pytest.mark.parametrize("lead", [(), (3,)])
    def test_no_terms_keeps_the_float_dtype(self, lead):
        # bincount of no terms returns int64; a backward adding a float
        # gradient into it raised UFuncTypeError.
        out = ad.scatter_add(lead + (4, 2), np.array([], dtype=np.intp), np.zeros(lead + (0, 2)))
        assert out.dtype == np.float64 and _bitwise_equal(out, np.zeros(lead + (4, 2)))

    def test_leaves_base_untouched(self):
        tape = ad.Tape()
        base = np.ones((2, 3, 2))
        out = ad.index_add(tape, tape.constant(base), np.array([0, 0]),
                           tape.constant(np.ones((2, 2, 2))))
        assert (base == 1.0).all() and (out.value[:, 0] == 3.0).all()


class TestHoldingPairs:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_pairs_are_the_marked_edges_by_edge_then_query(self, k):
        # A node twice in an edge, a node in no edge (9), a query that
        # marks nothing (2), and one that marks every node (3).
        rng = np.random.default_rng(k)
        nodes = rng.integers(0, 9, (12, k))
        nodes[0] = 4
        marked = rng.random((10, 4)) < 0.2
        marked[:, 2] = False
        marked[:, 3] = True
        qs, es, rows = ad._holding_pairs(marked, nodes)
        want = [(q, e) for e in range(12) for q in range(4)
                if any(marked[v, q] for v in nodes[e])]
        assert list(zip(qs.tolist(), es.tolist())) == want
        assert qs.dtype == es.dtype == rows.dtype == np.intp

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_rows_index_the_pairs_nodes_on_the_flattened_axis(self, k):
        # Row j of h.reshape(Q*V, d) at rows[i, p] is h[qs[p], nodes[es[p], i]].
        rng = np.random.default_rng(10 + k)
        Q, V, d = 4, 10, 3
        nodes = rng.integers(0, V, (12, k))
        h = rng.standard_normal((Q, V, d))
        qs, es, rows = ad._holding_pairs(rng.random((V, Q)) < 0.3, nodes)
        assert qs.size and rows.shape == (k, qs.size)
        for i in range(k):
            assert _bitwise_equal(h.reshape(Q * V, d)[rows[i]], h[qs, nodes[es, i]])

    def test_no_marks_no_pairs(self):
        qs, es, rows = ad._holding_pairs(np.zeros((5, 3), dtype=bool), np.array([[0, 1], [2, 4]]))
        assert qs.size == es.size == 0 and rows.shape == (2, 0)

    def test_a_relation_with_no_edges_has_no_pairs(self):
        qs, es, rows = ad._holding_pairs(np.ones((5, 3), dtype=bool), np.empty((0, 3), np.intp))
        assert qs.size == es.size == 0 and rows.shape == (3, 0)


class TestTapeSemantics:
    def test_backward_frees_non_leaf_grads(self):
        rng = np.random.default_rng(4)
        x_val, w_val = rng.standard_normal((3, 4)), rng.standard_normal((2, 4))
        tape = ad.Tape()
        x, w, c = tape.leaf(x_val), tape.leaf(w_val), tape.constant(np.full(2, 0.5))
        y = ad.mul(tape, ad.matmul_last(tape, x, w), c)
        loss = ad.sum_all(tape, y)
        ad.backward(tape, loss, 1.0)
        # Only leaves keep a gradient: backward calls no VJP for a constant.
        for v in tape.vars:
            if v in (x, w):
                assert v.grad is not None
            else:
                assert v.grad is None and v.parents == ()
        np.testing.assert_array_equal(x.grad, np.full((3, 2), 0.5) @ w_val)
        np.testing.assert_array_equal(w.grad, np.full((2, 3), 0.5) @ x_val)

    def test_non_recording_tape_keeps_nothing(self):
        rng = np.random.default_rng(5)
        x_val = rng.standard_normal((3, 4))
        values = []
        for record in (True, False):
            tape = ad.Tape(record=record)
            x = tape.leaf(x_val)
            out = ad.relu(tape, ad.index_add(tape, x, np.array([0, 0]), ad.take_rows(
                tape, x, np.array([2, 1]))))
            values.append(out.value)
            assert (len(tape.vars) > 0) == record
            assert (out.parents == ()) == (not record)
        np.testing.assert_array_equal(values[0], values[1])

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


_PASSES_SCRIPT = """
import resource
import numpy as np
from hcnet import autodiff as ad
from hcnet.nn import ModelConfig, hrnet_forward_batch, init_params
from hcnet.synth import hypercycle

g = hypercycle(2000, 3)
params = init_params(g, ModelConfig(kind="hrnet", d=32, layers=3, mode="query-independent"),
                     np.random.default_rng(0))
faults = []
for _ in range(3):
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    hrnet_forward_batch(g, params)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
print(ad.keep_freed_memory(), *faults)
"""


# Counts glibc's malloc arenas after a second thread has allocated; prints
# "none" without glibc's malloc_info.
_ARENAS_SCRIPT = """
import ctypes, threading
import numpy as np
from hcnet import autodiff as ad

libc = ctypes.CDLL(None)
if not hasattr(libc, "malloc_info"):
    raise SystemExit(print("none"))
kept = []
t = threading.Thread(target=lambda: kept.extend(np.ones(64) for _ in range(1000)))
t.start()
t.join()
buf, size = ctypes.c_char_p(), ctypes.c_size_t()
libc.open_memstream.restype = ctypes.c_void_p
libc.open_memstream.argtypes = (ctypes.POINTER(ctypes.c_char_p), ctypes.POINTER(ctypes.c_size_t))
libc.malloc_info.argtypes = (ctypes.c_int, ctypes.c_void_p)
libc.fclose.argtypes = (ctypes.c_void_p,)
stream = libc.open_memstream(ctypes.byref(buf), ctypes.byref(size))
libc.malloc_info(0, stream)
libc.fclose(stream)
print(buf.value.decode().count("<heap nr="))
"""


class TestKeepFreedMemory:
    def test_later_passes_reuse_the_heap(self):
        # A recorded V=2000 forward allocates about 20 MB (V=1000 did while
        # the tape kept every layer op's output). Under glibc's adaptive
        # thresholds every pass faulted about 5000 pages in again.
        src = Path(ad.__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        env.update(PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-c", _PASSES_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        applied, first, *later = proc.stdout.split()
        if applied != "True":
            pytest.skip("no glibc mallopt")
        assert int(first) > 1000
        assert max(int(f) for f in later) < 100, proc.stdout

    @pytest.mark.parametrize("name", ["MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"])
    def test_environment_setting_wins(self, name, monkeypatch):
        monkeypatch.setenv(name, "65536")
        assert ad.keep_freed_memory() is False

    # The thresholds the benchmark sets leave the arena cap on; a cap set
    # in the environment wins, so the second thread gets its own arena.
    @pytest.mark.parametrize("env, arenas", [
        ({}, 1),
        ({"MALLOC_MMAP_THRESHOLD_": str(1 << 32), "MALLOC_TRIM_THRESHOLD_": str(1 << 36)}, 1),
        ({"MALLOC_ARENA_MAX": "8"}, 2),
    ], ids=["default", "thresholds-set", "arena-max-set"])
    def test_threads_share_one_arena(self, env, arenas):
        src = Path(ad.__file__).resolve().parent.parent
        base = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_")}
        proc = subprocess.run([sys.executable, "-c", _ARENAS_SCRIPT],
                              env={**base, **env, "PYTHONPATH": str(src)},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        if proc.stdout.strip() == "none":
            pytest.skip("no glibc malloc_info")
        assert int(proc.stdout) == arenas

    def test_arena_cap_ignores_the_thresholds(self, monkeypatch):
        monkeypatch.setenv("MALLOC_MMAP_THRESHOLD_", "65536")
        if not ad.one_arena():
            pytest.skip("no glibc mallopt")
        monkeypatch.setenv("MALLOC_ARENA_MAX", "8")
        assert ad.one_arena() is False


def test_the_tests_run_blas_on_the_threads_the_environment_names():
    # conftest.py sets one BLAS thread unless the environment names a
    # count. The probe is `perfbench/run.py`'s `_blas_threads`, read from
    # its source without running that script's start-up.
    run = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"
    tree = ast.parse(run.read_text(encoding="utf-8"))
    probe = next(node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_blas_threads")
    scope = {"os": os, "glob": glob, "ctypes": ctypes}
    exec(compile(ast.Module([probe], type_ignores=[]), str(run), "exec"), scope)
    threads = scope["_blas_threads"]()
    if threads is None:
        pytest.skip("no OpenBLAS bundled with NumPy")
    assert threads == int(os.environ["OPENBLAS_NUM_THREADS"])
