"""Tests for the affine/normalize/Adam substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset import numcore
from openset.errors import DegenerateInputError, NumericError

import reference


def make_block(rng, d_in, d_out, name="blk"):
    return numcore.ParamBlock(
        name=name,
        weights=rng.normal(size=(d_in, d_out)),
        bias=rng.normal(size=d_out),
    )


class TestAffine:
    def test_matches_naive_matmul(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d_in = int(rng.integers(1, 9))
            d_out = int(rng.integers(1, 9))
            n = int(rng.integers(1, 7))
            blk = make_block(rng, d_in, d_out)
            inp = rng.normal(size=(n, d_in))
            got = numcore.affine_forward(inp, blk)
            want = reference.naive_affine(inp, blk.weights, blk.bias)
            assert np.allclose(got, want, atol=1e-12)

    def test_hand_case(self):
        blk = numcore.ParamBlock(
            name="id",
            weights=np.array([[1.0, 0.0], [0.0, 1.0]]),
            bias=np.array([1.0, -1.0]),
        )
        out = numcore.affine_forward(np.array([[1.0, 1.0]]), blk)
        assert np.array_equal(out, np.array([[2.0, 0.0]]))

    def test_backward_accumulates_param_grads(self):
        rng = np.random.default_rng(1)
        blk = make_block(rng, 3, 2)
        inp = rng.normal(size=(4, 3))
        g = rng.normal(size=(4, 2))
        numcore.affine_backward(inp, blk, g)
        first_w = blk.grad_weights.copy()
        numcore.affine_backward(inp, blk, g)
        assert np.allclose(blk.grad_weights, 2.0 * first_w)

    def test_backward_matches_central_differences(self):
        rng = np.random.default_rng(2)
        blk = make_block(rng, 4, 3)
        inp = rng.normal(size=(5, 4))
        probe = rng.normal(size=(5, 3))

        def f(w_flat):
            b2 = blk.copy()
            b2.weights = w_flat.reshape(4, 3)
            b2.zero_grad()
            val = float(np.sum(numcore.affine_forward(inp, b2) * probe))
            numcore.affine_backward(inp, b2, probe)
            return val, b2.grad_weights.ravel().copy()

        err = reference.check_gradient(f, blk.weights.ravel().copy())
        assert err < 1e-7


class TestNormalize:
    def test_three_four_five(self):
        out = numcore.l2_normalize(np.array([3.0, 4.0]))
        assert np.allclose(out, [0.6, 0.8], atol=1e-15)

    def test_unit_vector_fixed_point(self):
        v = np.array([0.0, 1.0, 0.0])
        assert np.array_equal(numcore.l2_normalize(v), v)

    @given(st.lists(st.floats(-10, 10), min_size=2, max_size=16))
    def test_output_has_unit_norm(self, values):
        v = np.array(values)
        if np.linalg.norm(v) < 1e-6:
            return
        out = numcore.l2_normalize(v)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-12

    def test_near_zero_rejected(self):
        with pytest.raises(DegenerateInputError):
            numcore.l2_normalize(np.zeros(3))

    def test_backward_matches_central_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            m = rng.normal(size=(4, 6))
            probe = rng.normal(size=(4, 6))

            def f(x):
                unit, norms = numcore.l2_normalize_rows(x.reshape(4, 6))
                val = float(np.sum(unit * probe))
                return val, numcore.l2_normalize_rows_backward(unit, norms, probe).ravel()

            err = reference.check_gradient(f, m.ravel().copy())
            assert err < 1e-7

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        v = np.array([1.0, bad, 0.0])
        with pytest.raises(NumericError):
            numcore.l2_normalize(v)
        with pytest.raises(NumericError):
            numcore.l2_normalize_rows(np.array([[1.0, 0.0, 0.0], v]))

    def test_rows_zero_row_rejected(self):
        with pytest.raises(DegenerateInputError):
            numcore.l2_normalize_rows(np.array([[1.0, 0.0], [0.0, 0.0]]))

    def test_rows_helper_matches_single(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 3))
        rows, norms = numcore.l2_normalize_rows(m)
        assert np.array_equal(norms, np.linalg.norm(m, axis=1))
        for i in range(5):
            assert np.allclose(rows[i], numcore.l2_normalize(m[i]), atol=1e-15)


class TestAdam:
    def test_zero_grad_no_move(self):
        rng = np.random.default_rng(5)
        blk = make_block(rng, 3, 3)
        before_w = blk.weights.copy()
        state = numcore.AdamState.for_block(blk)
        numcore.adam_step(blk, state, lr=0.1)
        # epsilon keeps the zero-grad update at exactly zero
        assert np.array_equal(blk.weights, before_w)

    def test_first_step_closed_form(self):
        blk = numcore.ParamBlock(
            name="s", weights=np.array([[1.0]]), bias=np.array([0.0])
        )
        blk.grad_weights[0, 0] = 1.0
        state = numcore.AdamState.for_block(blk)
        numcore.adam_step(blk, state, lr=0.001)
        # bias-corrected m-hat and v-hat are both 1 after one unit gradient
        want = 1.0 - 0.001 * 1.0 / (1.0 + state.epsilon)
        assert abs(blk.weights[0, 0] - want) < 1e-15

    def test_grads_cleared_after_step(self):
        rng = np.random.default_rng(6)
        blk = make_block(rng, 2, 2)
        blk.grad_weights[:] = 1.0
        blk.grad_bias[:] = 1.0
        state = numcore.AdamState.for_block(blk)
        numcore.adam_step(blk, state, lr=0.01)
        assert np.all(blk.grad_weights == 0.0)
        assert np.all(blk.grad_bias == 0.0)

    def test_constant_gradient_moves_monotonically(self):
        blk = numcore.ParamBlock(name="s", weights=np.array([[5.0]]), bias=np.array([0.0]))
        state = numcore.AdamState.for_block(blk)
        seen = [blk.weights[0, 0]]
        for _ in range(10):
            blk.grad_weights[0, 0] = 2.0
            numcore.adam_step(blk, state, lr=0.01)
            seen.append(blk.weights[0, 0])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            blk = make_block(rng, 3, 2)
            state = numcore.AdamState.for_block(blk)
            for _ in range(5):
                blk.grad_weights[:] = rng.normal(size=(3, 2))
                blk.grad_bias[:] = rng.normal(size=2)
                numcore.adam_step(blk, state, lr=0.01)
            return blk.weights.copy(), blk.bias.copy()

        w1, b1 = run()
        w2, b2 = run()
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)

    def test_nonfinite_grad_rejected_by_name(self):
        rng = np.random.default_rng(8)
        blk = make_block(rng, 2, 2, name="frame_layer")
        blk.grad_weights[0, 0] = np.nan
        state = numcore.AdamState.for_block(blk)
        with pytest.raises(NumericError, match="frame_layer"):
            numcore.adam_step(blk, state, lr=0.01)


class TestCheckGradient:
    def test_quadratic_exact(self):
        point = np.array([1.0, -2.0, 0.5])

        def f(x):
            return float(np.dot(x, x)), 2.0 * x

        err = reference.check_gradient(f, point)
        assert err < 1e-8

    def test_detects_wrong_gradient(self):
        point = np.array([1.0, -2.0, 0.5])

        def f(x):
            return float(np.dot(x, x)), 3.0 * x

        err = reference.check_gradient(f, point)
        assert err > 1e-2


def log1p_sum_exp_row(xs):
    """log1p_sum_exp of a single 1-D row that keeps every entry."""
    xs = np.asarray(xs, dtype=np.float64)[None, :]
    return float(numcore.log1p_sum_exp(xs, np.ones(xs.shape, dtype=bool))[0])


class TestLog1pSumExp:
    def test_empty_is_zero(self):
        assert log1p_sum_exp_row(np.array([])) == 0.0

    def test_matches_direct_small(self):
        xs = np.array([-1.0, 0.0, 2.0])
        want = np.log(1.0 + np.sum(np.exp(xs)))
        assert abs(log1p_sum_exp_row(xs) - want) < 1e-12

    def test_stable_for_large_inputs(self):
        xs = np.array([800.0, 799.0])
        out = log1p_sum_exp_row(xs)
        assert np.isfinite(out)
        # dominated by the max term
        assert abs(out - (800.0 + np.log(1.0 + np.exp(-1.0)))) < 1e-9

    def test_row_keeping_nothing_is_zero_beside_a_kept_row(self):
        xs = np.array([[-1.0, 0.0, 2.0], [900.0, 5.0, -3.0]])
        keep = np.array([[True, False, True], [False, False, False]])
        out = numcore.log1p_sum_exp(xs, keep)
        assert abs(out[0] - np.log(1.0 + np.exp(-1.0) + np.exp(2.0))) < 1e-12
        assert out[1] == 0.0


@settings(max_examples=30)
@given(
    st.integers(1, 5),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
def test_affine_agrees_with_oracle_property(d_in, d_out, n, seed):
    rng = np.random.default_rng(seed)
    blk = make_block(rng, d_in, d_out)
    inp = rng.normal(size=(n, d_in))
    assert np.allclose(
        numcore.affine_forward(inp, blk),
        reference.naive_affine(inp, blk.weights, blk.bias),
        atol=1e-12,
    )
