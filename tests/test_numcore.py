"""Tests for the affine/normalize/Adam substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openset import model, numcore
from openset.errors import DegenerateInputError, NumericError

import reference


def one_layer_net(weights, bias):
    """A VE model whose frame layer holds the given weights and bias, with
    zero gradients; its one-wide output layer is zero and is never given a
    gradient."""
    fan_in, fan_out = np.shape(weights)
    cfg = model.ModelConfig("VE", input_dim=fan_in, hidden_dim=fan_out,
                            embed_dim=1, label_dim=1)
    net = model.init_model(cfg, seed=0)
    net.params.fill(0.0)
    net.frame_layer.weights[...] = weights
    net.frame_layer.bias[...] = bias
    return net


def random_net(rng, d_in, d_out):
    """one_layer_net with normal weights, then bias, drawn from rng."""
    return one_layer_net(rng.normal(size=(d_in, d_out)), rng.normal(size=d_out))


def make_block(rng, d_in, d_out):
    return random_net(rng, d_in, d_out).frame_layer


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
        blk = one_layer_net(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, -1.0])).frame_layer
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
            # a new block starts with zero gradients
            b2 = one_layer_net(w_flat.reshape(4, 3), blk.bias).frame_layer
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


def fresh_state(net):
    return numcore.AdamState(np.zeros_like(net.params), np.zeros_like(net.params))


# the JE reference shapes: input 64, hidden 64, embed and label 32
JE_REF = model.ModelConfig("JE", input_dim=64)


class TestAdam:
    def test_zero_grad_no_move(self):
        rng = np.random.default_rng(5)
        net = random_net(rng, 3, 3)
        blk = net.frame_layer
        before_w = blk.weights.copy()
        numcore.adam_step(net, fresh_state(net), lr=0.1)
        # epsilon keeps the zero-grad update at exactly zero
        assert np.array_equal(blk.weights, before_w)

    def test_first_step_closed_form(self):
        net = one_layer_net(np.array([[1.0]]), np.array([0.0]))
        blk = net.frame_layer
        blk.grad_weights[0, 0] = 1.0
        numcore.adam_step(net, fresh_state(net), lr=0.001)
        # bias-corrected m-hat and v-hat are both 1 after one unit gradient
        want = 1.0 - 0.001 * 1.0 / (1.0 + numcore.EPSILON)
        assert abs(blk.weights[0, 0] - want) < 1e-15

    def test_grads_cleared_after_step(self):
        rng = np.random.default_rng(6)
        net = random_net(rng, 2, 2)
        blk = net.frame_layer
        blk.grad_weights[:] = 1.0
        blk.grad_bias[:] = 1.0
        numcore.adam_step(net, fresh_state(net), lr=0.01)
        assert np.all(blk.grad_weights == 0.0)
        assert np.all(blk.grad_bias == 0.0)

    def test_constant_gradient_moves_monotonically(self):
        net = one_layer_net(np.array([[5.0]]), np.array([0.0]))
        blk = net.frame_layer
        state = fresh_state(net)
        seen = [blk.weights[0, 0]]
        for _ in range(10):
            blk.grad_weights[0, 0] = 2.0
            numcore.adam_step(net, state, lr=0.01)
            seen.append(blk.weights[0, 0])
        assert all(b < a for a, b in zip(seen, seen[1:]))

    def test_deterministic(self):
        def run():
            rng = np.random.default_rng(7)
            net = random_net(rng, 3, 2)
            blk = net.frame_layer
            state = fresh_state(net)
            for _ in range(5):
                blk.grad_weights[:] = rng.normal(size=(3, 2))
                blk.grad_bias[:] = rng.normal(size=2)
                numcore.adam_step(net, state, lr=0.01)
            return blk.weights.copy(), blk.bias.copy()

        w1, b1 = run()
        w2, b2 = run()
        assert np.array_equal(w1, w2)
        assert np.array_equal(b1, b2)

    def test_nonfinite_grad_rejected_by_name(self):
        rng = np.random.default_rng(8)
        net = random_net(rng, 2, 2)
        blk = net.frame_layer
        blk.grad_weights[0, 0] = np.nan
        with pytest.raises(NumericError, match="frame_layer"):
            numcore.adam_step(net, fresh_state(net), lr=0.01)

    def test_flat_step_matches_per_block_referee(self):
        flat = model.init_model(JE_REF, seed=0)
        ref = model.init_model(JE_REF, seed=0)
        assert flat.params.size == 7296 and len(flat.blocks()) == 3
        state = fresh_state(flat)
        ref_states = [reference.BlockAdamState.for_block(b) for b in ref.blocks()]
        rng = np.random.default_rng(15)
        zeroed = set()
        for step in range(300):
            lr = 1e-3 * 0.8 ** (step // 100)
            # every seventh step one whole block's gradient is zero
            skip = step // 7 % 3 if step % 7 == 0 else None
            for i, (x, y) in enumerate(zip(flat.blocks(), ref.blocks())):
                for gx, gy in ((x.grad_weights, y.grad_weights), (x.grad_bias, y.grad_bias)):
                    scale = 0.0 if i == skip else 10.0 ** rng.uniform(-4, 1)
                    gx[...] = gy[...] = rng.standard_normal(gx.shape) * scale
            zeroed.add(skip)
            numcore.adam_step(flat, state, lr)
            for blk, blk_state in zip(ref.blocks(), ref_states):
                reference.adam_step_per_block(blk, blk_state, lr)
            for x, y in zip(flat.blocks(), ref.blocks()):
                assert x.weights.tobytes() == y.weights.tobytes(), (step, x.name)
                assert x.bias.tobytes() == y.bias.tobytes(), (step, x.name)
            assert not flat.grads.any()
        assert zeroed == {None, 0, 1, 2}

    def test_nan_in_out_layer_named_and_nothing_moves(self):
        net = model.init_model(JE_REF, seed=1)
        state = fresh_state(net)
        rng = np.random.default_rng(16)
        for _ in range(3):
            net.grads[:] = rng.standard_normal(net.grads.size)
            numcore.adam_step(net, state, lr=1e-3)
        net.grads[:] = rng.standard_normal(net.grads.size)
        net.out_layer.grad_bias[5] = np.nan
        before = [a.tobytes() for a in (net.params, state.m, state.v)]
        with pytest.raises(NumericError, match="^adam_step: non-finite gradient in out_layer$"):
            numcore.adam_step(net, state, lr=1e-3)
        assert [a.tobytes() for a in (net.params, state.m, state.v)] == before
        assert state.step_count == 3

    @pytest.mark.parametrize("scale", [1e160, 1e155])
    def test_overflowing_second_moment_named_before_params_move(self, scale):
        # at 1e160 (1 - beta2) * g * g overflows; at 1e155 it is 1e307, and
        # the bias-corrected v / (1 - beta2) overflows instead; either is one
        # NumericError with no numpy warning, and the parameters stay put
        net = model.init_model(JE_REF, seed=1)
        net.grads[:] = np.random.default_rng(17).standard_normal(net.grads.size)
        net.out_layer.grad_weights[0, 0] = -scale  # the block's first entry
        before = net.params.tobytes()
        with pytest.raises(NumericError, match="^adam_step: second moment overflows in out_layer$"):
            numcore.adam_step(net, fresh_state(net), lr=1e-3)
        assert net.params.tobytes() == before


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


def compact(xs, keep):
    """log1p_sum_exp's arguments for the entries of a (rows, cols) block that
    a boolean mask keeps: their values and rows, row-major, and the row count."""
    flat = np.flatnonzero(keep)
    return np.take(xs, flat), flat // xs.shape[1], xs.shape[0]


def log1p_sum_exp_row(xs):
    """log1p_sum_exp of a single 1-D row that keeps every entry."""
    xs = np.asarray(xs, dtype=np.float64)[None, :]
    return float(numcore.log1p_sum_exp(*compact(xs, np.ones(xs.shape, dtype=bool)))[0])


def test_zero_led_reduceat_sums_each_run_with_its_own_sum_bits():
    # numpy sums a contiguous run pairwise: a plain loop under 8 terms, 8
    # interleaved partial sums up to 128, then halves; reduceat hands each
    # segment's head to the output and the rest to that sum, so a 0.0 at the
    # head of every segment gives 0.0 + the run's pairwise sum, the bits of
    # the run's own 1-D .sum(), which log1p_sum_exp relies on
    rng = np.random.default_rng(25)
    plain_differs = False
    for scale in (0.5, 5.0, 40.0):
        for _ in range(4):
            lengths = rng.permutation(301)
            runs = [np.exp(rng.normal(scale=scale, size=length)) for length in lengths]
            led = np.concatenate([np.concatenate(([0.0], run)) for run in runs])
            heads = np.concatenate(([0], np.cumsum(lengths + 1)[:-1]))
            got = np.add.reduceat(led, heads)
            want = np.array([run.sum() for run in runs])
            off = sorted(lengths[got.view(np.int64) != want.view(np.int64)].tolist())
            assert off == [], f"numpy {np.__version__}: zero-led runs of length {off} differ"
            ran = lengths > 0
            starts = np.concatenate(([0], np.cumsum(lengths[ran])[:-1]))
            plain = np.add.reduceat(np.concatenate(runs), starts)
            plain_differs |= plain.tobytes() != want[ran].tobytes()
    # without the leading zeros the bits move: the test sees what it guards
    assert plain_differs


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
        out = numcore.log1p_sum_exp(*compact(xs, keep))
        assert abs(out[0] - np.log(1.0 + np.exp(-1.0) + np.exp(2.0))) < 1e-12
        assert out[1] == 0.0

    def test_grouped_sums_equal_per_row_sums_past_the_pairwise_block(self):
        # numpy sums a contiguous run pairwise in blocks of 128 elements, so
        # rows must keep well past 128 terms; each block draws its rows'
        # counts from a few values, so several rows keep the same count
        rng = np.random.default_rng(2024)
        longest = 0
        for _ in range(2500):
            n_rows, n_cols = int(rng.integers(1, 13)), int(rng.integers(1, 420))
            options = rng.integers(0, n_cols + 1, size=int(rng.integers(1, 5)))
            counts = rng.choice(options, size=n_rows)
            keep = np.zeros((n_rows, n_cols), dtype=bool)
            for row, count in enumerate(counts):
                keep[row, rng.choice(n_cols, size=count, replace=False)] = True
            xs = rng.normal(scale=float(rng.choice([0.5, 5.0, 40.0])), size=(n_rows, n_cols))
            got = numcore.log1p_sum_exp(*compact(xs, keep))
            assert got.tobytes() == reference.log1p_sum_exp_rows(xs, keep).tobytes()
            longest = max(longest, int(counts.max()))
        assert longest >= 300

    @pytest.mark.parametrize("layout", ["keeps_nothing", "single_row", "one_count"])
    def test_edge_blocks_equal_per_row_sums(self, layout):
        rng = np.random.default_rng(["keeps_nothing", "single_row", "one_count"].index(layout))
        for _ in range(50):
            n_rows = 1 if layout == "single_row" else int(rng.integers(2, 20))
            n_cols = int(rng.integers(1, 300))
            xs = rng.normal(scale=float(rng.choice([0.5, 5.0, 40.0])), size=(n_rows, n_cols))
            keep = np.zeros((n_rows, n_cols), dtype=bool)
            if layout != "keeps_nothing":
                # one_count: every row keeps the same number of entries
                count = int(rng.integers(1, n_cols + 1))
                for row in range(n_rows):
                    if layout == "single_row":
                        count = int(rng.integers(0, n_cols + 1))
                    keep[row, rng.choice(n_cols, size=count, replace=False)] = True
            got = numcore.log1p_sum_exp(*compact(xs, keep))
            assert got.tobytes() == reference.log1p_sum_exp_rows(xs, keep).tobytes()
            if layout == "keeps_nothing":
                assert got.tobytes() == np.zeros(n_rows).tobytes()


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
