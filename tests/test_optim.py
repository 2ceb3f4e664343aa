"""Schedule and masked momentum-SGD behavior, including the proximal term."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsim.optim import LRSchedule, OptState, sgd_step
from fedsim.params import ParamMask, ParamVector
from tests.conftest import vec


def test_schedule_start_half_and_tail():
    total = 320 * 10
    sched = LRSchedule(0.1, total)
    assert sched.lr_at(0) == 0.1
    assert sched.lr_at(total // 2) == 0.1 * 0.1
    assert sched.lr_at(total - 1) == 0.1 * 0.1**2
    assert sched.lr_at(total // 2 - 1) == 0.1
    assert sched.lr_at(3 * total // 4 - 1) == 0.1 * 0.1
    assert sched.lr_at(3 * total // 4) == 0.1 * 0.1**2


@given(st.integers(min_value=1, max_value=5000), st.data())
@settings(max_examples=60, deadline=None)
def test_schedule_non_increasing(total, data):
    sched = LRSchedule(0.1, total)
    i = data.draw(st.integers(min_value=0, max_value=total - 1))
    j = data.draw(st.integers(min_value=i, max_value=total - 1))
    assert sched.lr_at(j) <= sched.lr_at(i)


def test_schedule_rejects_out_of_range():
    sched = LRSchedule(0.1, 10)
    with pytest.raises(ValueError):
        sched.lr_at(10)
    with pytest.raises(ValueError):
        sched.lr_at(-1)


@given(
    st.integers(min_value=1, max_value=5000),
    st.floats(min_value=0, max_value=10, allow_nan=False),
    st.data(),
)
@settings(max_examples=60, deadline=None)
def test_rates_equal_lr_at_elementwise(total, base_lr, data):
    sched = LRSchedule(base_lr, total)
    start = data.draw(st.integers(min_value=0, max_value=total))
    count = data.draw(st.integers(min_value=0, max_value=total - start))
    rates = sched.rates(start, count)
    assert rates.dtype == np.float64 and rates.shape == (count,)
    assert rates.tolist() == [sched.lr_at(u) for u in range(start, start + count)]
    # the step-decay rule, written out per update
    rule = [
        base_lr if u < total // 2 else base_lr * 0.1 if u < 3 * total // 4 else base_lr * 0.1**2
        for u in range(start, start + count)
    ]
    assert rates.tolist() == rule


def test_rates_reject_updates_outside_the_budget():
    sched = LRSchedule(0.1, 10)
    for start, count in [(-1, 1), (10, 1), (0, 11), (9, 2), (3, -1)]:
        with pytest.raises(ValueError, match=r"outside \[0, 10\)"):
            sched.rates(start, count)
    assert sched.rates(0, 10).shape == (10,)


def test_plain_step_subtracts_gradient_exactly():
    params = vec([1.0, 2.0, 3.0])
    grads = vec([0.5, -1.0, 0.25])
    opt = OptState.for_params(params, momentum=0.0)
    sgd_step(params, grads, opt, 1.0, ParamMask.full(1))
    np.testing.assert_array_equal(params.data, np.float32([0.5, 3.0, 2.75]))


def test_momentum_accumulates_like_pytorch():
    # buf = m*buf + g; p -= lr*buf
    params = vec([0.0])
    grads = vec([1.0])
    opt = OptState.for_params(params, momentum=0.9)
    sgd_step(params, grads, opt, 0.1, ParamMask.full(1))
    sgd_step(params, grads, opt, 0.1, ParamMask.full(1))
    expected = -0.1 * 1.0 - 0.1 * (0.9 * 1.0 + 1.0)
    assert params.data[0] == pytest.approx(expected, rel=1e-6)


def test_masked_out_segment_bit_unchanged():
    bounds = ((0, 3), (3, 5))
    params = vec([1, 2, 3, 4, 5], bounds)
    before = params.segment(1).tobytes()
    grads = vec([1, 1, 1, 1, 1], bounds)
    opt = OptState.for_params(params)
    mask = ParamMask(0, 1)
    for _ in range(25):
        sgd_step(params, grads, opt, 0.05, mask)
    assert params.segment(1).tobytes() == before
    assert not np.array_equal(params.segment(0), np.float32([1, 2, 3]))


@st.composite
def segment_ranges(draw, max_segments):
    """(segment count n, mask) with 0 <= first <= stop <= n."""
    n = draw(st.integers(min_value=1, max_value=max_segments))
    first = draw(st.integers(min_value=0, max_value=n))
    return n, ParamMask(first, draw(st.integers(min_value=first, max_value=n)))


@given(segment_ranges(4), st.integers(min_value=1, max_value=10))
@settings(max_examples=40, deadline=None)
def test_mask_isolation_property(n_and_mask, steps):
    n, mask = n_and_mask
    rng = np.random.default_rng(7)
    bounds = tuple((i * 3, (i + 1) * 3) for i in range(n))
    params = ParamVector(rng.normal(size=3 * n).astype(np.float32), bounds)
    snapshots = [params.segment(i).tobytes() for i in range(n)]
    opt = OptState.for_params(params)
    for _ in range(steps):
        grads = ParamVector(rng.normal(size=3 * n).astype(np.float32), bounds)
        sgd_step(params, grads, opt, 0.1, mask)
    for i in range(n):
        if i not in mask.selected():
            assert params.segment(i).tobytes() == snapshots[i]


@given(segment_ranges(6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_masked_step_matches_per_segment_reference(n_and_mask, with_prox):
    # the step updates the range's scalars at once; a loop over its
    # segments must give the same bits
    n, mask = n_and_mask
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 5, size=n)
    ends = np.cumsum(sizes)
    bounds = tuple((int(e - n), int(e)) for n, e in zip(sizes, ends))
    params = ParamVector(rng.normal(size=int(ends[-1])).astype(np.float32), bounds)
    anchor = ParamVector(rng.normal(size=int(ends[-1])).astype(np.float32), bounds)
    prox = (0.3, anchor) if with_prox else None
    ref = params.copy()
    opt, ref_buf = OptState.for_params(params), ref.zeros_like()
    lr, m, mu = np.float32(0.1), np.float32(0.9), np.float32(0.3)
    for _ in range(3):
        grads = ParamVector(rng.normal(size=int(ends[-1])).astype(np.float32), bounds)
        sgd_step(params, grads, opt, 0.1, mask, prox)
        for i in mask.selected():
            p, g, buf = ref.segment(i), grads.segment(i), ref_buf.segment(i)
            if with_prox:
                g = g + mu * (p - anchor.segment(i))
            buf *= m
            buf += g
            p -= lr * buf
    assert params.data.tobytes() == ref.data.tobytes()
    assert opt.buffers.data.tobytes() == ref_buf.data.tobytes()


@given(
    st.integers(1, 6),
    segment_ranges(3),
    st.booleans(),
    st.lists(st.floats(0, 2, width=32), min_size=6, max_size=6),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_rate_column_matches_scalar_rate_per_row(m, n_and_mask, with_prox, rates, seed):
    # an (M, 1) float32 column of rates gives each row the bits of a
    # separate step at its own scalar rate
    n, mask = n_and_mask
    rng = np.random.default_rng(seed)
    bounds = tuple((3 * i, 3 * i + 3) for i in range(n))

    def draw():
        return ParamVector(rng.normal(size=(m, 3 * n)).astype(np.float32), bounds)

    params, anchor = draw(), draw()
    column = np.float32(rates[:m])[:, None]
    rows = [row.copy() for row in params.rows()]
    opt = OptState.for_params(params)
    row_opts = [OptState.for_params(row) for row in rows]
    for _ in range(3):
        grads = draw()
        sgd_step(params, grads, opt, column, mask, (0.3, anchor) if with_prox else None)
        for i, row in enumerate(rows):
            prox = (0.3, anchor.rows()[i]) if with_prox else None
            sgd_step(row, grads.rows()[i], row_opts[i], float(column[i, 0]), mask, prox)
    for i, row in enumerate(rows):
        assert params.data[i].tobytes() == row.data.tobytes()
        assert opt.buffers.data[i].tobytes() == row_opts[i].buffers.data.tobytes()


@given(
    st.integers(1, 7),
    st.integers(0, 3),
    st.integers(1, 3),
    st.booleans(),
    st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_rows_step_a_stepped_view_in_place_and_nothing_else(m, start, step, with_prox, seed):
    # a ParamVector over a stepped view would be a copy; ``rows`` steps the
    # stack itself, as the selected rows alone would step
    rng = np.random.default_rng(seed)
    bounds = ((0, 4), (4, 6))
    params = ParamVector(rng.normal(size=(m, 6)).astype(np.float32), bounds)
    grads = ParamVector(rng.normal(size=(m, 6)).astype(np.float32), bounds)
    sel = slice(min(start, m - 1), m, step)
    picked = np.arange(m)[sel]
    anchor = ParamVector(rng.normal(size=(len(picked), 6)).astype(np.float32), bounds)
    column = rng.uniform(0, 1, size=(len(picked), 1)).astype(np.float32)
    before = params.copy()
    opt = OptState.for_params(params)
    alone = ParamVector(params.data[sel].copy(), bounds)
    alone_opt = OptState.for_params(alone)
    prox = (0.3, anchor) if with_prox else None
    for _ in range(2):
        sgd_step(params, grads, opt, column, ParamMask.full(2), prox, sel)
        alone_grads = ParamVector(grads.data[sel], bounds)
        sgd_step(alone, alone_grads, alone_opt, column, ParamMask.full(2), prox)
    assert params.data[sel].tobytes() == alone.data.tobytes()
    assert opt.buffers.data[sel].tobytes() == alone_opt.buffers.data.tobytes()
    rest = np.setdiff1d(np.arange(m), picked)
    assert params.data[rest].tobytes() == before.data[rest].tobytes()
    assert not opt.buffers.data[rest].any()


def test_prox_mu_zero_equals_no_prox():
    rng = np.random.default_rng(3)
    base = rng.normal(size=8).astype(np.float32)
    anchor = vec(rng.normal(size=8).astype(np.float32))
    a = vec(base.copy())
    b = vec(base.copy())
    grads = vec(rng.normal(size=8).astype(np.float32))
    oa, ob = OptState.for_params(a), OptState.for_params(b)
    for _ in range(5):
        sgd_step(a, grads, oa, 0.1, ParamMask.full(1), prox=(0.0, anchor))
        sgd_step(b, grads, ob, 0.1, ParamMask.full(1))
    assert a.data.tobytes() == b.data.tobytes()


def test_prox_vanishes_at_anchor():
    rng = np.random.default_rng(4)
    base = rng.normal(size=6).astype(np.float32)
    grads = vec(rng.normal(size=6).astype(np.float32))
    a = vec(base.copy())
    b = vec(base.copy())
    anchor = vec(base.copy())
    oa, ob = OptState.for_params(a), OptState.for_params(b)
    sgd_step(a, grads, oa, 0.1, ParamMask.full(1), prox=(0.7, anchor))
    sgd_step(b, grads, ob, 0.1, ParamMask.full(1))
    assert a.data.tobytes() == b.data.tobytes()


def test_prox_pulls_toward_anchor():
    params = vec([1.0])
    anchor = vec([0.0])
    grads = vec([0.0])
    opt = OptState.for_params(params, momentum=0.0)
    sgd_step(params, grads, opt, 0.1, ParamMask.full(1), prox=(1.0, anchor))
    # effective gradient = mu * (p - anchor) = 1.0
    assert params.data[0] == pytest.approx(0.9)


def test_negative_lr_and_mu_rejected():
    params = vec([1.0])
    grads = vec([1.0])
    opt = OptState.for_params(params)
    with pytest.raises(ValueError):
        sgd_step(params, grads, opt, -0.1, ParamMask.full(1))
    stack = ParamVector(np.ones((2, 1), np.float32), params.bounds)
    with pytest.raises(ValueError):
        rates = np.float32([[0.1], [-0.1]])
        sgd_step(stack, stack.copy(), OptState.for_params(stack), rates, ParamMask.full(1))
    with pytest.raises(ValueError):
        sgd_step(params, grads, opt, 0.1, ParamMask.full(1), prox=(-1.0, params.copy()))


def test_buffers_zero_on_creation(mlp_net):
    opt = OptState.for_params(mlp_net.params)
    assert not np.any(opt.buffers.data)
