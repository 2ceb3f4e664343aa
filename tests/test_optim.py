"""Schedule and masked momentum-SGD behavior, including the proximal term."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim as fs
from fedsim.optim import LRSchedule, OptState, sgd_step
from fedsim.params import ParamMask, ParamVector


def vec(values, bounds=None):
    data = np.asarray(values, dtype=np.float32)
    return ParamVector(data, bounds or ((0, len(data)),))


def test_schedule_start_half_and_tail():
    total = 320 * 10
    sched = LRSchedule(0.1, total)
    assert sched.lr_at(0) == 0.1
    assert sched.lr_at(total // 2) == pytest.approx(0.01)
    assert sched.lr_at(total - 1) == pytest.approx(0.001)
    assert sched.lr_at(total // 2 - 1) == 0.1
    assert sched.lr_at(3 * total // 4 - 1) == pytest.approx(0.01)
    assert sched.lr_at(3 * total // 4) == pytest.approx(0.001)


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
    mask = ParamMask((True, False))
    for _ in range(25):
        sgd_step(params, grads, opt, 0.05, mask)
    assert params.segment(1).tobytes() == before
    assert not np.array_equal(params.segment(0), np.float32([1, 2, 3]))


@given(
    st.lists(st.booleans(), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=10),
)
@settings(max_examples=40, deadline=None)
def test_mask_isolation_property(include, steps):
    rng = np.random.default_rng(7)
    sizes = [3] * len(include)
    bounds = tuple((i * 3, (i + 1) * 3) for i in range(len(include)))
    params = ParamVector(rng.normal(size=sum(sizes)).astype(np.float32), bounds)
    snapshots = [params.segment(i).tobytes() for i in range(len(include))]
    opt = OptState.for_params(params)
    mask = ParamMask(tuple(include))
    for _ in range(steps):
        grads = ParamVector(rng.normal(size=sum(sizes)).astype(np.float32), bounds)
        sgd_step(params, grads, opt, 0.1, mask)
    for i, inc in enumerate(include):
        if not inc:
            assert params.segment(i).tobytes() == snapshots[i]


@given(st.lists(st.booleans(), min_size=1, max_size=6), st.booleans())
@settings(max_examples=40, deadline=None)
def test_masked_step_matches_per_segment_reference(include, with_prox):
    # the step updates contiguous runs of segments at once; a loop over the
    # masked-in segments must give the same bits
    rng = np.random.default_rng(11)
    sizes = rng.integers(1, 5, size=len(include))
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
        sgd_step(params, grads, opt, 0.1, ParamMask(tuple(include)), prox)
        for i in (i for i, inc in enumerate(include) if inc):
            p, g, buf = ref.segment(i), grads.segment(i), ref_buf.segment(i)
            if with_prox:
                g = g + mu * (p - anchor.segment(i))
            buf *= m
            buf += g
            p -= lr * buf
    assert params.data.tobytes() == ref.data.tobytes()
    assert opt.buffers.data.tobytes() == ref_buf.data.tobytes()


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
    with pytest.raises(ValueError):
        sgd_step(params, grads, opt, 0.1, ParamMask.full(1), prox=(-1.0, params.copy()))


def test_buffers_zero_on_creation(mlp_net):
    opt = OptState.for_params(mlp_net.params)
    assert not np.any(opt.buffers.data)
