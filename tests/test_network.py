"""Initializers, shape checks, head diagnostics, distances, and the
checkpoint blob."""

import re

import numpy as np
import pytest

import fedsim as fs
from fedsim.evaluation import accuracy
from fedsim.layers import ShapeError, channels_first, infer_shapes
from fedsim.network import INIT_SCHEMES, _run_layers
from fedsim.params import BlobError, ParamVector


def head_only(d, c, scheme, seed):
    return fs.init_network([fs.dense(d, c)], (d,), fs.InitScheme(scheme, seed))


def test_orthogonal_head_rows_are_orthogonal():
    net = head_only(10, 10, "orthogonal", 0)
    w = net.head_weights()
    gram = w @ w.T
    off_diag = gram - np.diag(np.diag(gram))
    assert np.abs(off_diag).max() < 1e-5


def test_similar_head_rows_unit_norm_nonnegative():
    net = head_only(64, 10, "similar", 3)
    w = net.head_weights()
    np.testing.assert_allclose(np.linalg.norm(w, axis=1), 1.0, atol=1e-6)
    assert np.all(w >= 0)


def test_similar_leaves_body_he_uniform():
    layers = [fs.dense(6, 12), fs.relu(), fs.dense(12, 4)]
    similar = fs.init_network(layers, (6,), fs.InitScheme("similar", 5))
    he = fs.init_network(layers, (6,), fs.InitScheme("he_uniform", 5))
    # body segment identical draws, head differs
    np.testing.assert_array_equal(similar.params.segment(0), he.params.segment(0))
    assert not np.array_equal(similar.params.segment(1), he.params.segment(1))


def test_init_deterministic_per_seed():
    layers = [fs.dense(5, 7), fs.relu(), fs.dense(7, 3)]
    a = fs.init_network(layers, (5,), fs.InitScheme("he_normal", 42))
    b = fs.init_network(layers, (5,), fs.InitScheme("he_normal", 42))
    assert a.params.data.tobytes() == b.params.data.tobytes()
    c = fs.init_network(layers, (5,), fs.InitScheme("he_normal", 43))
    assert a.params.data.tobytes() != c.params.data.tobytes()


def test_biases_start_at_zero():
    net = fs.init_network(
        [fs.conv2d(1, 4, 3, padding=1), fs.relu(), fs.flatten(), fs.dense(4 * 16, 3)],
        (1, 4, 4), fs.InitScheme("xavier_normal", 1),
    )
    for layer_idx in net.param_layers:
        _, b = net.layer_params(layer_idx)
        assert np.all(b == 0)


INIT_CHAINS = {
    "tall_dense": [fs.dense(4, 12)],
    "wide_dense": [fs.dense(12, 4)],
    "conv": [fs.conv2d(2, 3, 3, padding=1), fs.relu(), fs.flatten(), fs.dense(48, 3)],
}


@pytest.mark.parametrize("layers", INIT_CHAINS.values(), ids=INIT_CHAINS.keys())
@pytest.mark.parametrize("scheme", INIT_SCHEMES)
def test_init_scheme_draws_on_each_layer_shape(scheme, layers):
    shape = (layers[0].fan_in,) if layers[0].kind == "dense" else (2, 4, 4)
    net, again, other = (fs.init_network(layers, shape, fs.InitScheme(scheme, s)) for s in (3, 3, 4))
    assert net.params.data.tobytes() == again.params.data.tobytes()
    assert net.params.data.tobytes() != other.params.data.tobytes()
    for layer_idx in net.param_layers:
        assert not np.any(net.layer_params(layer_idx)[1])
    # the first layer: the head of a one-layer chain, a conv body layer otherwise
    first = net.param_layers[0]
    w = net.layer_params(first)[0].astype(np.float64)
    flat = w.reshape(len(w), -1)
    fan_in, fan_out = flat.shape[1], w.shape[0] * int(np.prod(w.shape[2:]))
    drawn = "he_uniform" if scheme == "similar" and first != net.head_index else scheme
    if drawn in ("he_uniform", "xavier_uniform"):
        bound = np.sqrt(2.0) * np.sqrt(
            3.0 / fan_in if drawn == "he_uniform" else 6.0 / (fan_in + fan_out)
        )
        assert bound / 2 < np.abs(flat).max() <= bound * (1 + 1e-6)
    elif drawn == "orthogonal":  # columns of a tall matrix, rows of a wide one
        gram = flat.T @ flat if flat.shape[0] >= flat.shape[1] else flat @ flat.T
        np.testing.assert_allclose(gram, np.eye(len(gram)), atol=1e-5)
    elif drawn == "similar":
        np.testing.assert_allclose(np.linalg.norm(flat, axis=1), 1.0, atol=1e-6)
        assert np.all(flat > 0)


def test_invalid_layer_chain_rejected():
    with pytest.raises(ShapeError):
        fs.init_network([fs.dense(4, 5), fs.dense(6, 3)], (4,), fs.InitScheme())
    with pytest.raises(ShapeError):
        fs.init_network([fs.dense(4, 5), fs.relu()], (4,), fs.InitScheme())  # no dense head


# --- one shape check at build, one per pass -------------------------------

SHAPED_NETS = {
    "mlp": ([fs.dense(6, 5), fs.relu(), fs.dense(5, 4), fs.relu(), fs.dense(4, 3)], (6,)),
    **{
        f"conv2-padding{p}": (
            [
                fs.conv2d(2, 3, 3, padding=p), fs.relu(), fs.maxpool2d(2),
                fs.conv2d(3, 4, 3, padding=p), fs.relu(), fs.maxpool2d(2),
                fs.flatten(), fs.dense(4 * 2 * 2, 3),
            ],
            (2, side, side),
        )
        for p, side in ((0, 14), (1, 8))
    },
}


@pytest.mark.parametrize("kind", ["mlp", "conv2-padding1"])
def test_a_pass_without_runs_is_one_run_of_equal_batches(kind):
    # a 3-row stack of distinct models: without a run list, forward,
    # backward and representations give the bytes of [(3, N // 3)]
    layers, shape = SHAPED_NETS[kind]
    nets = [fs.init_network(layers, shape, fs.InitScheme("he_uniform", s)) for s in range(3)]
    net = nets[0].with_params(fs.ParamVector.stack([n.params for n in nets]))
    rng = np.random.default_rng(1)
    x = rng.normal(size=(12, *shape)).astype(np.float32)
    labels = rng.integers(0, 3, size=12)
    runs = [(3, 4)]
    (logits, cache), (want, want_cache) = fs.forward(net, x), fs.forward(net, x, runs)
    assert cache[2] == runs
    loss, grads = fs.backward(net, cache, labels)
    want_loss, want_grads = fs.backward(net, want_cache, labels)
    assert [a.tobytes() for a in (logits, loss, grads.data)] == [
        a.tobytes() for a in (want, want_loss, want_grads.data)
    ]
    assert fs.representations(net, x).tobytes() == fs.representations(net, x, runs).tobytes()


@pytest.mark.parametrize("kind", SHAPED_NETS)
@pytest.mark.parametrize("runs", [None, [(2, 3), (1, 2)]], ids=["vector", "ragged-stack"])
def test_each_layer_output_has_the_inferred_shape(kind, runs):
    # no layer checks its input any more: infer_shapes at build is the
    # only account of each layer's output, in the caller's axis order
    layers, shape = SHAPED_NETS[kind]
    net = fs.init_network(layers, shape, fs.InitScheme("he_uniform", 0))
    n = 5
    if runs is not None:
        m, n = sum(c for c, _ in runs), sum(c * b for c, b in runs)
        net = net.with_params(fs.ParamVector.stack([net.params] * m))
    x = np.random.default_rng(0).normal(size=(n, *shape)).astype(np.float32)
    want = infer_shapes(net.layers, shape)
    for stop in range(1, len(layers) + 1):
        out, _ = _run_layers(net, x, stop, None, runs)
        if out.ndim > 2:
            out = channels_first(out)
        assert out.shape == (n, *want[stop - 1]), layers[stop - 1].kind


def test_flatten_to_dense_fan_mismatch_is_rejected_at_build():
    layers = [fs.conv2d(1, 2, 3), fs.relu(), fs.flatten(), fs.dense(7, 3)]  # flatten gives 8
    with pytest.raises(ShapeError, match=r"dense layer expects \(7,\), got \(8,\)"):
        fs.init_network(layers, (1, 4, 4), fs.InitScheme())


@pytest.mark.parametrize("kind", SHAPED_NETS)
@pytest.mark.parametrize("entry", ["forward", "representations", "accuracy"])
def test_every_pass_rejects_a_batch_of_another_sample_shape(kind, entry):
    layers, shape = SHAPED_NETS[kind]
    net = fs.init_network(layers, shape, fs.InitScheme("he_uniform", 0))
    other = (4, *shape[:-1], shape[-1] + 1)
    samples = np.zeros(other, dtype=np.float32)
    run = {
        "forward": lambda: fs.forward(net, samples),
        "representations": lambda: fs.representations(net, samples),
        "accuracy": lambda: accuracy(net, fs.LabeledDataset(samples, np.zeros(4, dtype=int), 3)),
    }[entry]
    with pytest.raises(ShapeError, match=re.escape(f"got {other}")):
        run()


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError):
        fs.InitScheme("glorot", 0)


def test_he_uniform_head_nearly_orthogonal_at_high_dim():
    # Monte-Carlo over 100 seeds at d=1024: random rows are nearly orthogonal
    means = []
    for seed in range(100):
        net = head_only(1024, 10, "he_uniform", seed)
        mean_abs, _ = fs.head_orthogonality_stats(net)
        means.append(mean_abs)
    assert np.mean(means) < 0.05


def test_orthogonality_improves_with_width():
    # expected |cos| shrinks like 1/sqrt(d); check non-increasing over 30 seeds
    dims = [64, 256, 1024, 4096]
    avg = []
    for d in dims:
        vals = [fs.head_orthogonality_stats(head_only(d, 10, "he_uniform", s))[0] for s in range(30)]
        avg.append(np.mean(vals))
    assert all(avg[i] >= avg[i + 1] for i in range(len(avg) - 1))


def test_similar_head_rows_nearly_parallel():
    net = head_only(64, 10, "similar", 9)
    w = net.head_weights().astype(np.float64)
    cos = w @ w.T  # rows already unit norm
    iu = np.triu_indices(10, k=1)
    assert cos[iu].mean() > 0.9


def test_orthogonal_init_stats():
    mean_abs, max_abs = fs.head_orthogonality_stats(head_only(10, 10, "orthogonal", 4))
    assert mean_abs < 1e-5
    assert max_abs < 1e-5


def test_head_stats_require_two_classes():
    with pytest.raises(ValueError):
        fs.head_orthogonality_stats(head_only(8, 1, "he_uniform", 0))


def test_param_distance_identical_and_negated(mlp_net):
    a = mlp_net.params
    same = fs.segment_cosines(a, a.copy())
    assert all(c == 1.0 for c in same)
    neg = ParamVector(-a.data, a.bounds)
    cos = fs.segment_cosines(a, neg)
    assert all(abs(c + 1.0) < 1e-12 for c in cos)
    assert fs.param_distance(a, a.copy()) == 0.0


def test_param_distance_random_vectors_decorrelated():
    rng = np.random.default_rng(0)
    hits = 0
    trials = 40
    for _ in range(trials):
        a = ParamVector(rng.normal(size=1000).astype(np.float32), ((0, 1000),))
        b = ParamVector(rng.normal(size=1000).astype(np.float32), ((0, 1000),))
        (cos,) = fs.segment_cosines(a, b)
        hits += abs(cos) < 0.1
    assert hits >= trials * 0.9


def test_param_distance_zero_norm_segment_is_undefined():
    a = ParamVector(np.array([0, 0, 3, 4], dtype=np.float32), ((0, 2), (2, 4)))
    b = ParamVector(np.array([5, 6, 1, 2], dtype=np.float32), ((0, 2), (2, 4)))
    cos = fs.segment_cosines(a, b)
    assert cos[0] is None
    assert cos[1] is not None


def test_blob_round_trip(mlp_net):
    blob = mlp_net.params.to_blob()
    back = ParamVector.from_blob(blob)
    assert back.bounds == mlp_net.params.bounds
    assert back.data.tobytes() == mlp_net.params.data.tobytes()


def test_blob_round_trip_property():
    from hypothesis import given, settings
    from hypothesis import strategies as st

    @given(st.lists(st.integers(min_value=0, max_value=40), min_size=0, max_size=6), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def round_trip(lengths, seed):
        rng = np.random.default_rng(seed)
        bounds, start = [], 0
        for length in lengths:
            bounds.append((start, start + length))
            start += length
        pv = ParamVector(rng.normal(size=start).astype(np.float32), tuple(bounds))
        back = ParamVector.from_blob(pv.to_blob())
        assert back.bounds == pv.bounds
        assert back.data.tobytes() == pv.data.tobytes()

    round_trip()


def test_blob_rejects_garbage(mlp_net):
    blob = mlp_net.params.to_blob()
    for bad in (b"nope" + b"\x00" * 32, blob[:-5], blob[: len(blob) // 2], blob[:5], blob + b"\x00"):
        with pytest.raises(BlobError):
            ParamVector.from_blob(bad)


def test_blob_fuzz_raises_only_blob_error(mlp_net):
    from hypothesis import given, settings
    from hypothesis import strategies as st

    blob = mlp_net.params.to_blob()
    garbage = st.one_of(
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda tail: b"FSPV" + tail),
        st.integers(0, len(blob)).map(lambda n: blob[:n]),
        st.binary(min_size=1, max_size=8).map(lambda tail: blob + tail),
        st.tuples(st.integers(0, len(blob) - 1), st.integers(0, 255)).map(
            lambda f: blob[: f[0]] + bytes([f[1]]) + blob[f[0] + 1 :]
        ),
    )

    @given(garbage)
    @settings(max_examples=300, deadline=None)
    def parse(data):
        try:
            back = ParamVector.from_blob(data)
        except BlobError:
            return
        assert back.to_blob() == data

    parse()


def test_body_head_masks_partition(mlp_net):
    body = mlp_net.mask_for("body")
    head = mlp_net.mask_for("head")
    full = mlp_net.mask_for("full")
    # body then head, disjoint, cover every segment
    assert body.selected() + head.selected() == full.selected()
    assert full.selected() == tuple(range(mlp_net.params.n_segments))
    assert head.selected() == (mlp_net.head_segment,)


def test_representations_are_head_inputs(mlp_net, rng):
    x = rng.normal(size=(5, 6)).astype(np.float32)
    reps = fs.representations(mlp_net, x)
    w, b = mlp_net.layer_params(mlp_net.head_index)
    logits, _ = fs.forward(mlp_net, x)
    np.testing.assert_allclose(reps @ w.T + b, logits, rtol=1e-6)
