"""Initializers, head diagnostics, distances, and the checkpoint blob."""

import numpy as np
import pytest

import fedsim as fs
from fedsim.layers import ShapeError
from fedsim.params import BlobError, ParamVector


def head_only(d, c, scheme, seed):
    return fs.init_network([fs.dense(d, c)], fs.InitScheme(scheme, seed))


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
    similar = fs.init_network(layers, fs.InitScheme("similar", 5))
    he = fs.init_network(layers, fs.InitScheme("he_uniform", 5))
    # body segment identical draws, head differs
    np.testing.assert_array_equal(similar.params.segment(0), he.params.segment(0))
    assert not np.array_equal(similar.params.segment(1), he.params.segment(1))


def test_init_deterministic_per_seed():
    layers = [fs.dense(5, 7), fs.relu(), fs.dense(7, 3)]
    a = fs.init_network(layers, fs.InitScheme("he_normal", 42))
    b = fs.init_network(layers, fs.InitScheme("he_normal", 42))
    assert a.params.data.tobytes() == b.params.data.tobytes()
    c = fs.init_network(layers, fs.InitScheme("he_normal", 43))
    assert a.params.data.tobytes() != c.params.data.tobytes()


def test_biases_start_at_zero():
    net = fs.init_network(
        [fs.conv2d(1, 4, 3, padding=1), fs.relu(), fs.flatten(), fs.dense(4 * 16, 3)],
        fs.InitScheme("xavier_normal", 1),
    )
    for layer_idx in net.param_layers:
        _, b = net.layer_params(layer_idx)
        assert np.all(b == 0)


def test_invalid_layer_chain_rejected():
    with pytest.raises(ShapeError):
        fs.init_network([fs.dense(4, 5), fs.dense(6, 3)], fs.InitScheme())
    with pytest.raises(ShapeError):
        fs.init_network([fs.dense(4, 5), fs.relu()], fs.InitScheme())  # no dense head


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
    same = fs.param_distance(a, a.copy(), per_layer=True)
    assert all(c == 1.0 for c in same)
    neg = ParamVector(-a.data, a.bounds)
    cos = fs.param_distance(a, neg, per_layer=True)
    assert all(abs(c + 1.0) < 1e-12 for c in cos)
    assert fs.param_distance(a, a.copy()) == 0.0


def test_param_distance_random_vectors_decorrelated():
    rng = np.random.default_rng(0)
    hits = 0
    trials = 40
    for _ in range(trials):
        a = ParamVector(rng.normal(size=1000).astype(np.float32), ((0, 1000),))
        b = ParamVector(rng.normal(size=1000).astype(np.float32), ((0, 1000),))
        (cos,) = fs.param_distance(a, b, per_layer=True)
        hits += abs(cos) < 0.1
    assert hits >= trials * 0.9


def test_param_distance_zero_norm_segment_is_undefined():
    a = ParamVector(np.array([0, 0, 3, 4], dtype=np.float32), ((0, 2), (2, 4)))
    b = ParamVector(np.array([5, 6, 1, 2], dtype=np.float32), ((0, 2), (2, 4)))
    cos = fs.param_distance(a, b, per_layer=True)
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
    assert tuple(a or b for a, b in zip(body.include, head.include)) == full.include
    assert not any(a and b for a, b in zip(body.include, head.include))
    assert head.include[mlp_net.head_segment]


def test_representations_are_head_inputs(mlp_net, rng):
    x = rng.normal(size=(5, 6)).astype(np.float32)
    reps = fs.representations(mlp_net, x)
    w, b = mlp_net.layer_params(mlp_net.head_index)
    logits, _ = fs.forward(mlp_net, x)
    np.testing.assert_allclose(reps @ w.T + b, logits, rtol=1e-6)
