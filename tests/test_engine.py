"""Round-loop mechanics: sampling, aggregation algebra, masked local updates,
determinism, budget invariance, and the server data-sharing path."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import fedsim as fs
from fedsim.engine import (
    FederationError,
    NumericError,
    _joint_step,
    _perfedavg_step,
    _plan,
    client_groups,
    client_schedule,
    iterations_per_epoch,
    total_rounds,
    train_epochs,
)
from fedsim.params import ParamMask, ParamVector
from fedsim.streams import stream
from tests.conftest import make_federated_data, nan_aggregate, replay_clients_descending, small_net, vec


# --- sampling -----------------------------------------------------------------


def test_sample_counts():
    rng = stream(0, "sampling", 1)
    ids = fs.sample_clients(100, 0.1, rng)
    assert len(ids) == 10 and len(set(ids)) == 10
    assert fs.sample_clients(100, 1.0, stream(0, "sampling", 2)) == list(range(100))
    assert len(fs.sample_clients(10, 0.05, stream(0, "sampling", 3))) == 1


def test_sample_rejects_bad_fraction():
    with pytest.raises(ValueError):
        fs.sample_clients(10, 0.0, stream(0, "sampling", 1))
    with pytest.raises(ValueError):
        fs.sample_clients(10, 1.5, stream(0, "sampling", 1))


# --- aggregation ----------------------------------------------------------------


def brute_force_aggregate(updates, theta_prev, mask):
    """Per-scalar oracle with explicit ascending-order summation."""
    out = theta_prev.copy()
    total = sum(n for _, n in updates)
    for seg in mask.selected():
        start, end = theta_prev.bounds[seg]
        for j in range(start, end):
            acc = 0.0
            for theta, n in updates:
                acc += (n / total) * float(theta.data[j])
            out.data[j] = np.float32(acc)
    return out


def test_aggregate_equal_weights():
    a, b = vec([1.0, 3.0]), vec([3.0, 5.0])
    prev = vec([0.0, 0.0])
    out = fs.aggregate([(a, 10), (b, 10)], prev, ParamMask.full(1))
    np.testing.assert_array_equal(out.data, np.float32([2.0, 4.0]))


def test_aggregate_weighted_mean():
    out = fs.aggregate([(vec([0.0]), 100), (vec([4.0]), 300)], vec([9.0]), ParamMask.full(1))
    assert out.data[0] == pytest.approx(3.0)


def test_aggregate_masked_out_bit_copied():
    bounds = ((0, 2), (2, 4))
    prev = vec([7.0, 8.0, 9.0, 10.0], bounds)
    a = vec([1.0, 1.0, 1.0, 1.0], bounds)
    b = vec([3.0, 3.0, 3.0, 3.0], bounds)
    out = fs.aggregate([(a, 1), (b, 1)], prev, ParamMask(0, 1))
    assert out.segment(1).tobytes() == prev.segment(1).tobytes()
    np.testing.assert_array_equal(out.segment(0), np.float32([2.0, 2.0]))


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_aggregate_matches_brute_force(n_clients, seed):
    rng = np.random.default_rng(seed)
    bounds = ((0, 3), (3, 8), (8, 9))
    updates = [
        (ParamVector(rng.normal(size=9).astype(np.float32), bounds), int(rng.integers(1, 500)))
        for _ in range(n_clients)
    ]
    prev = ParamVector(rng.normal(size=9).astype(np.float32), bounds)
    first, stop = sorted(int(i) for i in rng.integers(0, 4, size=2))
    mask = ParamMask(first, stop) if n_clients > 1 else ParamMask.full(3)
    out = fs.aggregate(updates, prev, mask)
    ref = brute_force_aggregate(updates, prev, mask)
    np.testing.assert_allclose(out.data, ref.data, atol=1e-6)
    for seg in range(3):
        if seg not in mask.selected():
            assert out.segment(seg).tobytes() == prev.segment(seg).tobytes()


@given(st.integers(min_value=2, max_value=6), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=30, deadline=None)
def test_aggregate_is_convex_combination(n_clients, seed):
    rng = np.random.default_rng(seed)
    updates = [
        (ParamVector(rng.normal(size=6).astype(np.float32), ((0, 6),)), int(rng.integers(1, 100)))
        for _ in range(n_clients)
    ]
    out = fs.aggregate(updates, updates[0][0].copy(), ParamMask.full(1))
    stacked = np.stack([u.data for u, _ in updates])
    assert np.all(out.data >= stacked.min(axis=0) - 1e-5)
    assert np.all(out.data <= stacked.max(axis=0) + 1e-5)


def test_aggregate_rejects_empty_and_zero_weight():
    with pytest.raises(FederationError):
        fs.aggregate([], vec([1.0]), ParamMask.full(1))
    with pytest.raises(FederationError):
        fs.aggregate([(vec([1.0]), 0)], vec([1.0]), ParamMask.full(1))


# --- local updates ----------------------------------------------------------------


def test_local_update_zero_epochs_returns_start(small_fed_data):
    net = small_net()
    alg = fs.get_algorithm("fedavg")
    out, (loss,) = fs.local_update(
        small_fed_data.client_train(0), net.params, net, alg, 0, 10, 0.9,
        0.1, stream(0, "client", 1, 0),
    )
    assert out.data.tobytes() == net.params.data.tobytes()
    assert np.isnan(loss)


def test_fedbabu_local_update_freezes_head(small_fed_data):
    net = small_net()
    alg = fs.get_algorithm("fedbabu")
    out, _ = fs.local_update(
        small_fed_data.client_train(1), net.params, net, alg, 3, 10, 0.9,
        0.1, stream(0, "client", 1, 1),
    )
    head = net.head_segment
    assert out.segment(head).tobytes() == net.params.segment(head).tobytes()
    assert not np.array_equal(out.segment(0), net.params.segment(0))


def test_fedprox_mu_zero_equals_fedavg(small_fed_data):
    net = small_net()
    kw = dict(local_epochs=2, batch_size=10, momentum=0.9)
    a, _ = fs.local_update(
        small_fed_data.client_train(2), net.params, net, fs.get_algorithm("fedprox"),
        kw["local_epochs"], kw["batch_size"], kw["momentum"],
        0.1, stream(0, "client", 1, 2), mu=0.0,
    )
    b, _ = fs.local_update(
        small_fed_data.client_train(2), net.params, net, fs.get_algorithm("fedavg"),
        kw["local_epochs"], kw["batch_size"], kw["momentum"],
        0.1, stream(0, "client", 1, 2),
    )
    assert a.data.tobytes() == b.data.tobytes()


def test_fedprox_mu_positive_shrinks_drift(small_fed_data):
    net = small_net()
    ds = small_fed_data.client_train(0)
    out_plain, _ = fs.local_update(
        ds, net.params, net, fs.get_algorithm("fedavg"), 3, 10, 0.9,
        0.1, stream(0, "client", 1, 0),
    )
    out_prox, _ = fs.local_update(
        ds, net.params, net, fs.get_algorithm("fedprox"), 3, 10, 0.9,
        0.1, stream(0, "client", 1, 0), mu=1.0,
    )
    drift_plain = fs.param_distance(out_plain, net.params)
    drift_prox = fs.param_distance(out_prox, net.params)
    assert drift_prox < drift_plain


def test_fedprox_babu_freezes_head_and_regularizes(small_fed_data):
    net = small_net()
    ds = small_fed_data.client_train(1)
    out, _ = fs.local_update(
        ds, net.params, net, fs.get_algorithm("fedprox-babu"), 3, 10, 0.9,
        0.1, stream(0, "client", 1, 1), mu=1.0,
    )
    head = net.head_segment
    assert out.segment(head).tobytes() == net.params.segment(head).tobytes()
    out_babu, _ = fs.local_update(
        ds, net.params, net, fs.get_algorithm("fedbabu"), 3, 10, 0.9,
        0.1, stream(0, "client", 1, 1),
    )
    # the proximal term keeps the body closer to the broadcast model
    assert fs.param_distance(out, net.params) < fs.param_distance(out_babu, net.params)


def test_local_update_empty_client_raises():
    net = small_net()
    empty = fs.LabeledDataset(np.zeros((0, 8), dtype=np.float32), np.zeros(0, dtype=np.int64), 4)
    with pytest.raises(FederationError):
        fs.local_update(empty, net.params, net, fs.get_algorithm("fedavg"), 1, 10, 0.9,
                        0.1, stream(0, "client", 1, 0))


# --- schedule plumbing ----------------------------------------------------------


@pytest.mark.parametrize("stacked", [False, True], ids=["vector-with-a-list", "stack-with-one"])
def test_local_update_rejects_a_mix_of_the_two_forms(small_fed_data, stacked):
    # a single vector takes one generator and a stack a list of them: the
    # other pairing fits no row
    net = small_net(seed=2)
    ds = small_fed_data.client_train(0)
    start = ParamVector.stack([net.params]) if stacked else net.params
    rng = stream(2, "sampling") if stacked else [stream(2, "sampling")]
    with pytest.raises(
        ValueError, match=r"^1 index arrays, 0 generators and 1 rates do not fit 1 clients$"
    ):
        fs.local_update(ds, start, net, fs.get_algorithm("fedavg"), 1, 10, 0.9, 0.05, rng)


def test_budget_invariance_of_schedule_length():
    totals = set()
    for rounds, tau in [(64, 1), (32, 2), (16, 4), (8, 8)]:
        cfg = fs.FLConfig(clients=10, fraction=0.5, local_epochs=tau, rounds=rounds, batch_size=50)
        totals.add(client_schedule(cfg, 500).total_updates)
    assert len(totals) == 1
    assert totals.pop() == 64 * iterations_per_epoch(500, 50)


def test_iterations_per_epoch_ceil():
    assert iterations_per_epoch(500, 50) == 10
    assert iterations_per_epoch(501, 50) == 11
    assert iterations_per_epoch(49, 50) == 1


# --- run_federation ---------------------------------------------------------------


def test_one_round_fedavg_is_mean_of_local_models():
    data = make_federated_data(clients=2, per_class=30, classes=4, shards_per_client=2, seed=1)
    net = small_net(seed=2)
    cfg = fs.FLConfig(clients=2, fraction=1.0, local_epochs=1, rounds=1, batch_size=10, seed=5)
    state, _ = fs.run_federation(cfg, data, net)

    # replay both clients by hand and average
    outs = []
    for cid in range(2):
        sched = client_schedule(cfg, len(data.client_train(cid)))
        out, _ = fs.local_update(
            data.client_train(cid), net.params, net, fs.get_algorithm("fedavg"),
            1, 10, 0.9, sched.rates(0, sched.total_updates), stream(5, "client", 1, cid),
        )
        outs.append((out, len(data.client_train(cid))))
    expected = fs.aggregate(outs, net.params, net.mask_for("full"))
    assert state.global_params.data.tobytes() == expected.data.tobytes()


def test_run_federation_deterministic(small_fed_data):
    net = small_net(seed=3)
    cfg = fs.FLConfig(clients=4, fraction=0.5, local_epochs=2, rounds=6, batch_size=10, seed=11)
    s1, logs1 = fs.run_federation(cfg, small_fed_data, net)
    s2, logs2 = fs.run_federation(cfg, small_fed_data, net)
    assert s1.global_params.data.tobytes() == s2.global_params.data.tobytes()
    assert [l.client_ids for l in logs1] == [l.client_ids for l in logs2]
    assert [l.mean_loss for l in logs1] == [l.mean_loss for l in logs2]


REPLAY_ALGORITHMS = ["fedavg", "fedbabu", "fedper", "fedrep", "fedprox", "perfedavg", "ditto"]


def assert_matches_replay(cfg, data, net):
    state, _ = fs.run_federation(cfg, data, net)
    ref = replay_clients_descending(cfg, data, net)
    assert state.global_params.data.tobytes() == ref.global_params.data.tobytes()
    assert sorted(state.client_params) == sorted(ref.client_params)
    for cid, params in ref.client_params.items():
        assert state.client_params[cid].data.tobytes() == params.data.tobytes()


@pytest.mark.parametrize("alg", REPLAY_ALGORITHMS)
def test_run_federation_matches_descending_client_replay(small_fed_data, alg):
    # four clients of 60 samples: each round's two sampled clients step in lockstep
    net = small_net(seed=3)
    cfg = fs.FLConfig(
        clients=4, fraction=0.5, local_epochs=2, rounds=4, batch_size=10,
        algorithm=alg, mu=0.05, seed=13,
    )
    assert_matches_replay(cfg, small_fed_data, net)


def mixed_size_data(sizes=(30, 45, 30, 20, 45, 30, 40)):
    """Clients whose train-set sizes both repeat and differ."""
    data = make_federated_data()
    order = np.random.default_rng(5).permutation(len(data.train))[: sum(sizes)]
    cuts = np.cumsum(sizes)[:-1]
    splits = [fs.ClientSplit(cid, np.sort(idx)) for cid, idx in enumerate(np.split(order, cuts))]
    splits = fs.split_client_test(data.train, data.test, splits, "matched", seed=0)
    return fs.FederatedData(data.train, data.test, splits)


@pytest.mark.parametrize("alg", REPLAY_ALGORITHMS)
def test_run_federation_mixed_size_groups_match_descending_client_replay(alg):
    data = mixed_size_data()
    net = small_net(seed=3)
    # one group of every size: the 20-sample client has run both its epochs
    # by step index 4, and the 45-sample clients end each epoch on a partial
    # batch of 5, which steps as a subgroup of its own
    assert client_groups(range(7), net, 10) == [tuple(range(7))]
    cfg = fs.FLConfig(
        clients=7, fraction=1.0, local_epochs=2, rounds=3, batch_size=10,
        algorithm=alg, mu=0.05, seed=19,
    )
    assert_matches_replay(cfg, data, net)


def test_fedbabu_head_frozen_over_rounds(small_fed_data):
    net = small_net(seed=4)
    cfg = fs.FLConfig(
        clients=4, fraction=0.5, local_epochs=1, rounds=24, batch_size=10,
        algorithm="fedbabu", seed=17,
    )
    state, _ = fs.run_federation(cfg, small_fed_data, net)
    head = net.head_segment
    assert state.global_params.segment(head).tobytes() == net.params.segment(head).tobytes()
    assert not np.array_equal(state.global_params.segment(0), net.params.segment(0))


def test_resume_matches_uninterrupted(small_fed_data):
    net = small_net(seed=5)
    cfg = fs.FLConfig(clients=4, fraction=0.5, local_epochs=1, rounds=8, batch_size=10, seed=23)
    full_state, full_logs = fs.run_federation(cfg, small_fed_data, net)

    part_state, logs_a = fs.run_federation(cfg, small_fed_data, net, until_round=3)
    assert part_state.round == 3
    part_state, logs_b = fs.run_federation(cfg, small_fed_data, net, state=part_state)
    assert part_state.round == 8
    assert part_state.global_params.data.tobytes() == full_state.global_params.data.tobytes()
    assert [l.client_ids for l in logs_a + logs_b] == [l.client_ids for l in full_logs]
    # a negative stop would slice rounds off the end of the plan
    with pytest.raises(ValueError, match="until_round must be at least 0, not -1"):
        fs.run_federation(cfg, small_fed_data, net, until_round=-1)


def test_round_log_sample_counts(small_fed_data):
    net = small_net(seed=6)
    cfg = fs.FLConfig(clients=4, fraction=0.5, local_epochs=1, rounds=3, batch_size=10, seed=29)
    _, logs = fs.run_federation(cfg, small_fed_data, net)
    assert all(len(l.client_ids) == 2 for l in logs)
    assert all(l.round == i + 1 for i, l in enumerate(logs))
    assert all(np.isfinite(l.mean_loss) for l in logs)


def test_server_body_update_keeps_head(small_fed_data):
    net = small_net(seed=7)
    cfg = fs.FLConfig(
        clients=4, fraction=1.0, local_epochs=1, rounds=3, batch_size=10,
        algorithm="fedbabu", server_share=0.25, server_update_part="body", seed=31,
    )
    state, _ = fs.run_federation(cfg, small_fed_data, net)
    head = net.head_segment
    assert state.global_params.segment(head).tobytes() == net.params.segment(head).tobytes()


def test_server_full_update_changes_head(small_fed_data):
    net = small_net(seed=7)
    base = dict(clients=4, fraction=1.0, local_epochs=1, rounds=3, batch_size=10, seed=31)
    cfg_off = fs.FLConfig(algorithm="fedbabu", **base)
    cfg_on = fs.FLConfig(algorithm="fedbabu", server_share=0.25, server_update_part="full", **base)
    state_off, _ = fs.run_federation(cfg_off, small_fed_data, net)
    state_on, _ = fs.run_federation(cfg_on, small_fed_data, net)
    head = net.head_segment
    assert not np.array_equal(state_on.global_params.segment(head), net.params.segment(head))
    # p=0 baseline untouched by the server path
    assert state_off.global_params.segment(head).tobytes() == net.params.segment(head).tobytes()


def test_server_update_affects_result(small_fed_data):
    net = small_net(seed=8)
    base = dict(clients=4, fraction=1.0, local_epochs=1, rounds=2, batch_size=10, seed=37)
    s0, _ = fs.run_federation(fs.FLConfig(**base), small_fed_data, net)
    s1, _ = fs.run_federation(fs.FLConfig(server_share=0.25, **base), small_fed_data, net)
    assert not np.array_equal(s0.global_params.data, s1.global_params.data)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_blowup_raises(small_fed_data):
    net = small_net(seed=9)
    cfg = fs.FLConfig(
        clients=4, fraction=1.0, local_epochs=2, rounds=20, batch_size=10,
        base_lr=1e18, seed=41,
    )
    with pytest.raises(NumericError):
        fs.run_federation(cfg, small_fed_data, net)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_server_epoch_failure_names_its_round(small_fed_data, monkeypatch):
    nan_aggregate(monkeypatch)
    cfg = fs.FLConfig(
        clients=4, fraction=1.0, local_epochs=1, rounds=2, batch_size=10,
        server_share=0.3, seed=5,
    )
    with pytest.raises(
        NumericError, match=r"^round 1, server epoch: non-finite loss at local update 0$"
    ):
        fs.run_federation(cfg, small_fed_data, small_net(seed=5))


def test_config_validation():
    with pytest.raises(ValueError):
        fs.FLConfig(clients=4, fraction=0.0, local_epochs=1, rounds=1)
    with pytest.raises(ValueError):
        fs.FLConfig(clients=4, fraction=0.5, local_epochs=1, rounds=1, algorithm="nope")
    with pytest.raises(ValueError):
        fs.FLConfig(clients=4, fraction=0.5, local_epochs=1, rounds=1, mu=-1.0)
    for bad in (dict(momentum=1.5), dict(momentum=1.0), dict(momentum=-1.0), dict(perfedavg_alpha=-1.0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            fs.FLConfig(clients=4, fraction=0.5, local_epochs=1, rounds=1, **bad)


def test_total_rounds_lg_extension():
    cfg = fs.FLConfig(clients=4, fraction=0.5, local_epochs=2, rounds=16, algorithm="lg-fedavg")
    assert total_rounds(cfg) == 16 + 4
    cfg2 = fs.FLConfig(clients=4, fraction=0.5, local_epochs=2, rounds=16)
    assert total_rounds(cfg2) == 16


# --- lockstep groups ----------------------------------------------------------


def _train_stack_and_separately(net, sizes, batch_size, epochs, part, pulled, meta, seed):
    """train_epochs on an (m, P) stack of clients of ``sizes`` samples, each
    with its own array of step rates and the last ``pulled``
    with a prox term, and on each client alone: (stacked, separate) lists
    of (params bytes, (params bytes, momentum bytes) per epoch as
    ``on_epoch`` sees them, losses) per client. The
    stack reads its clients' samples in place through scattered, unsorted
    index arrays into one shared set, where the first two clients share a
    sample; each client alone trains on a copy of its samples."""
    m = len(sizes)
    rng = np.random.default_rng(seed)
    shape = (2, 4, 4) if net.layers[0].kind == "conv2d" else (net.layers[0].fan_in,)
    ds = fs.LabeledDataset(
        rng.standard_normal((sum(sizes) + 3, *shape)).astype(np.float32),
        rng.integers(0, net.num_classes, size=sum(sizes) + 3),
        net.num_classes,
    )
    pool = rng.permutation(len(ds))  # three samples belong to no client
    first = np.cumsum(sizes) - sizes
    indices = [pool[f : f + n].copy() for f, n in zip(first, sizes)]
    if m > 1:
        indices[1][-1] = indices[0][0]
    noise = rng.standard_normal((m, net.params.total_len)).astype(np.float32)
    stack = ParamVector(net.params.data + 0.1 * noise, net.params.bounds)
    anchors = ParamVector(net.params.data + 0.1 * np.roll(noise, 1, axis=0), net.params.bounds)
    offsets = rng.integers(0, 4, size=m).tolist()
    rates = [
        0.05 * (1 + i) * 0.5 ** ((offsets[i] + np.arange(epochs * -(-n // batch_size))) // 3)
        for i, n in enumerate(sizes)
    ]
    step = _perfedavg_step(0.01) if meta else _joint_step

    def run(ds, params, prox, rngs, rates, indices):
        seen = [[] for _ in rngs]
        losses = train_epochs(
            ds, params, net, part, epochs, batch_size, 0.9, rates, rngs, indices,
            prox=prox, step=step,
            on_epoch=lambda row, p, mom: seen[row].append((p.tobytes(), mom.tobytes())),
        )
        return losses, seen

    free = m - pulled
    prox = (0.3, ParamVector(anchors.data[free:], anchors.bounds)) if pulled else None
    streams = [stream(seed, "client", 1, i) for i in range(m)]
    losses, seen = run(ds, stack, prox, streams, rates, indices)
    stacked = [(stack.data[i].tobytes(), seen[i], losses[i]) for i in range(m)]
    separate = []
    for i, row in enumerate(anchors.rows()):
        params = ParamVector(net.params.data + 0.1 * noise[i], net.params.bounds)
        client_ds = ds.subset(indices[i])
        (client_losses,), (client_seen,) = run(
            client_ds, params.as_stack(), (0.3, row.as_stack()) if i >= free else None,
            [stream(seed, "client", 1, i)], [rates[i]], [np.arange(len(client_ds))],
        )
        separate.append((params.data.tobytes(), client_seen, client_losses))
    return stacked, separate


@pytest.mark.parametrize("net_name", ["mlp_net", "conv_net"])
@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    sizes=st.lists(st.integers(1, 23), min_size=1, max_size=4),
    batch_size=st.integers(2, 9),
    epochs=st.integers(1, 2),
    part=st.sampled_from(["full", "body", "head"]),
    pulled=st.integers(0, 4),
    meta=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(sizes=[23, 23, 23], batch_size=5, epochs=2, part="full", pulled=3, meta=False, seed=1)
@example(sizes=[17, 17, 17, 17], batch_size=4, epochs=1, part="body", pulled=0, meta=True, seed=2)
@example(sizes=[3, 23, 10, 14], batch_size=5, epochs=2, part="full", pulled=2, meta=False, seed=3)
@example(sizes=[8, 22, 12, 6], batch_size=4, epochs=2, part="head", pulled=1, meta=True, seed=4)
# a step whose full batches start at two columns, beside a partial batch
@example(sizes=[20, 10, 7], batch_size=5, epochs=2, part="body", pulled=1, meta=False, seed=5)
def test_train_epochs_stack_equals_separate_runs(
    request, net_name, sizes, batch_size, epochs, part, pulled, meta, seed
):
    # a Per-FedAvg step splits each batch in halves, so needs batches of 2+
    assume(not (meta and any(n % batch_size == 1 for n in sizes)))
    net = request.getfixturevalue(net_name)
    stacked, separate = _train_stack_and_separately(
        net, sizes, batch_size, epochs, part, min(pulled, len(sizes)), meta, seed
    )
    assert stacked == separate


def test_plan_of_a_ragged_group_by_hand():
    # rows of 20, 10 and 7 samples, batch 5, two epochs: 8, 4 and 4 steps.
    # At step 2 rows 1 and 2 start their second epoch, so full batches
    # start at columns 10, 0 and 0; at step 3 at 15 and 5, beside row 2's
    # partial batch of 2. Such a step reads every run by index arrays.
    n = np.array([20, 10, 7])
    rates = [0.1, 0.1, np.array([0.1, 0.1, 0.2, 0.2])]
    plan = _plan(n, 2 * -(-n // 5), 5, rates, True)

    def rows(r):
        return list(range(3))[r] if isinstance(r, slice) else r.ravel().tolist()

    def cols(c, count):
        return [c] * count if isinstance(c, int) else c.ravel().tolist()

    got = [
        (
            draws, k,
            [(rows(r), cols(c, len(rows(r))), b) for r, c, b in runs],
            rate if isinstance(rate, float) else rate.ravel().tolist(),
            ends,
        )
        for draws, k, runs, rate, ends in plan
    ]
    r1, r2 = float(np.float32(0.1)), float(np.float32(0.2))
    assert got == [
        ([0, 1, 2], 3, [([0, 1, 2], [0, 0, 0], 5)], r1, []),
        ([], 3, [([0, 1], [5, 5], 5), ([2], [5], 2)], r1, [1, 2]),
        ([1, 2], 3, [([0, 1, 2], [10, 0, 0], 5)], [r1, r1, r2], []),
        ([], 3, [([0, 1], [15, 5], 5), ([2], [5], 2)], [r1, r1, r2], [0, 1, 2]),
        ([0], 1, [([0], [0], 5)], r1, []),
        ([], 1, [([0], [5], 5)], r1, []),
        ([], 1, [([0], [10], 5)], r1, []),
        ([], 1, [([0], [15], 5)], r1, [0]),
    ]
    # views where a run's rows agree on the column
    assert all(isinstance(c, int) for _, _, runs, _, _ in plan[:2] + plan[4:] for _, c, _ in runs)


@pytest.mark.parametrize("alg", ["fedavg", "ditto"])
def test_ragged_group_runs_one_forward_and_one_update_per_track_per_step_index(monkeypatch, alg):
    # seven clients of five sizes, batch 10: partial batches of 5 and of 0,
    # and clients that run out of steps early
    data = mixed_size_data((30, 45, 30, 20, 45, 35, 40))
    net = small_net(seed=3)
    cfg = fs.FLConfig(
        clients=7, fraction=1.0, local_epochs=2, rounds=1, batch_size=10, algorithm=alg, seed=5,
    )
    assert client_groups(range(7), net, 10, 1 + (alg == "ditto")) == [tuple(range(7))]
    runs, updates = [], []
    forward, sgd_step = fs.engine.forward, fs.engine.sgd_step

    def counting_forward(net, batch, *step_runs):
        runs.extend(step_runs or [[]])
        return forward(net, batch, *step_runs)

    monkeypatch.setattr(fs.engine, "forward", counting_forward)
    monkeypatch.setattr(
        fs.engine, "sgd_step", lambda *args: updates.append(args[-1]) or sgd_step(*args)
    )
    fs.run_federation(cfg, data, net)
    steps = 2 * iterations_per_epoch(45, 10)
    assert len(runs) == steps
    assert max(map(len, runs)) > 1  # ragged steps, still one forward each
    # Ditto's global and personal tracks: two stepped views of one stack
    assert len(updates) == steps * (1 + (alg == "ditto"))


def test_training_and_finetunes_read_client_samples_in_place(monkeypatch):
    # Ditto's two tracks, the server pool and both fine-tune rules read the
    # shared train set through each client's index array, never a copy
    data = mixed_size_data()
    net = small_net(seed=3)
    cfg = fs.FLConfig(
        clients=7, fraction=1.0, local_epochs=2, rounds=2, batch_size=10,
        algorithm="ditto", server_share=0.2, seed=5,
    )
    copies = []
    subset = fs.LabeledDataset.subset
    monkeypatch.setattr(
        fs.LabeledDataset, "subset", lambda *args: copies.append(args[1]) or subset(*args)
    )
    state, _ = fs.run_federation(cfg, data, net)
    models = [state.global_params] * 7
    for rule in ("joint", "sequential_head_then_body"):
        fs.evaluation.personalized_models(models, net, data, "full", [1, 2], 0.05, 7, 10, 0.9, rule)
    assert copies == []


def test_client_groups_cap_counts_stacked_rows(monkeypatch):
    net = small_net(seed=3)
    # small_net holds 12 + 12 + 4 floats of activations per sample
    monkeypatch.setattr(fs.engine, "GROUP_BYTES", 4 * 10 * 28 * 3)
    assert client_groups([6, 0, 3, 1, 5, 2, 4], net, 10) == [(0, 1, 2), (3, 4, 5), (6,)]
    assert client_groups(range(7), net, 10, tracks=2) == [(i,) for i in range(7)]


@pytest.mark.parametrize("alg", ["fedavg", "ditto"])
def test_groups_of_a_few_rows_match_descending_client_replay(monkeypatch, alg):
    # the cap cuts the seven mixed-size clients into groups of three rows
    monkeypatch.setattr(fs.engine, "GROUP_BYTES", 4 * 10 * 28 * 3)
    cfg = fs.FLConfig(
        clients=7, fraction=1.0, local_epochs=2, rounds=2, batch_size=10,
        algorithm=alg, seed=19,
    )
    assert_matches_replay(cfg, mixed_size_data(), small_net(seed=3))


def test_meta_step_error_names_the_client_whose_batch_is_too_small():
    # only client 2 ends its epoch on a batch of one sample
    data = mixed_size_data((30, 20, 31, 40))
    net = small_net(seed=3)
    cfg = fs.FLConfig(
        clients=4, fraction=1.0, local_epochs=1, rounds=1, batch_size=10,
        algorithm="perfedavg", seed=3,
    )
    assert client_groups(range(4), net, 10) == [(0, 1, 2, 3)]
    with pytest.raises(FederationError, match=r"^round 1, client 2: meta step needs a batch"):
        fs.run_federation(cfg, data, net)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_conv_weight_in_the_template_raises_numeric_error():
    # the NaN fills its channel, and max-pooling must carry it to the loss
    data = make_federated_data(dim=32)
    for ds in (data.train, data.test):
        ds.samples = ds.samples.reshape(-1, 2, 4, 4)
    layers = [fs.conv2d(2, 3, 3, padding=1), fs.relu(), fs.maxpool2d(2), fs.flatten(), fs.dense(12, 4)]
    net = fs.init_network(layers, (2, 4, 4), fs.InitScheme("he_uniform", 3))
    net.layer_params(0)[0][0, 0, 0, 0] = np.nan
    cfg = fs.FLConfig(clients=4, fraction=1.0, local_epochs=1, rounds=2, batch_size=10, seed=3)
    with pytest.raises(NumericError, match=r"^round 1, client 0: non-finite loss"):
        fs.run_federation(cfg, data, net)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_error_in_a_ditto_personal_row_names_its_client():
    data = make_federated_data()
    net = small_net(seed=3)
    # client 2's personal model alone is broken; the global rows stay finite
    state = fs.init_state(net)
    state.client_params[2] = ParamVector(np.full_like(net.params.data, np.nan), net.params.bounds)
    cfg = fs.FLConfig(
        clients=4, fraction=1.0, local_epochs=1, rounds=1, batch_size=60,
        algorithm="ditto", seed=3,
    )
    with pytest.raises(NumericError, match=r"^round 1, client 2: non-finite loss"):
        fs.run_federation(cfg, data, net, state=state)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numeric_error_names_the_group_member():
    data = make_federated_data()
    data.train.samples[data.splits[2].train_indices[:3]] = np.inf
    net = small_net(seed=3)
    cfg = fs.FLConfig(clients=4, fraction=1.0, local_epochs=1, rounds=1, batch_size=60, seed=3)
    assert client_groups(range(4), net, 60) == [(0, 1, 2, 3)]
    with pytest.raises(NumericError, match=r"^round 1, client 2: non-finite loss"):
        fs.run_federation(cfg, data, net)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameters_after_the_last_update_name_the_callers_row():
    # one update each, so no step's loss follows the update that overflows;
    # rows are reordered by size, so the caller's row 2 trains at position 1
    data = make_federated_data()
    net = small_net(seed=3)
    own = [data.splits[0].train_indices[:n] for n in (5, 12, 8)]
    stack = ParamVector.stack([net.params] * 3)
    rates = [0.1, 0.1, 1e41]  # inf in float32
    rngs = [stream(3, "test_split", cid) for cid in range(3)]
    with pytest.raises(NumericError, match=r"^non-finite parameters after local update 0$") as exc:
        train_epochs(
            data.train, stack, net, "full", 1, 20, 0.9, rates, rngs, indices=own,
        )
    assert exc.value.member == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("sizes", [(12,), (12, 12, 12)])
def test_numeric_error_leaves_an_in_order_group_untouched(sizes):
    # one client, or equal sizes: a group already in training order; the
    # last row's rate is inf in float32, so its second step's loss is not
    # finite, after every row has taken a step
    data = make_federated_data()
    net = small_net(seed=3)
    own = [data.splits[0].train_indices[:n] for n in sizes]
    stack = ParamVector.stack([net.params] * len(sizes))
    before = stack.data.tobytes()
    rates = [0.1] * (len(sizes) - 1) + [1e41]
    rngs = [stream(3, "test_split", cid) for cid in range(len(sizes))]
    with pytest.raises(NumericError, match=r"^non-finite loss at local update 1$"):
        train_epochs(data.train, stack, net, "full", 1, 5, 0.9, rates, rngs, indices=own)
    assert stack.data.tobytes() == before


def test_a_batch_above_every_client_is_sized_by_the_largest_client():
    # FedAvg's B = inf, written as a batch above the client's 20 samples:
    # nothing the call allocates grows with the configured batch
    data = make_federated_data()
    net = small_net(seed=1)
    own = [data.splits[0].train_indices[:20]]

    def run(batch_size):
        stack = ParamVector.stack([net.params])
        tracemalloc.start()
        try:
            losses = train_epochs(
                data.train, stack, net, "full", 2, batch_size, 0.9, [0.05],
                [stream(1, "client", 1, 0)], own,
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return np.array(losses).tobytes(), stack.data.tobytes(), peak

    losses, params, peak = run(10**6)
    assert peak < 2**20
    assert (losses, params) == run(20)[:2]


def test_a_round_whose_sampled_clients_hold_no_data_names_the_client():
    # the effective batch of such a round is 0; grouping still works and the
    # local update reports the client
    data = make_federated_data()
    splits = [fs.ClientSplit(s.client_id, np.empty(0, np.int64), s.test_indices) for s in data.splits]
    data = fs.FederatedData(data.train, data.test, splits)
    cfg = fs.FLConfig(clients=4, fraction=0.25, local_epochs=1, rounds=1, batch_size=10)
    with pytest.raises(FederationError, match=r"^round 1, client \d: client has no training data$"):
        fs.run_federation(cfg, data, small_net())
