"""Per-algorithm behavior: sequential FedRep, Ditto's regularized personal
models, first-order meta updates, the LG-FedAvg two-phase run, and
persistent-part bookkeeping."""

import numpy as np
import pytest

import fedsim as fs
from fedsim.engine import assemble_client_params, stream
from fedsim.optim import OptState, sgd_step
from fedsim.params import ParamVector
from tests.conftest import small_net


# --- FedRep: head epochs then one body epoch -----------------------------------


def test_fedrep_sequential_matches_manual_replay(small_fed_data):
    net = small_net(seed=1)
    ds = small_fed_data.client_train(0)
    tau = 2
    out, _ = fs.local_update(
        ds, net.params, net, fs.get_algorithm("fedrep"), tau, 10, 0.9,
        0.05, stream(3, 1, 1, 0),
    )
    # evaluation's fine-tune under FedRep's rule, at a constant rate
    tuned, _ = fs.local_update(
        ds, net.params, net, fs.AlgorithmSpec("fine-tune", "full", "full", "sequential_head_then_body"),
        tau, 10, 0.9, 0.05, stream(3, 1, 1, 0),
    )

    # manual replay: same rng, head mask for tau epochs, then body for one
    rng = stream(3, 1, 1, 0)
    params = net.params.copy()
    working = net.with_params(params)
    opt = OptState.for_params(params, 0.9)
    n = len(ds)
    for _ in range(tau):
        order = rng.permutation(n)
        for t in range(int(np.ceil(n / 10))):
            b = order[t * 10 : (t + 1) * 10]
            _, cache = fs.forward(working, ds.samples[b])
            _, grads = fs.backward(working, cache, ds.labels[b])
            sgd_step(params, grads, opt, 0.05, net.mask_for("head"))
    order = rng.permutation(n)
    for t in range(int(np.ceil(n / 10))):
        b = order[t * 10 : (t + 1) * 10]
        _, cache = fs.forward(working, ds.samples[b])
        _, grads = fs.backward(working, cache, ds.labels[b])
        sgd_step(params, grads, opt, 0.05, net.mask_for("body"))
    assert out.data.tobytes() == params.data.tobytes()
    assert tuned.data.tobytes() == params.data.tobytes()


def fedrep_by_hand(ds, idx, start, net, tau, rates, rng):
    """FedRep's local rule replayed with an explicit array of rates, one per
    update of the call: tau head epochs at rates[: tau * I], then the body
    epoch at the final head epoch's rates, rates[(tau - 1) * I :]."""
    params = start.copy()
    working = net.with_params(params)
    opt = OptState.for_params(params, 0.9)
    n = len(idx)
    ipe = -(-n // 10)
    for part, epoch in [*(("head", e) for e in range(tau)), ("body", tau - 1)]:
        order = idx[rng.permutation(n)]
        for t in range(ipe):
            b = order[t * 10 : (t + 1) * 10]
            _, cache = fs.forward(working, ds.samples[b])
            _, grads = fs.backward(working, cache, ds.labels[b])
            sgd_step(params, grads, opt, float(rates[epoch * ipe + t]), net.mask_for(part))
    return params


def test_fedrep_body_epoch_reads_each_rows_last_head_epoch_rates(small_fed_data):
    # two clients of 37 and 23 samples, B=10: I = 4 and 3. Each row's
    # schedule spans 3 * I updates, so its first decay, at 1.5 * I, falls
    # inside the second head epoch of this 2 * I update call
    net = small_net(seed=14)
    ds = small_fed_data.train
    indices = [np.arange(37), np.arange(37, 60)]
    tau = 2
    rates = []
    for idx in indices:
        ipe = -(-len(idx) // 10)
        rates.append(fs.LRSchedule(0.1, 3 * ipe).rates(0, tau * ipe))
        assert len(set(rates[-1][-ipe:].tolist())) == 2  # the decay is in the last epoch
    starts = ParamVector.stack([net.params, net.params])
    out, _ = fs.local_update(
        ds, starts, net, fs.get_algorithm("fedrep"), tau, 10, 0.9, rates,
        [stream(8, 1, 1, i) for i in range(2)], indices=indices,
    )
    for i, idx in enumerate(indices):
        want = fedrep_by_hand(ds, idx, net.params, net, tau, rates[i], stream(8, 1, 1, i))
        assert out.data[i].tobytes() == want.data.tobytes()


def test_fedrep_aggregates_body_only(small_fed_data):
    net = small_net(seed=2)
    cfg = fs.FLConfig(
        clients=4, fraction=1.0, local_epochs=1, rounds=3, batch_size=10,
        algorithm="fedrep", seed=7,
    )
    state, _ = fs.run_federation(cfg, small_fed_data, net)
    head = net.head_segment
    # global head never aggregated: stays at initialization
    assert state.global_params.segment(head).tobytes() == net.params.segment(head).tobytes()
    # every client holds a personal head
    assert set(state.client_params) == {0, 1, 2, 3}


# --- Ditto -----------------------------------------------------------------------


def ditto_personal(ds, theta_g, theta_v, lam, epochs, rate, rng, template, batch_size, momentum):
    """The personal row of a one-client Ditto stack, as federated rounds
    train it: ``local_update`` on the two-row stack [global, personal],
    whose global row starts at ``theta_g`` and anchors the personal row's
    prox term of weight ``mu=lam``."""
    stack, _ = fs.local_update(
        ds, ParamVector.stack([theta_g, theta_v]), template, fs.get_algorithm("ditto"),
        epochs, batch_size, momentum, rate, [stream(0, 1, 0, 0), rng], mu=lam,
    )
    return stack.rows()[1]


def test_ditto_lambda_zero_is_plain_finetune(small_fed_data):
    net = small_net(seed=3)
    ds = small_fed_data.client_train(1)
    theta_v = net.params.copy()
    theta_g = ParamVector(net.params.data + np.float32(0.5), net.params.bounds)

    personal = ditto_personal(
        ds, theta_g, theta_v, 0.0, 2, 0.05, stream(5, 1, 1, 1),
        batch_size=10, momentum=0.9, template=net,
    )
    plain, _ = fs.local_update(
        ds, theta_v, net, fs.get_algorithm("fedavg"), 2, 10, 0.9,
        0.05, stream(5, 1, 1, 1),
    )
    assert personal.data.tobytes() == plain.data.tobytes()


def test_ditto_single_step_closed_form(small_fed_data):
    # at theta_v == theta_G the regularizer gradient is exactly zero, so one
    # full-batch step moves by lr * loss gradient regardless of lambda
    net = small_net(seed=4)
    ds = small_fed_data.client_train(0)
    theta_g = net.params.copy()

    # same shuffle the update will draw, so float summation order matches
    order = stream(6, 1, 1, 0).permutation(len(ds))
    _, cache = fs.forward(net, ds.samples[order])
    _, grads = fs.backward(net, cache, ds.labels[order])

    out = ditto_personal(
        ds, theta_g, theta_g.copy(), 1e6, 1, 0.1, stream(6, 1, 1, 0),
        batch_size=len(ds), momentum=0.9, template=net,
    )
    predicted = theta_g.data - np.float32(0.1) * grads.data
    np.testing.assert_array_equal(out.data, predicted)
    # step algebra bound: ||theta' - theta_G|| == lr * ||g||
    moved = fs.param_distance(out, theta_g)
    assert moved == pytest.approx(0.1 * np.linalg.norm(grads.data.astype(np.float64)), rel=1e-5)


def test_ditto_large_lambda_tracks_global(small_fed_data):
    net = small_net(seed=5)
    ds = small_fed_data.client_train(2)
    theta_g = net.params.copy()
    free = ditto_personal(
        ds, theta_g, theta_g.copy(), 0.0, 3, 0.05, stream(7, 1, 1, 2),
        batch_size=10, momentum=0.9, template=net,
    )
    pinned = ditto_personal(
        ds, theta_g, theta_g.copy(), 50.0, 3, 0.05, stream(7, 1, 1, 2),
        batch_size=10, momentum=0.9, template=net,
    )
    assert fs.param_distance(pinned, theta_g) < fs.param_distance(free, theta_g)


def test_ditto_stack_of_odd_rows_raises(small_fed_data):
    # a Ditto stack holds a global and a personal row per client; a stack of
    # one row (or a single vector) would otherwise train no global row
    net = small_net(seed=6)
    ds = small_fed_data.client_train(0)
    ditto = fs.get_algorithm("ditto")
    for start, rngs in [
        (net.params, stream(0, 1, 1, 0)),
        (ParamVector.stack([net.params]), [stream(0, 1, 1, 0)]),
        (ParamVector.stack([net.params] * 3), [stream(0, 1, 1, i) for i in range(3)]),
    ]:
        with pytest.raises(ValueError, match="two rows per client"):
            fs.local_update(ds, start, net, ditto, 1, 10, 0.9, 0.05, rngs, mu=0.5)


def test_ditto_federation_keeps_global_track_fedavg(small_fed_data):
    net = small_net(seed=6)
    base = dict(clients=4, fraction=1.0, local_epochs=1, rounds=3, batch_size=10, seed=9)
    ditto_state, _ = fs.run_federation(fs.FLConfig(algorithm="ditto", **base), small_fed_data, net)
    fedavg_state, _ = fs.run_federation(fs.FLConfig(algorithm="fedavg", **base), small_fed_data, net)
    assert ditto_state.global_params.data.tobytes() == fedavg_state.global_params.data.tobytes()
    assert len(ditto_state.client_params) == 4
    for cid, personal in ditto_state.client_params.items():
        assert not np.array_equal(personal.data, ditto_state.global_params.data)


# --- Per-FedAvg (first-order) -------------------------------------------------------


def softmax64(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def test_perfedavg_single_meta_step_closed_form():
    # one dense layer, 1 feature, 2 classes; support/query of one sample each
    net = fs.init_network([fs.dense(1, 2)], (1,), fs.InitScheme("he_uniform", 8))
    x = np.array([[1.0], [2.0]], dtype=np.float32)
    y = np.array([0, 1])
    ds = fs.LabeledDataset(x, y, 2)

    w0 = net.params.data.copy().astype(np.float64)  # [w0, w1, b0, b1]
    alpha, beta = 0.01, 0.1

    def ce_grad(theta, xi, yi):
        w = theta[:2]
        b = theta[2:]
        logits = w * xi + b
        p = softmax64(logits)
        g_logit = p.copy()
        g_logit[yi] -= 1.0
        return np.concatenate([g_logit * xi, g_logit])

    # batch order: permutation of [0, 1]; support = first half, query = rest
    order = stream(11, 1, 1, 0).permutation(2)
    sup, qry = order[0], order[1]
    inner = w0 - alpha * ce_grad(w0, float(x[sup, 0]), int(y[sup]))
    expected = w0 - beta * ce_grad(inner, float(x[qry, 0]), int(y[qry]))

    out, _ = fs.local_update(
        ds, net.params, net, fs.get_algorithm("perfedavg"), 1, 2, 0.9,
        beta, stream(11, 1, 1, 0), perfedavg_alpha=alpha,
    )
    np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-7)


def test_perfedavg_alpha_zero_is_sgd_on_query_halves(small_fed_data):
    net = small_net(seed=9)
    ds = small_fed_data.client_train(3)
    out, _ = fs.local_update(
        ds, net.params, net, fs.get_algorithm("perfedavg"), 1, 10, 0.9,
        0.05, stream(13, 1, 1, 3), perfedavg_alpha=0.0,
    )
    # manual: same permutation, step on the query half of each batch
    rng = stream(13, 1, 1, 3)
    params = net.params.copy()
    working = net.with_params(params)
    opt = OptState.for_params(params, 0.9)
    n = len(ds)
    order = rng.permutation(n)
    for t in range(int(np.ceil(n / 10))):
        b = order[t * 10 : (t + 1) * 10]
        qry = b[len(b) // 2 :]
        _, cache = fs.forward(working, ds.samples[qry])
        _, grads = fs.backward(working, cache, ds.labels[qry])
        sgd_step(params, grads, opt, 0.05, net.mask_for("full"))
    assert out.data.tobytes() == params.data.tobytes()


def test_perfedavg_batch_of_one_rejected():
    net = small_net(seed=10)
    ds = fs.LabeledDataset(np.zeros((1, 8), dtype=np.float32), np.zeros(1, dtype=np.int64), 4)
    with pytest.raises(fs.FederationError):
        fs.local_update(
            ds, net.params, net, fs.get_algorithm("perfedavg"), 1, 50, 0.9,
            0.1, stream(1, 1, 1, 0), perfedavg_alpha=0.01,
        )


@pytest.mark.parametrize("part", ["body", "head"])
def test_perfedavg_under_a_partial_mask_raises_naming_the_part(small_fed_data, part):
    # the inner step reads the whole support gradient, and a masked backward
    # leaves the segments outside the mask at zero
    net = small_net(seed=10)
    spec = fs.AlgorithmSpec(f"perfedavg-{part}", part, part, "perfedavg_fo")
    with pytest.raises(ValueError, match=f"not '{part}'"):
        fs.local_update(
            small_fed_data.client_train(0), net.params, net, spec, 1, 10, 0.9,
            0.05, stream(1, 1, 1, 0), perfedavg_alpha=0.01,
        )


def test_perfedavg_deterministic(small_fed_data):
    net = small_net(seed=11)
    ds = small_fed_data.client_train(0)
    a, b = (
        fs.local_update(
            ds, net.params, net, fs.get_algorithm("perfedavg"), 2, 10, 0.9,
            0.05, stream(2, 1, 1, 0), perfedavg_alpha=0.01,
        )[0]
        for _ in range(2)
    )
    assert a.data.tobytes() == b.data.tobytes()


# --- LG-FedAvg two-phase --------------------------------------------------------------


def test_lg_fedavg_runs_two_phases(small_fed_data):
    net = small_net(seed=12)
    base = dict(clients=4, fraction=1.0, local_epochs=1, batch_size=10, seed=15)
    lg_cfg = fs.FLConfig(rounds=8, algorithm="lg-fedavg", **base)
    lg_state, lg_logs = fs.run_federation(lg_cfg, small_fed_data, net)
    assert len(lg_logs) == 8 + 2

    # phase 1 reproduces FedAvg exactly
    fed_cfg = fs.FLConfig(rounds=8, algorithm="fedavg", **base)
    fed_state, _ = fs.run_federation(fed_cfg, small_fed_data, net)
    mid_state, _ = fs.run_federation(lg_cfg, small_fed_data, net, until_round=8)
    assert mid_state.global_params.data.tobytes() == fed_state.global_params.data.tobytes()

    # phase 2 aggregates the head only, so the global body stays put
    body_segs = [i for i in range(net.params.n_segments) if i != net.head_segment]
    for i in body_segs:
        assert np.array_equal(lg_state.global_params.segment(i), mid_state.global_params.segment(i))
    assert not np.array_equal(
        lg_state.global_params.segment(net.head_segment),
        mid_state.global_params.segment(net.head_segment),
    )
    # clients sampled in phase 2 keep personal bodies
    assert len(lg_state.client_params) == 4
    assert [l.lr for l in lg_logs[8:]] == [0.001, 0.001]


def test_lg_fedavg_second_phase_starts_every_client_from_the_fedavg_trained_body(
    small_fed_data, monkeypatch
):
    net = small_net(seed=12)
    cfg = fs.FLConfig(
        clients=4, fraction=0.5, local_epochs=1, rounds=4, batch_size=10,
        algorithm="lg-fedavg", seed=15,
    )
    state, _ = fs.run_federation(cfg, small_fed_data, net, until_round=4)
    body = net.mask_for("body").scalars(net.params)
    trained_body = state.global_params.data[body].tobytes()
    assert trained_body != net.params.data[body].tobytes()
    starts = []
    local_update = fs.engine.local_update

    def spy(ds, theta_start, *args, **kwargs):
        starts.extend(row.copy() for row in theta_start.rows())
        return local_update(ds, theta_start, *args, **kwargs)

    monkeypatch.setattr(fs.engine, "local_update", spy)
    state, logs = fs.run_federation(cfg, small_fed_data, net, state=state, until_round=5)
    assert len(starts) == len(logs[-1].client_ids) == 2
    for start in starts:
        assert start.data[body].tobytes() == trained_body
    # a client the phase never samples keeps the FedAvg-trained body too
    assert sorted(state.client_params) == [0, 1, 2, 3]
    for cid in set(range(4)) - set(logs[-1].client_ids):
        assert state.client_params[cid].data[body].tobytes() == trained_body


# --- persistent parts -------------------------------------------------------------------


def test_fedper_head_changes_only_when_sampled(small_fed_data):
    net = small_net(seed=13)
    cfg = fs.FLConfig(
        clients=4, fraction=0.5, local_epochs=1, rounds=6, batch_size=10,
        algorithm="fedper", seed=19,
    )
    state = None
    prev_heads = {}
    from fedsim.engine import init_state

    state = init_state(net)
    for k in range(1, 7):
        state, logs = fs.run_federation(cfg, small_fed_data, net, state=state, until_round=k)
        sampled = set(logs[-1].client_ids)
        for cid in range(4):
            head_now = (
                state.client_params[cid].segment(net.head_segment).tobytes()
                if cid in state.client_params
                else None
            )
            if cid not in sampled and cid in prev_heads:
                assert head_now == prev_heads[cid]
            prev_heads[cid] = head_now


def test_fedper_assembles_global_body_personal_head(small_fed_data):
    net = small_net(seed=14)
    cfg = fs.FLConfig(
        clients=4, fraction=1.0, local_epochs=1, rounds=4, batch_size=10,
        algorithm="fedper", seed=21,
    )
    state, _ = fs.run_federation(cfg, small_fed_data, net)
    alg = fs.get_algorithm("fedper")
    for cid in range(4):
        assembled = assemble_client_params(state, net, alg, cid)
        body_segs = [i for i in range(net.params.n_segments) if i != net.head_segment]
        for i in body_segs:
            assert np.array_equal(assembled.segment(i), state.global_params.segment(i))
        assert np.array_equal(
            assembled.segment(net.head_segment),
            state.client_params[cid].segment(net.head_segment),
        )


def test_local_only_never_aggregates(small_fed_data):
    net = small_net(seed=15)
    cfg = fs.FLConfig(
        clients=4, fraction=0.5, local_epochs=1, rounds=5, batch_size=10,
        algorithm="local-only", seed=23,
    )
    state, logs = fs.run_federation(cfg, small_fed_data, net)
    assert state.global_params.data.tobytes() == net.params.data.tobytes()
    assert all(l.client_ids == (0, 1, 2, 3) for l in logs)
    assert len(state.client_params) == 4
    # clients genuinely trained: their params moved
    for cid in range(4):
        assert not np.array_equal(state.client_params[cid].data, net.params.data)


def test_never_sampled_client_gets_initialization(small_fed_data):
    net = small_net(seed=16)
    alg = fs.get_algorithm("fedper")
    from fedsim.engine import init_state

    state = init_state(net)
    assembled = assemble_client_params(state, net, alg, 2)
    assert np.array_equal(
        assembled.segment(net.head_segment), state.initial_params.segment(net.head_segment)
    )
