import numpy as np
import pytest

import fedsim as fs
import fedsim.experiment  # noqa: F401 -- the autouse fixture reads its memo
from fedsim.params import ParamVector


@pytest.fixture(autouse=True)
def no_run_data_kept():
    """Each test starts with no run data kept from an earlier one: data
    built under a test's monkeypatched builder must not reach a later test
    of the same config hash."""
    fs.experiment._data_memo.clear()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def mlp_net():
    layers = [fs.dense(6, 10), fs.relu(), fs.dense(10, 8), fs.relu(), fs.dense(8, 4)]
    return fs.init_network(layers, (6,), fs.InitScheme("he_uniform", 7))


@pytest.fixture
def conv_net():
    layers = [
        fs.conv2d(2, 3, 3, padding=1),
        fs.relu(),
        fs.maxpool2d(2),
        fs.flatten(),
        fs.dense(3 * 2 * 2, 3),
    ]
    return fs.init_network(layers, (2, 4, 4), fs.InitScheme("he_uniform", 3))


def vec(values, bounds=None):
    data = np.asarray(values, dtype=np.float32)
    return ParamVector(data, bounds or ((0, len(data)),))


def small_net(seed=0, dim=8, classes=4):
    return fs.init_network(
        [fs.dense(dim, 12), fs.relu(), fs.dense(12, classes)], (dim,),
        fs.InitScheme("he_uniform", seed),
    )


def make_federated_data(
    classes=4,
    per_class=60,
    test_per_class=20,
    dim=8,
    spread=0.3,
    clients=4,
    shards_per_client=2,
    seed=0,
    test_mode="matched",
):
    """Small synthetic federation shared by the engine/eval tests."""
    train, test = fs.synthetic_gaussian(classes, (per_class, test_per_class), dim, spread, seed)
    spec = fs.PartitionSpec("shard", clients=clients, shards_per_client=shards_per_client, seed=seed)
    splits = fs.partition(train, spec)
    splits = fs.split_client_test(train, test, splits, test_mode, seed=seed)
    return fs.FederatedData(train, test, splits)


def nan_aggregate(monkeypatch):
    """Has ``engine.aggregate`` return NaNs, so the first step to see the
    aggregate, the server epoch's, meets a non-finite loss."""
    aggregate = fs.engine.aggregate

    def nan(*args):
        out = aggregate(*args)
        out.data[:] = np.nan
        return out

    monkeypatch.setattr(fs.engine, "aggregate", nan)


@pytest.fixture
def small_fed_data():
    return make_federated_data()


def replay_clients_descending(cfg, data, template):
    """Reference for run_federation: each round's sampled clients are replayed
    one at a time through local_update in descending id order, then
    aggregated in ascending order; for Ditto, each client's personal pass
    runs after its global one, a FedAvg update, as a train_epochs call of
    its own, pulled toward the broadcast model, rather than in
    local_update's shared stack.
    Covers single-phase federated algorithms without a server pool."""
    from fedsim.engine import (
        assemble_client_params,
        client_schedule,
        init_state,
        iterations_per_epoch,
        stream,
        train_epochs,
    )

    alg = fs.get_algorithm(cfg.algorithm)
    assert alg.federated and not alg.two_phase_lg
    assert cfg.server_share == 0
    ditto = alg.local_rule == "ditto"
    state = init_state(template)
    for k in range(1, cfg.rounds + 1):
        sampled = fs.sample_clients(cfg.clients, cfg.fraction, stream(cfg.seed, 0, k))
        updates, personals = {}, {}
        for cid in sorted(sampled, reverse=True):
            ds = data.client_train(cid)
            count = cfg.local_epochs * iterations_per_epoch(len(ds), cfg.batch_size)
            rates = client_schedule(cfg, len(ds)).rates((k - 1) * count, count)
            start = (
                state.global_params
                if ditto
                else assemble_client_params(state, template, alg, cid)
            )
            theta, _ = fs.local_update(
                ds, start, template, fs.get_algorithm("fedavg") if ditto else alg,
                cfg.local_epochs, cfg.batch_size, cfg.momentum,
                rates, stream(cfg.seed, 1, k, cid),
                mu=cfg.mu, perfedavg_alpha=cfg.perfedavg_alpha,
            )
            updates[cid] = (theta, len(ds))
            if ditto:
                personal = state.client_params.get(cid, state.initial_params).copy()
                train_epochs(
                    ds, personal.as_stack(), template, "full", cfg.local_epochs,
                    cfg.batch_size, cfg.momentum, [rates], [stream(cfg.seed, 1, k, cid, 1)],
                    [np.arange(len(ds))], prox=(cfg.lam, start.as_stack()),
                )
                personals[cid] = personal
        state.global_params = fs.aggregate(
            [updates[cid] for cid in sorted(updates)],
            state.global_params,
            template.mask_for(alg.aggregate_part),
        )
        if alg.persistent_part is not None:
            for cid, (theta, _) in updates.items():
                state.client_params[cid] = personals.get(cid, theta)
        state.round = k
    return state
