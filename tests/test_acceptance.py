"""Acceptance suite: one test per criterion, each printing a pass line with
the measured values. Run with `pytest tests/test_acceptance.py -v -s`.

Desk-scale reproductions use synthetic Gaussian mixtures; the directional
federated comparisons run N=20 clients, s=2 of 10 classes, f=0.5, tau=2,
with the round budget fixed at rounds*tau = 64.
"""

import json
import time

import numpy as np
import pytest

import fedsim as fs
from fedsim.engine import client_schedule, init_state, stream
from fedsim.evaluation import client_models, personalized_models
from fedsim.params import ParamMask, ParamVector
from tests.conftest import make_federated_data, replay_clients_descending

SEEDS = (0, 1, 2, 3, 4)


def report(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}")


def desk_data(seed, per_class=1000, dim=48, spread=0.6, clients=20, shards=2):
    return make_federated_data(10, per_class, per_class // 5, dim, spread, clients, shards, seed)


def desk_net(seed, dim=48, hidden=64, classes=10, scheme="he_uniform"):
    return fs.init_network(
        [fs.dense(dim, hidden), fs.relu(), fs.dense(hidden, classes)], (dim,),
        fs.InitScheme(scheme, seed + 500),
    )


# ---------------------------------------------------------------------------
# 1. gradient oracle


def test_criterion_1_gradient_oracle():
    t0 = time.time()
    layers = [fs.dense(12, 24), fs.relu(), fs.dense(24, 16), fs.relu(), fs.dense(16, 8)]
    net64 = fs.init_network(layers, (12,), fs.InitScheme("he_uniform", 0))
    net64 = net64.with_params(ParamVector(net64.params.data.astype(np.float64), net64.params.bounds))
    n_params = net64.params.total_len
    assert n_params <= 5000

    def ce_loss(x, y):
        logits, _ = fs.forward(net64, x)
        shifted = logits - logits.max(axis=1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=1))
        return float(np.mean(lse - shifted[np.arange(len(y)), y]))

    rng = np.random.default_rng(99)
    eps = 1e-4
    worst = 0.0
    for _ in range(100):
        x = rng.normal(size=(16, 12))
        y = rng.integers(0, 8, size=16)
        idx = int(rng.integers(0, n_params))
        _, cache = fs.forward(net64, x)
        _, grads = fs.backward(net64, cache, y)
        saved = net64.params.data[idx]
        net64.params.data[idx] = saved + eps
        up = ce_loss(x, y)
        net64.params.data[idx] = saved - eps
        down = ce_loss(x, y)
        net64.params.data[idx] = saved
        fd = (up - down) / (2 * eps)
        g = grads.data[idx]
        rel = abs(g - fd) / max(abs(g), abs(fd), 1e-4)
        worst = max(worst, rel)
    elapsed = time.time() - t0
    assert worst < 1e-3
    assert elapsed < 30
    report(1, f"100 probes, max relative error {worst:.2e} (< 1e-3), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. FedBABU head freeze, including every local output


def test_criterion_2_fedbabu_head_freeze():
    data = desk_data(3, per_class=200, clients=10)
    net = desk_net(3)
    cfg = fs.FLConfig(
        clients=10, fraction=0.5, local_epochs=2, rounds=22, batch_size=50,
        algorithm="fedbabu", seed=3,
    )
    alg = fs.get_algorithm("fedbabu")
    head = net.head_segment
    init_head = net.params.segment(head).tobytes()

    state = init_state(net)
    checked_locals = 0
    for k in range(1, cfg.rounds + 1):
        pre_global = state.global_params.copy()
        state, logs = fs.run_federation(cfg, data, net, state=state, until_round=k)
        assert state.global_params.segment(head).tobytes() == init_head
        # replay this round's local updates and check their heads too
        for cid in logs[-1].client_ids:
            ds = data.client_train(cid)
            count = cfg.local_epochs * int(np.ceil(len(ds) / cfg.batch_size))
            rates = client_schedule(cfg, len(ds)).rates((k - 1) * count, count)
            out, _ = fs.local_update(
                ds, pre_global, net, alg, cfg.local_epochs, cfg.batch_size,
                cfg.momentum, rates, stream(3, 1, k, cid),
            )
            assert out.segment(head).tobytes() == init_head
            checked_locals += 1
    report(2, f"{cfg.rounds} rounds, global + {checked_locals} local outputs bit-equal to the initial head")


# ---------------------------------------------------------------------------
# 3. FedProx reduction


def test_criterion_3_fedprox_mu0_reduces_to_fedavg():
    data = desk_data(5, per_class=200, clients=10)
    net = desk_net(5)
    base = dict(clients=10, fraction=0.5, local_epochs=2, rounds=8, batch_size=50, seed=5)
    prox_state, prox_logs = fs.run_federation(
        fs.FLConfig(algorithm="fedprox", mu=0.0, **base), data, net
    )
    avg_state, avg_logs = fs.run_federation(
        fs.FLConfig(algorithm="fedavg", **base), data, net
    )
    assert prox_state.global_params.data.tobytes() == avg_state.global_params.data.tobytes()
    assert [l.mean_loss for l in prox_logs] == [l.mean_loss for l in avg_logs]
    assert [l.client_ids for l in prox_logs] == [l.client_ids for l in avg_logs]
    report(3, "mu=0 FedProx run bit-identical to FedAvg (params, losses, sampling)")


# ---------------------------------------------------------------------------
# 4. aggregation algebra


def test_criterion_4_aggregation_matches_brute_force():
    rng = np.random.default_rng(123)
    bounds = ((0, 5), (5, 12), (12, 20), (20, 23))
    worst = 0.0
    for trial in range(50):
        updates = [
            (ParamVector(rng.normal(size=23).astype(np.float32), bounds), int(rng.integers(1, 400)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        prev = ParamVector(rng.normal(size=23).astype(np.float32), bounds)
        mask = ParamMask(*sorted(int(i) for i in rng.integers(0, 5, size=2)))
        out = fs.aggregate(updates, prev, mask)
        total = sum(n for _, n in updates)
        for seg in range(4):
            start, end = bounds[seg]
            if seg not in mask.selected():
                assert out.segment(seg).tobytes() == prev.segment(seg).tobytes()
                continue
            for j in range(start, end):
                acc = 0.0
                for theta, n in updates:
                    acc += (n / total) * float(theta.data[j])
                worst = max(worst, abs(float(out.data[j]) - acc))
    assert worst < 1e-6
    report(4, f"50 random draws, max |vectorized - per-scalar| = {worst:.2e} (< 1e-6); masked-out bit-copied")


# ---------------------------------------------------------------------------
# 5. partition invariants


def test_criterion_5_partition_invariants():
    (ds,) = fs.synthetic_gaussian(10, (5000,), 10, 0.0, seed=0)  # |D| = 50_000
    spec = fs.PartitionSpec("shard", clients=100, shards_per_client=2, seed=7)
    splits = fs.partition(ds, spec)
    sizes = {len(s.train_indices) for s in splits}
    assert sizes == {2 * (50_000 // 200)}
    all_idx = np.concatenate([s.train_indices for s in splits])
    assert len(np.unique(all_idx)) == len(all_idx)
    max_classes = max(len(np.unique(ds.labels[s.train_indices])) for s in splits)
    assert max_classes <= 2
    again = fs.partition(ds, spec)
    assert all(np.array_equal(a.train_indices, b.train_indices) for a, b in zip(splits, again))

    dspec = fs.PartitionSpec("dirichlet", clients=30, beta=0.4, seed=11)
    dsplits = fs.partition(ds, dspec)
    for c in range(10):
        total_c = sum(int((ds.labels[s.train_indices] == c).sum()) for s in dsplits)
        assert total_c == 5000
    dagain = fs.partition(ds, dspec)
    assert all(np.array_equal(a.train_indices, b.train_indices) for a, b in zip(dsplits, dagain))
    report(5, "shard splits disjoint/size-exact/<=s classes; Dirichlet conserves per class; both deterministic")


# ---------------------------------------------------------------------------
# 6. orthogonality of random initialization


def test_criterion_6_head_orthogonality():
    t0 = time.time()

    def head_mean(d, scheme, seed):
        net = fs.init_network([fs.dense(d, 10)], (d,), fs.InitScheme(scheme, seed))
        return fs.head_orthogonality_stats(net)[0]

    at_1024 = np.mean([head_mean(1024, "he_uniform", s) for s in range(30)])
    assert at_1024 < 0.05

    curve = []
    for d in (64, 256, 1024, 4096):
        curve.append(np.mean([head_mean(d, "he_uniform", s) for s in range(30)]))
    assert all(curve[i] >= curve[i + 1] for i in range(3))

    sims = []
    for s in range(10):
        net = fs.init_network([fs.dense(64, 10)], (64,), fs.InitScheme("similar", s))
        w = net.head_weights().astype(np.float64)
        iu = np.triu_indices(10, k=1)
        sims.append(float((w @ w.T)[iu].mean()))
    elapsed = time.time() - t0
    assert np.mean(sims) > 0.9
    assert elapsed < 10
    report(
        6,
        f"he_uniform mean|cos|@1024 = {at_1024:.4f} (< 0.05); curve {['%.4f' % c for c in curve]} "
        f"non-increasing; similar cos = {np.mean(sims):.3f} (> 0.9); {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 7. frozen-head comparability in the centralized setting


def test_criterion_7_centralized_update_parts():
    t0 = time.time()
    dim, hidden, spread, epochs = 64, 16, 0.45, 40

    def run_part(part, scheme):
        finals = []
        for seed in SEEDS:
            train, test = fs.synthetic_gaussian(10, (400, 100), dim, spread, seed)
            net = fs.init_network(
                [fs.dense(dim, hidden), fs.relu(), fs.dense(hidden, 10)], (dim,),
                fs.InitScheme(scheme, seed + 1000),
            )
            curve = fs.centralized_train(net, train, test, part, epochs, 0.1, seed=seed, batch_size=50)
            finals.append(curve[-1])
        return 100 * float(np.mean(finals))

    full = run_part("full", "he_uniform")
    body = run_part("body", "he_uniform")
    head = run_part("head", "he_uniform")
    body_similar = run_part("body", "similar")
    elapsed = time.time() - t0

    assert abs(full - body) < 3.0
    assert full - head > 10.0
    assert body - body_similar > 3.0
    assert elapsed < 600
    report(
        7,
        f"full={full:.1f} body={body:.1f} (gap {abs(full - body):.1f} < 3), head={head:.1f} "
        f"(trails {full - head:.1f} > 10), similar-head body={body_similar:.1f} "
        f"(trails {body - body_similar:.1f} > 3); {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 8 + 11. personalization directional claims and inter-client cosine


@pytest.fixture(scope="module")
def desk_runs():
    """The criterion-8 federated runs: N=20, s=2, f=0.5, tau=2, K*tau=64."""
    ft_lr = 0.005
    results = {}
    models_seed0 = {}
    for alg in ("fedavg", "fedbabu"):
        per_seed = []
        for seed in SEEDS:
            data = desk_data(seed)
            net = desk_net(seed)
            cfg = fs.FLConfig(
                clients=20, fraction=0.5, local_epochs=2, rounds=32, batch_size=50,
                algorithm=alg, seed=seed,
            )
            state, _ = fs.run_federation(cfg, data, net)
            models = client_models(state, net, fs.get_algorithm(alg), 20)
            initial = fs.initial_accuracy(models, net, data)
            (p1,) = fs.personalized_accuracy(models, net, data, "full", [1], ft_lr, seed, batch_size=50)
            (p5,) = fs.personalized_accuracy(models, net, data, "full", [5], ft_lr, seed, batch_size=50)
            per_seed.append((initial.mean, p1.mean, p5.mean))
            if seed == 0:
                models_seed0[alg] = (net, data, models)
        results[alg] = np.array(per_seed)
    return results, models_seed0, ft_lr


def test_criterion_8_personalization_directional(desk_runs):
    t0 = time.time()
    results, _, _ = desk_runs
    fa, fb = results["fedavg"] * 100, results["fedbabu"] * 100

    # (a) personalization helps both algorithms, every seed
    assert np.all(fa[:, 2] > fa[:, 0])
    assert np.all(fb[:, 2] > fb[:, 0])
    # (b) FedBABU at least matches FedAvg, and strictly wins in >= 3/5 seeds
    margin = fb[:, 2].mean() - fa[:, 2].mean()
    wins = int((fb[:, 2] > fa[:, 2]).sum())
    assert fb[:, 2].mean() >= fa[:, 2].mean() - 0.5
    assert wins >= 3
    # (c) FedBABU personalizes rapidly: one epoch within 5 points of five
    speed_gap = abs(fb[:, 2].mean() - fb[:, 1].mean())
    assert speed_gap < 5.0
    report(
        8,
        f"FedAvg init={fa[:, 0].mean():.1f} pers={fa[:, 2].mean():.1f}; "
        f"FedBABU init={fb[:, 0].mean():.1f} pers={fb[:, 2].mean():.1f} "
        f"(margin {margin:+.2f}, wins {wins}/5); tau_f=1 gap {speed_gap:.1f} < 5 "
        f"(checks in {time.time() - t0:.1f}s after shared runs)",
    )


def test_criterion_11_interclient_head_cosine(desk_runs):
    _, models_seed0, ft_lr = desk_runs
    net, data, models = models_seed0["fedbabu"]
    before = fs.interclient_cosine(models)
    assert before[net.head_segment] == 1.0

    (tuned,) = personalized_models(models, net, data, "full", [5], ft_lr, 0, batch_size=50)
    after = fs.interclient_cosine(tuned)
    head_cos = after[net.head_segment]
    body_cos = float(np.mean([c for i, c in enumerate(after) if i != net.head_segment]))
    assert head_cos < body_cos
    report(
        11,
        f"head cosine before fine-tuning = 1.0 exactly; after 5 epochs head={head_cos:.4f} "
        f"< body={body_cos:.4f}",
    )


# ---------------------------------------------------------------------------
# 9. template predictions


def test_criterion_9_template_constraints():
    # two-shard clients: predictions must stay inside each client's classes
    data = desk_data(9, per_class=200, clients=10)
    net = desk_net(9)
    cfg = fs.FLConfig(
        clients=10, fraction=1.0, local_epochs=1, rounds=4, batch_size=50,
        algorithm="fedbabu", seed=9,
    )
    state, _ = fs.run_federation(cfg, data, net)
    models = client_models(state, net, fs.get_algorithm("fedbabu"), 10)
    for cid in range(10):
        working = net.with_params(models[cid])
        train_ds = data.client_train(cid)
        tset = fs.TemplateSet.of(fs.representations(working, train_ds.samples), train_ds.labels)
        preds = tset.classify(fs.representations(working, data.client_test(cid).samples))
        train_classes = set(np.unique(train_ds.labels).tolist())
        assert set(preds.tolist()) <= train_classes

    # single-class clients with matched tests: template accuracy is exactly 1
    single = make_federated_data(10, 100, 20, 16, 0.5, clients=10, shards_per_client=1, seed=91)
    net1 = fs.init_network(
        [fs.dense(16, 24), fs.relu(), fs.dense(24, 10)], (16,), fs.InitScheme("he_uniform", 91)
    )
    rep = fs.template_accuracy([net1.params.copy() for _ in range(10)], net1, single)
    assert np.all(rep.accuracies == 1.0)
    report(9, "all template predictions within client train classes; single-class clients exactly 100%")


# ---------------------------------------------------------------------------
# 10. tau_f = 0 identity for every algorithm


def test_criterion_10_tauf0_identity():
    data = desk_data(10, per_class=200, clients=8, shards=2)
    checked = []
    for alg_name in sorted(fs.ALGORITHMS):
        net = desk_net(10)
        cfg = fs.FLConfig(
            clients=8, fraction=0.5, local_epochs=1, rounds=4, batch_size=50,
            algorithm=alg_name, seed=10,
        )
        state, _ = fs.run_federation(cfg, data, net)
        models = client_models(state, net, fs.get_algorithm(alg_name), 8)
        rule = (
            "sequential_head_then_body"
            if fs.get_algorithm(alg_name).local_rule == "sequential_head_then_body"
            else "joint"
        )
        initial = fs.initial_accuracy(models, net, data)
        (tf0,) = fs.personalized_accuracy(models, net, data, "full", [0], 0.001, 10, batch_size=50, rule=rule)
        assert tf0.accuracies.tobytes() == initial.accuracies.tobytes()
        checked.append(alg_name)
    report(10, f"tau_f=0 personalized report bit-equals initial report for {', '.join(checked)}")


# ---------------------------------------------------------------------------
# 12. determinism and client-order independence at the artifact level


def test_criterion_12_determinism_and_client_order(tmp_path):
    from fedsim.cli import main
    from fedsim.experiment import ExperimentConfig, prepare

    cfg = {
        "name": "det",
        "seed": 4,
        "out": str(tmp_path / "a"),
        "dataset": {"kind": "synthetic", "classes": 6, "per_class": 60, "test_per_class": 12, "dim": 12, "spread": 0.5},
        "network": {"kind": "mlp", "hidden": [16]},
        "partition": {"mode": "shard", "shards_per_client": 2, "test_mode": "matched"},
        "federation": {"algorithm": "fedbabu", "clients": 6, "fraction": 0.5, "local_epochs": 2, "rounds": 6, "batch_size": 10},
        "eval": {"finetune_epochs": [0, 2], "part": "full", "template": True},
    }
    paths = {}
    for tag in ("a", "b"):
        cfg["out"] = str(tmp_path / tag)
        p = tmp_path / f"{tag}.json"
        p.write_text(json.dumps(cfg))
        assert main(["train", "--config", str(p)]) == 0
        assert main(["eval", "--config", str(p)]) == 0
        paths[tag] = tmp_path / tag

    ckpt = lambda d: (d / "checkpoint.pv").read_bytes()
    assert ckpt(paths["a"]) == ckpt(paths["b"])
    for stem in ("initial", "personalized_tf0", "personalized_tf2", "template"):
        ref = (paths["a"] / "eval" / f"{stem}.csv").read_bytes()
        assert (paths["b"] / "eval" / f"{stem}.csv").read_bytes() == ref

    # the same rounds with every client replayed in descending id order
    fl_cfg, data, template = prepare(ExperimentConfig.load(p))
    replayed = replay_clients_descending(fl_cfg, data, template)
    assert replayed.global_params.to_blob() == ckpt(paths["a"])
    report(12, "same-seed reruns are bit-identical in checkpoints and eval reports; "
               "a descending-client-order replay reproduces the checkpoint")
