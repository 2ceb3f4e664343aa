"""Evaluation protocol: reports, fine-tuning, templates, in/out splits,
inter-client similarity, and the centralized baseline loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedsim as fs
import fedsim.evaluation as evaluation
from fedsim.engine import GROUP_BYTES, NumericError, client_groups, eval_stream, train_epochs
from fedsim.evaluation import (
    EvalError,
    EvalReport,
    accuracy,
    client_models,
    personalized_models,
)
from fedsim.experiment import ExperimentConfig, prepare, run_eval, run_train
from fedsim.params import ParamVector
from tests.conftest import make_federated_data, small_net
from tests.test_golden import BASE


def run_small(algorithm="fedavg", seed=0, data=None, rounds=6, **kw):
    data = data or make_federated_data(seed=seed)
    net = small_net(seed=seed)
    cfg = fs.FLConfig(
        clients=4, fraction=1.0, local_epochs=1, rounds=rounds, batch_size=10,
        algorithm=algorithm, seed=seed, **kw,
    )
    state, _ = fs.run_federation(cfg, data, net)
    models = client_models(state, net, fs.get_algorithm(algorithm), 4)
    return net, data, state, models


def tune_alone(params, net, part, tf, lr, ds, rng, rule="joint"):
    """One client's fine-tune alone, as ``personalized_models`` runs each
    of its rows: ``local_update`` at the constant rate ``lr``, B=10."""
    tuned, _ = fs.local_update(
        ds, params, net, fs.AlgorithmSpec("fine-tune", part, part, rule), tf, 10, 0.9,
        lr, rng,
    )
    return tuned


def test_report_mean_std_consistency():
    rep = EvalReport.from_accuracies([0.5, 0.75, 1.0])
    assert abs(np.mean(rep.accuracies) - rep.mean) < 1e-9
    assert abs(np.std(rep.accuracies) - rep.std) < 1e-9  # population std


def test_report_handles_absent_entries():
    rep = EvalReport.from_accuracies([0.5, float("nan"), 1.0])
    assert rep.mean == pytest.approx(0.75)
    assert not np.isnan(rep.std)


def test_initial_accuracy_read_only_and_repeatable():
    net, data, state, models = run_small()
    before = [m.data.tobytes() for m in models]
    r1 = fs.initial_accuracy(models, net, data)
    r2 = fs.initial_accuracy(models, net, data)
    assert np.array_equal(r1.accuracies, r2.accuracies)
    assert [m.data.tobytes() for m in models] == before


def test_finetune_zero_epochs_identity():
    net, data, state, models = run_small()
    for alg_name in ("fedavg", "fedbabu", "fedprox", "fedper", "fedrep", "ditto"):
        rule = (
            "sequential_head_then_body"
            if fs.get_algorithm(alg_name).local_rule == "sequential_head_then_body"
            else "joint"
        )
        initial = fs.initial_accuracy(models, net, data)
        (personalized,) = fs.personalized_accuracy(
            models, net, data, "full", [0], 0.01, seed=3, batch_size=10, rule=rule
        )
        assert personalized.accuracies.tobytes() == initial.accuracies.tobytes()


def test_finetune_body_keeps_head_bits():
    net, data, state, models = run_small()
    from fedsim.engine import eval_stream

    tuned = tune_alone(models[0], net, "body", 3, 0.05, data.client_train(0), eval_stream(1, 0))
    head = net.head_segment
    assert tuned.segment(head).tobytes() == models[0].segment(head).tobytes()
    assert not np.array_equal(tuned.segment(0), models[0].segment(0))


def test_finetune_overfits_tiny_client():
    # run to convergence on one small client: train accuracy reaches 100%
    data = make_federated_data(per_class=15, clients=3, classes=3, dim=8, spread=0.25, shards_per_client=1, seed=4)
    net = small_net(seed=4, classes=3)
    from fedsim.engine import eval_stream

    tuned = tune_alone(net.params, net, "full", 60, 0.05, data.client_train(0), eval_stream(4, 0))
    train_acc = accuracy(net.with_params(tuned), data.client_train(0))[0]
    assert train_acc == 1.0


def test_personalization_improves_on_heterogeneous_clients():
    net, data, state, models = run_small(rounds=10, seed=6)
    initial = fs.initial_accuracy(models, net, data)
    (personalized,) = fs.personalized_accuracy(
        models, net, data, "full", [5], 0.05, seed=6, batch_size=10
    )
    assert personalized.mean > initial.mean


def test_personalization_gap_grows_with_heterogeneity():
    # fewer shards per client -> fewer classes each -> easier local tasks,
    # so fine-tuning buys much more at s=2 than at s=10
    def gap(shards, seed):
        data = make_federated_data(
            classes=10, per_class=500, test_per_class=100, dim=48, spread=0.6,
            clients=20, shards_per_client=shards, seed=seed,
        )
        net = fs.init_network(
            [fs.dense(48, 64), fs.relu(), fs.dense(64, 10)], (48,), fs.InitScheme("he_uniform", seed + 40)
        )
        cfg = fs.FLConfig(
            clients=20, fraction=0.5, local_epochs=2, rounds=32, batch_size=50,
            algorithm="fedavg", seed=seed,
        )
        state, _ = fs.run_federation(cfg, data, net)
        models = client_models(state, net, fs.get_algorithm("fedavg"), 20)
        init = fs.initial_accuracy(models, net, data).mean
        (pers,) = fs.personalized_accuracy(models, net, data, "full", [5], 0.005, seed, batch_size=50)
        return pers.mean - init

    heterogeneous = np.mean([gap(2, s) for s in (0, 1)])
    homogeneous = np.mean([gap(10, s) for s in (0, 1)])
    assert heterogeneous > homogeneous + 0.05


def test_fedbabu_head_only_finetune_matches_full():
    # with a frozen-head-trained body, tuning the head alone personalizes
    # about as well as tuning everything; body-only clearly trails
    data = make_federated_data(
        classes=10, per_class=500, test_per_class=100, dim=48, spread=0.6,
        clients=20, shards_per_client=2, seed=30,
    )
    net = fs.init_network(
        [fs.dense(48, 64), fs.relu(), fs.dense(64, 10)], (48,), fs.InitScheme("he_uniform", 530)
    )
    cfg = fs.FLConfig(
        clients=20, fraction=0.5, local_epochs=2, rounds=32, batch_size=50,
        algorithm="fedbabu", seed=30,
    )
    state, _ = fs.run_federation(cfg, data, net)
    models = client_models(state, net, fs.get_algorithm("fedbabu"), 20)
    (full,) = fs.personalized_accuracy(models, net, data, "full", [5], 0.005, 30, batch_size=50)
    (head,) = fs.personalized_accuracy(models, net, data, "head", [5], 0.005, 30, batch_size=50)
    (body,) = fs.personalized_accuracy(models, net, data, "body", [5], 0.005, 30, batch_size=50)
    assert abs(head.mean - full.mean) < 0.02
    assert body.mean < head.mean - 0.05


def test_personalized_accuracy_deterministic():
    net, data, state, models = run_small()
    (a,) = fs.personalized_accuracy(models, net, data, "full", [2], 0.05, seed=9, batch_size=10)
    (b,) = fs.personalized_accuracy(models, net, data, "full", [2], 0.05, seed=9, batch_size=10)
    assert a.accuracies.tobytes() == b.accuracies.tobytes()


# --- one fine-tune pass for every tau_f ---------------------------------------


def dirichlet_data(test_sizes=None, seed=0, image=False):
    """Dirichlet(0.5) train splits over 6 clients, of sizes 62, 75, 26, 29,
    30 and 18. Test splits are matched (sizes 12, 15, 5, 5, 6 and 3), or
    drawn from the whole test set at ``test_sizes``, which holds labels
    outside a client's train classes. ``image`` reshapes the 16-dim samples
    to 1x4x4 images."""
    data = make_federated_data(seed=seed, dim=16 if image else 8)
    if image:
        data.train, data.test = (
            fs.LabeledDataset(ds.samples.reshape(-1, 1, 4, 4), ds.labels, ds.num_classes)
            for ds in (data.train, data.test)
        )
    spec = fs.PartitionSpec("dirichlet", clients=6, beta=0.5, seed=seed)
    splits = fs.partition(data.train, spec)
    if test_sizes is None:
        splits = fs.split_client_test(data.train, data.test, splits, "matched", seed=seed)
    else:
        rng = np.random.default_rng(seed)
        for split, n in zip(splits, test_sizes):
            split.test_indices = np.sort(rng.choice(len(data.test), n, replace=False))
    return fs.FederatedData(data.train, data.test, splits)


def noisy_models(net, clients, seed):
    noise = np.random.default_rng(seed).standard_normal((clients, net.params.total_len))
    return [ParamVector(net.params.data + np.float32(0.1) * row.astype(np.float32),
                        net.params.bounds) for row in noise]


@pytest.mark.parametrize("part", ["body", "head", "full"])
@pytest.mark.parametrize("sizes", ["equal", "dirichlet"])
def test_one_pass_snapshots_equal_separate_finetunes(part, sizes):
    data = make_federated_data(seed=20) if sizes == "equal" else dirichlet_data()
    n = len(data.splits)
    train_sizes = {len(split.train_indices) for split in data.splits}
    if sizes == "dirichlet":  # partial batches, and epochs that end at different steps
        assert len(train_sizes) > 1 and any(size % 10 for size in train_sizes)
    net = small_net(seed=20, dim=data.train.sample_shape[0])
    models = noisy_models(net, n, seed=20)
    assert client_groups(range(n), net, 10) == [tuple(range(n))]  # one lockstep group
    tfs = [3, 0, 1, 4, 1]
    snapshots = personalized_models(models, net, data, part, tfs, 0.05, seed=5, batch_size=10)
    for tf, tuned in zip(tfs, snapshots):
        for cid in range(n):
            alone = tune_alone(
                models[cid], net, part, tf, 0.05, data.client_train(cid), eval_stream(5, cid)
            )
            assert tuned[cid].data.tobytes() == alone.data.tobytes(), (tf, cid)


def test_sequential_rule_finetunes_once_per_tf(monkeypatch):
    # FedRep's body epoch follows all its head epochs, so a shorter
    # fine-tune is no prefix of a longer one
    data = make_federated_data(seed=21)
    net = small_net(seed=21)
    models = noisy_models(net, 4, seed=21)
    calls = []
    local_update = evaluation.local_update

    def counting(*args, **kwargs):
        calls.append(args[4])  # the epoch count
        return local_update(*args, **kwargs)

    monkeypatch.setattr(evaluation, "local_update", counting)
    rule = "sequential_head_then_body"
    tfs = [2, 0, 1]
    tuned = personalized_models(models, net, data, "full", tfs, 0.05, 6, batch_size=10, rule=rule)
    assert calls == [1, 2]  # one group, one fine-tune per positive tau_f
    for tf, models_tf in zip(tfs, tuned):
        for cid in range(4):
            alone = tune_alone(
                models[cid], net, "full", tf, 0.05, data.client_train(cid), eval_stream(6, cid),
                rule=rule,
            )
            assert models_tf[cid].data.tobytes() == alone.data.tobytes(), (tf, cid)
    calls.clear()
    personalized_models(models, net, data, "full", tfs, 0.05, 6, batch_size=10)
    assert calls == [2]  # the joint rule: one fine-tune to the largest tau_f


def test_finetune_error_names_the_tf_whose_epochs_hold_it(monkeypatch):
    # client 1 fails in its second epoch: within tau_f 3, not 1
    data = make_federated_data(seed=22)
    net = small_net(seed=22)
    local_update = evaluation.local_update

    def failing(*args, on_epoch, **kwargs):
        def end(row, params, momentum):
            on_epoch(row, params, momentum)
            if row == 1:
                raise NumericError("non-finite loss", row)

        return local_update(*args, on_epoch=end, **kwargs)

    monkeypatch.setattr(evaluation, "local_update", failing)
    models = [net.params.copy() for _ in range(4)]
    with pytest.raises(NumericError) as exc:
        personalized_models(models, net, data, "full", [5, 1, 3], 0.05, 0, batch_size=10)
    assert str(exc.value) == "fine-tune tf=3, client 1: non-finite loss"


# --- stacked report passes -------------------------------------------------------


def one_client_reports(models, net, data, tuned):
    """Every report's accuracies, one network per client: the reference the
    stacked passes must equal byte for byte. ``tuned`` holds fine-tuned models."""
    rows = []
    for cid, params in enumerate(models):
        working = net.with_params(params)
        train_ds, test_ds = data.client_train(cid), data.client_test(cid)
        reps = fs.representations(working, test_ds.samples)
        tset = fs.TemplateSet.of(fs.representations(working, train_ds.samples), train_ds.labels)
        correct = fs.forward(working, test_ds.samples)[0].argmax(axis=1) == test_ds.labels
        seen = np.isin(test_ds.labels, train_ds.labels)
        rows.append([
            accuracy(working, test_ds)[0],
            accuracy(net.with_params(tuned[cid]), test_ds)[0],
            float((tset.classify(reps) == test_ds.labels).mean()),
            correct[seen].mean() if seen.any() else np.nan,
            correct[~seen].mean() if (~seen).any() else np.nan,
        ])
    return np.array(rows).T


def conv_net(seed):
    return fs.init_network(
        [fs.conv2d(1, 3, 3, padding=1), fs.relu(), fs.maxpool2d(2), fs.flatten(),
         fs.dense(3 * 2 * 2, 4)],
        (1, 4, 4), fs.InitScheme("he_uniform", seed),
    )


@pytest.mark.parametrize("kind", ["mlp", "conv", "capped"])
def test_stacked_reports_equal_one_client_passes(kind, monkeypatch):
    test_sizes = [30, 45, 30, 12, 45, 30]  # sizes that repeat and differ
    data = dirichlet_data(test_sizes, image=kind == "conv")
    if kind == "conv":
        net = conv_net(seed=23)
    elif kind == "mlp":
        net = small_net(seed=23)
    else:  # a hidden layer so wide that one client's test pass fills the cap
        wide = GROUP_BYTES // (4 * 2 * min(test_sizes)) + 1
        net = fs.init_network(
            [fs.dense(8, wide), fs.relu(), fs.dense(wide, 4)], (8,), fs.InitScheme("he_uniform", 23)
        )
    models = noisy_models(net, 6, seed=23)
    # clients of every size stack together, capped at the largest set
    stacks = client_groups(range(6), net, max(test_sizes))
    if kind == "capped":
        assert all(len(ids) == 1 for ids in stacks)
    else:
        assert stacks == [tuple(range(6))]

    forwards = []
    forward = evaluation.forward
    monkeypatch.setattr(
        evaluation, "forward",
        lambda net, batch, runs=None: forwards.append(len(batch)) or forward(net, batch, runs),
    )
    initial = fs.initial_accuracy(models, net, data)
    assert len(forwards) == len(stacks)
    monkeypatch.undo()
    reports = fs.personalized_accuracy(models, net, data, "full", [0, 2], 0.05, 7, batch_size=10)
    template = fs.template_accuracy(models, net, data)
    in_class, out_class = fs.in_out_class_accuracy(models, net, data)
    tuned = [
        tune_alone(models[cid], net, "full", 2, 0.05, data.client_train(cid), eval_stream(7, cid))
        for cid in range(6)
    ]
    want = one_client_reports(models, net, data, tuned)
    assert not np.isnan(want[4]).all()  # some test labels are out of class
    for got, expected in zip(
        [initial, reports[1], template, in_class, out_class], [want[0], *want[1:]]
    ):
        assert got.accuracies.tobytes() == expected.tobytes()
    assert reports[0].accuracies.tobytes() == want[0].tobytes()


def test_run_eval_runs_one_body_pass_per_test_group(tmp_path, monkeypatch):
    # the initial, template and in/out reports all read one forward pass
    # over the test sets; only the train-set templates run representations
    cfg = ExperimentConfig.from_dict({
        "out": str(tmp_path / "run"),
        "dataset": {"classes": 4, "per_class": 30, "test_per_class": 10, "dim": 8},
        "partition": {"mode": "shard", "shards_per_client": 2, "test_mode": "global"},
        "federation": {"clients": 4, "rounds": 1, "local_epochs": 1, "batch_size": 10},
        "eval": {"finetune_epochs": [0], "template": True},
    })
    run_train(cfg)
    monkeypatch.setattr(fs.engine, "GROUP_BYTES", 1)  # one client per group
    passes = {"forward": [], "representations": []}
    for name, calls in passes.items():

        def counted(net, batch, runs=None, _run=getattr(evaluation, name), _calls=calls):
            _calls.append(len(batch))
            return _run(net, batch, runs)

        monkeypatch.setattr(evaluation, name, counted)
    reports = run_eval(cfg)
    assert {"initial", "template", "in_class", "out_class"} <= set(reports)
    _, data, _ = prepare(cfg)
    assert passes == {
        "forward": [len(s.test_indices) for s in data.splits],
        "representations": [len(s.train_indices) for s in data.splits],
    }


@pytest.mark.parametrize("algorithm,distinct", [("fedrep", 1), ("fedavg", 3)])
def test_fedrep_fine_tune_ignores_eval_part(tmp_path, algorithm, distinct):
    # FedRep fine-tunes the head for tau_f epochs, then the body for one, whatever
    # eval.part says, and its report names that part; FedAvg's follows the part
    raw = {**BASE, "out": str(tmp_path), "federation": {**BASE["federation"], "algorithm": algorithm}}
    run_train(ExperimentConfig.from_dict(raw))
    tuned = set()
    for part in ("full", "head", "body"):
        reports = run_eval(ExperimentConfig.from_dict({**raw, "eval": {**BASE["eval"], "part": part}}))
        assert reports["personalized_tf2"].part == part
        tuned.add((tmp_path / "eval" / "personalized_tf2.csv").read_bytes())
    assert len(tuned) == distinct


# --- templates ------------------------------------------------------------------


def test_template_predictions_stay_in_train_classes():
    net, data, state, models = run_small(algorithm="fedbabu", seed=7)
    for cid, params in enumerate(models):
        working = net.with_params(params)
        train_ds = data.client_train(cid)
        tset = fs.TemplateSet.of(fs.representations(working, train_ds.samples), train_ds.labels)
        reps = fs.representations(working, data.client_test(cid).samples)
        preds = tset.classify(reps)
        train_classes = set(np.unique(train_ds.labels).tolist())
        assert set(preds.tolist()) <= train_classes


def test_template_single_class_client_is_perfect():
    # one shard per client: every client holds exactly one class
    data = make_federated_data(classes=4, clients=4, shards_per_client=1, per_class=40, seed=8)
    net = small_net(seed=8)
    models = [net.params.copy() for _ in range(4)]
    rep = fs.template_accuracy(models, net, data)
    assert np.all(rep.accuracies == 1.0)


def test_untrained_single_class_clients_chance_vs_template():
    # the raw argmax still ranges over all C classes, so an untrained net
    # scores near 1/C on a one-class client, while templates built from the
    # client's own data are pinned to its class and score 100%
    data = make_federated_data(classes=8, clients=8, shards_per_client=1, per_class=80,
                               dim=16, spread=0.4, seed=21)
    net = fs.init_network(
        [fs.dense(16, 24), fs.relu(), fs.dense(24, 8)], (16,), fs.InitScheme("he_uniform", 21)
    )
    models = [net.params.copy() for _ in range(8)]
    initial = fs.initial_accuracy(models, net, data)
    template = fs.template_accuracy(models, net, data)
    assert initial.mean < 0.5  # chance-level territory, far from the template's 1.0
    assert np.all(template.accuracies == 1.0)


def test_template_identity_body_zero_spread():
    # head-only network: the representation is the raw input; zero spread
    # makes per-class templates exact, so matched tests classify perfectly
    data = make_federated_data(classes=4, clients=4, shards_per_client=2, spread=0.0, seed=9)
    net = fs.init_network([fs.dense(8, 4)], (8,), fs.InitScheme("he_uniform", 9))
    models = [net.params.copy() for _ in range(4)]
    rep = fs.template_accuracy(models, net, data)
    assert np.all(rep.accuracies == 1.0)


def test_template_zero_vector_never_selected():
    classes = np.array([0, 1])
    templates = np.array([[0.0, 0.0], [1.0, 0.0]])
    tset = fs.TemplateSet(classes, templates)
    preds = tset.classify(np.array([[0.5, 0.5], [-1.0, 0.3]]))
    assert np.all(preds == 1)


# --- in/out-of-class ---------------------------------------------------------------


def test_in_out_counts_partition_test_set():
    data = make_federated_data(test_mode="global", seed=10)
    net = small_net(seed=10)
    models = [net.params.copy() for _ in range(4)]
    rep_in, rep_out = fs.in_out_class_accuracy(models, net, data)
    for cid in range(4):
        test_ds = data.client_test(cid)
        train_classes = np.unique(data.client_train(cid).labels)
        n_in = int(np.isin(test_ds.labels, train_classes).sum())
        assert 0 < n_in < len(test_ds)
    assert not np.isnan(rep_in.accuracies).any()
    assert not np.isnan(rep_out.accuracies).any()


def test_in_out_all_classes_client_has_no_out():
    data = make_federated_data(classes=3, clients=3, shards_per_client=3, test_mode="global", seed=11)
    net = small_net(seed=11, classes=3)
    models = [net.params.copy() for _ in range(3)]
    rep_in, rep_out = fs.in_out_class_accuracy(models, net, data)
    # with 3 shards of 3 classes, at least one client may hold all classes;
    # force the property by checking consistency instead of luck
    for cid in range(3):
        train_classes = np.unique(data.client_train(cid).labels)
        if len(train_classes) == 3:
            assert np.isnan(rep_out.accuracies[cid])
        else:
            assert not np.isnan(rep_out.accuracies[cid])


def test_in_out_empty_test_split_raises_naming_the_client():
    data = make_federated_data(test_mode="global", seed=10)
    data.splits[2].test_indices = np.empty(0, dtype=np.int64)
    net = small_net(seed=10)
    with pytest.raises(EvalError, match="client 2: empty test split"):
        fs.in_out_class_accuracy([net.params.copy() for _ in range(4)], net, data)


def test_finetune_error_names_the_client_and_epochs():
    # only client 2's model overflows, so its loss is the one that fails
    data = make_federated_data(seed=10)
    net = small_net(seed=10)
    models = [net.params.copy() for _ in range(4)]
    models[2].data[:] = np.float32(3e38)
    with np.errstate(all="ignore"), pytest.raises(fs.NumericError) as exc:
        fs.evaluation.personalized_models(models, net, data, "full", [2], 0.01, seed=0, batch_size=10)
    assert str(exc.value) == "fine-tune tf=2, client 2: non-finite loss at local update 0"


def test_out_of_class_degrades_with_finetuning():
    data = make_federated_data(clients=4, classes=4, shards_per_client=1, test_mode="global", spread=0.4, seed=12)
    net, _, state, models = run_small(algorithm="fedavg", seed=12, data=data, rounds=10)
    _, out_before = fs.in_out_class_accuracy(models, net, data)
    (tuned,) = personalized_models(models, net, data, "full", [8], 0.05, 12, batch_size=10)
    _, out_after = fs.in_out_class_accuracy(tuned, net, data)
    assert out_after.mean < out_before.mean


# --- inter-client cosine --------------------------------------------------------------


def test_interclient_cosine_identical_models():
    net = small_net(seed=13)
    models = [net.params.copy() for _ in range(3)]
    cosines = fs.interclient_cosine(models)
    assert all(c == 1.0 for c in cosines)


def test_interclient_cosine_requires_two():
    net = small_net(seed=14)
    with pytest.raises(EvalError):
        fs.interclient_cosine([net.params.copy()])


def test_fedbabu_head_cosine_exactly_one_before_finetune():
    net, data, state, models = run_small(algorithm="fedbabu", seed=15, rounds=8)
    cosines = fs.interclient_cosine(models)
    assert cosines[net.head_segment] == 1.0


def test_head_cosine_drops_below_body_after_finetune():
    net, data, state, models = run_small(algorithm="fedbabu", seed=16, rounds=8)
    (tuned,) = personalized_models(models, net, data, "full", [5], 0.05, 16, batch_size=10)
    cosines = fs.interclient_cosine(tuned)
    head_cos = cosines[net.head_segment]
    body_cos = np.mean([c for i, c in enumerate(cosines) if i != net.head_segment])
    assert head_cos < body_cos


# --- centralized baseline ---------------------------------------------------------------


def test_centralized_train_curve_and_mask():
    data = make_federated_data(seed=17)
    net = small_net(seed=17)
    head_before = net.params.segment(net.head_segment).tobytes()
    curve = fs.centralized_train(net, data.train, data.test, "body", 4, 0.1, seed=17, batch_size=20)
    assert len(curve) == 4
    assert all(0 <= a <= 1 for a in curve)
    # part=body: the template's own params are untouched, head stays frozen
    assert net.params.segment(net.head_segment).tobytes() == head_before


def test_centralized_training_learns():
    data = make_federated_data(spread=0.25, seed=18)
    net = small_net(seed=18)
    curve = fs.centralized_train(net, data.train, data.test, "full", 6, 0.1, seed=18, batch_size=20)
    assert curve[-1] > 0.8


def test_centralized_curve_scores_each_epochs_trained_parameters(monkeypatch):
    data = make_federated_data(spread=0.25, seed=18)
    net = small_net(seed=18)
    snapshots, calls = [], []

    def recording(*args, on_epoch, **kwargs):
        def record(row, params, momentum):
            snapshots.append(params.copy())
            on_epoch(row, params, momentum)

        calls.append(args[1])
        return train_epochs(*args, on_epoch=record, **kwargs)

    monkeypatch.setattr(evaluation, "train_epochs", recording)
    curve = fs.centralized_train(net, data.train, data.test, "full", 4, 0.1, seed=18, batch_size=20)
    # the last epoch's parameters are the ones the call leaves
    assert snapshots[-1].tobytes() == calls[0].data.tobytes()
    assert curve == [
        accuracy(net.with_params(ParamVector(p, net.params.bounds)), data.test)[0]
        for p in snapshots
    ]
    assert len(set(curve)) > 1  # the curve moves with training


def test_accuracy_tie_breaks_to_lowest_class():
    net = fs.init_network([fs.dense(2, 3)], (2,), fs.InitScheme("he_uniform", 0))
    net.params.data[:] = 0  # all logits identical -> argmax picks class 0
    ds = fs.LabeledDataset(np.ones((4, 2), dtype=np.float32), np.array([0, 0, 1, 2]), 3)
    assert accuracy(net, ds)[0] == pytest.approx(0.5)


@settings(max_examples=30, deadline=None)
@given(sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6), seed=st.integers(0, 2**16))
def test_accuracy_over_mixed_set_sizes_equals_one_client_calls(sizes, seed):
    # sets of one sample and repeated sizes, so runs of one and of several clients
    rng = np.random.default_rng(seed)
    net = small_net(seed=seed % 7)
    noise = rng.standard_normal((len(sizes), net.params.total_len)).astype(np.float32)
    stack = ParamVector(net.params.data + noise, net.params.bounds)
    ds = fs.LabeledDataset(
        rng.standard_normal((sum(sizes), 8)).astype(np.float32),
        rng.integers(0, 4, size=sum(sizes)), 4,
    )
    got = accuracy(net.with_params(stack), ds, sizes)
    first = np.cumsum(sizes) - sizes
    want = [
        accuracy(net.with_params(row), ds.subset(np.arange(start, start + n)))[0]
        for row, start, n in zip(stack.rows(), first, sizes)
    ]
    assert got.tobytes() == np.array(want).tobytes()


# --- one result type per call ------------------------------------------------------


def test_one_client_as_vector_or_one_row_stack_gives_one_result_type():
    # the same client as a single vector and as a one-row stack: every call
    # returns one entry per client (or per listed tau_f) for both, with the
    # bits of a plain mean over the client
    data = make_federated_data(clients=1, shards_per_client=4, seed=21)
    net = small_net(seed=21)
    vector = net.params.copy()
    stack = ParamVector.stack([vector])
    train_ds, test_ds = data.client_train(0), data.client_test(0)
    lr = 0.05

    correct = fs.forward(net, test_ds.samples)[0].argmax(axis=1) == test_ds.labels
    accs = [accuracy(net, test_ds), accuracy(net.with_params(stack), test_ds, [len(test_ds)])]
    for acc in accs:
        assert acc.shape == (1,)
        assert acc.tobytes() == np.array([float(correct.mean())]).tobytes()

    step_losses = train_epochs(
        train_ds, stack.copy(), net, "full", 2, 10, 0.9, [lr], [eval_stream(21, 0)],
        [np.arange(len(train_ds))],
    )
    fedavg = fs.get_algorithm("fedavg")
    (tuned_v, loss_v), (tuned_s, loss_s) = (
        fs.local_update(train_ds, vector, net, fedavg, 2, 10, 0.9, lr, eval_stream(21, 0)),
        fs.local_update(train_ds, stack, net, fedavg, 2, 10, 0.9, [lr], [eval_stream(21, 0)]),
    )
    assert tuned_v.data.tobytes() == tuned_s.data[0].tobytes()
    for loss in (loss_v, loss_s):
        assert isinstance(loss, list) and len(loss) == 1
        assert np.array(loss).tobytes() == np.array([np.mean(step_losses[0])]).tobytes()

    tfs = [0, 2]
    for models in ([vector], stack.rows()):
        tuned = personalized_models(models, net, data, "full", tfs, 0.05, 21, batch_size=10)
        reports = fs.personalized_accuracy(models, net, data, "full", tfs, 0.05, 21, batch_size=10)
        assert len(tuned) == len(reports) == len(tfs)
        assert all(a is b for a, b in zip(tuned[0], models))
        assert [rep.finetune_epochs for rep in reports] == tfs
        for tf_models, rep in zip(tuned, reports):
            assert len(tf_models) == 1
            want = accuracy(net.with_params(tf_models[0]), test_ds)
            assert rep.accuracies.tobytes() == want.tobytes()
        (alone,) = personalized_models(models, net, data, "full", [2], 0.05, 21, batch_size=10)
        assert alone[0].data.tobytes() == tuned[1][0].data.tobytes()
