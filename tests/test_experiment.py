"""Config loading, defaulting, hashing, and the dataset/network builders."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

import fedsim as fs
from fedsim.cli import main
from fedsim.engine import FLConfig
from fedsim import experiment
from fedsim.experiment import (
    _SCHEMA,
    ConfigError,
    ExperimentConfig,
    build_datasets,
    build_network,
    build_splits,
    data_digest,
    prepare,
    run_eval,
    run_train,
)
from fedsim.sweep import expand_cells, load_sweep
from tests.test_cli import idx_config, sweep_config, tiny_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def minimal(**over):
    d = {"name": "m", "out": "runs/m"}
    d.update(over)
    return ExperimentConfig.from_dict(d)


def test_defaults_fill_in():
    cfg = minimal()
    assert cfg["federation"]["batch_size"] == 50
    assert cfg["federation"]["base_lr"] == 0.1
    assert cfg["federation"]["momentum"] == 0.9
    assert cfg["federation"]["lambda"] == 0.75
    assert cfg["eval"]["part"] == "full"
    assert cfg["dataset"]["kind"] == "synthetic"


def test_partial_overrides_merge():
    cfg = minimal(federation={"algorithm": "fedbabu", "rounds": 4})
    assert cfg["federation"]["algorithm"] == "fedbabu"
    assert cfg["federation"]["rounds"] == 4
    assert cfg["federation"]["batch_size"] == 50  # untouched default


@pytest.mark.parametrize("base_lr", [0.1, 0.05, 0.3, 0.07])
def test_default_eval_lr_is_the_schedules_last_rate(base_lr):
    cfg = minimal(federation={"base_lr": base_lr})
    assert cfg["eval"]["lr"] is None
    schedule = fs.LRSchedule(base_lr, 40)
    assert cfg.eval_lr() == schedule.lr_at(39)  # exactly, in float64
    assert minimal(federation={"base_lr": base_lr}, eval={"lr": 0.02}).eval_lr() == 0.02


def test_unknown_key_rejected():
    with pytest.raises(ConfigError):
        minimal(federation={"alg": "fedavg"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_dict({"nonsense": 1})


NUMBER_KEYS = [
    (section, key)
    for section, entries in _SCHEMA.items()
    if isinstance(entries, dict)
    for key, (_, kind, _) in entries.items()
    if kind == "number"
]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("section, key", NUMBER_KEYS)
def test_non_finite_number_rejected_naming_the_key(section, key, value):
    # Python's json reads NaN and Infinity, and every comparison with NaN is
    # False, so no least-value rule would catch it
    with pytest.raises(ConfigError, match=repr(f"{section}.{key}")):
        minimal(**{section: {key: value}})


def test_hash_ignores_name_out_and_eval():
    a = minimal()
    b = ExperimentConfig.from_dict(
        {"name": "other", "out": "elsewhere", "eval": {"finetune_epochs": [1, 2, 3]}}
    )
    assert a.config_hash() == b.config_hash()
    c = minimal(federation={"rounds": 99})
    assert c.config_hash() != a.config_hash()


def test_hash_stable_across_loads(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"name": "x", "seed": 3, "federation": {"algorithm": "ditto"}}))
    h1 = ExperimentConfig.load(p).config_hash()
    h2 = ExperimentConfig.load(p).config_hash()
    assert h1 == h2 and len(h1) == 16


def test_synthetic_train_test_share_class_means():
    cfg = minimal(dataset={"per_class": 300, "test_per_class": 100, "spread": 0.3, "dim": 16, "classes": 5})
    train, test = build_datasets(cfg)
    assert train.num_classes == test.num_classes == 5
    for c in range(5):
        mu_train = train.samples[train.labels == c].mean(axis=0)
        mu_test = test.samples[test.labels == c].mean(axis=0)
        assert np.linalg.norm(mu_train - mu_test) < 0.3  # same underlying mean


def test_mlp_builder_flattens_images():
    cfg = minimal(network={"kind": "mlp", "hidden": [8]})
    net = build_network(cfg, (1, 6, 6), 4)
    assert net.layers[0].kind == "flatten"
    assert net.layers[1].fan_in == 36
    assert net.layers[-1].fan_out == 4


def test_conv2_builder_computes_flatten_dim():
    cfg = minimal(network={"kind": "conv2", "channels": [4, 8], "kernel": 3, "padding": 1, "pool": 2})
    net = build_network(cfg, (1, 8, 8), 5)
    x = np.zeros((2, 1, 8, 8), dtype=np.float32)
    logits, _ = fs.forward(net, x)
    assert logits.shape == (2, 5)


def test_conv2_on_flat_samples_rejected():
    cfg = minimal(network={"kind": "conv2"})
    with pytest.raises(ConfigError):
        build_network(cfg, (32,), 10)


def test_idx_config_missing_paths():
    with pytest.raises(ConfigError):
        build_datasets(minimal(dataset={"kind": "idx"}))


def test_in_out_reports_follow_the_test_mode(tmp_path, capsys):
    # no key asks for them: a matched-mode test split holds no out-of-class sample
    path = tmp_path / "inout.json"
    path.write_text(json.dumps({"out": str(tmp_path / "inout"), "eval": {"in_out": True}}))
    assert main(["train", "--config", str(path)]) == 2
    assert "'eval.in_out'" in capsys.readouterr().err
    cfg = minimal(
        out=str(tmp_path / "matched"),
        dataset={"classes": 4, "per_class": 30, "test_per_class": 10, "dim": 8},
        federation={"clients": 4, "rounds": 1, "local_epochs": 1, "batch_size": 10},
        eval={"finetune_epochs": [0]},
    )
    run_train(cfg)
    assert "in_class" not in run_eval(cfg)
    assert sorted(p.name for p in (cfg.out_dir / "eval").iterdir()) == [
        "initial.csv", "initial.json", "personalized_tf0.csv", "personalized_tf0.json",
    ]


def test_schema_federation_defaults_match_flconfig():
    # the CLI fills omitted keys from _SCHEMA, library callers from FLConfig
    for f in dataclasses.fields(FLConfig):
        if f.default is dataclasses.MISSING:
            continue
        key = {"lam": "lambda"}.get(f.name, f.name)
        default = (_SCHEMA if key == "seed" else _SCHEMA["federation"])[key][0]
        assert default == f.default and type(default) is type(f.default), key


def test_prepare_produces_consistent_bundle():
    cfg = minimal(
        dataset={"classes": 4, "per_class": 40, "test_per_class": 10, "dim": 8, "spread": 0.4},
        federation={"clients": 4, "rounds": 2, "local_epochs": 1, "batch_size": 10, "fraction": 1.0},
    )
    fl_cfg, data, template = prepare(cfg)
    assert fl_cfg.clients == len(data.splits) == 4
    assert template.num_classes == 4
    state, logs = fs.run_federation(fl_cfg, data, template)
    assert len(logs) == 2


def test_splits_respect_partition_seed():
    cfg_a = minimal(seed=1, dataset={"classes": 4, "per_class": 40, "test_per_class": 10, "dim": 8},
                    federation={"clients": 4})
    cfg_b = minimal(seed=2, dataset={"classes": 4, "per_class": 40, "test_per_class": 10, "dim": 8},
                    federation={"clients": 4})
    train_a, test_a = build_datasets(cfg_a)
    train_b, test_b = build_datasets(cfg_b)
    sa = build_splits(cfg_a, train_a, test_a)
    sb = build_splits(cfg_b, train_b, test_b)
    assert not all(np.array_equal(x.train_indices, y.train_indices) for x, y in zip(sa, sb))


def test_shipped_configs_pass_the_schema(tmp_path):
    cfg = ExperimentConfig.load(CONFIGS / "example.json").with_overrides(out=str(tmp_path / "demo"))
    assert cfg["federation"]["algorithm"] == "fedbabu"
    assert cfg.out_dir == tmp_path / "demo"
    sweep = load_sweep(CONFIGS / "sweep_example.json")
    sweep["out"] = str(tmp_path / "sweep")
    cells = expand_cells(sweep)
    assert len(cells) == math.prod(map(len, sweep["grid"].values())) * len(sweep["seeds"])
    assert len({c.out_dir for c in cells}) == len(cells)
    assert all(c.out_dir.parent == tmp_path / "sweep" / "cells" for c in cells)
    assert not any(tmp_path.iterdir())  # checked without building or writing anything


# --- run data built once per process --------------------------------------------


def count_builds(monkeypatch) -> list:
    """Counts the calls of ``build_datasets``, the first step of ``prepare``."""
    calls = []
    build = experiment.build_datasets

    def counted(cfg):
        calls.append(cfg.config_hash())
        return build(cfg)

    monkeypatch.setattr(experiment, "build_datasets", counted)
    return calls


def eval_bytes(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted((out / "eval").iterdir())}


def test_train_then_eval_builds_synthetic_data_once(tmp_path, monkeypatch):
    cfg = ExperimentConfig.load(tiny_config(tmp_path)[0])
    calls = count_builds(monkeypatch)
    run_train(cfg)
    run_eval(cfg)
    assert calls == [cfg.config_hash()]
    shared = eval_bytes(cfg.out_dir)
    experiment._data_memo.clear()
    run_eval(cfg)
    assert len(calls) == 2
    assert eval_bytes(cfg.out_dir) == shared
    assert {name[-4:] for name in shared} == {".csv", "json"}


@pytest.mark.parametrize("algorithm", ["fedavg", "ditto"])
def test_a_full_batch_run_groups_its_clients_with_the_same_bits(tmp_path, monkeypatch, algorithm):
    # a batch above every client's size steps as the largest client, so the
    # clients share lockstep groups, where sized by the configured batch
    # each trained alone; no output bit depends on the grouping
    import fedsim.engine
    import fedsim.evaluation

    grouped = fedsim.engine.client_groups
    outputs, groups = {}, {}
    for grouping in ("effective", "alone"):
        counts = groups[grouping] = []

        def counted(ids, template, batch_size, tracks=1, _alone=grouping == "alone"):
            got = [(i,) for i in sorted(ids)] if _alone else grouped(ids, template, batch_size, tracks)
            counts.append(len(got))
            return got

        for module in (fedsim.engine, fedsim.evaluation):
            monkeypatch.setattr(module, "client_groups", counted)
        over = {"federation.batch_size": 10**6, "federation.algorithm": algorithm}
        cfg = ExperimentConfig.load(tiny_config(tmp_path, grouping, **over)[0])
        run_train(cfg)
        run_eval(cfg)
        outputs[grouping] = {  # rounds.csv holds wall times
            f.relative_to(cfg.out_dir): f.read_bytes()
            for f in cfg.out_dir.rglob("*") if f.is_file() and f.name != "rounds.csv"
        }
    assert Path("checkpoint.pv") in outputs["alone"]
    assert outputs["effective"] == outputs["alone"]
    assert sum(groups["effective"]) < sum(groups["alone"])


def test_idx_data_is_read_and_hashed_on_every_call(tmp_path, monkeypatch):
    cfg = ExperimentConfig.load(idx_config(tmp_path, "idx", **{"federation.rounds": 1})[0])
    calls = count_builds(monkeypatch)
    digests = []
    monkeypatch.setattr(
        experiment, "data_digest", lambda *ds: digests.append(data_digest(*ds)) or digests[-1]
    )
    run_train(cfg)
    run_eval(cfg)
    assert len(calls) == len(digests) == 2
    assert not experiment._data_memo


def test_shared_run_data_is_read_only_and_prepare_builds_it_afresh(tmp_path):
    cfg = ExperimentConfig.load(tiny_config(tmp_path)[0])
    first = experiment._run_inputs(cfg)
    second = experiment._run_inputs(cfg)
    assert list(experiment._data_memo) == [cfg.config_hash()]
    assert first[3] == second[3]
    assert first[2].params.data.tobytes() == second[2].params.data.tobytes()
    assert first[2] is not second[2] and first[1] is not second[1]
    for data in (first[1], second[1]):
        split = data.splits[0]
        arrays = [data.train.samples, data.train.labels, data.test.samples, data.test.labels,
                  split.train_indices, split.test_indices]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[:1] = 0
    # each call wraps the shared arrays anew
    wrappers = [run[1] for run in (first, second, experiment._run_inputs(cfg))]
    for part in (lambda d: d.train, lambda d: d.test, lambda d: d.splits[0]):
        assert len({id(part(d)) for d in wrappers}) == 3
    assert np.shares_memory(first[1].train.samples, wrappers[2].train.samples)
    fresh = prepare(cfg)[1]
    for array in (fresh.train.samples, fresh.test.labels, fresh.splits[0].train_indices):
        assert array.flags.writeable
        array[:1] = 0
    assert data_digest(*build_datasets(cfg)) == first[3]
    other = cfg.with_overrides(seed=1)
    experiment._run_inputs(other)
    assert list(experiment._data_memo) == [other.config_hash()]


@pytest.mark.parametrize("digest", [{}, {"data_digest": "0" * 64}], ids=["missing", "other"])
def test_sweep_rerun_of_a_synthetic_cell_builds_its_data_once(tmp_path, monkeypatch, digest):
    # the stored-result check's digest comes with the data the rerun then trains on
    sweep_path, out = sweep_config(tmp_path, grid={"federation.algorithm": ["fedavg"]})
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    cell_result = next(out.glob("cells/*/result.json"))
    stored = cell_result.read_text()
    record = {k: v for k, v in json.loads(stored).items() if k != "data_digest"}
    cell_result.write_text(json.dumps({**record, **digest}))
    builds = []
    generate = experiment.synthetic_gaussian
    monkeypatch.setattr(experiment, "synthetic_gaussian", lambda *a, **k: builds.append(a) or generate(*a, **k))
    experiment._data_memo.clear()
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    assert len(builds) == 1
    assert cell_result.read_text() == stored
