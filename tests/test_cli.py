"""End-to-end CLI checks on tiny configs: artifacts, determinism, resume,
exit codes, and sweep consolidation."""

import json
import struct
from pathlib import Path

import numpy as np
import pytest

from fedsim.cli import main
from fedsim.engine import total_rounds
from fedsim.experiment import ConfigError, ExperimentConfig, build_datasets, data_digest
from fedsim.params import ParamVector
from fedsim.sweep import expand_cells, load_sweep


def tiny_config(tmp_path, name="tiny", **overrides):
    cfg = {
        "name": name,
        "seed": 0,
        "out": str(tmp_path / name),
        "dataset": {
            "kind": "synthetic",
            "classes": 4,
            "per_class": 30,
            "test_per_class": 10,
            "dim": 8,
            "spread": 0.5,
        },
        "network": {"kind": "mlp", "hidden": [12]},
        "partition": {"mode": "shard", "shards_per_client": 2, "test_mode": "matched"},
        "federation": {
            "algorithm": "fedbabu",
            "clients": 4,
            "fraction": 1.0,
            "local_epochs": 1,
            "rounds": 3,
            "batch_size": 10,
        },
        "eval": {"finetune_epochs": [0, 1], "part": "full", "template": True},
    }
    for dotted, value in overrides.items():
        node = cfg
        keys = dotted.split(".")
        for key in keys[:-1]:
            node = node[key]
        node[keys[-1]] = value
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(cfg))
    return path, Path(cfg["out"])


def test_partition_artifacts_and_rerun_identical(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    assert main(["partition", "--config", str(cfg_path)]) == 0
    splits = (out / "splits.json").read_bytes()
    hist = (out / "label_histogram.csv").read_text()
    assert hist.startswith("# config_hash=")
    assert main(["partition", "--config", str(cfg_path)]) == 0
    assert (out / "splits.json").read_bytes() == splits


def test_partition_dirichlet_mode(tmp_path):
    cfg_path, out = tiny_config(
        tmp_path, name="diri",
        **{"partition.mode": "dirichlet", "partition.beta": 0.5, "partition.test_mode": "global"},
    )
    assert main(["partition", "--config", str(cfg_path)]) == 0
    splits = json.loads((out / "splits.json").read_text())
    total = sum(len(rec["train_indices"]) for rec in splits)
    assert total == 4 * 30  # every training sample assigned exactly once
    meta = json.loads((out / "partition_meta.json").read_text())
    assert meta["mode"] == "dirichlet"


def test_histogram_limits_classes_per_client(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    main(["partition", "--config", str(cfg_path)])
    lines = (out / "label_histogram.csv").read_text().strip().splitlines()[2:]
    for line in lines:
        counts = [int(x) for x in line.split(",")[1:]]
        assert sum(1 for c in counts if c > 0) <= 2  # s = 2


def test_train_writes_checkpoint_and_rounds(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (out / "checkpoint.pv").exists()
    sidecar = json.loads((out / "checkpoint.json").read_text())
    assert sidecar["round"] == 3
    cfg = ExperimentConfig.load(cfg_path)
    assert sidecar["config_hash"] == cfg.config_hash()
    rounds = (out / "rounds.csv").read_text().splitlines()
    assert rounds[0].startswith("# config_hash=")
    assert len(rounds) == 2 + 3  # comment + header + 3 rounds


def test_fedbabu_checkpoint_head_equals_init_head(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    main(["train", "--config", str(cfg_path)])
    from fedsim.experiment import build_datasets, build_network

    cfg = ExperimentConfig.load(cfg_path)
    train, _ = build_datasets(cfg)
    template = build_network(cfg, train.sample_shape, train.num_classes)
    ckpt = ParamVector.from_blob((out / "checkpoint.pv").read_bytes())
    head = template.head_segment
    assert ckpt.segment(head).tobytes() == template.params.segment(head).tobytes()


def test_train_rerun_bit_identical(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    main(["train", "--config", str(cfg_path)])
    first = (out / "checkpoint.pv").read_bytes()
    main(["train", "--config", str(cfg_path)])
    assert (out / "checkpoint.pv").read_bytes() == first


def test_stop_and_resume_matches_uninterrupted(tmp_path):
    cfg_path, out = tiny_config(tmp_path, name="resume")
    main(["train", "--config", str(cfg_path)])
    uninterrupted = (out / "checkpoint.pv").read_bytes()
    rounds_full = (out / "rounds.csv").read_text()

    cfg2_path, out2 = tiny_config(tmp_path, name="resume2")
    assert main(["train", "--config", str(cfg2_path), "--stop-after", "1"]) == 0
    assert json.loads((out2 / "checkpoint.json").read_text())["round"] == 1
    assert main(["train", "--config", str(cfg2_path), "--resume"]) == 0
    assert (out2 / "checkpoint.pv").read_bytes() == uninterrupted
    # round CSVs agree except for wall time
    strip = lambda text: [",".join(line.split(",")[:-1]) for line in text.splitlines()]
    assert strip((out2 / "rounds.csv").read_text()) == strip(rounds_full)


def test_resume_stop_after_below_checkpoint_round_exits_2(tmp_path, capsys):
    # it would run no round and rewrite the checkpoint at its old round
    cfg_path, out = tiny_config(tmp_path, **{"federation.algorithm": "fedper"})
    assert main(["train", "--config", str(cfg_path), "--stop-after", "2"]) == 0
    blobs = sorted(p.name for p in out.glob("client_*.pv"))
    assert blobs  # FedPer keeps each client's head
    files = ["checkpoint.json", "checkpoint.pv", "rounds.csv", *blobs]
    before = {name: (out / name).read_bytes() for name in files}
    capsys.readouterr()
    assert main(["train", "--config", str(cfg_path), "--resume", "--stop-after", "1"]) == 2
    err = capsys.readouterr().err
    assert "--stop-after 1" in err and "round 2" in err
    assert sorted(p.name for p in out.iterdir()) == sorted(files)
    assert {name: (out / name).read_bytes() for name in files} == before


def _resume_after_round_log_edit(tmp_path, capsys, edit):
    """Train two rounds, apply ``edit`` to rounds.csv, then resume: (exit
    code, stderr, whether every file is byte-equal to before the resume)."""
    cfg_path, out = tiny_config(tmp_path, **{"federation.algorithm": "fedper"})
    assert main(["train", "--config", str(cfg_path), "--stop-after", "2"]) == 0
    edit(out / "rounds.csv")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    capsys.readouterr()
    code = main(["train", "--config", str(cfg_path), "--resume"])
    return code, capsys.readouterr().err, {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_resume_with_round_log_ahead_of_checkpoint_exits_2(tmp_path, capsys):
    # a run killed between writing rounds.csv and the checkpoint leaves the
    # log a round ahead; resuming would log that round twice
    def extra_row(path):
        rows = path.read_text().splitlines()
        path.write_text("\n".join(rows + ["3" + rows[-1][1:]]) + "\n")

    code, err, untouched = _resume_after_round_log_edit(tmp_path, capsys, extra_row)
    assert code == 2 and untouched
    assert "rounds.csv" in err and "last round 3" in err and "round 2" in err


def test_resume_without_round_log_exits_2(tmp_path, capsys):
    # it would write a log holding only the resumed rounds
    code, err, untouched = _resume_after_round_log_edit(tmp_path, capsys, Path.unlink)
    assert code == 2 and untouched
    assert "rounds.csv" in err


def test_resume_from_round_0_takes_a_header_only_round_log(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--stop-after", "0"]) == 0
    assert main(["train", "--config", str(cfg_path), "--resume"]) == 0
    rounds = (out / "rounds.csv").read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rounds] == ["1", "2", "3"]


def test_negative_stop_after_exits_2_naming_the_flag(tmp_path, capsys):
    # a negative stop would train all but the last rounds and exit 0
    cfg_path, out = tiny_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg_path), "--stop-after", "-1"])
    assert exc.value.code == 2
    assert "--stop-after" in capsys.readouterr().err
    assert not out.exists()


def test_retrain_removes_client_blobs_the_new_state_lacks(tmp_path):
    cfg_path, out = tiny_config(tmp_path, name="run", **{"federation.algorithm": "fedper"})
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert len(list(out.glob("client_*.pv"))) == 4
    cfg_path, out = tiny_config(tmp_path, name="run", **{"federation.algorithm": "fedavg"})
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert json.loads((out / "checkpoint.json").read_text())["persistent_clients"] == []
    assert list(out.glob("client_*.pv")) == []


def test_resume_restores_client_resident_params(tmp_path):
    # fedper keeps per-client heads; resume must restore them from disk
    over = {"federation.algorithm": "fedper", "federation.fraction": 0.5, "federation.rounds": 4}
    cfg_path, out = tiny_config(tmp_path, name="per-full", **over)
    main(["train", "--config", str(cfg_path)])
    uninterrupted = sorted(p.name for p in out.glob("client_*.pv"))
    blobs = {p.name: p.read_bytes() for p in out.glob("client_*.pv")}
    ckpt = (out / "checkpoint.pv").read_bytes()

    cfg2_path, out2 = tiny_config(tmp_path, name="per-resumed", **over)
    main(["train", "--config", str(cfg2_path), "--stop-after", "2"])
    main(["train", "--config", str(cfg2_path), "--resume"])
    assert sorted(p.name for p in out2.glob("client_*.pv")) == uninterrupted
    assert (out2 / "checkpoint.pv").read_bytes() == ckpt
    for p in out2.glob("client_*.pv"):
        assert p.read_bytes() == blobs[p.name]


def test_eval_reports_per_finetune_epoch(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    main(["train", "--config", str(cfg_path)])
    assert main(["eval", "--config", str(cfg_path)]) == 0
    for stem in ("initial", "personalized_tf0", "personalized_tf1", "template"):
        assert (out / "eval" / f"{stem}.csv").exists()
        assert (out / "eval" / f"{stem}.json").exists()
    # tau_f = 0 report equals the initial report, bit-exact
    init_rows = (out / "eval" / "initial.csv").read_text().splitlines()[2:]
    tf0_rows = (out / "eval" / "personalized_tf0.csv").read_text().splitlines()[2:]
    assert init_rows == tf0_rows
    # every artifact embeds the training hash
    cfg = ExperimentConfig.load(cfg_path)
    summary = json.loads((out / "eval" / "initial.json").read_text())
    assert summary["config_hash"] == cfg.config_hash()


def test_eval_tf0_reuses_initial_accuracies(tmp_path, monkeypatch):
    import fedsim.evaluation as evaluation
    from fedsim.experiment import prepare, run_eval

    cfg_path, out = tiny_config(
        tmp_path, **{"eval": {"finetune_epochs": [0], "part": "body"}}
    )
    assert main(["train", "--config", str(cfg_path)]) == 0
    calls = []
    forward = evaluation.forward

    def counting_forward(net, batch, runs=None):
        calls.append(len(batch))
        return forward(net, batch, runs)

    monkeypatch.setattr(evaluation, "forward", counting_forward)
    run_eval(ExperimentConfig.load(cfg_path))
    # one initial pass over each client's test set, however the clients
    # stack, and none for tau_f = 0
    _, data, _ = prepare(ExperimentConfig.load(cfg_path))
    assert sum(calls) == sum(len(split.test_indices) for split in data.splits)
    rows = {
        stem: (out / "eval" / f"{stem}.csv").read_text().splitlines()[2:]
        for stem in ("initial", "personalized_tf0")
    }
    assert rows["initial"] == rows["personalized_tf0"]
    summary = json.loads((out / "eval" / "personalized_tf0.json").read_text())
    assert summary["part"] == "body" and summary["finetune_epochs"] == 0


def test_eval_leaves_only_its_own_reports(tmp_path):
    cfg_path, out = tiny_config(tmp_path)  # tau_f [0, 1] and the template report
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["eval", "--config", str(cfg_path)]) == 0
    cfg = json.loads(cfg_path.read_text())
    cfg["eval"] = {"finetune_epochs": [2], "part": "full", "template": False}
    cfg_path.write_text(json.dumps(cfg))
    assert main(["eval", "--config", str(cfg_path)]) == 0
    assert sorted(p.name for p in (out / "eval").iterdir()) == [
        "initial.csv", "initial.json", "personalized_tf2.csv", "personalized_tf2.json",
    ]


def test_eval_topology_mismatch_exits_2(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    main(["train", "--config", str(cfg_path)])
    bad_path, _ = tiny_config(tmp_path, name="bad", **{"network.hidden": [16]})
    # same out dir, different topology
    bad = json.loads(bad_path.read_text())
    bad["out"] = str(out)
    bad_path.write_text(json.dumps(bad))
    assert main(["eval", "--config", str(bad_path)]) == 2


def test_missing_checkpoint_exits_2(tmp_path):
    cfg_path, _ = tiny_config(tmp_path, name="nockpt")
    assert main(["eval", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("damage", ["half", "five_bytes", "trailing_byte"])
def test_damaged_checkpoint_exits_2_naming_the_file(tmp_path, capsys, damage):
    cfg_path, out = tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    blob_path = out / "checkpoint.pv"
    blob = blob_path.read_bytes()
    blob_path.write_bytes(
        {"half": blob[: len(blob) // 2], "five_bytes": blob[:5], "trailing_byte": blob + b"\x00"}[damage]
    )
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert "checkpoint.pv" in capsys.readouterr().err
    assert main(["train", "--config", str(cfg_path), "--resume"]) == 2


@pytest.mark.parametrize(
    "sidecar",
    [
        [],
        {"seed": 0},
        {"round": "3", "config_hash": "x", "persistent_clients": []},
        {"round": True, "config_hash": "x", "persistent_clients": []},
        {"round": 3, "config_hash": 7, "persistent_clients": []},
        {"round": 3, "config_hash": "x"},
        {"round": 3, "config_hash": "x", "persistent_clients": {"0": 1}},
        {"round": 3, "config_hash": "x", "persistent_clients": [0, 1.5]},
    ],
    ids=["list", "no_round", "str_round", "bool_round", "int_hash", "no_clients",
         "dict_clients", "float_client"],
)
def test_malformed_sidecar_exits_2_naming_it(tmp_path, capsys, sidecar):
    cfg_path, out = tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    (out / "checkpoint.json").write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert "checkpoint.json" in capsys.readouterr().err
    assert main(["train", "--config", str(cfg_path), "--resume"]) == 2


def test_empty_test_split_exits_2_naming_the_client(tmp_path, capsys):
    # the example config over 30 Dirichlet(0.15) clients: client 10 gets 4
    # train samples, so its matched test split (len(train) // 5) is empty
    cfg = json.loads((Path(__file__).parent.parent / "configs" / "example.json").read_text())
    cfg["seed"] = 0
    cfg["out"] = str(tmp_path / "run")
    cfg["partition"] = {"mode": "dirichlet", "beta": 0.15, "test_mode": "matched"}
    cfg["federation"].update(clients=30, rounds=1)
    cfg_path = tmp_path / "dirichlet.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert "client 10: empty test split" in capsys.readouterr().err


def test_missing_client_file_exits_2_naming_it(tmp_path, capsys):
    cfg_path, out = tiny_config(tmp_path, **{"federation.algorithm": "fedper"})
    assert main(["train", "--config", str(cfg_path)]) == 0
    client_file = sorted(out.glob("client_*.pv"))[0]
    client_file.unlink()
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert client_file.name in capsys.readouterr().err


def test_nan_loss_exits_3(tmp_path):
    cfg_path, _ = tiny_config(
        tmp_path, name="blowup",
        **{
            "federation.algorithm": "fedavg",
            "federation.base_lr": 1e18,
            "federation.rounds": 12,
            "federation.local_epochs": 2,
        },
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["train", "--config", str(cfg_path)]) == 3


def test_numeric_failure_in_finetune_exits_3_naming_the_client(tmp_path, capsys):
    cfg_path, _ = tiny_config(tmp_path, **{"eval.lr": 1e30})
    assert main(["train", "--config", str(cfg_path)]) == 0
    import warnings

    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["eval", "--config", str(cfg_path)]) == 3
    assert "fine-tune tf=1, client 0: non-finite loss" in capsys.readouterr().err


def test_bad_config_exits_2(tmp_path):
    cfg_path, _ = tiny_config(tmp_path, name="badalg", **{"federation.algorithm": "nope"})
    assert main(["train", "--config", str(cfg_path)]) == 2
    cfg_path2, _ = tiny_config(tmp_path, name="badfrac", **{"federation.fraction": 1.5})
    assert main(["train", "--config", str(cfg_path2)]) == 2


def test_config_file_with_a_nan_literal_exits_2_before_any_output(tmp_path, capsys):
    cfg_path, out = tiny_config(tmp_path)
    text = cfg_path.read_text().replace('"spread": 0.5', '"spread": NaN')
    assert "NaN" in text
    cfg_path.write_text(text)
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "'dataset.spread'" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "key, value",
    [
        ("federation.rounds", "3"),
        ("eval.finetune_epochs", 5),
        ("network.hidden", 64),
        ("federation.clients", 4.5),
        ("partition.beta", "x"),
        ("federation.batch_size", True),
        ("name", 5),
    ],
)
def test_config_value_of_wrong_type_exits_2_naming_the_key(tmp_path, capsys, key, value):
    cfg_path, _ = tiny_config(tmp_path)
    raw = node = json.loads(cfg_path.read_text())
    *parents, leaf = key.split(".")
    for part in parents:
        node = node[part]
    node[leaf] = value
    cfg_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert repr(key) in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("dataset.classes", 1),
        ("dataset.dim", 0),
        ("network.hidden", [0]),
        ("network.channels", [0, 4]),
        ("network.pool", 0),
        ("network.padding", -1),
        ("network.kernel", 0),
        ("federation.base_lr", -0.1),
        ("federation.momentum", 1.5),
        ("federation.momentum", -1),
        ("federation.perfedavg_alpha", -1),
        ("dataset.spread", -1),
        ("dataset.scale", -1),
        ("dataset.per_class", 0),
        ("dataset.test_per_class", -1),
        ("dataset.test_per_class", 0),
        ("seed", -1),
        ("eval.lr", -1),
    ],
)
def test_value_out_of_range_exits_2_naming_the_key(tmp_path, capsys, key, value):
    # FLConfig's own checks name its field; the schema names the dotted key
    named = key.split(".")[1] if key.startswith("federation.") else repr(key)
    # the conv keys are read only by a conv2 network, the others by the MLP
    if key.startswith("network.") and key != "network.hidden":
        cfg_path, out, _ = idx_config(tmp_path, "range")
    else:
        cfg_path, out = tiny_config(tmp_path, name="range")
    raw = node = json.loads(cfg_path.read_text())
    *parents, leaf = key.split(".")
    for part in parents:
        node = node[part]
    node[leaf] = value
    cfg_path.write_text(json.dumps(raw))
    for command in ("train", "eval"):
        assert main([command, "--config", str(cfg_path)]) == 2
        assert named in capsys.readouterr().err
    assert not out.exists()  # rejected before any data was built


@pytest.mark.parametrize(
    "key", ["dataset.kind", "network.kind", "partition.test_mode", "eval.part", "federation.init"]
)
def test_value_not_among_choices_exits_2_naming_the_key(tmp_path, capsys, key):
    cfg_path, out = tiny_config(tmp_path, **{key: "bogus"})
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert repr(key) in err and "bogus" in err
    assert not out.exists()


def test_perfedavg_one_sample_batch_exits_2_naming_the_client(tmp_path, capsys):
    # every client holds 30 samples, so B=29 leaves a last batch of one,
    # which the meta step cannot split into support and query
    cfg_path, _ = tiny_config(
        tmp_path, **{"federation.algorithm": "perfedavg", "federation.batch_size": 29}
    )
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "round 1, client 0: meta step needs a batch of at least 2" in err


def test_empty_server_pool_exits_2(tmp_path, capsys):
    cfg_path, _ = tiny_config(tmp_path, **{"federation.server_share": 1e-5})
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "server share produced an empty pool" in capsys.readouterr().err


@pytest.mark.parametrize("past_end", [False, True], ids=["minus_1", "total_plus_1"])
def test_checkpoint_round_out_of_range_exits_2_naming_it(tmp_path, capsys, past_end):
    cfg_path, out = tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--stop-after", "1"]) == 0
    sidecar_path = out / "checkpoint.json"
    sidecar = json.loads(sidecar_path.read_text())
    total = total_rounds(ExperimentConfig.load(cfg_path).fl_config())
    sidecar["round"] = total + 1 if past_end else -1
    sidecar_path.write_text(json.dumps(sidecar))
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 2
    assert "checkpoint.json" in capsys.readouterr().err
    assert main(["train", "--config", str(cfg_path), "--resume"]) == 2
    assert "checkpoint.json" in capsys.readouterr().err
    assert json.loads(sidecar_path.read_text()) == sidecar  # not rewritten


def test_unknown_config_key_rejected(tmp_path):
    cfg_path, _ = tiny_config(tmp_path, name="typo")
    raw = json.loads(cfg_path.read_text())
    raw["federation"]["shards"] = 3
    cfg_path.write_text(json.dumps(raw))
    assert main(["train", "--config", str(cfg_path)]) == 2


@pytest.mark.parametrize("text", ["[1]", '"x"', '{"eval": 5}'])
def test_config_not_an_object_exits_2(tmp_path, capsys, text):
    cfg_path = tmp_path / "list.json"
    cfg_path.write_text(text)
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "object" in capsys.readouterr().err


def test_seed_override_changes_hash(tmp_path):
    cfg_path, _ = tiny_config(tmp_path)
    a = ExperimentConfig.load(cfg_path)
    b = a.with_overrides(seed=99)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == ExperimentConfig.load(cfg_path).config_hash()


def test_train_has_no_jobs_flag(tmp_path):
    # client updates run in one process; only sweep cells run in worker processes
    cfg_path, out = tiny_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(cfg_path), "--jobs", "2"])
    assert exc.value.code == 2
    assert not out.exists()


def make_idx_dataset(tmp_path, n_train=240, n_test=80, side=8, classes=4):
    """Synthesize a small IDX image/label pair with class-dependent patterns."""

    def write_pair(stem, n, seed):
        rng = np.random.default_rng(seed)
        labels = (np.arange(n) % classes).astype(np.uint8)
        images = rng.integers(0, 60, size=(n, side, side), dtype=np.uint8)
        for i, lab in enumerate(labels):  # bright class-specific quadrant
            r, c = divmod(int(lab), 2)
            images[i, r * 4 : r * 4 + 4, c * 4 : c * 4 + 4] += 180
        ip = tmp_path / f"{stem}-images.idx"
        lp = tmp_path / f"{stem}-labels.idx"
        ip.write_bytes(struct.pack(">IIII", 0x803, n, side, side) + images.tobytes())
        lp.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
        return str(ip), str(lp)

    return write_pair("train", n_train, 1), write_pair("test", n_test, 2)


def test_conv_net_on_idx_dataset_end_to_end(tmp_path):
    (ti, tl), (vi, vl) = make_idx_dataset(tmp_path)
    cfg_path, out = tiny_config(
        tmp_path, name="conv",
        **{
            "dataset": {"kind": "idx", "train_images": ti, "train_labels": tl,
                        "test_images": vi, "test_labels": vl},
            "network": {"kind": "conv2", "channels": [4], "kernel": 3, "padding": 1, "pool": 2},
            "federation.rounds": 2,
        },
    )
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["eval", "--config", str(cfg_path)]) == 0
    summary = json.loads((out / "eval" / "initial.json").read_text())
    assert 0.0 <= summary["mean"] <= 1.0


def idx_config(tmp_path, name, train_images=None, **overrides):
    """A tiny conv2 config on a fresh IDX dataset; returns (config, out, train images)."""
    (ti, tl), (vi, vl) = make_idx_dataset(tmp_path)
    ti = train_images or ti
    cfg_path, out = tiny_config(
        tmp_path, name=name,
        **{
            "dataset": {"kind": "idx", "train_images": ti, "train_labels": tl,
                        "test_images": vi, "test_labels": vl},
            "network": {"kind": "conv2", "channels": [4], "kernel": 3, "padding": 1, "pool": 2},
            **overrides,
        },
    )
    return cfg_path, out, Path(ti)


@pytest.mark.parametrize("bad", [np.nan, -np.inf], ids=["nan", "-inf"])
def test_non_finite_conv_weight_exits_3(tmp_path, monkeypatch, bad):
    # a relu feeding a max-pool runs fused, unless its input holds a NaN or
    # -inf, which it must then carry on as a plain relu would
    import warnings

    import fedsim.experiment

    init = fedsim.experiment.init_network

    def init_with_bad_conv_weight(layers, scheme):
        net = init(layers, scheme)
        net.layer_params(0)[0][0, 0, 0, 0] = bad
        return net

    monkeypatch.setattr(fedsim.experiment, "init_network", init_with_bad_conv_weight)
    cfg_path, out, _ = idx_config(tmp_path, "nan_conv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert main(["train", "--config", str(cfg_path)]) == 3
    assert not (out / "checkpoint.pv").exists()


def test_missing_idx_file_exits_2_naming_it(tmp_path, capsys):
    cfg_path, out, _ = idx_config(tmp_path, "missing_idx", str(tmp_path / "nowhere-images.idx"))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "nowhere-images.idx" in capsys.readouterr().err
    assert not (out / "checkpoint.pv").exists()


@pytest.mark.parametrize("command", ["train", "eval", "partition"])
def test_idx_train_and_test_image_shapes_differ_exits_2(tmp_path, capsys, command):
    # 8x8 train and 10x10 test images: a network sized for one fails on the
    # other, so set-up stops before any work, naming both files and shapes
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    (ti, tl), _ = make_idx_dataset(tmp_path / "a", side=8)
    _, (vi, vl) = make_idx_dataset(tmp_path / "b", side=10)
    cfg_path, out = tiny_config(
        tmp_path, name="shapes",
        **{
            "dataset": {"kind": "idx", "train_images": ti, "train_labels": tl,
                        "test_images": vi, "test_labels": vl},
            "network": {"kind": "conv2", "channels": [4], "kernel": 3, "padding": 1, "pool": 2},
        },
    )
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{ti} holds 8x8" in err and f"{vi} holds 10x10" in err
    assert not (out / "checkpoint.pv").exists()
    assert not (out / "splits.json").exists()


def overwrite_idx_images(path: Path) -> None:
    """Other images under the same path and header: every pixel inverted."""
    blob = path.read_bytes()
    path.write_bytes(blob[:16] + bytes(255 - b for b in blob[16:]))


def current_digest(cfg_path) -> str:
    return data_digest(*build_datasets(ExperimentConfig.load(cfg_path)))


def test_overwritten_idx_file_makes_eval_and_resume_exit_2_naming_both_digests(tmp_path, capsys):
    # config_hash() names IDX data by path only; the checkpoint's data
    # digest catches other images written under the same path
    cfg_path, out, train_images = idx_config(tmp_path, "digest", **{"federation.rounds": 2})
    assert main(["train", "--config", str(cfg_path), "--stop-after", "1"]) == 0
    recorded = json.loads((out / "checkpoint.json").read_text())["data_digest"]
    assert recorded == current_digest(cfg_path)
    assert main(["eval", "--config", str(cfg_path)]) == 0
    overwrite_idx_images(train_images)
    now = current_digest(cfg_path)
    assert now != recorded
    capsys.readouterr()
    for command in (["eval"], ["train", "--resume"]):
        assert main([*command, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "trained on other data" in err and recorded in err and now in err
    assert json.loads((out / "checkpoint.json").read_text())["round"] == 1


def test_sidecar_without_data_digest_loads_with_a_warning(tmp_path, caplog):
    cfg_path, out = tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--stop-after", "1"]) == 0
    sidecar = json.loads((out / "checkpoint.json").read_text())
    del sidecar["data_digest"]
    (out / "checkpoint.json").write_text(json.dumps(sidecar))
    assert main(["eval", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--resume"]) == 0
    assert caplog.text.count("records no data digest") == 2


def test_truncated_idx_header_exits_2_naming_it(tmp_path, capsys):
    cfg_path, _, train_images = idx_config(tmp_path, "short_idx")
    train_images.write_bytes(train_images.read_bytes()[:10])
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "train-images.idx: truncated header" in capsys.readouterr().err


def _eval_under_another_config(tmp_path):
    cfg_path, out = tiny_config(tmp_path)
    assert main(["train", "--config", str(cfg_path)]) == 0
    other, _ = tiny_config(tmp_path, name="other", out=str(out), **{"federation.rounds": 2})
    return ["eval", "--config", str(other)]


def _train_on_damaged_labels(tmp_path, damage):
    cfg_path, _, _ = idx_config(tmp_path, "labels")
    labels = tmp_path / "train-labels.idx"  # 240 labels
    labels.write_bytes(damage(labels.read_bytes()))
    return ["train", "--config", str(cfg_path)]


_EXIT_2_CASES = {
    "checkpoint_of_another_config": (
        _eval_under_another_config, "checkpoint was trained under a different config"),
    "label_header_short": (
        lambda t: _train_on_damaged_labels(t, lambda b: b[:6]),
        "train-labels.idx: truncated header"),
    "label_magic_bad": (
        lambda t: _train_on_damaged_labels(t, lambda b: struct.pack(">I", 0x802) + b[4:]),
        "train-labels.idx: bad magic 0x00000802"),
    "label_count_differs": (
        lambda t: _train_on_damaged_labels(t, lambda b: b[:4] + struct.pack(">I", 239) + b[8:-1]),
        "count mismatch: 240 images vs 239 labels"),
    "kernel_larger_than_image": (
        lambda t: ["train", "--config", str(idx_config(t, "kernel", **{"network.kernel": 11})[0])],
        "conv2d kernel 11 too large for (1, 8, 8)"),
}


@pytest.mark.parametrize("case", list(_EXIT_2_CASES))
def test_input_fault_exits_2_naming_its_cause(tmp_path, capsys, case):
    build, cause = _EXIT_2_CASES[case]
    argv = build(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert cause in capsys.readouterr().err


def test_dirichlet_federation_end_to_end(tmp_path):
    cfg_path, out = tiny_config(
        tmp_path, name="dirifed",
        **{
            "dataset.per_class": 60,
            "partition.mode": "dirichlet",
            "partition.beta": 5.0,
            "federation.algorithm": "fedavg",
        },
    )
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["eval", "--config", str(cfg_path)]) == 0
    rows = (out / "eval" / "initial.csv").read_text().splitlines()[2:]
    assert len(rows) == 4


def test_zero_shards_per_client_exits_2(tmp_path, capsys):
    cfg_path, out = tiny_config(tmp_path, **{"partition.shards_per_client": 0})
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "shards_per_client" in capsys.readouterr().err
    assert not out.exists()


def test_nonpositive_dirichlet_beta_exits_2(tmp_path, capsys):
    cfg_path, _ = tiny_config(
        tmp_path, **{"partition.mode": "dirichlet", "partition.beta": 0.0}
    )
    assert main(["partition", "--config", str(cfg_path)]) == 2
    assert "beta" in capsys.readouterr().err


def test_partition_with_empty_clients_exits_2_naming_them(tmp_path, capsys):
    # beta 0.05 over 40 clients leaves some of them without a single sample
    cfg_path, out = tiny_config(
        tmp_path,
        **{
            "partition.mode": "dirichlet",
            "partition.beta": 0.05,
            "partition.test_mode": "global",
            "federation.clients": 40,
        },
    )
    assert main(["train", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "without training data" in err
    assert "clients [0, 2, 4" in err
    assert not (out / "checkpoint.pv").exists()


def test_in_out_reports_with_global_test_mode(tmp_path):
    cfg_path, out = tiny_config(
        tmp_path, name="inout",
        **{"partition.test_mode": "global", "eval": {"finetune_epochs": [0]}},
    )
    main(["train", "--config", str(cfg_path)])
    assert main(["eval", "--config", str(cfg_path)]) == 0
    assert (out / "eval" / "in_class.csv").exists()
    assert (out / "eval" / "out_class.csv").exists()


# --- sweep -------------------------------------------------------------------------


def sweep_config(tmp_path, grid=None, seeds=(0,), rounds=None):
    base_path, _ = tiny_config(tmp_path, name="sweepbase")
    base = json.loads(base_path.read_text())
    base.pop("out")
    base["eval"]["finetune_epochs"] = [1]
    sweep = {
        "name": "sw",
        "out": str(tmp_path / "sw"),
        "base": base,
        "grid": grid or {
            "federation.algorithm": ["fedavg", "fedbabu"],
            "partition.shards_per_client": [1, 2],
        },
        "seeds": list(seeds),
    }
    if rounds:
        sweep["grid"]["federation.rounds"] = rounds
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(sweep))
    return path, Path(sweep["out"])


@pytest.mark.parametrize(
    "key, value",
    [
        ("grid.federation.rounds", 3),
        ("grid.federation.rounds", []),
        ("grid", []),
        ("base", []),
        ("seeds", 3),
        ("seeds", []),
        ("name", 5),
        ("out", 5),
    ],
)
def test_sweep_file_of_wrong_shape_exits_2_naming_the_key(tmp_path, capsys, key, value):
    sweep_path, out = sweep_config(tmp_path)
    sweep = json.loads(sweep_path.read_text())
    if key.startswith("grid."):
        sweep["grid"][key.removeprefix("grid.")] = value
    else:
        sweep[key] = value
    sweep_path.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(sweep_path)]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_jobs_below_one_exits_2_before_any_cell(tmp_path, capsys, jobs):
    # run_sweep only pools for jobs > 1, so these would run serially and exit 0
    sweep_path, out = sweep_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--config", str(sweep_path), "--jobs", jobs])
    assert exc.value.code == 2
    assert f"argument --jobs: must be at least 1, not {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_produces_one_row_per_cell(tmp_path):
    sweep_path, out = sweep_config(tmp_path)
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    lines = (out / "results.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + 4  # comment + header + 2 algs x 2 shard values
    header = lines[1].split(",")
    assert "initial_mean" in header and "personalized_std" in header


def test_sweep_budget_mismatch_rejected(tmp_path):
    sweep_path, _ = sweep_config(tmp_path, rounds=[3, 6])
    assert main(["sweep", "--config", str(sweep_path)]) == 2


def test_sweep_resume_reuses_cells_and_matches(tmp_path):
    sweep_path, out = sweep_config(tmp_path)
    main(["sweep", "--config", str(sweep_path)])
    results = (out / "results.csv").read_bytes()
    # wipe the consolidated CSV, keep cells: resume must reproduce it
    (out / "results.csv").unlink()
    stamps = {
        p: p.stat().st_mtime_ns for p in out.glob("cells/*/result.json")
    }
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    assert (out / "results.csv").read_bytes() == results
    for p, stamp in stamps.items():
        assert p.stat().st_mtime_ns == stamp  # cell untouched


def test_sweep_parallel_jobs_match_serial(tmp_path):
    sweep_path, out = sweep_config(tmp_path)
    main(["sweep", "--config", str(sweep_path)])
    serial = (out / "results.csv").read_bytes()
    import shutil

    shutil.rmtree(out)
    assert main(["sweep", "--config", str(sweep_path), "--jobs", "2"]) == 0
    assert (out / "results.csv").read_bytes() == serial


def read_results(out):
    lines = (out / "results.csv").read_text().strip().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_sweep_eval_settings_key_the_cells(tmp_path):
    # an eval-only axis gets one cell per value, not the first value's row twice
    sweep_path, out = sweep_config(tmp_path, grid={"eval.part": ["head", "full"]})
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    rows = read_results(out)
    assert sorted(r["part"] for r in rows) == ["full", "head"]
    assert len(list(out.glob("cells/*/result.json"))) == 2
    # a rerun with changed eval settings must not serve the cached rows
    sweep = json.loads(sweep_path.read_text())
    sweep["base"]["eval"]["finetune_epochs"] = [2]
    sweep_path.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    assert sorted(r["tau_f"] for r in read_results(out)) == ["2", "2"]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda record: "{corrupt",
        lambda record: "{}",
        lambda record: "[1]",
        lambda record: json.dumps({**record, "personalized": {"0": record["personalized"]["0"]}}),
    ],
    ids=["unparsable", "empty-object", "list", "missing-tau-f"],
)
def test_sweep_corrupt_cell_rerun(tmp_path, caplog, corrupt):
    # a stored result that is not the whole cell's record is rerun, not served
    sweep_path, out = sweep_config(tmp_path, grid={"federation.algorithm": ["fedavg"]})
    sweep = json.loads(sweep_path.read_text())
    sweep["base"]["eval"]["finetune_epochs"] = [0, 1]
    sweep_path.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    results = (out / "results.csv").read_bytes()
    cell_result = next(out.glob("cells/*/result.json"))
    stored = cell_result.read_text()
    cell_result.write_text(corrupt(json.loads(stored)))
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    assert "corrupt result, rerunning" in caplog.text
    assert (out / "results.csv").read_bytes() == results
    assert cell_result.read_text() == stored


def test_sweep_reruns_a_cell_whose_idx_data_changed(tmp_path, caplog):
    (ti, tl), (vi, vl) = make_idx_dataset(tmp_path)
    sweep_path, out = sweep_config(tmp_path, grid={"federation.algorithm": ["fedavg"]})
    sweep = json.loads(sweep_path.read_text())
    sweep["base"]["dataset"] = {
        "kind": "idx", "train_images": ti, "train_labels": tl,
        "test_images": vi, "test_labels": vl,
    }
    sweep["base"]["network"] = {"kind": "conv2", "channels": [4], "kernel": 3, "padding": 1, "pool": 2}
    sweep_path.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    cell_result = next(out.glob("cells/*/result.json"))
    first = json.loads(cell_result.read_text())
    overwrite_idx_images(Path(ti))
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    assert f"result is of other data (data digest {first['data_digest']}" in caplog.text
    second = json.loads(cell_result.read_text())
    assert second["data_digest"] != first["data_digest"]
    assert second["initial_mean"] != first["initial_mean"]


def test_sweep_reruns_a_cell_whose_record_has_no_data_digest(tmp_path, caplog):
    sweep_path, out = sweep_config(tmp_path, grid={"federation.algorithm": ["fedavg"]})
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    results = (out / "results.csv").read_bytes()
    cell_result = next(out.glob("cells/*/result.json"))
    stored = cell_result.read_text()
    record = json.loads(stored)
    del record["data_digest"]
    cell_result.write_text(json.dumps(record))
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    assert "result records no data digest, rerunning" in caplog.text
    assert (out / "results.csv").read_bytes() == results
    assert cell_result.read_text() == stored


@pytest.mark.parametrize("key", ["federation.init", "partition.test_mode"])
def test_sweep_bad_value_in_a_later_cell_exits_2_before_training(tmp_path, capsys, key):
    good = {"federation.init": "he_uniform", "partition.test_mode": "matched"}[key]
    sweep_path, out = sweep_config(tmp_path, grid={key: [good, "bogus"]})
    assert main(["sweep", "--config", str(sweep_path)]) == 2
    assert "bogus" in capsys.readouterr().err
    assert not list(out.glob("cells/*/result.json"))


def test_sweep_axis_over_a_section_the_base_omits(tmp_path):
    # the omitted section takes its defaults, as in a single-run config
    sweep_path, out = sweep_config(tmp_path, grid={"eval.part": ["head", "full"]})
    sweep = json.loads(sweep_path.read_text())
    del sweep["base"]["eval"]
    sweep_path.write_text(json.dumps(sweep))
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    assert sorted(r["part"] for r in read_results(out)) == ["full", "head"]
    del sweep["base"]["federation"]
    sweep["grid"] = {"federation.algorithm": ["fedavg", "fedbabu"]}
    sweep_path.write_text(json.dumps(sweep))
    cells = expand_cells(load_sweep(sweep_path))
    assert [c["federation"]["algorithm"] for c in cells] == ["fedavg", "fedbabu"]
    assert cells[0]["federation"]["clients"] == 20  # the default


def test_sweep_typo_axis_exits_2_naming_it(tmp_path, capsys):
    sweep_path, out = sweep_config(tmp_path, grid={"federation.shards": [1, 2]})
    assert main(["sweep", "--config", str(sweep_path)]) == 2
    assert "'federation.shards'" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_seed_axis_exits_2_pointing_to_seeds(tmp_path, capsys):
    # the seeds list would overwrite the axis, giving identical rows
    sweep_path, out = sweep_config(tmp_path, grid={"seed": [1, 2]})
    assert main(["sweep", "--config", str(sweep_path)]) == 2
    assert "'seeds'" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


# --- failures found before, or after, the work -----------------------------------


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameters_after_the_last_train_update_exit_3(tmp_path, capsys):
    # 1e41 is a finite config value but inf in float32; with one update per
    # client no step's loss follows the update that overflows
    cfg_path, out = tiny_config(
        tmp_path,
        **{"federation.base_lr": 1e41, "federation.rounds": 1, "federation.batch_size": 50},
    )
    assert main(["train", "--config", str(cfg_path)]) == 3
    assert "round 1, client 0: non-finite parameters after local update 0" in capsys.readouterr().err
    assert not (out / "checkpoint.pv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_parameters_after_the_last_finetune_update_exit_3(tmp_path, capsys):
    cfg_path, out = tiny_config(tmp_path, **{"federation.batch_size": 50, "eval.lr": 1e41})
    assert main(["train", "--config", str(cfg_path)]) == 0
    capsys.readouterr()
    assert main(["eval", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert "fine-tune tf=1, client 0: non-finite parameters after local update 0" in err
    assert not list((out / "eval").glob("*"))


@pytest.mark.parametrize("command", ["train", "eval", "sweep"])
def test_empty_finetune_epochs_exits_2_naming_the_key(tmp_path, capsys, command):
    # a sweep cell would train and evaluate, then write no results.csv row
    if command == "sweep":
        cfg_path, out = sweep_config(tmp_path)
        sweep = json.loads(cfg_path.read_text())
        sweep["base"]["eval"]["finetune_epochs"] = []
        cfg_path.write_text(json.dumps(sweep))
    else:
        cfg_path, out = tiny_config(tmp_path, **{"eval.finetune_epochs": []})
    assert main([command, "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "config key 'eval.finetune_epochs' must list at least one value" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "grid, seeds, named",
    [
        (None, (0, 0), 'seed 0, federation.algorithm="fedavg", partition.shards_per_client=1'),
        ({"federation.algorithm": ["fedavg", "fedbabu", "fedavg"]}, (0, 1),
         'seed 0, federation.algorithm="fedavg"'),
    ],
    ids=["seed", "grid-value"],
)
def test_sweep_repeated_cell_exits_2_before_any_cell(tmp_path, capsys, grid, seeds, named):
    # two cells of one directory would train it at once and count it twice
    sweep_path, out = sweep_config(tmp_path, grid=grid, seeds=seeds)
    assert main(["sweep", "--config", str(sweep_path), "--jobs", "2"]) == 2
    assert f"sweep repeats a cell: {named}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["train", "eval", "partition", "sweep"])
def test_output_directory_that_cannot_be_created_exits_2_before_any_work(
    tmp_path, capsys, monkeypatch, command
):
    import fedsim.experiment

    blocker = tmp_path / "a-file"
    blocker.write_text("")
    bad = blocker / "out"
    if command == "sweep":
        cfg_path, _ = sweep_config(tmp_path)
    else:
        cfg_path, trained = tiny_config(tmp_path)
    argv = [command, "--config", str(cfg_path), "--out", str(bad)]
    if command == "eval":
        assert main(["train", "--config", str(cfg_path)]) == 0
        argv += ["--checkpoint", str(trained)]
    reached = []
    for name in ("build_datasets", "run_federation"):
        def record(*args, _name=name, _fn=getattr(fedsim.experiment, name), **kwargs):
            reached.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(fedsim.experiment, name, record)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"cannot create output directory {bad}" in capsys.readouterr().err
    assert reached == []


def test_sweep_iid_cell_reports_no_beta(tmp_path):
    sweep_path, out = sweep_config(tmp_path, grid={"partition.mode": ["iid", "shard"]})
    assert main(["sweep", "--config", str(sweep_path)]) == 0
    assert {r["partition_mode"]: r["s_or_beta"] for r in read_results(out)} == {
        "iid": "", "shard": "2"
    }
