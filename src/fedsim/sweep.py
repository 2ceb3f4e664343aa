"""Grid sweeps over algorithms and FL settings, resumable cell by cell."""

from __future__ import annotations

import copy
import csv
import itertools
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .experiment import (
    SCHEMA_VERSION,
    ConfigError,
    ExperimentConfig,
    _check,
    _run_inputs,
    make_out_dir,
    run_eval,
    run_train,
)

log = logging.getLogger("fedsim")

RESULT_COLUMNS = [
    "config_hash",
    "algorithm",
    "partition_mode",
    "s_or_beta",
    "clients",
    "fraction",
    "local_epochs",
    "rounds",
    "seed",
    "tau_f",
    "part",
    "initial_mean",
    "initial_std",
    "personalized_mean",
    "personalized_std",
]


def _set_dotted(d: dict, dotted: str, value) -> None:
    """Set a grid key, creating the sections ``d`` omits; the schema names
    an unknown key when the cell loads."""
    *sections, leaf = dotted.split(".")
    for key in sections:
        d = d.setdefault(key, {})
        if not isinstance(d, dict):
            raise ConfigError(f"grid key {dotted!r}: {key!r} is not a config section")
    d[leaf] = value


def load_sweep(path) -> dict:
    """A sweep file: objects ``base`` and ``grid``, each grid axis a
    non-empty list, ``seeds`` a non-empty list of integers >= 0, and
    strings ``name`` and ``out``. A failed check names the key."""
    try:
        sweep = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read sweep config {path}: {e}") from e
    if not isinstance(sweep, dict):
        raise ConfigError(f"sweep config {path} is not a JSON object")
    for key in ("base", "grid"):
        if key not in sweep:
            raise ConfigError(f"sweep config needs a {key!r} section")
        _check(key, sweep[key], "object")
    sweep.setdefault("seeds", [sweep["base"].get("seed", 0)])
    sweep.setdefault("name", "sweep")
    _check("name", sweep["name"], "string")
    sweep.setdefault("out", "runs/" + sweep["name"])
    _check("out", sweep["out"], "string")
    # an empty list would leave the sweep without a cell
    for axis, values in sweep["grid"].items():
        _check(f"grid.{axis}", values, "list")
        if not values:
            raise ConfigError(f"config key 'grid.{axis}' must list at least one value")
    _check("seeds", sweep["seeds"], "list of integers", 0)
    if not sweep["seeds"]:
        raise ConfigError("config key 'seeds' must list at least one value")
    return sweep


def expand_cells(sweep: dict) -> list[ExperimentConfig]:
    """Cartesian product of the grid axes and the seed list. Two cells of
    one cell directory (a repeated seed or grid value) are a ConfigError,
    as they would train it twice and count it twice."""
    grid = sweep["grid"]
    if "seed" in grid:
        raise ConfigError("a sweep sets seeds through its 'seeds' list, not a 'seed' grid axis")
    axes = sorted(grid)
    combos = list(itertools.product(*(grid[a] for a in axes)))
    cells: dict[Path, ExperimentConfig] = {}
    out_root = Path(sweep["out"])
    for combo in combos:
        for seed in sweep["seeds"]:
            raw = copy.deepcopy(sweep["base"])
            raw.pop("out", None)
            for axis, value in zip(axes, combo):
                _set_dotted(raw, axis, value)
            raw["seed"] = seed
            cfg = ExperimentConfig.from_dict(raw)
            # eval settings are part of the key: an eval-only change is a new cell
            cell_dir = out_root / "cells" / cfg.config_hash(with_eval=True)
            if cell_dir in cells:
                shown = "".join(f", {a}={json.dumps(v)}" for a, v in zip(axes, combo))
                raise ConfigError(f"sweep repeats a cell: seed {seed}{shown}")
            cells[cell_dir] = cfg.with_overrides(out=str(cell_dir))
    budgets = {
        c["federation"]["rounds"] * c["federation"]["local_epochs"] for c in cells.values()
    }
    if len(budgets) > 1:
        raise ConfigError(
            f"sweep cells disagree on the rounds*local_epochs budget: {sorted(budgets)}"
        )
    return list(cells.values())


def _cell_summary(cfg: ExperimentConfig) -> dict:
    fed = cfg["federation"]
    part_cfg = cfg["partition"]
    s_or_beta = {"shard": part_cfg["shards_per_client"], "dirichlet": part_cfg["beta"]}.get(
        part_cfg["mode"]
    )  # None for iid, an empty CSV field
    return {
        "config_hash": cfg.config_hash(),
        "algorithm": fed["algorithm"],
        "partition_mode": part_cfg["mode"],
        "s_or_beta": s_or_beta,
        "clients": fed["clients"],
        "fraction": fed["fraction"],
        "local_epochs": fed["local_epochs"],
        "rounds": fed["rounds"],
        "seed": cfg.seed,
        "part": cfg["eval"]["part"],
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _holds_cell(record, cfg: ExperimentConfig) -> bool:
    """Whether a stored result is this cell's whole record: its summary,
    the initial mean and std, and a mean and std for each of its τ_f."""
    if not isinstance(record, dict) or not isinstance(record.get("personalized"), dict):
        return False
    tfs = record["personalized"]
    return (
        _cell_summary(cfg).items() <= record.items()
        and _is_number(record.get("initial_mean"))
        and _is_number(record.get("initial_std"))
        and tfs.keys() == {str(tf) for tf in cfg["eval"]["finetune_epochs"]}
        and all(
            isinstance(stats, dict) and _is_number(stats.get("mean")) and _is_number(stats.get("std"))
            for stats in tfs.values()
        )
    )


def run_cell(raw_config: dict) -> dict:
    """Train + evaluate one cell; returns (and persists) its result record.
    A stored record is reused only if it holds the whole cell and names the
    data the cell reads now by its digest, taken from the run's own inputs,
    so a rerun of generated data reuses the build; any other is rerun.
    Top-level so process pools can pick it up."""
    cfg = ExperimentConfig(raw_config)
    result_path = cfg.out_dir / "result.json"
    if result_path.exists():
        try:
            record = json.loads(result_path.read_text())
        except ValueError:  # not UTF-8, or not JSON
            record = None
        if not _holds_cell(record, cfg):
            why = "corrupt result"
        elif "data_digest" not in record:
            why = "result records no data digest"
        elif record["data_digest"] != (digest := _run_inputs(cfg)[3]):
            why = f"result is of other data (data digest {record['data_digest']} vs {digest})"
        else:
            return record
        log.warning("cell %s: %s, rerunning", cfg.config_hash(), why)
    run_train(cfg)
    reports = run_eval(cfg)  # checks the checkpoint's data digest against the data
    record = _cell_summary(cfg)
    record["data_digest"] = json.loads((cfg.out_dir / "checkpoint.json").read_text())["data_digest"]
    record["initial_mean"] = reports["initial"].mean
    record["initial_std"] = reports["initial"].std
    record["personalized"] = {
        str(tf): {
            "mean": reports[f"personalized_tf{tf}"].mean,
            "std": reports[f"personalized_tf{tf}"].std,
        }
        for tf in cfg["eval"]["finetune_epochs"]
    }
    result_path.write_text(json.dumps(record, indent=2, sort_keys=True))
    return record


def run_sweep(sweep: dict, jobs: int = 1) -> Path:
    """Run every cell (in parallel when jobs > 1) and consolidate one CSV
    row per (cell, finetune-epoch) pair."""
    cells = expand_cells(sweep)
    out_root = make_out_dir(Path(sweep["out"]))
    raws = [cell.raw for cell in cells]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(run_cell, raws))
    else:
        records = [run_cell(raw) for raw in raws]

    rows = []
    for record in records:
        for tf, stats in sorted(record["personalized"].items(), key=lambda kv: int(kv[0])):
            row = {
                **record, "tau_f": tf,
                "personalized_mean": stats["mean"], "personalized_std": stats["std"],
            }
            rows.append(
                [f"{row[c]:.6f}" if c.endswith(("_mean", "_std")) else row[c] for c in RESULT_COLUMNS]
            )
    results_path = out_root / "results.csv"
    with open(results_path, "w", newline="") as fh:
        fh.write(f"# schema={SCHEMA_VERSION}\n")
        writer = csv.writer(fh)
        writer.writerow(RESULT_COLUMNS)
        writer.writerows(rows)
    return results_path
