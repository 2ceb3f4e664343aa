"""Paired benchmark runs of two revisions, recorded as ``BENCH_<label>.json``.

    python tools/bench_pairs.py PARENT CHANGE --workload W --pairs N [--seconds S]

Run from inside the git repository. Each revision is exported with
``git archive`` into a fresh directory, and the unedited benchmark command
of ``BENCHMARK.json`` runs there, so each side measures only its committed
files. A pair runs both sides on one seed; which side runs first
alternates from pair to pair, so a drift of the host's speed does not
favour one side; pair i runs seed i. ``--workload`` may be given more
than once.

The benchmark prints two JSON lines last: an info line (machine facts, the
raw wall times, the checkpoint hash, failures) and a result line (the
end-to-end metrics, scaled to a reference host speed). Per workload and
metric, the output file holds both sides' scaled values, the raw medians
from the info line, the per-pair ratios (change / parent), the pairs the
change wins, the spread of the parent's values and a verdict against the
metric's bound from ``BENCHMARK.json``: ``worse`` when the median ratio is
worse than the bound, ``unresolved`` when the parent's own interquartile
range exceeds it, else ``within``. It also records per pair whether both
sides wrote the same checkpoint, and how many runs failed. The file is
rewritten after every pair, so an interrupted session keeps what it ran.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

RUN_TIMEOUT_S = 900


def git(repo: Path, *args: str) -> bytes:
    return subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True).stdout


def export(repo: Path, rev: str, dest: Path) -> None:
    """The files of ``rev`` as committed, unpacked into ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(git(repo, "archive", "--format=tar", rev))) as tar:
        tar.extractall(dest, filter="data")


def run_side(tree: Path, command: list[str], workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``tree``: its info and result lines, or an error."""
    argv = [sys.executable if c.startswith("python") else c for c in command[:1]] + command[1:]
    argv += ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {RUN_TIMEOUT_S} s", "stderr": []}
    try:
        *_, info_line, result_line = proc.stdout.strip().splitlines()
        return {"info": json.loads(info_line)["info"], "result": json.loads(result_line)}
    except (ValueError, KeyError) as e:  # too few lines, or not the benchmark's JSON
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: {e!r}", "stderr": tail}


def raw_value(metric: str, info: dict, scaled: float) -> float:
    """The metric as measured, without host-speed scaling, from the info line."""
    if metric in ("train_s", "eval_s"):
        return statistics.median(info[metric])
    if metric == "setup_s":
        return info["setup_s"]["quartiles"][1]
    if metric == "local_steps_per_s":
        return info["local_steps"] / statistics.median(info["train_s"])
    return scaled  # peak_rss_mb, personalized_acc: no scaling applies


def spread(values: list[float]) -> float | None:
    """Interquartile range over the median."""
    if len(values) < 2:
        return None
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else None


def compare(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    ratios = [c / p for p, c in zip(parent, change) if p]
    lower = better == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    out = {
        "parent": parent,
        "change": change,
        "parent_median": statistics.median(parent),
        "change_median": statistics.median(change),
        "ratios": ratios,
        "median_ratio": statistics.median(ratios) if ratios else None,
        "wins": wins,
        "parent_spread": spread(parent),
    }
    if out["median_ratio"] is None:
        out["verdict"] = "unresolved"
        return out
    worse_by = out["median_ratio"] - 1 if lower else 1 - out["median_ratio"]
    out["worse_by"] = worse_by
    if out["parent_spread"] is not None and out["parent_spread"] > bound:
        out["verdict"] = "unresolved"
    else:
        out["verdict"] = "worse" if worse_by > bound else "within"
    return out


def summarize(runs: list[dict], bounds: dict) -> dict:
    """One workload's pairs, metric by metric, over the pairs where both
    sides produced metrics."""
    both = [r for r in runs if all("result" in r[side] for side in ("parent", "change"))]
    out = {
        "seeds": [r["seed"] for r in runs],
        "first": [r["first"] for r in runs],
        "runs_failed": {
            side: sum(r[side]["info"]["runs_failed"] if "info" in r[side] else 1 for r in runs)
            for side in ("parent", "change")
        },
        "errors": [
            {"seed": r["seed"], "side": side, **{k: r[side][k] for k in ("error", "stderr")}}
            for r in runs for side in ("parent", "change") if "error" in r[side]
        ],
        "checkpoint_sha256_equal": [
            r["parent"]["info"]["checkpoint_sha256"] == r["change"]["info"]["checkpoint_sha256"]
            if "info" in r["parent"] and "info" in r["change"] else None
            for r in runs
        ],
        "src_lines": {
            side: runs[-1][side]["info"]["src_lines"] if "info" in runs[-1][side] else None
            for side in ("parent", "change")
        },
        "metrics": {},
    }
    for name, (better, bound) in bounds.items():
        sides = [r[s]["result"]["metrics"] for r in both for s in ("parent", "change")]
        if not sides or any(name not in metrics for metrics in sides):
            continue
        values, raw = {}, {}
        for s in ("parent", "change"):
            values[s] = [r[s]["result"]["metrics"][name]["value"] for r in both]
            raw[s] = [raw_value(name, r[s]["info"], v) for r, v in zip(both, values[s])]
        out["metrics"][name] = {
            "better": better,
            "bound": bound,
            "scaled": compare(values["parent"], values["change"], better, bound),
            "raw": compare(raw["parent"], raw["change"], better, bound),
        }
    return out


def machine() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "loadavg": os.getloadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", help="the base revision")
    parser.add_argument("change", help="the revision measured against it")
    parser.add_argument("--workload", action="append", required=True, help="repeatable")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0, help="passed to the benchmark")
    parser.add_argument(
        "--label", default=None, help="names BENCH_<label>.json (default: CHANGE's short hash)"
    )
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    repo = Path(git(Path.cwd(), "rev-parse", "--show-toplevel").decode().strip())
    revs = {
        side: git(repo, "rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
        for side, rev in (("parent", args.parent), ("change", args.change))
    }
    label = args.label or revs["change"][:7]
    path = repo / f"BENCH_{label}.json"
    report = {
        "parent": revs["parent"],
        "change": revs["change"],
        "pairs": args.pairs,
        "seconds": args.seconds,
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "host": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, tree in trees.items():
            export(repo, revs[side], tree)
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
        machines = set()  # each run's machine facts, as JSON
        for workload in args.workload:
            runs = []
            for seed in range(args.pairs):
                order = ("parent", "change") if seed % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_side(trees[side], spec["command"], workload, seed, args.seconds)
                    if "info" in pair[side]:
                        machines.add(json.dumps(pair[side]["info"]["machine"], sort_keys=True))
                runs.append(pair)
                report["workloads"][workload] = summarize(runs, bounds)
                report["machine"] = [json.loads(m) for m in sorted(machines)]
                report["host"]["loadavg_end"] = os.getloadavg()
                path.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
                print(f"{workload} pair {seed + 1}/{args.pairs} done", file=sys.stderr)
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
