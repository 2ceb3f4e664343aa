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

Scaling by the reference task steadies each side, but the task itself can
run slower on one side than on the other, and then the scaled times differ
by that gap and not by the code. So each run's reference-task times
(``reference_s``) are copied per side, and ``host_gap`` is the median over
pairs of the change's reference-task median over the parent's. When it
lies outside the band of one plus or minus the parent's own reference-task
spread (at least ``GAP_FLOOR``), every host-scaled verdict of the workload
reads ``unresolved``. Each metric also records whether its raw and scaled
median ratios point the same way (``agree``), in how many pairs the raw
and scaled ratios point the same way (``agree_pairs``), and ``gain``:
whether raw and scaled values each meet the rule for claiming a gain
(``meets_claim``) and neither verdict is ``unresolved``. A scaling bias
that the host-gap band is too wide to catch shows as pairs that disagree:
scaled values worse in every pair while raw ones split both ways.
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

# the least host gap band: the reference task's own run-to-run noise
GAP_FLOOR = 0.03

# the metrics the benchmark scales by the reference task
HOST_SCALED = ("train_s", "eval_s", "setup_s", "local_steps_per_s")


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


def host_gap(runs: list[dict]) -> dict:
    """Each side's reference-task times per pair, the median over pairs of
    the change's median over the parent's (``gap``), and the band around 1
    it must lie in: the parent's spread of its medians, at least GAP_FLOOR.
    ``gap`` is None unless every run reported its reference times."""
    times = {
        side: [r[side]["info"].get("reference_s") for r in runs]
        for side in ("parent", "change")
    }
    out = {"reference_s": times, "gap": None, "band": None, "outside": False}
    if not runs or any(t is None for side in times.values() for t in side):
        return out
    medians = {side: [statistics.median(t) for t in times[side]] for side in times}
    out["gap"] = statistics.median(c / p for p, c in zip(medians["parent"], medians["change"]))
    out["band"] = max(GAP_FLOOR, spread(medians["parent"]) or 0.0)
    out["outside"] = abs(out["gap"] - 1) > out["band"]
    return out


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


def direction(result: dict) -> int:
    """+1 if the change's median ratio is better than the parent's, -1 if
    worse, 0 if equal or unknown."""
    worse_by = result.get("worse_by")
    return 0 if not worse_by else (-1 if worse_by > 0 else 1)


def agree_pairs(scaled: dict, raw: dict) -> int:
    """The pairs whose raw and scaled values move the same way from the
    parent to the change (both up, both down, or both equal)."""
    sides = (scaled["parent"], scaled["change"], raw["parent"], raw["change"])
    return sum((sc > sp) - (sc < sp) == (rc > rp) - (rc < rp) for sp, sc, rp, rc in zip(*sides))


def meets_claim(result: dict) -> bool:
    """Whether the change wins at least nine tenths of the pairs and its
    median differs from the parent's by more than the parent's
    interquartile range, in the better direction."""
    iqr = result["parent_spread"]  # None for one pair or a zero median
    return (
        direction(result) == 1
        and 10 * result["wins"] >= 9 * len(result["parent"])
        and iqr is not None
        and abs(result["change_median"] / result["parent_median"] - 1) > iqr
    )


def summarize(runs: list[dict], bounds: dict) -> dict:
    """One workload's pairs, metric by metric, over the pairs where both
    sides produced metrics."""
    both = [r for r in runs if all("result" in r[side] for side in ("parent", "change"))]
    gap = host_gap(both)
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
        "host_gap": gap,
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
        scaled = compare(values["parent"], values["change"], better, bound)
        if gap["outside"] and name in HOST_SCALED:
            scaled["verdict"] = "unresolved"
        raw_cmp = compare(raw["parent"], raw["change"], better, bound)
        verdicts = (scaled["verdict"], raw_cmp["verdict"])
        out["metrics"][name] = {
            "better": better,
            "bound": bound,
            "scaled": scaled,
            "raw": raw_cmp,
            "agree": direction(scaled) == direction(raw_cmp),
            "agree_pairs": agree_pairs(scaled, raw_cmp),
            "gain": meets_claim(scaled) and meets_claim(raw_cmp) and "unresolved" not in verdicts,
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
