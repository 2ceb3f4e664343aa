"""tools/bench_pairs.py against a stub benchmark in a throwaway git repo."""

import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"

# prints what benchmarks/run.py prints last: an info line, then a result
# line; its timings come from SPEED, which the two commits set apart
STUB = '''
import argparse, json, os
SPEED = {speed}
RSS = {rss}
p = argparse.ArgumentParser()
for flag in ("--workload", "--seed", "--seconds", "--trace"):
    p.add_argument(flag)
a = p.parse_args()
with open(os.environ["STUB_LOG"], "a") as fh:
    fh.write(f"{{SPEED}} {{a.workload}} {{a.seed}}\\n")
seed = int(a.seed)
info = {{"machine": {{"nproc": 2}}, "src_lines": 10, "runs_failed": 0,
        "checkpoint_sha256": "same", "train_s": [SPEED * 0.9, SPEED, SPEED * 1.2],
        "eval_s": [SPEED], "setup_s": {{"n": 3, "quartiles": [1.0, 2.0, 3.0]}},
        "local_steps": 100}}
metrics = {{"train_s": SPEED * (1 + seed / 100), "peak_rss_mb": RSS}}
print("warm-up chatter")
print(json.dumps({{"info": info}}))
print(json.dumps({{"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {{k: {{"value": v, "unit": "x"}} for k, v in metrics.items()}}}}))
'''

BENCHMARK = {
    "command": ["python3", "benchmarks/run.py"],
    "paths": ["benchmarks"],
    "end_to_end": [
        {"name": "train_s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        {"name": "eval_s", "better": "lower", "bound": 0.25},  # the stub reports none
    ],
}


def load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def commit(repo: Path, speed: float, rss: float) -> str:
    (repo / "benchmarks" / "run.py").write_text(STUB.format(speed=speed, rss=rss))
    git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
    subprocess.run([*git, "add", "-A"], check=True, capture_output=True)
    subprocess.run([*git, "commit", "-q", "-m", f"speed {speed}"], check=True, capture_output=True)
    return subprocess.run(
        [*git, "rev-parse", "HEAD"], check=True, capture_output=True, text=True
    ).stdout.strip()


def test_pairs_alternate_and_compare_against_the_bounds(tmp_path, monkeypatch):
    repo = tmp_path / "repo"
    (repo / "benchmarks").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    parent = commit(repo, speed=2.0, rss=100.0)
    change = commit(repo, speed=1.0, rss=150.0)
    (repo / "benchmarks" / "run.py").write_text("raise SystemExit('uncommitted edit')")
    log = tmp_path / "stub.log"
    monkeypatch.setenv("STUB_LOG", str(log))
    monkeypatch.chdir(repo / "benchmarks")  # anywhere inside the repo

    assert load_tool().main([parent, change, "--workload", "w", "--pairs", "2", "--label", "t"]) == 0

    # committed files ran, never the edited one; the first side alternates
    assert log.read_text().split("\n")[:-1] == ["2.0 w 0", "1.0 w 0", "1.0 w 1", "2.0 w 1"]
    report = json.loads((repo / "BENCH_t.json").read_text())
    assert (report["parent"], report["change"], report["pairs"]) == (parent, change, 2)
    assert report["machine"] == [{"nproc": 2}]
    w = report["workloads"]["w"]
    assert w["seeds"] == [0, 1] and w["first"] == ["parent", "change"]
    assert w["runs_failed"] == {"parent": 0, "change": 0} and w["errors"] == []
    assert w["checkpoint_sha256_equal"] == [True, True]
    assert sorted(w["metrics"]) == ["peak_rss_mb", "train_s"]

    train = w["metrics"]["train_s"]
    assert (train["better"], train["bound"]) == ("lower", 0.25)
    assert train["scaled"]["parent"] == [2.0, 2.0 * 1.01]
    assert train["scaled"]["ratios"] == [0.5, 0.5]
    assert train["scaled"]["wins"] == 2 and train["scaled"]["verdict"] == "within"
    assert train["raw"]["parent"] == [2.0, 2.0] and train["raw"]["change"] == [1.0, 1.0]

    rss = w["metrics"]["peak_rss_mb"]["scaled"]
    assert rss["median_ratio"] == 1.5 and rss["wins"] == 0 and rss["verdict"] == "worse"


def test_scaled_verdicts_are_unresolved_when_the_reference_task_slows_on_one_side(
    tmp_path, monkeypatch
):
    # both sides run the code at one speed, but the change's reference task
    # runs 20% slower, so its scaled times would read better by that gap
    repo = tmp_path / "repo"
    (repo / "benchmarks").mkdir(parents=True)
    subprocess.run(["git", "init", "-q", str(repo)], check=True)
    (repo / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    with_reference = STUB.replace('"local_steps": 100}}', '"local_steps": 100, "reference_s": {ref}}}')
    revs = []
    for ref in ([1.0, 1.01, 0.99], [1.2, 1.21, 1.19]):
        (repo / "benchmarks" / "run.py").write_text(with_reference.format(speed=1.0, rss=100.0, ref=ref))
        git = ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t"]
        subprocess.run([*git, "add", "-A"], check=True, capture_output=True)
        subprocess.run([*git, "commit", "-q", "-m", f"ref {ref}"], check=True, capture_output=True)
        revs.append(subprocess.run([*git, "rev-parse", "HEAD"], capture_output=True, text=True).stdout.strip())
    monkeypatch.setenv("STUB_LOG", str(tmp_path / "stub.log"))
    monkeypatch.chdir(repo)

    assert load_tool().main([*revs, "--workload", "w", "--pairs", "3", "--label", "t"]) == 0

    w = json.loads((repo / "BENCH_t.json").read_text())["workloads"]["w"]
    gap = w["host_gap"]
    assert gap["reference_s"]["parent"] == [[1.0, 1.01, 0.99]] * 3
    assert gap["reference_s"]["change"] == [[1.2, 1.21, 1.19]] * 3
    assert gap["gap"] == 1.2 and gap["band"] == 0.03 and gap["outside"]
    train = w["metrics"]["train_s"]
    assert train["scaled"]["verdict"] == "unresolved" and train["raw"]["verdict"] == "within"
    assert train["agree"] and not train["gain"]  # equal speeds: neither side wins
    # peak RSS is not scaled by the host's speed, so the gap leaves it alone
    assert w["metrics"]["peak_rss_mb"]["scaled"]["verdict"] == "within"


def test_a_gain_needs_nine_tenths_of_the_pairs_and_more_than_the_parent_spread():
    tool = load_tool()
    parent = [1.0, 1.02, 0.98, 1.01, 0.99, 1.0, 1.03, 0.97, 1.0, 1.0]
    faster = [p * 0.9 for p in parent]
    assert tool.meets_claim(tool.compare(parent, faster, "lower", 0.25))
    # eight wins of ten are too few, however large the gain
    assert not tool.meets_claim(tool.compare(parent, faster[:8] + parent[8:], "lower", 0.25))
    # a gain inside the parent's own spread is noise
    assert not tool.meets_claim(tool.compare(parent, [p * 0.995 for p in parent], "lower", 0.25))
    assert not tool.meets_claim(tool.compare(parent, [p * 1.1 for p in parent], "lower", 0.25))


def test_agree_pairs_counts_the_pairs_whose_raw_and_scaled_values_move_alike():
    # the scaled times read 5% worse in every pair, as a reference task
    # biased against the change would make them; the raw ones read better
    # in six pairs and worse in four
    def side(scaled, raw):
        info = {"runs_failed": 0, "checkpoint_sha256": "same", "src_lines": 10, "train_s": [raw]}
        return {"info": info, "result": {"metrics": {"train_s": {"value": scaled}}}}

    raw = [0.98] * 6 + [1.01] * 4
    runs = [
        {"seed": i, "first": "parent", "parent": side(1.0, 1.0), "change": side(1.05, r)}
        for i, r in enumerate(raw)
    ]
    train = load_tool().summarize(runs, {"train_s": ("lower", 0.25)})["metrics"]["train_s"]
    assert train["scaled"]["wins"] == 0 and train["raw"]["wins"] == 6
    assert not train["agree"]  # the medians point apart
    assert train["agree_pairs"] == 4


BOUNDS = {
    "train_s": ("lower", 0.25), "eval_s": ("lower", 0.25), "setup_s": ("lower", 0.25),
    "local_steps_per_s": ("higher", 0.25), "peak_rss_mb": ("lower", 0.1),
}


def pairs(change_reference=1.0, change_rss=100.0, n=10):
    """``n`` pairs whose sides run the code at one speed; the benchmark
    divides each raw time by its side's reference-task time."""
    def side(seed, reference, rss):
        raw = 1.0 + seed / 100
        info = {
            "runs_failed": 0, "checkpoint_sha256": "same", "src_lines": 10, "local_steps": 100,
            "train_s": [raw], "eval_s": [raw], "setup_s": {"quartiles": [raw] * 3},
            "reference_s": [reference],
        }
        scaled = {"train_s": raw / reference, "eval_s": raw / reference, "setup_s": raw / reference,
                  "local_steps_per_s": 100 * reference / raw, "peak_rss_mb": rss + seed % 3 / 100}
        return {"info": info, "result": {"metrics": {k: {"value": v} for k, v in scaled.items()}}}

    return [
        {"seed": i, "first": "parent", "parent": side(i, 1.0, 100.0),
         "change": side(i, change_reference, change_rss)}
        for i in range(n)
    ]


def test_verdicts_and_gains_come_from_raw_values():
    # the change's reference task runs 16% faster, so its scaled times read
    # about 19% worse; the raw times, and so the verdicts, are those of equal sides
    tool = load_tool()
    equal = tool.summarize(pairs(), BOUNDS)
    gap = tool.summarize(pairs(change_reference=0.84), BOUNDS)
    assert gap["host_gap"]["outside"] and not equal["host_gap"]["outside"]
    for name in BOUNDS:
        assert gap["metrics"][name]["verdict"] == equal["metrics"][name]["verdict"] == "within"
        assert gap["metrics"][name]["gain"] is equal["metrics"][name]["gain"] is False
    train = gap["metrics"]["train_s"]
    assert train["scaled"]["verdict"] == "unresolved"  # kept as a diagnostic
    assert train["scaled"]["median_ratio"] > 1.18 and train["raw"]["median_ratio"] == 1.0


def test_a_peak_rss_gain_must_exceed_the_heap_layout_floor():
    # 0.4 MB less in every pair is far outside the parent's spread, yet
    # inside the 0.5 MB that the heap layout moves alone
    tool = load_tool()
    assert tool.FLOORS["peak_rss_mb"] == 0.5
    rss = tool.summarize(pairs(change_rss=99.6), BOUNDS)["metrics"]["peak_rss_mb"]
    assert rss["raw"]["wins"] == 10 and tool.meets_claim(rss["raw"])
    assert not rss["gain"]
    assert tool.summarize(pairs(change_rss=99.4), BOUNDS)["metrics"]["peak_rss_mb"]["gain"]


def test_host_facts_name_the_c_library_and_the_allocator_environment(monkeypatch):
    tool = load_tool()
    monkeypatch.setenv("MALLOC_ARENA_MAX", "2")
    monkeypatch.delenv("MALLOC_TRIM_THRESHOLD_", raising=False)
    facts = tool.machine()
    assert facts["malloc_env"]["MALLOC_ARENA_MAX"] == "2"
    assert "MALLOC_TRIM_THRESHOLD_" not in facts["malloc_env"]
    assert facts["libc"] is None or facts["libc"].startswith("glibc")
    monkeypatch.delenv("MALLOC_ARENA_MAX")
    assert "MALLOC_ARENA_MAX" not in tool.machine()["malloc_env"]
