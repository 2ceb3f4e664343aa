"""fedsim benchmark: train a federation, then evaluate it, and time both.

    python3 benchmarks/run.py --workload mlp-shard-fedbabu --seed 0 --seconds 30 --trace 0

Runs one workload in this process, driving fedsim from outside through
``experiment.prepare``, ``run_train`` and ``run_eval``, on the package in
``src/`` next to this directory. Every input is generated from ``--seed``.
After one untimed warm-up repeat and the set-up timing it repeats
train+eval until ``--seconds`` after the start (at least three times), and
checks every repeat's outputs. BLAS runs on one thread.

``--trace 0`` reports the end-to-end metrics. ``train_s`` and ``eval_s`` are
medians over the repeats, and ``setup_s`` the median of many short
set-ups. Each time is scaled to a reference host speed by a fixed reference
task timed right before and after it (``hostspeed.py``), because this
host's speed drifts with its other tenants' load; the wall times as
measured are in the info line.
``--trace 1`` alternates untraced and traced repeats and reports the
per-layer metrics, with the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds machine facts, code size, checkpoint hashes and failures.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy loads OpenBLAS: on a host of a few
# shared cores, a BLAS call split over all of them waits for whichever core
# the other tenants slow most.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from hostspeed import host_scale, reference_s
from tracing import Tracer, layer_metrics, probe_network
from workloads import WORKLOADS, local_steps

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 21  # at least this many set-ups,
SETUP_SECONDS = 2.0  # and for at least this long
MIN_TIMED = 3
WALL_LIMIT_S = 140  # stop repeating past this, whatever --seconds says
UNITS = {"local_steps_per_s": "steps/s", "personalized_acc": "fraction"}


def import_fedsim():
    """Import the package from this checkout's src/, and nothing else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import fedsim.engine
        import fedsim.experiment
        import fedsim.params
    except ImportError as e:
        sys.exit(f"benchmark: cannot import fedsim from {src}: {e}")
    if Path(fedsim.__file__).resolve().parent.parent != src:
        sys.exit(f"benchmark: fedsim was imported from {fedsim.__file__}, not {src}")
    return fedsim


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    for suffix, unit in (
        ("_us", "us"), ("_ms", "ms"), ("_s", "s"), (".s", "s"), ("_pct", "%"),
        ("_frac", "fraction"), ("_gflop", "Gflop"), ("_mb", "MB"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


class Workload:
    """One workload's config, reference facts and repeated train+eval."""

    def __init__(self, fedsim, name: str, seed: int, work: Path):
        self.exp = fedsim.experiment
        self.blob_params = fedsim.params.ParamVector.from_blob
        self.work = work
        self.cfg = WORKLOADS[name](seed, work)
        self.repeats = 0
        self.failures: list[str] = []
        self.reference: tuple | None = None  # (checkpoint sha256, personalized acc)

        self.setup_cfg = self.exp.ExperimentConfig.from_dict(dict(self.cfg, out=str(work / "setup")))
        fl_cfg, data, template = self.exp.prepare(self.setup_cfg)
        self.rounds = fedsim.engine.total_rounds(fl_cfg)
        self.client_sizes = [len(s.train_indices) for s in data.splits]
        # the head is the last parameter segment
        self.initial_head = self.head(template.params)
        self.check_head = self.cfg["federation"]["algorithm"] == "fedbabu"
        self.host_s = [reference_s()]  # reference task times, in order

    def time_setup(self) -> tuple[list[float], float]:
        """Set-up times, and the host scale around them."""
        times = []
        before = self.host_s[-1]
        end = time.perf_counter() + SETUP_SECONDS
        while len(times) < SETUP_REPEATS or time.perf_counter() < end:
            t0 = time.perf_counter()
            self.exp.prepare(self.setup_cfg)
            times.append(time.perf_counter() - t0)
        self.host_s.append(reference_s())
        return times, host_scale(before, self.host_s[-1])

    def repeat(self, tracer: Tracer | None = None) -> dict | None:
        """One train+eval; returns its timings and outputs, or None if it
        raised or failed a check."""
        self.repeats += 1
        out = self.work / f"repeat-{self.repeats}"
        try:
            cfg = self.exp.ExperimentConfig.from_dict(dict(self.cfg, out=str(out)))
            if tracer is not None:
                tracer.phase = "train"
            before = self.host_s[-1]
            t0 = time.perf_counter()
            self.exp.run_train(cfg)
            train_s = time.perf_counter() - t0
            self.host_s.append(reference_s())
            if tracer is not None:
                tracer.phase = "eval"
            t0 = time.perf_counter()
            reports = self.exp.run_eval(cfg)
            eval_s = time.perf_counter() - t0
            self.host_s.append(reference_s())
            result = self.check(out, reports)
        except Exception:
            self.failures.append(f"repeat {self.repeats}: {traceback.format_exc(limit=3)}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        problems = result.pop("problems")
        key = (result["checkpoint_sha256"], result["personalized_acc"])
        if not problems and self.reference is None:
            self.reference = key
        elif not problems and key != self.reference:
            problems.append(f"checkpoint sha256 / accuracy {key} differ from the first repeat's {self.reference}")
        if problems:
            self.failures.append(f"repeat {self.repeats}: " + "; ".join(problems))
            return None
        between, after = self.host_s[-2:]
        return dict(
            result,
            train_s=train_s,
            eval_s=eval_s,
            train_scale=host_scale(before, between),
            eval_scale=host_scale(between, after),
        )

    @staticmethod
    def head(params) -> bytes:
        start, end = params.bounds[-1]
        return params.data[start:end].tobytes()

    def check(self, out: Path, reports) -> dict:
        """Output checks of one repeat; problems are listed, not raised."""
        problems = []
        with open(out / "rounds.csv", newline="") as fh:
            rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
        if len(rows) != self.rounds:
            problems.append(f"rounds.csv has {len(rows)} rows, the K*tau budget gives {self.rounds}")
        if not all(math.isfinite(float(r["mean_loss"])) for r in rows):
            problems.append("non-finite loss in rounds.csv")
        client_ids = [[int(c) for c in r["client_ids"].split(";")] for r in rows]

        digest = hashlib.sha256()
        blobs = sorted(out.glob("*.pv"))
        size = 0
        for path in blobs:
            blob = path.read_bytes()
            size += len(blob)
            digest.update(path.name.encode() + blob)
            params = self.blob_params(blob)
            if not np.isfinite(params.data).all():
                problems.append(f"non-finite parameter in {path.name}")
            if path.name == "checkpoint.pv" and self.check_head:
                if self.head(params) != self.initial_head:
                    problems.append("FedBABU head in checkpoint.pv is not bit-identical to its init")

        tf = max(self.cfg["eval"]["finetune_epochs"])
        acc = reports[f"personalized_tf{tf}"].mean
        if not 0.0 <= acc <= 1.0:
            problems.append(f"personalized accuracy {acc} outside [0, 1]")
        return {
            "problems": problems,
            "checkpoint_sha256": digest.hexdigest(),
            "personalized_acc": acc,
            "steps": local_steps(client_ids, self.client_sizes, self.cfg["federation"]),
            "checkpoint_mb": size / 1e6,
            "checkpoint_files": len(blobs),
        }


def machine_facts() -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(str(lib)), symbol, None)
            if fn is not None:
                threads = int(fn())
                break
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in (ROOT / "src").rglob("*.py"))


def measure(args, fedsim, work: Path) -> tuple[dict, dict]:
    started = time.perf_counter()
    wl = Workload(fedsim, args.workload, args.seed, work)
    cold = wl.repeat()
    setup_s, setup_scale = wl.time_setup()
    deadline = started + args.seconds

    def more(done: int) -> bool:
        now = time.perf_counter()
        return now - started < WALL_LIMIT_S and (done < MIN_TIMED or now < deadline)

    timed, traced, layers = [], [], []
    restored, absent = True, []
    while more(min(len(timed), len(traced)) if args.trace else len(timed)):
        timed.append(wl.repeat())
        if args.trace:
            tracer = Tracer()
            with tracer.installed():
                traced.append(wl.repeat(tracer))
                probe_network(args.seed, tracer)
            restored = restored and tracer.restored
            absent = tracer.absent
            if traced[-1] is not None:
                layers.append(layer_metrics(tracer.spans, wl.rounds, traced[-1]["steps"]))
    if not restored:
        wl.failures.append("a wrapped name was not restored after tracing")

    ok = [r for r in timed if r is not None]
    ok_traced = [r for r in traced if r is not None]
    metrics: dict[str, float] = {}
    if ok and not args.trace:
        train_s = statistics.median(r["train_s"] * r["train_scale"] for r in ok)
        metrics = {
            "setup_s": statistics.median(setup_s) * setup_scale,
            "train_s": train_s,
            "eval_s": statistics.median(r["eval_s"] * r["eval_scale"] for r in ok),
            "local_steps_per_s": ok[0]["steps"] / train_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "personalized_acc": ok[0]["personalized_acc"],
        }
    elif ok and layers:
        def train_eval(rows):
            return statistics.median(r["train_s"] * r["train_scale"] + r["eval_s"] * r["eval_scale"] for r in rows)

        plain, with_trace = train_eval(ok), train_eval(ok_traced)
        metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
        metrics["trace.overhead_pct"] = 100.0 * (with_trace / plain - 1.0)
        metrics["experiment.checkpoint_mb"] = ok[0]["checkpoint_mb"]
        metrics["experiment.checkpoint_files"] = ok[0]["checkpoint_files"]

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": machine_facts(),
        "src_lines": src_lines(),
        "runs_attempted": wl.repeats,
        "runs_failed": len(wl.failures),
        "failures": wl.failures,
        "checkpoint_sha256": wl.reference[0] if wl.reference else None,
        "cold_repeat": {k: cold[k] for k in ("train_s", "eval_s")} if cold else None,
        "train_s": [r["train_s"] for r in ok],
        "eval_s": [r["eval_s"] for r in ok],
        "setup_s": {"n": len(setup_s), "quartiles": statistics.quantiles(setup_s, n=4)},
        "reference_s": wl.host_s,
        "traced_train_eval_s": [r["train_s"] + r["eval_s"] for r in ok_traced],
        "absent_wrapped_names": absent,
        "local_steps": ok[0]["steps"] if ok else None,
    }
    result = {
        "correct": bool(metrics) and not wl.failures,
        "attempted": wl.repeats,
        "failed": len(wl.failures),
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    fedsim = import_fedsim()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        info, result = measure(args, fedsim, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    for failure in info["failures"]:
        print(failure, file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
