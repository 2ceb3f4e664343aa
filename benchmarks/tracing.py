"""Outside-in layer trace for the benchmark's traced run.

Spans are recorded by wrapping, from the benchmark's own code, the
module-level names through which fedsim calls each layer. The program is
not edited, and every wrapped name is put back afterwards. A name that a
later refactor removes is reported as absent instead of failing the run.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

KINDS = ("dense", "conv2d", "maxpool2d", "relu", "flatten")
PHASES = ("train", "eval")


def _sgd_cost(args, out):
    """(gradient entries the mask applies, gradient entries computed)."""
    grads, mask = args[1], args[4]
    applied = sum(grads.bounds[i][1] - grads.bounds[i][0] for i in mask.selected())
    return applied, grads.total_len


# (flops, bytes) per kernel call, computed from argument and result shapes:
# multiply-adds count two flops; bytes are the main arrays read and written.
_COSTS = {
    "dense_forward": lambda a, o: (2 * a[0].shape[0] * a[1].size, a[0].nbytes + a[1].nbytes + o[0].nbytes),
    "dense_backward": lambda a, o: (4 * a[0].shape[0] * a[2].size, a[0].nbytes + a[1].nbytes + o[0].nbytes + o[1].nbytes),
    "conv2d_forward": lambda a, o: (2 * o[1][0].shape[0] * a[1].size, a[0].nbytes + 2 * o[1][0].nbytes + o[0].nbytes),
    "conv2d_backward": lambda a, o: (4 * a[1][0].shape[0] * a[2].size, a[0].nbytes + 3 * a[1][0].nbytes + o[0].nbytes),
    "relu_forward": lambda a, o: (a[0].size, a[0].nbytes + o[0].nbytes + o[1].nbytes),
    "relu_backward": lambda a, o: (a[0].size, 2 * a[0].nbytes + a[1].nbytes),
    "maxpool2d_forward": lambda a, o: (a[0].size, a[0].nbytes + o[0].nbytes),
    "maxpool2d_backward": lambda a, o: (o.size, a[0].nbytes + o.nbytes),
    "flatten_forward": None,
    "flatten_backward": None,
}

# (module, attribute, span name, cost function or None)
WRAPPED = [
    *(
        ("fedsim.network", f"{kind}_{d}", f"{kind}.{short}", _COSTS[f"{kind}_{d}"])
        for kind in KINDS
        for d, short in (("forward", "fwd"), ("backward", "bwd"))
    ),
    ("fedsim.network", "softmax_cross_entropy", "softmax_xent", None),
    *(
        (module, attr, span, cost)
        for module in ("fedsim.engine", "fedsim.evaluation")
        for attr, span, cost in (
            ("forward", "network.forward", None),
            ("backward", "network.backward", None),
            ("sgd_step", "optim.sgd_step", _sgd_cost),
            ("assemble_client_params", "engine.assemble_client_params", None),
        )
    ),
    ("fedsim.evaluation", "representations", "network.representations", None),
    ("fedsim.engine", "local_update", "engine.local_update", None),
    ("fedsim.engine", "ditto_update", "engine.ditto_update", None),
    ("fedsim.engine", "aggregate", "engine.aggregate", None),
    ("fedsim.experiment", "run_federation", "engine.run_federation", None),
    ("fedsim.experiment", "save_checkpoint", "experiment.save_checkpoint", None),
    ("fedsim.experiment", "load_checkpoint", "experiment.load_checkpoint", None),
    ("fedsim.experiment", "build_datasets", "datasets.load", None),
    ("fedsim.experiment", "build_splits", "partition.split", None),
    ("fedsim.experiment", "initial_accuracy", "evaluation.initial", None),
    ("fedsim.experiment", "personalized_accuracy", "evaluation.personalized", None),
    ("fedsim.experiment", "template_accuracy", "evaluation.template", None),
    ("fedsim.evaluation", "personalized_models", "evaluation.finetune", None),
    ("fedsim.evaluation", "accuracy", "evaluation.accuracy", None),
]

# span fields
NAME, PHASE, START, END, PARENT, SELF, COST = range(7)


class Tracer:
    """Spans kept in memory as (name, phase, start_ns, end_ns, parent index,
    self_ns, cost) tuples. Self time is the span's duration minus its children's."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.phase = "setup"
        self.absent: list[str] = []
        self.restored = True
        self._stack: list[int] = []
        self._child_ns: list[int] = []

    def wrap(self, name: str, fn, cost):
        spans, stack, child_ns = self.spans, self._stack, self._child_ns
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            child_ns.append(0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_ns = dur - child_ns.pop()
                if child_ns:
                    child_ns[-1] += dur
                spans[index] = (name, tracer.phase, start, end, parent, self_ns, None)
            if cost is not None:
                try:
                    spans[index] = spans[index][:COST] + (cost(args, out),)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature loses the count, not the run
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPPED for the duration of the block."""
        saved = []
        try:
            for module, attr, name, cost in WRAPPED:
                try:
                    mod = importlib.import_module(module)
                except ModuleNotFoundError:
                    mod = None
                fn = getattr(mod, attr, None)
                if fn is None:
                    self.absent.append(f"{module}.{attr}")
                    continue
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(name, fn, cost))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)
            self.restored = all(getattr(m, a) is f for m, a, f in saved)


def probe_network(seed: int, tracer: Tracer, repeats: int = 20) -> None:
    """Forward and backward of a fixed conv2 network (every layer kind,
    B=50, 1x28x28) under the ``probe`` phase. It times the layer kinds that
    a workload's own network lacks."""
    from fedsim.experiment import ExperimentConfig, build_network
    from fedsim import network

    cfg = ExperimentConfig.from_dict({"seed": seed, "network": {"kind": "conv2"}})
    net = build_network(cfg, (1, 28, 28), 10)
    rng = np.random.default_rng(seed)
    x = rng.random((50, 1, 28, 28), dtype=np.float32)
    y = rng.integers(0, 10, size=50)
    tracer.phase = "probe"
    for _ in range(repeats):
        _, cache = network.forward(net, x)
        network.backward(net, cache, y)


def layer_metrics(spans: list[tuple], rounds: int, steps: int) -> dict[str, float]:
    """Per-layer figures of one traced train+eval repeat (plus the probe).
    ``rounds`` and ``steps`` are counted from the run's outputs."""
    calls: dict = defaultdict(int)
    dur: dict = defaultdict(int)
    self_ns: dict = defaultdict(int)
    cost: dict = defaultdict(lambda: [0, 0])
    personalized_acc_ns = 0
    for s in spans:
        key = (s[NAME], s[PHASE])
        calls[key] += 1
        dur[key] += s[END] - s[START]
        self_ns[key] += s[SELF]
        if s[COST] is not None:
            cost[key][0] += s[COST][0]
            cost[key][1] += s[COST][1]
        if (
            s[NAME] == "evaluation.accuracy"
            and s[PARENT] >= 0
            and spans[s[PARENT]][NAME] == "evaluation.personalized"
        ):
            personalized_acc_ns += s[END] - s[START]

    def total(table, names, phases=PHASES):
        return sum(table[(n, p)] for n in names for p in phases)

    def per_call(names, phases=PHASES, table=self_ns, scale=1e3):
        n = total(calls, names, phases)
        return total(table, names, phases) / n / scale if n else 0.0

    m: dict[str, float] = {}
    for kind in KINDS:
        for phase in PHASES:
            for d in ("fwd", "bwd"):
                name = [f"{kind}.{d}"]
                source = (phase,) if total(calls, name, (phase,)) else ("probe",)
                m[f"layers.{kind}.{phase}.{d}_us"] = per_call(name, source)
        m[f"layers.{kind}.calls"] = total(calls, [f"{kind}.fwd", f"{kind}.bwd"])
        flops_bytes = [cost[(f"{kind}.{d}", p)] for d in ("fwd", "bwd") for p in PHASES]
        m[f"layers.{kind}.computed_gflop"] = sum(c[0] for c in flops_bytes) / 1e9
        m[f"layers.{kind}.computed_mb"] = sum(c[1] for c in flops_bytes) / 1e6
    m["layers.softmax_xent_us"] = per_call(["softmax_xent"])
    m["network.forward.self_us"] = per_call(["network.forward"])
    m["network.backward.self_us"] = per_call(["network.backward"])
    m["optim.sgd_step_us"] = per_call(["optim.sgd_step"])

    local = ["engine.local_update", "engine.ditto_update"]
    m["engine.step_overhead_us"] = total(self_ns, local, ("train",)) / steps / 1e3
    applied, computed = cost[("optim.sgd_step", "train")]
    m["network.backward.useful_grad_frac"] = applied / computed if computed else 0.0

    local_ns = total(dur, local, ("train",))
    aggregate_ns = total(dur, ["engine.aggregate"], ("train",))
    federation_ns = total(dur, ["engine.run_federation"], ("train",))
    m["engine.round.local_ms"] = local_ns / rounds / 1e6
    m["engine.round.aggregate_ms"] = aggregate_ns / rounds / 1e6
    m["engine.round.other_ms"] = (federation_ns - local_ns - aggregate_ns) / rounds / 1e6
    m["engine.aggregate_us"] = per_call(["engine.aggregate"], table=dur)
    m["engine.assemble_us"] = per_call(["engine.assemble_client_params"], table=dur)
    m["experiment.save_checkpoint_ms"] = per_call(["experiment.save_checkpoint"], table=dur, scale=1e6)
    m["experiment.load_checkpoint_ms"] = per_call(["experiment.load_checkpoint"], table=dur, scale=1e6)
    m["datasets.load_s"] = per_call(["datasets.load"], table=dur, scale=1e9)
    m["partition.s"] = per_call(["partition.split"], table=dur, scale=1e9)
    for stage in ("initial", "personalized", "template"):
        m[f"evaluation.{stage}_ms"] = total(dur, [f"evaluation.{stage}"], ("eval",)) / 1e6
    m["evaluation.personalized.finetune_ms"] = total(dur, ["evaluation.finetune"], ("eval",)) / 1e6
    m["evaluation.personalized.accuracy_ms"] = personalized_acc_ns / 1e6
    m["trace.spans"] = len(spans)
    return m
