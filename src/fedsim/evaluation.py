"""Client-level evaluation: initial / personalized / template accuracy,
in/out-of-class splits, inter-client similarity, and centralized baselines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import AlgorithmSpec
from .datasets import LabeledDataset
from .engine import (
    FederatedData,
    FederationState,
    LRSchedule,
    assemble_client_params,
    client_groups,
    eval_stream,
    iterations_per_epoch,
    local_update,
    train_epochs,
)
from .network import Network, forward, representations, segment_cosines
from .params import ParamVector


class EvalError(RuntimeError):
    pass


@dataclass
class EvalReport:
    """Per-client accuracies with their across-client mean and population
    std. Absent entries (empty subsets) are NaN and excluded from both."""

    client_ids: list[int]
    accuracies: np.ndarray
    finetune_epochs: int
    part: str | None
    mean: float
    std: float

    @classmethod
    def from_accuracies(
        cls,
        client_ids: list[int],
        accuracies,
        finetune_epochs: int = 0,
        part: str | None = None,
    ) -> "EvalReport":
        acc = np.asarray(accuracies, dtype=np.float64)
        present = acc[~np.isnan(acc)]
        mean = float(present.mean()) if len(present) else float("nan")
        std = float(present.std()) if len(present) else float("nan")
        return cls(list(client_ids), acc, finetune_epochs, part, mean, std)


def accuracy(net: Network, ds: LabeledDataset) -> float:
    """Share of correct argmax predictions; ties go to the lowest class."""
    if len(ds) == 0:
        raise EvalError("empty evaluation set")
    logits, _ = forward(net, ds.samples)
    return float((logits.argmax(axis=1) == ds.labels).mean())


def _test_split(data: FederatedData, client_id: int) -> LabeledDataset:
    """The client's test split, which every report reads; an empty split is
    an EvalError naming the client."""
    test_ds = data.client_test(client_id)
    if len(test_ds) == 0:
        raise EvalError(f"client {client_id}: empty test split")
    return test_ds


def client_models(
    state: FederationState,
    template: Network,
    alg: AlgorithmSpec,
    n_clients: int,
) -> list[ParamVector]:
    """Broadcast-assembled per-client parameters: shared global parts plus
    whatever each client keeps resident."""
    return [
        assemble_client_params(state, template, alg, cid) for cid in range(n_clients)
    ]


def initial_accuracy(
    models: list[ParamVector], template: Network, data: FederatedData
) -> EvalReport:
    """Accuracy of each client's broadcast model on its own test split.
    Read-only: evaluating twice yields byte-identical reports."""
    accs = [
        accuracy(template.with_params(p), _test_split(data, cid)) for cid, p in enumerate(models)
    ]
    return EvalReport.from_accuracies(list(range(len(models))), accs, 0, None)


def fine_tune(
    client_params: ParamVector,
    template: Network,
    part: str,
    finetune_epochs: int,
    lr: float,
    client_ds: LabeledDataset,
    rng,
    batch_size: int = 50,
    momentum: float = 0.9,
    rule: str = "joint",
    sizes: list[int] | None = None,
) -> ParamVector:
    """Personalization epochs on the client's train data at the constant
    rate ``lr``: ``local_update`` under the local rule ``rule``, 'joint'
    (updating ``part``) or 'sequential_head_then_body' (the head for every
    epoch, then the body for one more, as FedRep's local training does).
    Momentum buffers start fresh; finetune_epochs=0 returns a copy of the
    input. Fine-tunes a lockstep group, of train sets ``sizes``, as
    ``train_epochs`` does.
    """
    params, _ = local_update(
        client_ds, client_params, template, AlgorithmSpec("fine-tune", part, part, rule),
        finetune_epochs, batch_size, momentum, lambda _u: lr, rng, sizes=sizes,
    )
    return params


def personalized_models(
    models: list[ParamVector],
    template: Network,
    data: FederatedData,
    part: str,
    finetune_epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 50,
    momentum: float = 0.9,
    rule: str = "joint",
) -> list[ParamVector]:
    """Each client's model fine-tuned on its own train data, in lockstep
    groups."""
    out: list = [None] * len(models)
    for ids in client_groups(data, range(len(models)), template, batch_size):
        group_ds, sizes = data.group_train(ids)
        tuned = fine_tune(
            ParamVector.stack([models[cid] for cid in ids]), template, part,
            finetune_epochs, lr, group_ds,
            [eval_stream(seed, cid) for cid in ids], batch_size, momentum, rule, sizes,
        )
        for cid, params in zip(ids, tuned.rows()):
            out[cid] = params
    return out


def personalized_accuracy(
    models: list[ParamVector],
    template: Network,
    data: FederatedData,
    part: str,
    finetune_epochs: int,
    lr: float,
    seed: int,
    batch_size: int = 50,
    momentum: float = 0.9,
    rule: str = "joint",
) -> EvalReport:
    """Fine-tune each client independently, then evaluate on its test split."""
    tuned = personalized_models(
        models, template, data, part, finetune_epochs, lr, seed,
        batch_size, momentum, rule,
    )
    accs = [
        accuracy(template.with_params(p), _test_split(data, cid)) for cid, p in enumerate(tuned)
    ]
    return EvalReport.from_accuracies(
        list(range(len(models))), accs, finetune_epochs, part
    )


# --- template (without-head) evaluation --------------------------------------


@dataclass
class TemplateSet:
    """Per-class mean representations built from one client's train data.
    Classes absent from the client are absent from the set."""

    classes: np.ndarray
    templates: np.ndarray  # (len(classes), d)

    @classmethod
    def build(cls, net: Network, client_ds: LabeledDataset) -> "TemplateSet":
        if len(client_ds) == 0:
            raise EvalError("cannot build templates from an empty train split")
        reps = representations(net, client_ds.samples).astype(np.float64)
        classes = np.unique(client_ds.labels)
        templates = np.stack(
            [reps[client_ds.labels == c].mean(axis=0) for c in classes]
        )
        return cls(classes, templates)

    def classify(self, reps: np.ndarray) -> np.ndarray:
        """Nearest template by cosine similarity; a zero-norm template is
        never selected; predictions are always within `classes`."""
        reps = reps.astype(np.float64)
        t_norm = np.linalg.norm(self.templates, axis=1)
        r_norm = np.linalg.norm(reps, axis=1)
        sims = reps @ self.templates.T
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = sims / np.outer(np.where(r_norm == 0, 1.0, r_norm), t_norm)
        sims[:, t_norm == 0] = -np.inf
        if np.all(np.isneginf(sims)):
            raise EvalError("all templates are zero vectors")
        return self.classes[sims.argmax(axis=1)]


def template_accuracy(
    models: list[ParamVector], template: Network, data: FederatedData
) -> EvalReport:
    """Classify each client's test samples to its nearest per-class mean
    representation (cosine similarity); the trained head plays no part."""
    accs = []
    for cid, params in enumerate(models):
        net = template.with_params(params)
        tset = TemplateSet.build(net, data.client_train(cid))
        test_ds = _test_split(data, cid)
        preds = tset.classify(representations(net, test_ds.samples))
        accs.append(float((preds == test_ds.labels).mean()))
    return EvalReport.from_accuracies(list(range(len(models))), accs, 0, "template")


# --- in-class / out-of-class -------------------------------------------------


def in_out_class_accuracy(
    models: list[ParamVector], template: Network, data: FederatedData
) -> tuple[EvalReport, EvalReport]:
    """Accuracy split by whether a test label appears in the client's train
    split. Meant for global-mode test splits; an empty subset becomes NaN,
    an empty test split an EvalError."""
    in_accs, out_accs = [], []
    for cid, params in enumerate(models):
        net = template.with_params(params)
        test_ds = _test_split(data, cid)
        train_classes = np.unique(data.client_train(cid).labels)
        logits, _ = forward(net, test_ds.samples)
        preds = logits.argmax(axis=1)
        in_mask = np.isin(test_ds.labels, train_classes)
        correct = preds == test_ds.labels
        in_accs.append(float(correct[in_mask].mean()) if in_mask.any() else float("nan"))
        out_accs.append(
            float(correct[~in_mask].mean()) if (~in_mask).any() else float("nan")
        )
    ids = list(range(len(models)))
    return (
        EvalReport.from_accuracies(ids, in_accs, 0, "in-class"),
        EvalReport.from_accuracies(ids, out_accs, 0, "out-of-class"),
    )


# --- inter-client similarity --------------------------------------------------


def interclient_cosine(models: list[ParamVector]) -> list[float | None]:
    """Mean pairwise cosine similarity per layer segment across client
    models; None for a segment no pair has a defined cosine on."""
    if len(models) < 2:
        raise EvalError("need at least two models")
    n_seg = models[0].n_segments
    sums = np.zeros(n_seg)
    counts = np.zeros(n_seg, dtype=np.int64)
    for i in range(len(models)):
        for j in range(i + 1, len(models)):
            for s, cos in enumerate(segment_cosines(models[i], models[j])):
                if cos is not None:
                    sums[s] += cos
                    counts[s] += 1
    return [float(sums[s] / counts[s]) if counts[s] else None for s in range(n_seg)]


# --- centralized baselines -----------------------------------------------------


def centralized_train(
    net: Network,
    train_ds: LabeledDataset,
    test_ds: LabeledDataset,
    part: str,
    epochs: int,
    base_lr: float,
    seed: int,
    batch_size: int = 50,
    momentum: float = 0.9,
) -> list[float]:
    """Plain pooled training updating only ``part``; step-decay schedule
    over the whole run; returns test accuracy after each epoch. Momentum is
    carried across epochs: one long run, not a federation."""
    params = net.params.copy()
    working = net.with_params(params)
    ipe = iterations_per_epoch(len(train_ds), batch_size)
    sched = LRSchedule(base_lr, max(epochs * ipe, 1))
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(9,)))
    curve: list[float] = []
    train_epochs(
        train_ds, params, net, part, epochs, batch_size, momentum, sched.lr_at, rng,
        on_epoch=lambda _opt, _row: curve.append(accuracy(working, test_ds)),
    )
    return curve
