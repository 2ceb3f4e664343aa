"""Client-level evaluation: initial / personalized / template accuracy,
in/out-of-class splits, inter-client similarity, and centralized baselines."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algorithms import AlgorithmSpec
from .datasets import LabeledDataset
from .engine import (
    FederatedData,
    FederationError,
    FederationState,
    LRSchedule,
    assemble_client_params,
    client_groups,
    eval_stream,
    iterations_per_epoch,
    local_update,
    stream,
    train_epochs,
)
from .layers import runs_of
from .network import Network, forward, representations, segment_cosines
from .params import ParamVector


class EvalError(RuntimeError):
    pass


@dataclass
class EvalReport:
    """Accuracies of clients 0..M-1, in client order, with their
    across-client mean and population std. Absent entries (empty subsets)
    are NaN and excluded from both."""

    accuracies: np.ndarray
    finetune_epochs: int
    part: str | None
    mean: float
    std: float

    @classmethod
    def from_accuracies(
        cls,
        accuracies,
        finetune_epochs: int = 0,
        part: str | None = None,
    ) -> "EvalReport":
        acc = np.asarray(accuracies, dtype=np.float64)
        present = acc[~np.isnan(acc)]
        mean = float(present.mean()) if len(present) else float("nan")
        std = float(present.std()) if len(present) else float("nan")
        return cls(acc, finetune_epochs, part, mean, std)


def accuracy(net: Network, ds: LabeledDataset, sizes: list[int] | None = None) -> np.ndarray:
    """Share of correct argmax predictions per set, an (M,) array; ties go
    to the lowest class. A network over an (M, P) stack takes M clients'
    sets one after another, ``sizes`` samples each; ``sizes=None`` means
    one set, all of ``ds``."""
    if len(ds) == 0:
        raise EvalError("empty evaluation set")
    sizes = [len(ds)] if sizes is None else sizes
    logits, _ = forward(net, ds.samples, runs_of(sizes))
    return _shares(logits, ds.labels, sizes)


def _shares(logits: np.ndarray, labels: np.ndarray, sizes: list[int]) -> np.ndarray:
    """Share of the rows of each set of ``sizes`` rows whose argmax is
    their label."""
    correct = logits.argmax(axis=1) == labels
    # sums of zeros and ones are exact, so these are np.mean's bits
    return np.add.reduceat(correct, np.cumsum(sizes) - sizes, dtype=np.float64) / sizes


def _stacked(models: list[ParamVector], template: Network, data: FederatedData, split: str):
    """Lockstep groups of a forward-only pass over each client's ``split``
    set ('train' or 'test'), of any sizes: ``client_groups`` cut at the
    largest set. Yields (ids, a network over their models, their sets one
    after another, their sizes). An empty set is an EvalError naming the
    client."""
    base = data.train if split == "train" else data.test
    index = [getattr(data.splits[cid], f"{split}_indices") for cid in range(len(models))]
    for cid, idx in enumerate(index):
        if len(idx) == 0:
            raise EvalError(f"client {cid}: empty {split} split")
    for ids in client_groups(range(len(models)), template, max(map(len, index))):
        net = template.with_params(ParamVector.stack([models[cid] for cid in ids]))
        sets = base.subset(np.concatenate([index[cid] for cid in ids]))
        yield ids, net, sets, [len(index[cid]) for cid in ids]


def forward_test_sets(models: list[ParamVector], template: Network, data: FederatedData):
    """One forward pass of the models over their clients' test sets, in
    lockstep groups, for the reports that read it: yields per group (ids,
    sizes, labels, logits, representations). Of the pass's layer caches
    only the head's input, the representations, is kept; a caller that
    hands one pass to several reports keeps it as a list."""
    for ids, net, test_ds, sizes in _stacked(models, template, data, "test"):
        logits, (caches, _, _) = forward(net, test_ds.samples, runs_of(sizes))
        reps = caches[net.head_index]
        del caches  # not held while the caller reads the group
        yield ids, sizes, test_ds.labels, logits, reps


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
    models: list[ParamVector], template: Network, data: FederatedData, test: list | None = None
) -> EvalReport:
    """Accuracy of each client's broadcast model on its own test split,
    from the models' ``forward_test_sets`` pass ``test`` (run here unless
    given). Read-only: evaluating twice yields byte-identical reports."""
    accs = np.empty(len(models))
    for ids, sizes, labels, logits, _ in test or forward_test_sets(models, template, data):
        accs[list(ids)] = _shares(logits, labels, sizes)
    return EvalReport.from_accuracies(accs, 0, None)


def personalized_models(
    models: list[ParamVector],
    template: Network,
    data: FederatedData,
    part: str,
    finetune_epochs: list[int],
    lr: float,
    seed: int,
    batch_size: int = 50,
    momentum: float = 0.9,
    rule: str = "joint",
) -> list[list[ParamVector]]:
    """Each client's model fine-tuned on its own train data, in lockstep
    groups, for each τ_f of the list ``finetune_epochs``: one list of
    models per τ_f. τ_f = 0 gives the input models themselves. A
    fine-tune is ``local_update`` at the constant rate ``lr`` under the
    local rule ``rule``: 'joint' (updating ``part``) or
    'sequential_head_then_body' (the head for every epoch, then the body
    for one more, as FedRep's local training does, whatever ``part``
    says; a report still names the ``part`` it was given), with fresh
    momentum.

    Under the joint rule a group fine-tunes once, to the largest τ_f, and
    a client's row is copied as it ends each requested epoch: a shorter
    fine-tune is a prefix of a longer one. FedRep's rule trains its body
    epoch after the head epochs, so it fine-tunes once per τ_f. A
    FederationError names its client and the smallest requested τ_f whose
    epochs hold the failure.
    """
    spec = AlgorithmSpec("fine-tune", part, part, rule)
    positive = sorted(set(finetune_epochs) - {0})
    out = {tf: [None] * len(models) for tf in positive}
    out[0] = models
    # each pass: the τ_f it snapshots, ending at the last
    if rule == "sequential_head_then_body":
        passes = [[tf] for tf in positive]
    else:
        passes = [positive] if positive else []
    for snaps in passes:
        for ids in client_groups(range(len(models)), template, batch_size):
            start = ParamVector.stack([models[cid] for cid in ids])
            done = [0] * len(ids)  # epochs each row has ended
            # one stack per earlier τ_f; the last is the pass's result
            early = {tf: start.zeros_like() for tf in snaps[:-1]}

            def keep(row, params, _momentum):
                done[row] += 1
                if done[row] in early:
                    early[done[row]].data[row] = params

            try:
                tuned, _ = local_update(
                    data.train, start, template, spec, snaps[-1], batch_size, momentum,
                    lr, [eval_stream(seed, cid) for cid in ids],
                    indices=[data.splits[cid].train_indices for cid in ids], on_epoch=keep,
                )
            except FederationError as e:
                epoch = 1 + (min(done) if e.member is None else done[e.member])
                # the parameter check after the last epoch fails past every τ_f
                tf = next((tf for tf in snaps if tf >= epoch), snaps[-1])
                raise e.in_group(ids, f"fine-tune tf={tf}") from e
            for tf, stack in [*early.items(), (snaps[-1], tuned)]:
                for cid, params in zip(ids, stack.rows()):
                    out[tf][cid] = params
    return [out[tf] for tf in finetune_epochs]


def personalized_accuracy(
    models: list[ParamVector],
    template: Network,
    data: FederatedData,
    part: str,
    finetune_epochs: list[int],
    lr: float,
    seed: int,
    batch_size: int = 50,
    momentum: float = 0.9,
    rule: str = "joint",
    initial: EvalReport | None = None,
) -> list[EvalReport]:
    """Fine-tune each client independently (``personalized_models``), then
    evaluate on its test split: one report per τ_f of the list
    ``finetune_epochs``. ``initial``, the models' ``initial_accuracy``
    report where given, serves τ_f = 0."""
    tuned = personalized_models(
        models, template, data, part, finetune_epochs, lr, seed, batch_size, momentum, rule
    )
    return [
        EvalReport.from_accuracies(
            initial.accuracies.copy() if tf == 0 and initial is not None
            else initial_accuracy(tf_models, template, data).accuracies,
            tf, part,
        )
        for tf, tf_models in zip(finetune_epochs, tuned)
    ]


# --- template (without-head) evaluation --------------------------------------


@dataclass
class TemplateSet:
    """Per-class mean representations built from one client's train data.
    Classes absent from the client are absent from the set."""

    classes: np.ndarray
    templates: np.ndarray  # (len(classes), d)

    @classmethod
    def of(cls, reps: np.ndarray, labels: np.ndarray) -> "TemplateSet":
        """The set of representations ``reps`` of samples labelled ``labels``."""
        reps = reps.astype(np.float64)
        classes = np.unique(labels)
        return cls(classes, np.stack([reps[labels == c].mean(axis=0) for c in classes]))

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


def _by_client(ids, sizes, *arrays):
    """(client id, its rows of each array) for a group's stacked pass over
    sets of ``sizes`` samples."""
    cuts = np.cumsum(sizes)[:-1]
    return zip(ids, *(np.split(a, cuts) for a in arrays))


def template_accuracy(
    models: list[ParamVector], template: Network, data: FederatedData, test: list | None = None
) -> EvalReport:
    """Classify each client's test samples to its nearest per-class mean
    representation (cosine similarity); the trained head plays no part.
    The test representations come from the models' ``forward_test_sets``
    pass ``test`` (run here unless given)."""
    tsets = {}
    for ids, net, train_ds, sizes in _stacked(models, template, data, "train"):
        for cid, reps, labels in _by_client(
            ids, sizes, representations(net, train_ds.samples, runs_of(sizes)), train_ds.labels
        ):
            tsets[cid] = TemplateSet.of(reps, labels)
    accs = np.empty(len(models))
    for ids, sizes, labels, _, test_reps in test or forward_test_sets(models, template, data):
        for cid, reps, client_labels in _by_client(ids, sizes, test_reps, labels):
            accs[cid] = float((tsets[cid].classify(reps) == client_labels).mean())
    return EvalReport.from_accuracies(accs, 0, "template")


# --- in-class / out-of-class -------------------------------------------------


def in_out_class_accuracy(
    models: list[ParamVector], template: Network, data: FederatedData, test: list | None = None
) -> tuple[EvalReport, EvalReport]:
    """Accuracy split by whether a test label appears in the client's train
    split, from the models' ``forward_test_sets`` pass ``test`` (run here
    unless given). Meant for global-mode test splits; an empty subset
    becomes NaN, an empty test split an EvalError."""
    in_accs, out_accs = np.empty(len(models)), np.empty(len(models))
    for ids, sizes, test_labels, logits, _ in test or forward_test_sets(models, template, data):
        for cid, preds, labels in _by_client(ids, sizes, logits.argmax(axis=1), test_labels):
            train_classes = np.unique(data.train.labels[data.splits[cid].train_indices])
            in_mask = np.isin(labels, train_classes)
            correct = preds == labels
            in_accs[cid] = correct[in_mask].mean() if in_mask.any() else np.nan
            out_accs[cid] = correct[~in_mask].mean() if (~in_mask).any() else np.nan
    return (
        EvalReport.from_accuracies(in_accs, 0, "in-class"),
        EvalReport.from_accuracies(out_accs, 0, "out-of-class"),
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
    ipe = iterations_per_epoch(len(train_ds), batch_size)
    rates = LRSchedule(base_lr, max(epochs * ipe, 1)).rates(0, epochs * ipe)
    curve: list[float] = []
    train_epochs(
        train_ds, ParamVector.stack([net.params]), net, part, epochs, batch_size, momentum,
        [rates], [stream(seed, 9)], [np.arange(len(train_ds))],
        on_epoch=lambda _row, row_params, _momentum: curve.append(
            accuracy(net.with_params(ParamVector(row_params, net.params.bounds)), test_ds)[0]
        ),
    )
    return curve
