"""The federated round loop: sample, broadcast, masked local update,
masked weighted aggregation, optional server-side update.

Every random draw comes from a stream keyed by (seed, tag, round, client),
so results do not depend on the order in which clients run.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .algorithms import AlgorithmSpec, get_algorithm
from .datasets import LabeledDataset
from .layers import L2_BYTES, infer_shapes
from .network import Network, backward, forward
from .optim import LRSchedule, OptState, sgd_step
from .params import FLOAT, ParamMask, ParamVector
from .partition import ClientSplit

log = logging.getLogger("fedsim")

# spawn-key tags for domain-separated RNG streams
_SAMPLING, _CLIENT, _POOL, _SERVER, _EVAL = range(5)

LG_LR = 0.001  # constant learning rate of the LG-FedAvg second phase


class FederationError(RuntimeError):
    """A run that cannot go on. ``member``, where known, is the row, in its
    lockstep group's stack, of the client it happened to."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member

    def in_group(self, ids: tuple[int, ...], context: str) -> "FederationError":
        """This error, of its type, for a group of clients ``ids``: prefixed
        with ``context`` and the client of its member row (a row past
        len(ids) is a Ditto personal row of the same client), or the whole
        group where it has no member."""
        who = (
            f"clients {list(ids)}" if self.member is None
            else f"client {ids[self.member % len(ids)]}"
        )
        return type(self)(f"{context}, {who}: {self}", self.member)


class NumericError(FederationError):
    """Loss or parameters stopped being finite."""


def stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, tag, ...) coordinate."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=tuple(key)))


def eval_stream(seed: int, client_id: int) -> np.random.Generator:
    return stream(seed, _EVAL, client_id)


@dataclass(frozen=True)
class FLConfig:
    """Full description of one federated run."""

    clients: int  # N
    fraction: float  # f, sampled share per round
    local_epochs: int  # tau
    rounds: int  # K; rounds * local_epochs is the fixed budget
    batch_size: int = 50  # B
    algorithm: str = "fedavg"
    base_lr: float = 0.1
    momentum: float = 0.9
    mu: float = 0.0  # FedProx coefficient
    lam: float = 0.75  # Ditto regularization weight
    server_share: float = 0.0  # p, fraction of client data the server holds
    server_update_part: str = "full"  # full | body
    perfedavg_alpha: float = 0.01  # inner step size, held constant
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0 < self.fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if self.clients < 1:
            raise ValueError("need at least one client")
        if self.local_epochs < 0 or self.rounds < 0:
            raise ValueError("epochs and rounds must be non-negative")
        if self.batch_size < 1:
            raise ValueError("batch size must be positive")
        if self.base_lr < 0:
            raise ValueError("base_lr must be non-negative")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.perfedavg_alpha < 0:
            raise ValueError("perfedavg_alpha must be non-negative")
        if self.mu < 0 or self.lam < 0:
            raise ValueError("regularization coefficients must be non-negative")
        if not 0 <= self.server_share < 1:
            raise ValueError("server share must be in [0, 1)")
        if self.server_update_part not in ("full", "body"):
            raise ValueError("server_update_part must be 'full' or 'body'")
        get_algorithm(self.algorithm)

    @property
    def epoch_budget(self) -> int:
        return self.rounds * self.local_epochs


@dataclass
class RoundLog:
    round: int
    client_ids: tuple[int, ...]
    mean_loss: float
    lr: float
    wall_time: float


@dataclass
class FederationState:
    """Global parameters plus whatever stays resident on clients."""

    global_params: ParamVector
    initial_params: ParamVector
    client_params: dict[int, ParamVector] = field(default_factory=dict)
    round: int = 0


@dataclass
class FederatedData:
    """Shared datasets plus each client's index sets. Training and
    fine-tuning read a client's samples in place, through its
    ``train_indices`` into ``train``, with no per-round copy."""

    train: LabeledDataset
    test: LabeledDataset
    splits: list[ClientSplit]

    def client_train(self, client_id: int) -> LabeledDataset:
        return self.train.subset(self.splits[client_id].train_indices)

    def client_test(self, client_id: int) -> LabeledDataset:
        return self.test.subset(self.splits[client_id].test_indices)


def iterations_per_epoch(n_samples: int, batch_size: int) -> int:
    return math.ceil(n_samples / batch_size)


def client_schedule(cfg: FLConfig, n_samples: int) -> LRSchedule:
    """Step-decay schedule over the client's full update budget K*tau*I."""
    total = cfg.epoch_budget * iterations_per_epoch(n_samples, cfg.batch_size)
    return LRSchedule(cfg.base_lr, max(total, 1))


def sample_clients(n_clients: int, fraction: float, rng: np.random.Generator) -> list[int]:
    """Uniform sample without replacement of max(floor(N*f), 1) ids."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    m = max(int(math.floor(n_clients * fraction)), 1)
    ids = rng.choice(n_clients, size=m, replace=False)
    return sorted(int(i) for i in ids)


# --- local training ---------------------------------------------------------

# Activation bytes one lockstep step may hold: about the L2 cache of one
# core. Stacking pays where a step is mostly per-call overhead; past this
# size a stacked step spills its activations out of the cache, and peak
# memory would grow with the group. A client that alone exceeds it trains
# as a group of one.
GROUP_BYTES = L2_BYTES


def client_groups(
    client_ids, template: Network, batch_size: int, tracks: int = 1
) -> list[tuple[int, ...]]:
    """Lockstep groups of ``client_ids``, of any train-set sizes: ascending
    ids, cut into runs of as many clients as fit in GROUP_BYTES. The cap
    counts stacked rows, ``tracks`` per client (Ditto stacks two). A row's
    step is counted from the shapes at a full batch: every layer's output
    plus each conv's im2col column matrix."""
    shapes = infer_shapes(template.layers, template.sample_shape)
    per_sample = sum(math.prod(s) for s in shapes)
    for spec, out in zip(template.layers, shapes):
        if spec.kind == "conv2d":
            per_sample += math.prod(out[1:]) * spec.in_channels * spec.kernel**2
    rows = GROUP_BYTES // (FLOAT().itemsize * batch_size * per_sample)
    cap = max(1, rows // tracks)
    ids = sorted(client_ids)
    return [tuple(ids[i : i + cap]) for i in range(0, len(ids), cap)]


def _joint_step(net: Network, ds: LabeledDataset, batch: list[np.ndarray], mask: ParamMask):
    """Step rule of plain SGD: (losses, grads) of the minibatch ``batch``,
    one (clients, b) array of sample indices per run of the stack's rows;
    the gradients of ``mask``'s segments only (``network.backward``)."""
    idx = np.concatenate(batch, axis=None)
    _, cache = forward(net, ds.samples.take(idx, axis=0), [run.shape for run in batch])
    return backward(net, cache, ds.labels.take(idx, axis=0), mask)


def _perfedavg_step(alpha: float):
    """First-order Per-FedAvg step rule: an inner SGD step of rate ``alpha``
    on each client's first half of the batch (support), then the loss and
    gradient on its second half (query) at the adapted point. The inner
    step moves every segment the support gradient holds, which is all of
    them only under a full mask. A run whose batch cannot be split raises,
    naming its first row."""
    a32 = FLOAT(alpha)

    def step(net: Network, ds: LabeledDataset, batch: list[np.ndarray], mask: ParamMask):
        row = 0
        for run in batch:
            if run.shape[1] < 2:
                raise FederationError(
                    "meta step needs a batch of at least 2 to split into support/query", row
                )
            row += len(run)
        halves = [run.shape[1] // 2 for run in batch]
        _, g_sup = _joint_step(net, ds, [run[:, :h] for run, h in zip(batch, halves)], mask)
        adapted = net.params.copy()
        adapted.data -= a32 * g_sup.data
        query = [run[:, h:] for run, h in zip(batch, halves)]
        return _joint_step(net.with_params(adapted), ds, query, mask)

    return step


def _slices(rows: np.ndarray) -> list[slice]:
    """Slices covering the ascending positions ``rows``: one, stepped, where
    they are evenly spaced, as a Ditto track's rows are, else one per row."""
    gaps = set(np.diff(rows).tolist())
    if len(rows) and len(gaps) <= 1:
        return [slice(int(rows[0]), int(rows[-1]) + 1, gaps.pop() if gaps else 1)]
    return [slice(r, r + 1) for r in rows.tolist()]


def _plan(n: np.ndarray, steps: np.ndarray, batch_size: int, rates: list, ends: bool) -> list:
    """The schedule of a group whose rows, in training order, hold ``n``
    samples and take ``steps`` steps: one (draws, k, runs, rate, ends)
    record per step index. The live rows are the first k; ``draws`` are the
    rows whose epoch starts at the step, and ``ends`` (if asked for) those
    whose epoch ends there. ``runs`` holds one (rows, column, b) per run of
    equal batch sizes, whose rows read their batches of b from their epoch
    permutations at ``column``: a slice and an int, or, in a step where some
    run's rows start at different columns, (rows, 1) arrays of both.
    ``rate`` is a float where every live row has one rate (a scalar,
    which ``sgd_step`` applies faster than a column), else a (k, 1) float32
    column. The tables behind it are (steps, M), with no per-sample entry.
    """
    ipe = -(-n // batch_size)
    index = np.arange(steps.max(initial=0))[:, None]
    live = index < steps
    col = index % ipe * batch_size  # where each row's batch starts in its permutation
    size = np.minimum(batch_size, n - col)  # of the live rows
    rate = np.zeros(live.shape, FLOAT)
    for i, r in enumerate(rates):
        rate[: steps[i], i] = r
    rate = np.where(live, rate, rate[:, :1])  # row 0 is live at every step
    one = (rate == rate[:, :1]).all(axis=1).tolist()
    width = live.sum(axis=1).tolist()
    rate_at = [
        lr if same else rate[s, :k, None]
        for s, (lr, same, k) in enumerate(zip(rate[:, 0].tolist(), one, width))
    ]

    # a run starts at row 0 and where the batch size changes; a step whose
    # runs each start their rows' batches at one column reads views
    head = np.ones(live.shape, bool)
    head[:, 1:] = size[:, 1:] != size[:, :-1]
    moved = (col[:, 1:] != col[:, :-1]) & ~head[:, 1:] & live[:, 1:]
    views = (~moved.any(axis=1)).tolist()
    s_at, a_at = np.nonzero(head & live)
    runs: list[list] = [[] for _ in width]
    heads = list(zip(*(v.tolist() for v in (s_at, a_at, col[s_at, a_at], size[s_at, a_at]))))
    for (s, a, c, b), after in zip(heads, heads[1:] + [(-1, 0)]):
        z = after[1] if after[0] == s else width[s]  # the run's rows are a..z-1
        rows = slice(a, z) if views[s] else np.arange(a, z)[:, None]
        runs[s].append((rows, c if views[s] else col[s, a:z, None], b))

    draws, epoch_ends = [[] for _ in width], [[] for _ in width]
    for i, (count, per) in enumerate(zip(steps.tolist(), ipe.tolist())):
        for start in range(0, count, per):
            draws[start].append(i)
            if ends:
                epoch_ends[start + per - 1].append(i)
    return list(zip(draws, width, runs, rate_at, epoch_ends))


def train_epochs(
    ds: LabeledDataset,
    params: ParamVector,
    template: Network,
    part: str,
    epochs: int,
    batch_size: int,
    momentum: float,
    rates: list,
    rngs: list[np.random.Generator],
    indices: list[np.ndarray],
    prox: tuple[float, ParamVector] | None = None,
    step=_joint_step,
    on_epoch=None,
) -> list[list[float]]:
    """Minibatch momentum SGD over `epochs`, updating `part` of `params`:
    the one training loop behind every local, server-side, fine-tuning and
    centralized update.

    ``params`` is an (M, P) stack of a lockstep group, M clients whose rows
    read their samples in place, with no copy, through ``indices``, one
    index array into ``ds`` per row; ``rngs`` holds one generator and
    ``rates`` one rate entry per row. A group of one is a (1, P) stack with
    lists of one (``local_update`` takes the shorter forms), and lists that
    do not fit M rows raise ValueError. The clients step by step index: at
    step s every client with a step left runs its own s-th step, and all of
    them run as one forward, one backward and one ``sgd_step`` per track.
    For this the rows are ordered by step count, descending, so that a
    step's live rows are a prefix of the stack, and then by size, so that
    equal partial batches sit side by side: a step's batch is a list of
    runs of one batch size (layers.py, "Stacks"). The call trains a stack
    of its own, the group's rows copied into that order, and writes it back
    to ``params``, in the caller's order, once, on return; a call that
    raises leaves ``params`` as it was.
    Each client draws an epoch's permutation from its own generator when
    its epoch starts, and has its own momentum buffer and losses, so its
    bits do not depend on its group.

    The call first plans the whole schedule from the group's sizes, the
    epochs, the batch size, the rates and the prox layout (``_plan``, plus
    the prefix views of each width), and then its loop only indexes that
    plan: per step the epoch-start draws, one step, one loss check and
    write, the ``sgd_step`` calls and the epoch-end ``on_epoch`` calls.

    A rate entry is a rate, or an array of one rate per step of the call.
    ``prox=(mu, anchor)``, ``anchor`` an (A, P) stack, pulls the last A
    rows toward their rows of ``anchor``; rows before them (Ditto's global
    track) take no prox term, and each pulled row is ordered right after
    the row A before it (its client's global row, under Ditto). ``step``
    maps (net, ds, one (clients, b) array of batch indices per run, the
    mask of ``part``) to (losses, grads), where only the mask's segments of
    the gradient need to hold gradients; ``on_epoch(row, params,
    momentum)`` is called as the caller's row ``row`` ends an epoch, with
    views of its parameter and momentum vectors in the call's own stack,
    the only view of a row before the call returns. Momentum starts at zero
    and carries across the epochs of one call. Returns each client's
    per-step losses. A non-finite step loss, or a row its last update
    leaves non-finite, raises NumericError naming the caller's row and the
    update, counted from the start of the call.
    """
    m = len(params.data)
    n = np.array([len(idx) for idx in indices], dtype=np.int64)
    gens = sum(isinstance(g, np.random.Generator) for g in rngs) if isinstance(rngs, list) else 0
    if not len(n) == gens == len(rates) == m:
        counts = f"{len(n)} index arrays, {gens} generators and {len(rates)} rates"
        raise ValueError(f"{counts} do not fit {m} clients")
    if (n == 0).any():
        raise FederationError("client has no training data", int(np.argmin(n)))
    mask = template.mask_for(part)
    anchor = None if prox is None else prox[1].data
    free = m if prox is None else m - len(anchor)
    pulled = np.arange(m) >= free

    # rows by step count, descending, so a step's live rows are a prefix;
    # then by size, so equal partial batches sit side by side; a pulled row
    # right after the row ``free`` before it (under Ditto, its client's
    # global row). From here on a row is a position in this order.
    steps = epochs * -(-n // batch_size)
    order = np.lexsort((pulled, np.arange(m) - free * pulled, -n, -steps))
    work = params.data[order]  # the stack this call trains, written back on return
    buf = np.zeros_like(work)
    n, steps, pulled = n[order], steps[order], pulled[order]
    rngs, own, rates = ([x[r] for r in order.tolist()] for x in (rngs, indices, rates))
    if anchor is not None:  # the pulled rows' anchors, in row order
        anchor = anchor[order[pulled] - free]
    plan = _plan(n, steps, batch_size, rates, on_epoch is not None)

    def prefix(k: int):
        """(network, momentum, updates) of the first k rows: views, and one
        (rows, prox) per ``sgd_step`` call, the free rows' and the pulled
        rows' apart, as mu = 0 could turn a gradient of -0.0 into 0.0."""
        rows = ParamVector(work[:k], params.bounds)
        updates = [(sl, None) for sl in _slices(np.flatnonzero(~pulled[:k]))]
        for sl in _slices(np.flatnonzero(pulled[:k])):
            j = int(pulled[: sl.start].sum())
            pull = ParamVector(anchor[j : j + len(range(k)[sl])], params.bounds)
            updates.append((sl, (prox[0], pull)))
        opt = OptState(ParamVector(buf[:k], params.bounds), momentum)
        return template.with_params(rows), opt, updates

    prefixes = {k: prefix(k) for k in {record[1] for record in plan}}
    sizes = n.tolist()
    perm = np.empty((m, max(sizes)), np.int64)  # each row's epoch permutation, as ds rows
    within = np.arange(batch_size)
    table = np.empty((m, len(plan)))  # the step losses, as the float64 of each float32
    for s, (draws, k, runs, rate, ends) in enumerate(plan):
        for i in draws:  # own[i][rngs[i].permutation(n)], bytes and generator state alike
            perm[i, : sizes[i]] = own[i]
            rngs[i].shuffle(perm[i, : sizes[i]])
        batch = [
            perm[rows, c : c + b] if type(c) is int else perm[rows, c + within[:b]]
            for rows, c, b in runs
        ]
        net, opt, updates = prefixes[k]
        try:
            loss, grads = step(net, ds, batch, mask)
        except FederationError as e:  # name the caller's row
            raise type(e)(str(e), None if e.member is None else int(order[e.member])) from e
        if not np.isfinite(loss).all():
            row = int(order[np.argmin(np.isfinite(loss))])
            raise NumericError(f"non-finite loss at local update {s}", row)
        table[:k, s] = loss
        for rows, pull in updates:
            lr = rate if type(rate) is float else rate[rows]
            sgd_step(net.params, grads, opt, lr, mask, pull, rows)
        for i in ends:
            on_epoch(int(order[i]), work[i], buf[i])
    # no step's loss follows the last update: check the parameters it left
    finite = np.isfinite(work).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise NumericError(
            f"non-finite parameters after local update {int(steps[i]) - 1}", int(order[i])
        )
    params.data[order] = work
    return [table[i, : steps[i]].tolist() for i in np.argsort(order).tolist()]


def local_update(
    client_ds: LabeledDataset,
    theta_start: ParamVector,
    template: Network,
    alg: AlgorithmSpec,
    local_epochs: int,
    batch_size: int,
    momentum: float,
    rates,
    rng,
    mu: float = 0.0,
    perfedavg_alpha: float = 0.01,
    indices: list[np.ndarray] | None = None,
    on_epoch=None,
) -> tuple[ParamVector, list[float]]:
    """One client's local pass under ``alg``'s local rule; returns (final
    params, one mean minibatch loss per client). The one place a local rule
    becomes ``train_epochs`` calls, for federated rounds and for
    evaluation's fine-tunes alike, and the one entry that takes short forms
    of their inputs: a single vector with one generator ``rng`` is a group
    of one, ``rates`` that are no list serve every row, and ``indices``
    None has every row read all of ``client_ds``; a vector with a list of
    generators, or a stack with one, raises ValueError.

    'sequential_head_then_body' (FedRep) trains the head for every epoch,
    then the body for one more epoch at the final head epoch's rates, the
    last I of each row's tau * I. Under 'ditto' the stack holds 2M rows
    for M clients: the global rows, trained as FedAvg, then the personal
    rows, each pulled with weight ``mu`` (Ditto's lambda) toward its
    client's global start, the first M rows of ``theta_start``. The mean
    losses are the global rows'. ``on_epoch`` goes to ``train_epochs`` under
    every rule but FedRep's, whose epochs are not one pass. Momentum
    buffers are created fresh here: optimizer state is never communicated
    between rounds.
    """
    params = theta_start.copy()
    # the one form train_epochs takes: (M, P) stacks and M-long lists
    stack = params.as_stack()
    m = len(stack.data)
    rngs = [rng] if params.data.ndim == 1 else rng
    rates = rates if isinstance(rates, list) else [rates] * m
    indices = [np.arange(len(client_ds))] * m if indices is None else indices
    args = (batch_size, momentum)
    if alg.local_rule == "sequential_head_then_body":
        losses = train_epochs(
            client_ds, stack, template, "head", local_epochs, *args, rates, rngs, indices
        )
        if local_epochs > 0:  # the body epoch reuses the final head epoch's rates
            ipe = [iterations_per_epoch(len(idx), batch_size) for idx in indices]
            last = [np.broadcast_to(r, (local_epochs * i,))[-i:] for r, i in zip(rates, ipe)]
            body = train_epochs(client_ds, stack, template, "body", 1, *args, last, rngs, indices)
            losses = [head + tail for head, tail in zip(losses, body)]
    elif alg.local_rule in ("joint", "proximal", "ditto", "perfedavg_fo"):
        if alg.local_rule == "perfedavg_fo" and alg.update_part != "full":
            raise ValueError(f"Per-FedAvg trains 'full', not {alg.update_part!r}")
        prox = (mu, theta_start.as_stack()) if alg.local_rule == "proximal" else None
        clients = m
        if alg.local_rule == "ditto":
            if m % 2:
                raise ValueError(f"a Ditto stack needs two rows per client, not {m} rows")
            clients = m // 2
            prox = (mu, ParamVector(theta_start.data[:clients], theta_start.bounds))
        losses = train_epochs(
            client_ds, stack, template, alg.update_part, local_epochs, *args, rates, rngs,
            indices, prox=prox, on_epoch=on_epoch,
            step=(
                _perfedavg_step(perfedavg_alpha)
                if alg.local_rule == "perfedavg_fo"
                else _joint_step
            ),
        )[:clients]
    else:
        raise FederationError(f"unknown local rule {alg.local_rule!r}")
    return params, [float(np.mean(client)) if client else float("nan") for client in losses]


# --- aggregation -------------------------------------------------------------


def aggregate(
    updates: list[tuple[ParamVector, int]],
    theta_prev: ParamVector,
    mask,
) -> ParamVector:
    """Sample-count-weighted average over the mask's segment range; the
    other segments are bit-copied from ``theta_prev``. Callers pass updates
    in ascending client order; summation follows that order in float64."""
    if not updates:
        raise FederationError("nothing to aggregate")
    total = sum(n for _, n in updates)
    if total == 0:
        raise FederationError("aggregation weights sum to zero")
    for theta, _ in updates:
        theta_prev.require_same_segmentation(theta)
    part = mask.scalars(theta_prev)
    out = theta_prev.copy()
    acc = np.zeros(part.stop - part.start, dtype=np.float64)
    for theta, n in updates:
        acc += (n / total) * theta.data[part].astype(np.float64)
    out.data[part] = acc.astype(FLOAT)
    return out


# --- server-side update (data-sharing experiment) ----------------------------


def draw_server_pool(
    splits: list[ClientSplit], share: float, rng: np.random.Generator
) -> np.ndarray:
    """p-fraction of all clients' train indices, uniform without replacement."""
    every = np.concatenate([s.train_indices for s in splits])
    k = int(math.floor(share * len(every)))
    if share > 0 and k == 0:
        raise FederationError("server share produced an empty pool")
    chosen = rng.choice(len(every), size=k, replace=False)
    return np.sort(every[chosen])


# --- the round loop -----------------------------------------------------------


def _round_plan(cfg: FLConfig, alg: AlgorithmSpec) -> list[tuple[AlgorithmSpec, str]]:
    """(algorithm, lr mode) per round. LG-FedAvg trains a FedAvg model for
    the whole budget, then runs its own phase for a quarter of it at a
    small constant rate."""
    if not alg.two_phase_lg:
        return [(alg, "schedule")] * cfg.rounds
    plan = [(get_algorithm("fedavg"), "schedule")] * cfg.rounds
    return plan + [(alg, "constant")] * math.ceil(cfg.rounds / 4)


def assemble_client_params(
    state: FederationState, template: Network, alg: AlgorithmSpec, client_id: int
) -> ParamVector:
    """Broadcast view for one client: global shared parts, overlaid with the
    client's persistent part (its initialization if never sampled)."""
    base = state.global_params.copy()
    if alg.persistent_part is None:
        return base
    source = state.client_params.get(client_id, state.initial_params)
    part = template.mask_for(alg.persistent_part).scalars(base)
    base.data[part] = source.data[part]
    return base


def init_state(template: Network) -> FederationState:
    return FederationState(template.params.copy(), template.params.copy())


def _round_rates(cfg: FLConfig, k: int, n_samples: int) -> np.ndarray:
    """Rates of a client of ``n_samples`` in round k, one per local update:
    its schedule, from where its earlier rounds left off."""
    count = cfg.local_epochs * iterations_per_epoch(n_samples, cfg.batch_size)
    return client_schedule(cfg, n_samples).rates((min(k, cfg.rounds) - 1) * count, count)


def _round_end_lr(cfg: FLConfig, k: int) -> float:
    """The schedule rate where round k leaves off, on the epoch grid."""
    if cfg.epoch_budget == 0:
        return cfg.base_lr
    sched = LRSchedule(cfg.base_lr, cfg.epoch_budget)
    return sched.lr_at(max(min(k, cfg.rounds) * cfg.local_epochs - 1, 0))


def run_federation(
    cfg: FLConfig,
    data: FederatedData,
    template: Network,
    state: FederationState | None = None,
    until_round: int | None = None,
) -> tuple[FederationState, list[RoundLog]]:
    """Execute rounds state.round+1 .. end of plan (or ``until_round``).
    Deterministic per seed. Each round's sampled clients train in lockstep
    groups (``client_groups``), one group after another; no bit of the
    result depends on how clients are grouped or in which order they run."""
    alg = get_algorithm(cfg.algorithm)
    if len(data.splits) != cfg.clients:
        raise FederationError(
            f"partition has {len(data.splits)} clients, config says {cfg.clients}"
        )
    if state is None:
        state = init_state(template)
    plan = _round_plan(cfg, alg)
    if until_round is not None:
        if until_round < 0:
            raise ValueError(f"until_round must be at least 0, not {until_round}")
        plan = plan[:until_round]

    pool_idx = None
    if cfg.server_share > 0:
        pool_idx = draw_server_pool(data.splits, cfg.server_share, stream(cfg.seed, _POOL))

    logs: list[RoundLog] = []
    for k in range(state.round + 1, len(plan) + 1):
        round_alg, lr_mode = plan[k - 1]
        t0 = time.perf_counter()

        if round_alg.federated:
            sampled = sample_clients(cfg.clients, cfg.fraction, stream(cfg.seed, _SAMPLING, k))
        else:
            sampled = list(range(cfg.clients))

        ditto = round_alg.local_rule == "ditto"
        if round_alg.two_phase_lg and k == cfg.rounds + 1:
            # LG-FedAvg's own phase starts every client's body from the
            # FedAvg-trained model, kept in the checkpoint for a resume
            state.client_params = {cid: state.global_params.copy() for cid in range(cfg.clients)}

        def run_group(ids: tuple[int, ...]):
            """Train a lockstep group; one (cid, theta, resident, n, loss) per
            client. Under Ditto the stack holds M copies of the global model,
            the global track, then the clients' resident personal models."""
            try:
                indices = [data.splits[cid].train_indices for cid in ids]
                starts = [assemble_client_params(state, template, round_alg, cid) for cid in ids]
                by_size = {
                    n: _round_rates(cfg, k, n) if lr_mode == "schedule" else LG_LR
                    for n in set(map(len, indices))
                }
                rates = [by_size[len(idx)] for idx in indices]
                rngs = [stream(cfg.seed, _CLIENT, k, cid) for cid in ids]
                if ditto:
                    starts = [state.global_params] * len(ids) + starts
                    rngs += [stream(cfg.seed, _CLIENT, k, cid, 1) for cid in ids]
                    indices, rates = indices * 2, rates * 2
                thetas, losses = local_update(
                    data.train, ParamVector.stack(starts), template, round_alg,
                    cfg.local_epochs, cfg.batch_size, cfg.momentum, rates, rngs,
                    mu=cfg.lam if ditto else cfg.mu, perfedavg_alpha=cfg.perfedavg_alpha,
                    indices=indices,
                )
            except FederationError as e:
                raise e.in_group(ids, f"round {k}") from e
            rows = thetas.rows()
            return list(zip(ids, rows, rows[-len(ids) :], map(len, indices), losses))

        # client_groups cuts ascending ids, so results come in ascending ids
        results = [
            r for ids in client_groups(sampled, template, cfg.batch_size, 1 + ditto)
            for r in run_group(ids)
        ]

        # train_epochs has raised NumericError on any non-finite step loss
        losses = [loss for *_, loss in results if not math.isnan(loss)]
        mean_loss = float(np.mean(losses)) if losses else float("nan")

        if round_alg.federated:
            updates = [(theta, n) for _, theta, _, n, _ in results]
            state.global_params = aggregate(
                updates, state.global_params, template.mask_for(round_alg.aggregate_part)
            )

        if round_alg.persistent_part is not None:
            for cid, _, resident, _, _ in results:
                state.client_params[cid] = resident.copy()

        if pool_idx is not None and round_alg.federated:
            # one server epoch on the shared pool, in place on the fresh
            # aggregate, at the rate the schedule has reached so far
            try:
                train_epochs(
                    data.train, state.global_params.as_stack(), template,
                    cfg.server_update_part, 1, cfg.batch_size, cfg.momentum,
                    [_round_end_lr(cfg, k)], [stream(cfg.seed, _SERVER, k)], [pool_idx],
                )
            except FederationError as e:
                raise type(e)(f"round {k}, server epoch: {e}", e.member) from e

        state.round = k
        lr_logged = LG_LR if lr_mode == "constant" else _round_end_lr(cfg, k)
        logs.append(
            RoundLog(k, tuple(sampled), mean_loss, lr_logged, time.perf_counter() - t0)
        )
        log.debug("round %d done: loss=%.4f", k, mean_loss)
    return state, logs


def total_rounds(cfg: FLConfig) -> int:
    """Rounds actually executed, including LG-FedAvg's second phase."""
    return len(_round_plan(cfg, get_algorithm(cfg.algorithm)))
