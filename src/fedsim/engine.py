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
from .layers import infer_shapes
from .network import Network, backward, forward
from .optim import LRSchedule, OptState, sgd_step
from .params import FLOAT, ParamVector
from .partition import ClientSplit

log = logging.getLogger("fedsim")

# spawn-key tags for domain-separated RNG streams
_SAMPLING, _CLIENT, _POOL, _SERVER, _EVAL = range(5)

LG_LR = 0.001  # constant learning rate of the LG-FedAvg second phase


class FederationError(RuntimeError):
    pass


class NumericError(FederationError):
    """Loss or parameters stopped being finite. ``member`` is the row, in
    its lockstep group's stack, of the client it happened to."""

    def __init__(self, message: str, member: int = 0):
        super().__init__(message)
        self.member = member


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
    """Shared datasets plus each client's index sets."""

    train: LabeledDataset
    test: LabeledDataset
    splits: list[ClientSplit]

    def __post_init__(self) -> None:
        self._train_cache: dict[int, LabeledDataset] = {}

    def client_train(self, client_id: int) -> LabeledDataset:
        if client_id not in self._train_cache:
            split = self.splits[client_id]
            self._train_cache[client_id] = self.train.subset(split.train_indices)
        return self._train_cache[client_id]

    def group_train(self, client_ids: tuple[int, ...]) -> LabeledDataset:
        """The train sets of a lockstep group, one after another."""
        if len(client_ids) == 1:
            return self.client_train(client_ids[0])
        every = [self.splits[cid].train_indices for cid in client_ids]
        return self.train.subset(np.concatenate(every))

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
# core (2 MiB on the 2-core Xeon the engine was tuned on). Stacking pays
# where a step is mostly per-call overhead; past this size a stacked step
# spills its activations out of the cache, and peak memory would grow with
# the group. A client that alone exceeds it trains as a group of one.
GROUP_BYTES = 2 << 20


def client_groups(
    data: FederatedData, client_ids, template: Network, batch_size: int
) -> list[tuple[int, ...]]:
    """Lockstep groups of ``client_ids``: clients of one train-set size, in
    ascending id order, as many as fit in GROUP_BYTES; groups come in the
    order of their first id. A client's step is counted from the shapes:
    every layer's output plus each conv's im2col column matrix."""
    shapes = infer_shapes(template.layers, data.train.sample_shape)
    per_sample = sum(math.prod(s) for s in shapes)
    for spec, out in zip(template.layers, shapes):
        if spec.kind == "conv2d":
            per_sample += math.prod(out[1:]) * spec.in_channels * spec.kernel**2
    cap = max(1, GROUP_BYTES // (FLOAT().itemsize * batch_size * per_sample))
    by_size: dict[int, list[int]] = {}
    for cid in sorted(client_ids):
        by_size.setdefault(len(data.splits[cid].train_indices), []).append(cid)
    return sorted(
        tuple(ids[i : i + cap]) for ids in by_size.values() for i in range(0, len(ids), cap)
    )


def _joint_step(net: Network, ds: LabeledDataset, batch: np.ndarray):
    """Step rule of plain SGD: (losses, grads) of the minibatch ``batch``,
    (M, b) sample indices, one row per client of the stack."""
    idx = batch.reshape(-1)
    _, cache = forward(net, ds.samples[idx])
    return backward(net, cache, ds.labels[idx])


def _perfedavg_step(alpha: float):
    """First-order Per-FedAvg step rule: an inner SGD step of rate ``alpha``
    on each client's first half of the batch (support), then the loss and
    gradient on its second half (query) at the adapted point."""
    a32 = FLOAT(alpha)

    def step(net: Network, ds: LabeledDataset, batch: np.ndarray):
        if batch.shape[1] < 2:
            raise FederationError(
                "meta step needs a batch of at least 2 to split into support/query"
            )
        half = batch.shape[1] // 2
        _, g_sup = _joint_step(net, ds, batch[:, :half])
        adapted = net.params.copy()
        adapted.data -= a32 * g_sup.data
        return _joint_step(net.with_params(adapted), ds, batch[:, half:])

    return step


def train_epochs(
    ds: LabeledDataset,
    params: ParamVector,
    template: Network,
    part: str,
    epochs: int,
    batch_size: int,
    momentum: float,
    lr_fn,
    rng,
    prox: tuple[float, ParamVector] | None = None,
    update_offset: int = 0,
    step=_joint_step,
    on_epoch=None,
) -> list[list[float]]:
    """Minibatch momentum SGD over `epochs`, updating `part` of `params` in
    place: the one training loop behind every local, server-side,
    fine-tuning and centralized update.

    ``params`` is an (M, P) stack of a lockstep group, M clients of one
    train-set size whose train sets ``ds`` holds one after another, with
    ``rng`` a list of M generators. A single vector with one generator is a
    group of one. Each step runs one forward, one backward and one
    ``sgd_step`` for the whole group. Each client draws its batches from its
    own generator and has its own momentum buffer, prox anchor (a row of
    ``prox[1]``) and losses, so its bits do not depend on its group.

    ``lr_fn`` maps the update counter (starting at ``update_offset``) to a
    learning rate; the group shares it, since a client's schedule depends
    only on its train-set size. ``step`` maps (net, ds, (M, b) batch
    indices) to (losses, grads); ``on_epoch`` is called with the optimizer
    state after each epoch. Momentum starts at zero and carries across the
    epochs of one call. Returns each client's per-step losses.
    """
    stack = params.as_stack()
    rngs = list(rng) if params.data.ndim == 2 else [rng]
    m = len(rngs)
    if stack.data.shape[0] != m or len(ds) % m:
        raise ValueError(f"{len(ds)} samples and {m} generators do not fit {m} clients")
    n = len(ds) // m
    net = template.with_params(stack)
    mask = template.mask_for(part)
    opt = OptState.for_params(stack, momentum)
    if prox is not None:
        prox = (prox[0], prox[1].as_stack())
    losses: list[list[float]] = [[] for _ in range(m)]
    first = (np.arange(m) * n)[:, None]  # each client's first row in ds
    u = update_offset
    for _ in range(epochs):
        orders = np.array([r.permutation(n) for r in rngs]) + first
        for t in range(iterations_per_epoch(n, batch_size)):
            loss, grads = step(net, ds, orders[:, t * batch_size : (t + 1) * batch_size])
            values = loss.tolist()
            if not all(map(math.isfinite, values)):
                member = next(i for i, v in enumerate(values) if not math.isfinite(v))
                raise NumericError(f"non-finite loss at local update {u}", member)
            sgd_step(stack, grads, opt, lr_fn(u), mask, prox)
            for client_losses, value in zip(losses, values):
                client_losses.append(value)
            u += 1
        if on_epoch is not None:
            on_epoch(opt)
    return losses


def local_update(
    client_ds: LabeledDataset,
    theta_start: ParamVector,
    template: Network,
    alg: AlgorithmSpec,
    local_epochs: int,
    batch_size: int,
    momentum: float,
    lr_fn,
    rng,
    mu: float = 0.0,
    perfedavg_alpha: float = 0.01,
) -> tuple[ParamVector, float | list[float]]:
    """One client's local pass under ``alg``'s local rule; returns (final
    params, mean minibatch loss). The one place a local rule becomes
    ``train_epochs`` calls, for federated rounds and for evaluation's
    fine-tunes alike. Given a lockstep group (see ``train_epochs``: an
    (M, P) stack and M generators), it returns the group's stack and one
    mean loss per client.

    'sequential_head_then_body' (FedRep) trains the head for every epoch,
    then the body for one more epoch that reuses the final head epoch's
    schedule positions. Momentum buffers are created fresh here: optimizer
    state is never communicated between rounds.
    """
    if len(client_ds) == 0:
        raise FederationError("client has no training data")
    params = theta_start.copy()
    args = (batch_size, momentum, lr_fn, rng)
    if alg.local_rule == "sequential_head_then_body":
        losses = train_epochs(client_ds, params, template, "head", local_epochs, *args)
        if local_epochs > 0:  # the body epoch starts at offset (tau - 1) * I
            n = len(client_ds) // len(losses)
            body = train_epochs(
                client_ds, params, template, "body", 1, *args,
                update_offset=(local_epochs - 1) * iterations_per_epoch(n, batch_size),
            )
            losses = [head + tail for head, tail in zip(losses, body)]
    elif alg.local_rule in ("joint", "proximal", "ditto", "perfedavg_fo"):
        losses = train_epochs(
            client_ds, params, template, alg.update_part, local_epochs, *args,
            prox=(mu, theta_start) if alg.local_rule == "proximal" else None,
            step=(
                _perfedavg_step(perfedavg_alpha)
                if alg.local_rule == "perfedavg_fo"
                else _joint_step
            ),
        )
    else:
        raise FederationError(f"unknown local rule {alg.local_rule!r}")
    means = [float(np.mean(client)) if client else float("nan") for client in losses]
    return params, means if params.data.ndim == 2 else means[0]


def ditto_update(
    client_ds: LabeledDataset,
    theta_global: ParamVector,
    theta_personal: ParamVector,
    lam: float,
    local_epochs: int,
    lr_fn,
    rng,
    template: Network,
    batch_size: int = 50,
    momentum: float = 0.9,
) -> ParamVector:
    """Personal-model step: local loss plus (lam/2)||theta - theta_global||^2.
    Runs a lockstep group as ``train_epochs`` does."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    params = theta_personal.copy()
    train_epochs(
        client_ds, params, template, "full", local_epochs,
        batch_size, momentum, lr_fn, rng, prox=(lam, theta_global),
    )
    return params


# --- aggregation -------------------------------------------------------------


def aggregate(
    updates: list[tuple[ParamVector, int]],
    theta_prev: ParamVector,
    mask,
) -> ParamVector:
    """Sample-count-weighted average over masked-in segments; masked-out
    segments are bit-copied from ``theta_prev``. Callers pass updates in
    ascending client order; summation follows that order in float64."""
    if not updates:
        raise FederationError("nothing to aggregate")
    total = sum(n for _, n in updates)
    if total == 0:
        raise FederationError("aggregation weights sum to zero")
    for theta, _ in updates:
        theta_prev.require_same_segmentation(theta)
    mask.check(theta_prev)
    out = theta_prev.copy()
    for i in mask.selected():
        start, end = theta_prev.bounds[i]
        acc = np.zeros(end - start, dtype=np.float64)
        for theta, n in updates:
            acc += (n / total) * theta.segment(i).astype(np.float64)
        out.segment(i)[:] = acc.astype(FLOAT)
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
    fedavg = get_algorithm("fedavg")
    lg_phase = AlgorithmSpec(
        "lg-fedavg", "full", "head", "joint", persistent_part="body"
    )
    plan = [(fedavg, "schedule")] * cfg.rounds
    plan += [(lg_phase, "constant")] * math.ceil(cfg.rounds / 4)
    return plan


def assemble_client_params(
    state: FederationState, template: Network, alg: AlgorithmSpec, client_id: int
) -> ParamVector:
    """Broadcast view for one client: global shared parts, overlaid with the
    client's persistent part (its initialization if never sampled)."""
    base = state.global_params.copy()
    if alg.persistent_part is None:
        return base
    source = state.client_params.get(client_id, state.initial_params)
    for i in template.mask_for(alg.persistent_part).selected():
        base.segment(i)[:] = source.segment(i)
    return base


def init_state(template: Network) -> FederationState:
    return FederationState(template.params.copy(), template.params.copy())


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
        plan = plan[: until_round]

    pool_ds = None
    if cfg.server_share > 0:
        pool_idx = draw_server_pool(data.splits, cfg.server_share, stream(cfg.seed, _POOL))
        pool_ds = data.train.subset(pool_idx)

    logs: list[RoundLog] = []
    for k in range(state.round + 1, len(plan) + 1):
        round_alg, lr_mode = plan[k - 1]
        t0 = time.perf_counter()

        if round_alg.federated:
            sampled = sample_clients(cfg.clients, cfg.fraction, stream(cfg.seed, _SAMPLING, k))
        else:
            sampled = list(range(cfg.clients))

        def run_group(ids: tuple[int, ...]):
            """Train a lockstep group; one (cid, theta, personal, n, loss) per client."""
            try:
                group_ds = data.group_train(ids)
                n = len(group_ds) // len(ids)
                if round_alg.local_rule == "ditto":
                    # the global track is plain FedAvg: broadcast the global
                    # model; the personal model only enters ditto_update
                    starts = ParamVector.stack([state.global_params] * len(ids))
                else:
                    starts = ParamVector.stack(
                        [assemble_client_params(state, template, round_alg, cid) for cid in ids]
                    )
                sched = client_schedule(cfg, n)
                offset = (min(k, cfg.rounds) - 1) * cfg.local_epochs * iterations_per_epoch(
                    n, cfg.batch_size
                )
                if lr_mode == "schedule":
                    lr_fn = lambda u: sched.lr_at(offset + u)
                else:
                    lr_fn = lambda u: LG_LR
                rngs = [stream(cfg.seed, _CLIENT, k, cid) for cid in ids]
                thetas, losses = local_update(
                    group_ds, starts, template, round_alg,
                    cfg.local_epochs, cfg.batch_size, cfg.momentum,
                    lr_fn, rngs, mu=cfg.mu, perfedavg_alpha=cfg.perfedavg_alpha,
                )
                personals = [None] * len(ids)
                if round_alg.local_rule == "ditto":
                    personals = ditto_update(
                        group_ds,
                        starts,
                        ParamVector.stack(
                            [state.client_params.get(cid, state.initial_params) for cid in ids]
                        ),
                        cfg.lam, cfg.local_epochs, lr_fn,
                        [stream(cfg.seed, _CLIENT, k, cid, 1) for cid in ids],
                        template, cfg.batch_size, cfg.momentum,
                    ).rows()
                return list(zip(ids, thetas.rows(), personals, [n] * len(ids), losses))
            except NumericError as e:
                raise NumericError(f"round {k}, client {ids[e.member]}: {e}") from e
            except FederationError as e:
                # anything else holds for the whole group, which shares a size
                raise FederationError(f"round {k}, client {ids[0]}: {e}") from e

        results = sorted(
            (r for ids in client_groups(data, sampled, template, cfg.batch_size)
             for r in run_group(ids)),
            key=lambda r: r[0],
        )  # ascending ids

        # train_epochs has raised NumericError on any non-finite step loss
        losses = [loss for *_, loss in results if not math.isnan(loss)]
        mean_loss = float(np.mean(losses)) if losses else float("nan")

        if round_alg.federated:
            updates = [(theta, n) for _, theta, _, n, _ in results]
            state.global_params = aggregate(
                updates, state.global_params, template.mask_for(round_alg.aggregate_part)
            )

        if round_alg.persistent_part is not None:
            for cid, theta_out, personal, _, _ in results:
                state.client_params[cid] = (
                    personal if personal is not None else theta_out
                ).copy()

        if pool_ds is not None and round_alg.federated:
            # one server epoch on the shared pool, in place on the fresh
            # aggregate, at the rate the schedule has reached so far
            round_lr = _round_end_lr(cfg, k)
            train_epochs(
                pool_ds, state.global_params, template, cfg.server_update_part, 1,
                cfg.batch_size, cfg.momentum, lambda _u: round_lr, stream(cfg.seed, _SERVER, k),
            )

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
