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


def _joint_step(net: Network, ds: LabeledDataset, batch: np.ndarray):
    """Step rule of plain SGD: (loss, grads) of the minibatch ``batch``."""
    _, cache = forward(net, ds.samples[batch])
    return backward(net, cache, ds.labels[batch])


def _perfedavg_step(alpha: float):
    """First-order Per-FedAvg step rule: an inner SGD step of rate ``alpha``
    on the batch's first half (support), then the loss and gradient on the
    second half (query) at the adapted point."""
    a32 = FLOAT(alpha)

    def step(net: Network, ds: LabeledDataset, batch: np.ndarray):
        if len(batch) < 2:
            raise FederationError(
                "meta step needs a batch of at least 2 to split into support/query"
            )
        half = len(batch) // 2
        _, g_sup = _joint_step(net, ds, batch[:half])
        adapted = net.params.copy()
        adapted.data -= a32 * g_sup.data
        return _joint_step(net.with_params(adapted), ds, batch[half:])

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
    rng: np.random.Generator,
    prox: tuple[float, ParamVector] | None = None,
    update_offset: int = 0,
    step=_joint_step,
    on_epoch=None,
) -> list[float]:
    """Minibatch momentum SGD over `epochs`, updating `part` of `params` in
    place: the one training loop behind every local, server-side,
    fine-tuning and centralized update.

    ``lr_fn`` maps the update counter (starting at ``update_offset``) to a
    learning rate; ``step`` maps (net, ds, batch indices) to (loss, grads);
    ``on_epoch`` is called after each epoch. Momentum starts at zero and
    carries across the epochs of one call. Returns per-step losses.
    """
    n = len(ds)
    net = template.with_params(params)
    mask = template.mask_for(part)
    opt = OptState.for_params(params, momentum)
    losses: list[float] = []
    u = update_offset
    for _ in range(epochs):
        order = rng.permutation(n)
        for t in range(iterations_per_epoch(n, batch_size)):
            loss, grads = step(net, ds, order[t * batch_size : (t + 1) * batch_size])
            if not math.isfinite(loss):
                raise NumericError(f"non-finite loss at local update {u}")
            sgd_step(params, grads, opt, lr_fn(u), mask, prox)
            losses.append(float(loss))
            u += 1
        if on_epoch is not None:
            on_epoch()
    return losses


def train_head_then_body(
    ds: LabeledDataset,
    params: ParamVector,
    template: Network,
    epochs: int,
    batch_size: int,
    momentum: float,
    lr_fn,
    rng: np.random.Generator,
) -> list[float]:
    """The head for `epochs` epochs, then the body for one more epoch that
    reuses the final head epoch's schedule positions."""
    losses = train_epochs(
        ds, params, template, "head", epochs, batch_size, momentum, lr_fn, rng
    )
    body_offset = (epochs - 1) * iterations_per_epoch(len(ds), batch_size)
    return losses + train_epochs(
        ds, params, template, "body", 1, batch_size, momentum, lr_fn, rng,
        update_offset=body_offset,
    )


def local_update(
    client_ds: LabeledDataset,
    theta_start: ParamVector,
    template: Network,
    alg: AlgorithmSpec,
    local_epochs: int,
    batch_size: int,
    momentum: float,
    lr_fn,
    rng: np.random.Generator,
    mu: float = 0.0,
    perfedavg_alpha: float = 0.01,
) -> tuple[ParamVector, float]:
    """One client's local pass; returns (final params, mean minibatch loss).

    Momentum buffers are created fresh here: optimizer state is never
    communicated between rounds.
    """
    if len(client_ds) == 0:
        raise FederationError("client has no training data")
    if local_epochs == 0:
        return theta_start.copy(), float("nan")
    params = theta_start.copy()
    args = (batch_size, momentum, lr_fn, rng)
    if alg.local_rule == "sequential_head_then_body":
        losses = train_head_then_body(client_ds, params, template, local_epochs, *args)
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
    return params, float(np.mean(losses)) if losses else float("nan")


def perfedavg_fo_update(
    client_ds: LabeledDataset,
    theta_start: ParamVector,
    template: Network,
    local_epochs: int,
    alpha: float,
    lr_fn,
    rng: np.random.Generator,
    batch_size: int = 50,
    momentum: float = 0.9,
) -> ParamVector:
    """Standalone first-order meta update (outer rate from the schedule)."""
    alg = get_algorithm("perfedavg")
    params, _ = local_update(
        client_ds, theta_start, template, alg, local_epochs,
        batch_size, momentum, lr_fn, rng, perfedavg_alpha=alpha,
    )
    return params


def ditto_update(
    client_ds: LabeledDataset,
    theta_global: ParamVector,
    theta_personal: ParamVector,
    lam: float,
    local_epochs: int,
    lr_fn,
    rng: np.random.Generator,
    template: Network,
    batch_size: int = 50,
    momentum: float = 0.9,
) -> ParamVector:
    """Personal-model step: local loss plus (lam/2)||theta - theta_global||^2."""
    if lam < 0:
        raise ValueError("lambda must be non-negative")
    params = theta_personal.copy()
    if local_epochs == 0:
        return params
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


def server_side_update(
    theta: ParamVector,
    pool_ds: LabeledDataset,
    template: Network,
    part: str,
    lr: float,
    batch_size: int,
    momentum: float,
    rng: np.random.Generator,
) -> ParamVector:
    """One epoch of SGD on the shared pool updating ``part`` ('body' leaves
    the head bit-unchanged)."""
    if len(pool_ds) == 0:
        raise FederationError("server pool is empty")
    params = theta.copy()
    train_epochs(
        pool_ds, params, template, part, 1, batch_size, momentum,
        lambda _u: lr, rng,
    )
    return params


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
    Deterministic per seed; clients run one after another, in ascending id
    order, though no bit of the result depends on that order."""
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

        def run_client(cid: int):
            try:
                client_ds = data.client_train(cid)
                if round_alg.local_rule == "ditto":
                    # the global track is plain FedAvg: broadcast the global
                    # model; the personal model only enters ditto_update
                    theta_start = state.global_params.copy()
                else:
                    theta_start = assemble_client_params(state, template, round_alg, cid)
                sched = client_schedule(cfg, len(client_ds))
                ipe = iterations_per_epoch(len(client_ds), cfg.batch_size)
                offset = (min(k, cfg.rounds) - 1) * cfg.local_epochs * ipe
                if lr_mode == "schedule":
                    lr_fn = lambda u: sched.lr_at(offset + u)
                else:
                    lr_fn = lambda u: LG_LR
                rng = stream(cfg.seed, _CLIENT, k, cid)
                theta_out, loss = local_update(
                    client_ds, theta_start, template, round_alg,
                    cfg.local_epochs, cfg.batch_size, cfg.momentum,
                    lr_fn, rng, mu=cfg.mu, perfedavg_alpha=cfg.perfedavg_alpha,
                )
                personal = None
                if round_alg.local_rule == "ditto":
                    personal = ditto_update(
                        client_ds,
                        state.global_params,
                        state.client_params.get(cid, state.initial_params),
                        cfg.lam, cfg.local_epochs, lr_fn,
                        stream(cfg.seed, _CLIENT, k, cid, 1),
                        template, cfg.batch_size, cfg.momentum,
                    )
                return cid, theta_out, personal, len(client_ds), loss
            except NumericError as e:
                raise NumericError(f"round {k}, client {cid}: {e}") from e
            except FederationError as e:
                raise FederationError(f"round {k}, client {cid}: {e}") from e

        results = [run_client(cid) for cid in sampled]  # ascending ids

        losses = [loss for *_, loss in results if not math.isnan(loss)]
        mean_loss = float(np.mean(losses)) if losses else float("nan")
        if losses and not math.isfinite(mean_loss):
            bad = [cid for cid, _, _, _, loss in results if not math.isfinite(loss)]
            raise NumericError(f"round {k}: non-finite loss on clients {bad}")

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
            # server epoch at the rate the schedule has reached so far
            state.global_params = server_side_update(
                state.global_params, pool_ds, template, cfg.server_update_part,
                _round_end_lr(cfg, k), cfg.batch_size, cfg.momentum,
                stream(cfg.seed, _SERVER, k),
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
