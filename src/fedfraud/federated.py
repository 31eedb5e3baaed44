"""Synchronous federated training over simulated clients.

Each round: select participants, fan out local updates (optionally on a
thread pool), aggregate by sample-count weights, advance the global model.
Client RNG streams are derived from (seed, client id, round), so results
are bit-identical regardless of scheduling order or thread count.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .aggregation import aggregate
from .data import ClientShard, Dataset
from .errors import DomainError
from .models import (MlpHyperparams, MlpParams, full_batch_gradient,
                     init_mlp_params, mlp_forward, mlp_loss, sgd_epoch)
from .numeric import Rng

FEDAVG = "fedavg_params"
FEDSGD = "fedsgd_gradients"


@dataclass
class FedConfig:
    k_clients: int = 5
    rounds: int = 10
    local_epochs: int = 2
    participation: float = 1.0
    aggregation_mode: str = FEDAVG
    hyperparams: MlpHyperparams = field(default_factory=MlpHyperparams)
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.rounds < 0 or self.local_epochs < 1 or self.k_clients < 1:
            raise DomainError("rounds >= 0, local_epochs >= 1, k_clients >= 1 required")
        if not 0.0 < self.participation <= 1.0:
            raise DomainError(f"participation must be in (0,1], got {self.participation}")
        if self.aggregation_mode not in (FEDAVG, FEDSGD):
            raise DomainError(f"unknown aggregation mode {self.aggregation_mode!r}")


@dataclass
class ClientState:
    client_id: int
    shard: ClientShard
    rng: Rng


@dataclass
class RoundReport:
    round_index: int
    participant_ids: list[int]
    train_loss: float
    test_metrics: dict | None
    duration: float


def make_clients(shards: list[ClientShard], master: Rng) -> list[ClientState]:
    return [ClientState(s.client_id, s, master.split("client", s.client_id))
            for s in shards]


def train_locally(params: MlpParams, ds: Dataset, hp: MlpHyperparams,
                  epochs: int, rng: Rng) -> MlpParams:
    """Plain centralized SGD for `epochs` epochs; also the per-client local
    step, so single-client federated training degenerates to this exactly."""
    for e in range(epochs):
        sgd_epoch(params, ds, hp, rng.split("epoch", e))
    return params


def local_update(client: ClientState, global_params: MlpParams,
                 config: FedConfig, round_idx: int):
    """Returns (payload vector, n_k, local loss). In fedavg mode the payload
    is locally trained parameters; in fedsgd mode it is the full-batch
    gradient at the global parameters."""
    ds = client.shard.data
    round_rng = client.rng.split("round", round_idx)
    if config.aggregation_mode == FEDAVG:
        local = global_params.copy()
        train_locally(local, ds, config.hyperparams, config.local_epochs, round_rng)
        probs, _ = mlp_forward(local, ds.features)
        return local.as_vector(), ds.n_samples, mlp_loss(probs, ds.labels)
    grad = full_batch_gradient(global_params, ds)
    probs, _ = mlp_forward(global_params, ds.features)
    return grad, ds.n_samples, mlp_loss(probs, ds.labels)


def select_participants(clients: list[ClientState], config: FedConfig,
                        master: Rng, round_idx: int) -> list[ClientState]:
    m = math.ceil(config.participation * len(clients))
    rng = master.split("select", round_idx)
    picked = rng.choice(len(clients), m)
    chosen = sorted(int(i) for i in picked)
    return [clients[i] for i in chosen]


def run_round(global_params: MlpParams, clients: list[ClientState],
              config: FedConfig, master: Rng, round_idx: int,
              test: Dataset | None = None):
    start = time.perf_counter()
    participants = select_participants(clients, config, master, round_idx)

    active = []
    for c in participants:
        if c.shard.data.n_samples == 0:
            warnings.warn(f"client {c.client_id} has an empty shard; skipping")
            continue
        active.append(c)
    if not active:
        raise DomainError(f"round {round_idx}: no clients with data")

    def work(client):
        return local_update(client, global_params, config, round_idx)

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = list(pool.map(work, active))
    else:
        results = [work(c) for c in active]

    for c, (vec, _, loss) in zip(active, results):
        if not (np.isfinite(loss) and np.isfinite(vec).all()):
            raise DomainError(f"round {round_idx}: client {c.client_id} returned a "
                              "non-finite update or local loss")

    # Fixed client-id order into the aggregator: schedule-independent.
    contributions = [(vec, n_k) for vec, n_k, _ in results]
    agg = aggregate(contributions)
    if config.aggregation_mode == FEDAVG:
        new_params = MlpParams.from_vector(global_params.layer_sizes, agg)
    else:
        step = global_params.as_vector() - config.hyperparams.learning_rate * agg
        new_params = MlpParams.from_vector(global_params.layer_sizes, step)

    n_total = sum(n_k for _, n_k, _ in results)
    train_loss = sum((n_k / n_total) * loss for _, n_k, loss in results)

    test_metrics = None
    if test is not None and test.n_samples > 0:
        probs, _ = mlp_forward(new_params, test.features)
        test_metrics = metrics.summarize(probs, test.labels)

    report = RoundReport(
        round_index=round_idx,
        participant_ids=[c.client_id for c in active],
        train_loss=float(train_loss),
        test_metrics=test_metrics,
        duration=time.perf_counter() - start,
    )
    return new_params, report


def run_training(shards: list[ClientShard], test: Dataset | None,
                 config: FedConfig):
    """Full federated run: seeded init, T rounds, per-round test metrics.

    Returns (final MlpParams, list of RoundReport).
    """
    if not shards:
        raise DomainError("run_training needs at least one shard")
    master = Rng(config.seed)
    input_dim = shards[0].data.n_features
    global_params = init_mlp_params(input_dim, config.hyperparams.hidden_sizes, master)
    clients = make_clients(shards, master)

    reports = []
    for t in range(config.rounds):
        global_params, report = run_round(global_params, clients, config,
                                          master, t, test)
        reports.append(report)
    return global_params, reports
