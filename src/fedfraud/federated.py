"""Synchronous federated training over simulated clients.

Each round: select participants, compute their updates, aggregate by
sample-count weights, advance the global model. Client RNG streams are
derived from (seed, client id, round), so results do not depend on the
order in which clients are processed.

In FedAvg mode a round's clients train in lockstep: their models form one
K-stacked set of arrays and their shards a DatasetStack, and each epoch is
one models.sgd_epoch over the stack. This is bit-identical to training each
client on its own: a stacked matmul makes the same gemm call per stack
entry as a 2-D matmul, the elementwise ops, the sigmoid and the per-entry
sums do the same arithmetic on each element, and no stack entry reads
another client's rows.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .aggregation import aggregate
from .data import ClientShard, Dataset, DatasetStack
from .errors import DomainError
from .models import (MlpHyperparams, MlpParams, init_mlp_params, mlp_backward,
                     mlp_forward, mlp_loss, sgd_epoch)
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


def make_clients(shards: list[ClientShard], master: Rng) -> list[ClientState]:
    return [ClientState(s.client_id, s, master.split("client", s.client_id))
            for s in shards]


def local_update(client: ClientState, params: MlpParams, mode: str):
    """(payload vector, n_k, local loss) of one client at `params`.

    FedSGD: `params` is the global model and the payload is the client's
    full-batch gradient there. FedAvg: `params` is the client's model after
    local training (client_results) and the payload is its parameters.
    """
    ds = client.shard.data
    probs, caches = mlp_forward(params, ds.features)
    payload = (mlp_backward(params, caches, ds.labels) if mode == FEDSGD
               else params.as_vector())
    return payload, ds.n_samples, mlp_loss(probs, ds.labels)


def client_results(clients: list[ClientState], global_params: MlpParams,
                   config: FedConfig, round_idx: int):
    """local_update of each client, in the given order.

    In FedAvg mode each client first trains a copy of the global parameters
    for `local_epochs` epochs of mini-batch SGD, all clients in lockstep.
    """
    mode = config.aggregation_mode
    if mode == FEDSGD:
        return [local_update(c, global_params, mode) for c in clients]
    # Largest shard first, ties by client id (see DatasetStack).
    ranked = sorted(range(len(clients)), key=lambda k: (
        -clients[k].shard.data.n_samples, clients[k].client_id))
    stack = DatasetStack(tuple(clients[k].shard.data for k in ranked))
    trained = MlpParams(global_params.layer_sizes,
                        [np.repeat(w[None], len(ranked), axis=0)
                         for w in global_params.weights],
                        [np.repeat(b[None], len(ranked), axis=0)
                         for b in global_params.biases])
    round_rngs = [clients[k].rng.split("round", round_idx) for k in ranked]
    for e in range(config.local_epochs):
        sgd_epoch(trained, stack, config.hyperparams,
                  [rng.split("epoch", e) for rng in round_rngs])

    results = [None] * len(clients)
    for pos, k in enumerate(ranked):
        local = MlpParams(global_params.layer_sizes,
                          [w[pos] for w in trained.weights],
                          [b[pos] for b in trained.biases])
        results[k] = local_update(clients[k], local, mode)
    return results


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
    participants = select_participants(clients, config, master, round_idx)

    active = []
    for c in participants:
        if c.shard.data.n_samples == 0:
            warnings.warn(f"client {c.client_id} has an empty shard; skipping")
            continue
        active.append(c)
    if not active:
        raise DomainError(f"round {round_idx}: no clients with data")

    results = client_results(active, global_params, config, round_idx)

    for c, (vec, _, loss) in zip(active, results):
        if not (np.isfinite(loss) and np.isfinite(vec).all()):
            raise DomainError(f"round {round_idx}: client {c.client_id} returned a "
                              "non-finite update or local loss")

    # Fixed client-id order into the aggregator.
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
