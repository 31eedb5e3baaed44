"""Synchronous federated training over simulated clients.

Each round: select participants, compute their updates, aggregate by
sample-count weights, advance the global model. Client RNG streams are
derived from (seed, client id, round), so results do not depend on the
order in which clients are processed.

run_training, run_round and client_results train F independent federations
side by side (benchmark and fed-vs-central run F=1; the sampling sweep runs
a grid point's repeats). Their configs agree on every field but seed. In
FedAvg mode a round's clients of all F federations train in lockstep: their
models form one K-stacked set of arrays, each entry starting from its own
federation's global model, and their shards a DatasetStack, and each epoch
is one models.sgd_epoch over the stack. This is bit-identical to training
each client on its own: a stacked matmul makes the same gemm call per stack
entry as a 2-D matmul, the elementwise ops, the sigmoid and the per-entry
sums do the same arithmetic on each element, and no stack entry reads
another client's rows. Aggregation stays per federation.
"""

from __future__ import annotations

import dataclasses
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
    rounds: int = 10
    local_epochs: int = 2
    participation: float = 1.0
    aggregation_mode: str = FEDAVG
    hyperparams: MlpHyperparams = field(default_factory=MlpHyperparams)
    seed: int = 0

    def __post_init__(self):
        if self.rounds < 0 or self.local_epochs < 1:
            raise DomainError("rounds >= 0 and local_epochs >= 1 required")
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


def _shared_config(configs: list[FedConfig]) -> FedConfig:
    """The config that federations trained together share: they may differ
    in seed only."""
    if not configs:
        raise DomainError("need at least one federation")
    first = configs[0]
    for config in configs[1:]:
        if dataclasses.replace(config, seed=first.seed) != first:
            raise DomainError("federations trained together must agree on every "
                              f"config field but seed; got {first} and {config}")
    return first


def client_results(clients: list[list[ClientState]],
                   global_params: list[MlpParams], config: FedConfig,
                   round_idx: int):
    """local_update of each client of F federations: clients[f] are
    federation f's clients, global_params[f] its global model and `config`
    the config they share. Returns one list per federation, in the given
    client order.

    In FedAvg mode each client first trains a copy of its federation's
    global parameters for `local_epochs` epochs of mini-batch SGD, all
    clients of all federations in lockstep.
    """
    mode = config.aggregation_mode
    if mode == FEDSGD:
        return [[local_update(c, params, mode) for c in fed]
                for fed, params in zip(clients, global_params, strict=True)]
    # Largest shard first, ties by federation and client id (see DatasetStack).
    entries = sorted(((f, k, c) for f, fed in enumerate(clients)
                      for k, c in enumerate(fed)),
                     key=lambda e: (-e[2].shard.data.n_samples, e[0], e[2].client_id))
    stack = DatasetStack(tuple(c.shard.data for _, _, c in entries))
    # Entry pos starts from global_params[fed_of[pos]].
    fed_of = np.array([f for f, _, _ in entries])
    layer_sizes = global_params[0].layer_sizes
    trained = MlpParams(
        layer_sizes,
        [np.stack(ws)[fed_of] for ws in zip(*(p.weights for p in global_params))],
        [np.stack(bs)[fed_of] for bs in zip(*(p.biases for p in global_params))])
    round_rngs = [c.rng.split("round", round_idx) for _, _, c in entries]
    for e in range(config.local_epochs):
        sgd_epoch(trained, stack, config.hyperparams,
                  [rng.split("epoch", e) for rng in round_rngs])

    results = [[None] * len(fed) for fed in clients]
    for pos, (f, k, c) in enumerate(entries):
        local = MlpParams(layer_sizes, [w[pos] for w in trained.weights],
                          [b[pos] for b in trained.biases])
        results[f][k] = local_update(c, local, mode)
    return results


def select_participants(clients: list[ClientState], config: FedConfig,
                        master: Rng, round_idx: int) -> list[ClientState]:
    m = math.ceil(config.participation * len(clients))
    rng = master.split("select", round_idx)
    picked = rng.choice(len(clients), m)
    chosen = sorted(int(i) for i in picked)
    return [clients[i] for i in chosen]


def _active_clients(clients: list[ClientState], config: FedConfig, master: Rng,
                    round_idx: int) -> list[ClientState]:
    active = []
    for c in select_participants(clients, config, master, round_idx):
        if c.shard.data.n_samples == 0:
            warnings.warn(f"client {c.client_id} has an empty shard; skipping")
            continue
        active.append(c)
    if not active:
        raise DomainError(f"round {round_idx}: no clients with data")
    return active


def _advance(global_params: MlpParams, active: list[ClientState], results,
             config: FedConfig, round_idx: int, test: Dataset | None):
    """One federation's aggregation step from its clients' results: the new
    global params and the round's RoundReport."""
    for c, (vec, _, loss) in zip(active, results):
        if not (np.isfinite(loss) and np.isfinite(vec).all()):
            raise DomainError(f"round {round_idx}: client {c.client_id} (seed "
                              f"{config.seed}) returned a non-finite update or "
                              "local loss")

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


def run_round(global_params: list[MlpParams], clients: list[list[ClientState]],
              configs: list[FedConfig], masters: list[Rng], round_idx: int,
              tests: list[Dataset | None] | None = None):
    """Round `round_idx` of F federations: federation f has global model
    global_params[f], clients[f], configs[f], master Rng masters[f] and test
    set tests[f] (default: none). All active clients train in one
    client_results call; aggregation, the finiteness check, the train loss
    and the test metrics are per federation.

    Returns (new global params, RoundReport), each a list over federations.
    """
    config = _shared_config(configs)
    if tests is None:
        tests = [None] * len(configs)
    active = [_active_clients(fed, cfg, master, round_idx)
              for fed, cfg, master in zip(clients, configs, masters, strict=True)]
    results = client_results(active, global_params, config, round_idx)
    new_params, reports = [], []
    for params, fed_active, fed_results, cfg, test in zip(
            global_params, active, results, configs, tests, strict=True):
        params, report = _advance(params, fed_active, fed_results, cfg,
                                  round_idx, test)
        new_params.append(params)
        reports.append(report)
    return new_params, reports


def run_training(shards: list[list[ClientShard]], tests: list[Dataset | None],
                 configs: list[FedConfig]):
    """F federated runs, trained side by side: federation f has client
    shards shards[f], test set tests[f] (None for no per-round metrics) and
    configs[f]. Each gets a seeded init, T rounds and per-round reports,
    bit-identical to a run of that federation alone; the configs must agree
    on every field but seed.

    Returns one (final MlpParams, list of RoundReport) per federation.
    """
    config = _shared_config(configs)
    if len(shards) != len(configs) or not all(shards):
        raise DomainError("run_training needs at least one shard per federation")
    masters = [Rng(c.seed) for c in configs]
    params = [init_mlp_params(fed[0].data.n_features,
                              config.hyperparams.hidden_sizes, master)
              for fed, master in zip(shards, masters)]
    clients = [make_clients(fed, master) for fed, master in zip(shards, masters)]

    reports = [[] for _ in configs]
    for t in range(config.rounds):
        params, round_reports = run_round(params, clients, configs, masters, t,
                                          tests)
        for fed_reports, report in zip(reports, round_reports):
            fed_reports.append(report)
    return list(zip(params, reports))
