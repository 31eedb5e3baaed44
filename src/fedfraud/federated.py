"""Synchronous federated training over simulated clients.

Each round: select participants, compute their updates, aggregate by
sample-count weights, advance the global model. The round loop sees client
shards and nothing else: it never scores a model on test data, which is the
experimenter's job (experiments). Client RNG streams are
derived from (master seed, client id, round), in client_results only, so
results do not depend on the order in which clients are processed.

run_training, run_round and client_results train F independent federations
side by side (benchmark and fed-vs-central run F=1; the sampling sweep runs
a grid point's repeats). They share one FedConfig, as FedAvg's server
fixes one set of client settings, and differ in data and seed only. A
round's clients of all F federations form one lockstep stack: their models
one K-stacked set of arrays, each entry a C-contiguous copy of its own
federation's global model, and their shards a DatasetStack. FedAvg trains
the stack, each epoch one models.sgd_epoch; FedSGD, which is FedAvg with no
local training, trains it zero epochs. This is bit-identical to training
each client on its own: a stacked matmul makes the same gemm call per stack
entry as a 2-D matmul, the elementwise ops, the sigmoid and the per-entry
sums do the same arithmetic on each element, and no stack entry reads
another client's rows. Aggregation stays per federation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .aggregation import aggregate
from .data import ClientShard, DatasetStack
from .errors import DomainError
from .models import (MlpHyperparams, MlpParams, init_mlp_params, mlp_backward,
                     mlp_forward, mlp_loss, sgd_epoch)
from .numeric import Rng

FEDAVG = "fedavg_params"
FEDSGD = "fedsgd_gradients"

# Rows per forward pass in a FedAvg client's local-loss pass. A whole-shard
# matmul on a large shard is big enough for OpenBLAS to hand to its worker
# threads, which then spin for about 0.1 s; with such a client in every few
# rounds they spin through the whole round loop, so CPU time would hinge on
# the largest shard. 1024 rows times a 30 x 16 layer stay on one thread (under
# twice OpenBLAS's 2^18 multiply-adds per thread). The loss may differ from a
# whole-shard pass in its last bits; the payload does not depend on it.
# FedSGD's gradient sums over the whole shard and is not split.
LOSS_BLOCK_ROWS = 1024


@dataclass
class FedConfig:
    """Client settings shared by every client of every federation trained
    together; hyperparams.epochs is the local epochs per round."""
    rounds: int = 10
    participation: float = 1.0
    aggregation_mode: str = FEDAVG
    hyperparams: MlpHyperparams = field(
        default_factory=lambda: MlpHyperparams(epochs=2))

    def __post_init__(self):
        if self.rounds < 0:
            raise DomainError(f"rounds must be >= 0, got {self.rounds}")
        if self.hyperparams.epochs < 1:
            raise DomainError(f"local_epochs must be >= 1, got {self.hyperparams.epochs}")
        if not 0.0 < self.participation <= 1.0:
            raise DomainError(f"participation must be in (0,1], got {self.participation}")
        if self.aggregation_mode not in (FEDAVG, FEDSGD):
            raise DomainError(f"aggregation_mode must be {FEDAVG!r} or {FEDSGD!r}, "
                              f"got {self.aggregation_mode!r}")


@dataclass
class RoundReport:
    round_index: int
    participant_ids: list[int]
    train_loss: float
    params: MlpParams                  # the global model this round produced


def local_update(shard: ClientShard, params: MlpParams, mode: str):
    """(payload vector, n_k, local loss) of one client at `params`.

    FedSGD: `params` is the global model and the payload is the client's
    full-batch gradient there. FedAvg: `params` is the client's model after
    local training (client_results) and the payload is its parameters.
    """
    ds = shard.data
    if mode == FEDSGD:
        probs, caches = mlp_forward(params, ds.features)
        return (mlp_backward(params, caches, ds.labels), ds.n_samples,
                mlp_loss(probs, ds.labels))
    probs = np.concatenate([mlp_forward(params, ds.features[i:i + LOSS_BLOCK_ROWS])[0]
                            for i in range(0, max(ds.n_samples, 1), LOSS_BLOCK_ROWS)])
    return params.as_vector(), ds.n_samples, mlp_loss(probs, ds.labels)


def client_results(shards: list[list[ClientShard]],
                   global_params: list[MlpParams], config: FedConfig,
                   masters: list[Rng], round_idx: int):
    """local_update of each client of F federations: shards[f] are
    federation f's client shards, global_params[f] its global model and
    masters[f] its master Rng; `config` is the one they share. Returns one
    list per federation, in the given client order.

    Each client starts from a copy of its federation's global parameters,
    all clients of all federations in one lockstep stack. In FedAvg mode the
    stack trains hyperparams.epochs epochs of mini-batch SGD, in FedSGD mode
    none. Client k of federation f trains round t on
    masters[f].split("client", k, "round", t).
    """
    mode = config.aggregation_mode
    # Largest shard first, ties by federation and client id (see DatasetStack).
    entries = sorted(((f, k, s) for f, fed in enumerate(shards)
                      for k, s in enumerate(fed)),
                     key=lambda e: (-e[2].data.n_samples, e[0], e[2].client_id))
    stack = DatasetStack(tuple(s.data for _, _, s in entries))
    # Entry pos starts from global_params[fed_of[pos]].
    fed_of = np.array([f for f, _, _ in entries])
    layer_sizes = global_params[0].layer_sizes
    trained = MlpParams(layer_sizes, [np.stack(layer)[fed_of] for layer in
                                      zip(*(p.layers for p in global_params))])
    round_rngs = [masters[f].split("client", s.client_id, "round", round_idx)
                  for f, _, s in entries]
    for e in range(config.hyperparams.epochs if mode == FEDAVG else 0):
        sgd_epoch(trained, stack, config.hyperparams,
                  [rng.split("epoch", e) for rng in round_rngs])

    results = [[None] * len(fed) for fed in shards]
    for pos, (f, k, s) in enumerate(entries):
        local = MlpParams(layer_sizes, [layer[pos] for layer in trained.layers])
        results[f][k] = local_update(s, local, mode)
    return results


def _active_clients(shards: list[ClientShard], config: FedConfig, master: Rng,
                    round_idx: int) -> list[ClientShard]:
    """The round's ceil(participation * K) clients, drawn without replacement
    on master.split("select", round_idx), in client order."""
    m = math.ceil(config.participation * len(shards))
    picked = master.split("select", round_idx).gen.choice(len(shards), m,
                                                         replace=False)
    return [shards[i] for i in sorted(picked)]


def _advance(global_params: MlpParams, active: list[ClientShard], results,
             config: FedConfig, master: Rng, round_idx: int) -> RoundReport:
    """One federation's aggregation step from its clients' results: the
    round's RoundReport, whose params are the new global model."""
    for s, (vec, _, loss) in zip(active, results):
        if not (np.isfinite(loss) and np.isfinite(vec).all()):
            raise DomainError(f"round {round_idx}: client {s.client_id} (seed "
                              f"{master.seed}) returned a non-finite update or "
                              "local loss")

    # Fixed client-id order into the aggregator.
    agg = aggregate([(vec, n_k) for vec, n_k, _ in results])
    if config.aggregation_mode == FEDSGD:
        agg = global_params.as_vector() - config.hyperparams.learning_rate * agg
    n_total = sum(n_k for _, n_k, _ in results)
    return RoundReport(
        round_index=round_idx,
        participant_ids=[s.client_id for s in active],
        train_loss=float(sum((n_k / n_total) * loss for _, n_k, loss in results)),
        params=MlpParams.from_vector(global_params.layer_sizes, agg),
    )


def run_round(global_params: list[MlpParams], shards: list[list[ClientShard]],
              config: FedConfig, masters: list[Rng], round_idx: int):
    """Round `round_idx` of F federations sharing `config`: federation f has
    global model global_params[f], client shards shards[f] and master Rng
    masters[f]. All active clients train in one client_results call;
    aggregation, the finiteness check and the train loss are per federation.

    Returns one RoundReport per federation; its params are the new global
    model.
    """
    active = [_active_clients(fed, config, master, round_idx)
              for fed, master in zip(shards, masters, strict=True)]
    results = client_results(active, global_params, config, masters, round_idx)
    return [_advance(params, fed_active, fed_results, config, master, round_idx)
            for params, fed_active, fed_results, master in zip(
                global_params, active, results, masters, strict=True)]


def run_training(shards: list[list[ClientShard]], config: FedConfig,
                 seeds: list[int]):
    """F federated runs sharing `config`, trained side by side: federation f
    has client shards shards[f] and master seed seeds[f]. Each gets a seeded
    init, T rounds and per-round reports, bit-identical to a run of that
    federation alone.

    Returns one (final MlpParams, list of RoundReport) per federation; with
    0 rounds the final params are the init. An empty client shard is a
    DomainError naming the client, before any round.
    """
    if not shards or len(seeds) != len(shards) or not all(shards):
        raise DomainError("run_training needs one seed and at least one shard "
                          "per federation")
    empty = next((s for fed in shards for s in fed if s.data.n_samples == 0), None)
    if empty is not None:
        raise DomainError(f"client {empty.client_id} has an empty shard")
    masters = [Rng(seed) for seed in seeds]
    params = [init_mlp_params(fed[0].data.n_features,
                              config.hyperparams.hidden_sizes, master)
              for fed, master in zip(shards, masters)]

    rounds = []
    for t in range(config.rounds):
        rounds.append(run_round(params, shards, config, masters, t))
        params = [report.params for report in rounds[-1]]
    return [(p, [r[f] for r in rounds]) for f, p in enumerate(params)]
