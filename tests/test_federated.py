import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedfraud import data, federated, models
from fedfraud.aggregation import aggregate
from fedfraud.data import ClientShard, Dataset
from fedfraud.errors import DomainError, ShapeError
from fedfraud.federated import (FEDAVG, FEDSGD, FedConfig, client_results,
                                local_update, run_round, run_training)
from fedfraud.models import (MlpHyperparams, MlpParams, init_mlp_params,
                             mlp_backward, mlp_forward, mlp_loss, sgd_epoch)
from fedfraud.numeric import Rng


def scalar_weighted_mean(contributions):
    """Independent per-coordinate oracle for the aggregation rule."""
    total = sum(n for _, n in contributions)
    length = len(contributions[0][0])
    out = []
    for i in range(length):
        s = 0.0
        for vec, n in contributions:
            s += (n / total) * vec[i]
        out.append(s)
    return np.array(out)


def reference_client_results(shards, global_params, config, master, round_idx):
    """Per-client FedAvg loop: each client trains its own copy of the global
    params with sgd_epoch on its own rng streams, derived from the master
    Rng, one client after another."""
    out = []
    for shard in shards:
        ds = shard.data
        local = MlpParams.from_vector(global_params.layer_sizes,
                                      global_params.as_vector())
        round_rng = master.split("client", shard.client_id).split("round", round_idx)
        for e in range(config.hyperparams.epochs):
            sgd_epoch(local, ds, config.hyperparams, round_rng.split("epoch", e))
        probs, _ = mlp_forward(local, ds.features)
        out.append((local.as_vector(), ds.n_samples, mlp_loss(probs, ds.labels)))
    return out


def assert_same_reports(reports, expected):
    """RoundReports equal field by field; params compared bit for bit
    (dataclass == cannot compare arrays)."""
    assert len(reports) == len(expected)
    for a, b in zip(reports, expected):
        assert a.round_index == b.round_index
        assert a.participant_ids == b.participant_ids
        assert a.train_loss == b.train_loss
        assert np.array_equal(a.params.as_vector(), b.params.as_vector())


def make_shards(n, k, seed=0, scheme="iid"):
    rng = Rng(seed)
    ds = data.make_synthetic(n, 0.2, 3.0, 4, rng).materialize()
    return data.partition(ds, k, scheme, rng.split("p")), ds


class TestAggregate:
    def test_idempotent_on_equal_vectors(self):
        w = np.array([1.0, -2.0, 3.0])
        assert np.allclose(aggregate([(w, 10), (w, 10)]), w, atol=1e-15)

    def test_scalar_hand_case(self):
        out = aggregate([(np.array([0.0]), 1), (np.array([4.0]), 3)])
        assert out[0] == pytest.approx(3.0, abs=1e-15)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(0)
        contributions = [(rng.normal(size=8), int(rng.integers(1, 100)))
                         for _ in range(5)]
        out = aggregate(contributions)
        assert np.max(np.abs(out - scalar_weighted_mean(contributions))) <= 1e-12

    def test_order_invariant(self):
        rng = np.random.default_rng(1)
        contributions = [(rng.normal(size=6), int(rng.integers(1, 50)))
                         for _ in range(4)]
        a = aggregate(contributions)
        b = aggregate(list(reversed(contributions)))
        assert np.allclose(a, b, atol=1e-12)

    def test_weights_sum_to_one(self):
        counts = np.array([3.0, 11.0, 7.0])
        assert abs((counts / counts.sum()).sum() - 1.0) <= 1e-12

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            aggregate([])

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            aggregate([(np.zeros(3), 1), (np.zeros(4), 1)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_contribution_rejected(self, bad):
        with pytest.raises(DomainError, match="contribution 1 has non-finite"):
            aggregate([(np.array([0.5, 1.0]), 2), (np.array([bad, 1.0]), 3)])


class TestLocalUpdate:
    def test_zero_lr_returns_global_params(self):
        shards, _ = make_shards(200, 1)
        hp = MlpHyperparams(hidden_sizes=(3,), learning_rate=0.0, epochs=3)
        config = FedConfig(hyperparams=hp)
        master = Rng(0)
        global_params = init_mlp_params(4, (3,), master)
        [[(vec, n_k, _)]] = client_results([shards[:1]], [global_params], config,
                                           [master], 0)
        assert np.array_equal(vec, global_params.as_vector())
        assert n_k == shards[0].data.n_samples

    def test_fedsgd_payload_is_full_batch_gradient(self):
        shards, _ = make_shards(150, 1)
        master = Rng(0)
        global_params = init_mlp_params(4, (3,), master)
        vec, _, loss = local_update(shards[0], global_params, FEDSGD)
        ds = shards[0].data
        probs, caches = mlp_forward(global_params, ds.features)
        # local_update reads the loss from the forward's probabilities after
        # the backward ran, so the backward must leave them intact.
        assert loss == mlp_loss(probs, ds.labels)
        assert np.array_equal(vec, mlp_backward(global_params, caches, ds.labels))

    def test_fedsgd_client_results_equal_local_update_bit_for_bit(self):
        # FedSGD clients share FedAvg's lockstep stack and train it zero
        # epochs, so each payload is local_update at its federation's global
        # model, bit for bit.
        config = FedConfig(participation=0.6, aggregation_mode=FEDSGD,
                           hyperparams=MlpHyperparams(hidden_sizes=(5, 3), epochs=2))
        masters, active, global_params = [], [], []
        for f, n in enumerate((700, 450)):
            shards, _ = make_shards(n, 5, seed=10 + f, scheme="quantity_skew")
            assert len({s.data.n_samples for s in shards}) > 1
            masters.append(Rng(10 + f))
            global_params.append(init_mlp_params(4, (5, 3), masters[f]))
            active.append(federated._active_clients(shards, config, masters[f], 2))
        got = client_results(active, global_params, config, masters, 2)
        for fed, params, results in zip(active, global_params, got, strict=True):
            assert len(results) == 3
            for shard, (vec, n_k, loss) in zip(fed, results, strict=True):
                ref_vec, ref_n, ref_loss = local_update(shard, params, FEDSGD)
                assert np.array_equal(vec, ref_vec)
                assert np.array_equal(np.signbit(vec), np.signbit(ref_vec))
                assert n_k == ref_n
                assert np.array_equal(loss, ref_loss)

    def test_fedavg_loss_pass_is_one_whole_shard_forward(self, monkeypatch):
        n = 2085
        gen = np.random.default_rng(6)
        shard = ClientShard(0, Dataset(gen.normal(size=(n, 4)), gen.integers(0, 2, n)))
        params = init_mlp_params(4, (3,), Rng(6))
        rows = []

        def forward(p, x):
            rows.append(len(x))
            return mlp_forward(p, x)

        monkeypatch.setattr(federated, "mlp_forward", forward)
        vec, n_k, loss = local_update(shard, params, FEDAVG)
        assert rows == [n]
        assert np.array_equal(vec, params.as_vector()) and n_k == n
        assert loss == mlp_loss(mlp_forward(params, shard.data.features)[0],
                                shard.data.labels)

    def test_local_loss_decreases_over_epochs(self):
        shards, _ = make_shards(300, 1, seed=4)
        hp = MlpHyperparams(hidden_sizes=(4,), learning_rate=0.1, batch_size=16,
                            epochs=20)
        config = FedConfig(hyperparams=hp)
        master = Rng(4)
        params = init_mlp_params(4, (4,), master)
        before = models.mlp_loss(models.mlp_forward(params, shards[0].data.features)[0],
                                 shards[0].data.labels)
        [[(_, _, after)]] = client_results([shards[:1]], [params], config,
                                          [master], 0)
        assert after < before

    @settings(max_examples=60, deadline=None)
    @given(sizes=st.lists(st.integers(1, 80), min_size=1, max_size=6),
           batch_size=st.integers(1, 40),
           hidden=st.sampled_from([(), (3,), (4, 2)]),
           local_epochs=st.integers(1, 3),
           n_features=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    @example(sizes=[7, 30, 7, 30, 1, 7], batch_size=8, hidden=(4, 2),
             local_epochs=2, n_features=3, seed=1)
    @example(sizes=[5, 80, 64, 80], batch_size=32, hidden=(3,), local_epochs=3,
             n_features=2, seed=2)
    # Gather blocks of 16 batches of 2 rows: members cross block boundaries
    # and run out mid-block at different batch positions.
    @example(sizes=[80, 79, 33, 17, 16], batch_size=2, hidden=(3,),
             local_epochs=2, n_features=3, seed=3)
    def test_lockstep_matches_per_client_loop(self, sizes, batch_size, hidden,
                                              local_epochs, n_features, seed):
        gen = np.random.default_rng(seed)
        shards = [ClientShard(cid, Dataset(gen.normal(size=(n, n_features)),
                                           gen.integers(0, 2, n)))
                  for cid, n in enumerate(sizes)]
        hp = MlpHyperparams(hidden_sizes=hidden, learning_rate=0.3,
                            batch_size=batch_size, epochs=local_epochs)
        config = FedConfig(hyperparams=hp)
        master = Rng(seed)
        global_params = init_mlp_params(n_features, hidden, master)

        expected = reference_client_results(shards, global_params, config,
                                            master, 5)
        [got] = client_results([shards], [global_params], config, [master], 5)
        for (vec, n_k, loss), (ref_vec, ref_n, ref_loss) in zip(got, expected,
                                                                 strict=True):
            assert np.array_equal(vec, ref_vec)
            assert np.array_equal(np.signbit(vec), np.signbit(ref_vec))
            assert n_k == ref_n
            assert loss == ref_loss

        # run_round aggregates exactly these results, in client-id order.
        [report] = run_round([global_params], [shards], config, [master], 5)
        agg = aggregate([(vec, n_k) for vec, n_k, _ in expected])
        assert np.array_equal(report.params.as_vector(), agg)
        assert report.participant_ids == list(range(len(sizes)))


    def test_empty_shard_rejected(self):
        shards, _ = make_shards(100, 1)
        empty = ClientShard(1, Dataset(np.empty((0, 4)), np.empty(0, dtype=np.intp)))
        config = FedConfig(hyperparams=MlpHyperparams(hidden_sizes=(3,), epochs=2))
        master = Rng(0)
        with pytest.raises(DomainError, match="empty shard"):
            client_results([shards + [empty]], [init_mlp_params(4, (3,), master)],
                           config, [master], 0)


class TestRunRound:
    def test_single_client_degenerates_to_centralized(self):
        shards, ds = make_shards(200, 1, seed=2)
        hp = MlpHyperparams(hidden_sizes=(4,), learning_rate=0.1, batch_size=16,
                            epochs=3)
        config = FedConfig(rounds=1, hyperparams=hp)
        [(params, _)] = run_training([shards], config, [2])

        # Centralized SGD from the same init with the same derived stream.
        master = Rng(2)
        central = init_mlp_params(4, (4,), master)
        round_rng = master.split("client", 0).split("round", 0)
        for e in range(3):
            sgd_epoch(central, shards[0].data, hp, round_rng.split("epoch", e))
        assert np.array_equal(params.as_vector(), central.as_vector())

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_fedsgd_equals_centralized_step(self, k):
        shards, ds = make_shards(250, k, seed=k)
        hp = MlpHyperparams(hidden_sizes=(3,), learning_rate=0.2)
        config = FedConfig(rounds=1, aggregation_mode=FEDSGD, hyperparams=hp)
        master = Rng(k)
        global_params = init_mlp_params(4, (3,), master)
        [report] = run_round([global_params], [shards], config, [master], 0)

        pooled_grad = mlp_backward(global_params,
                                   mlp_forward(global_params, ds.features)[1],
                                   ds.labels)
        expected = global_params.as_vector() - 0.2 * pooled_grad
        assert np.max(np.abs(report.params.as_vector() - expected)) <= 1e-12

    def test_partial_participation_count(self):
        shards, _ = make_shards(200, 4, seed=1)
        config = FedConfig(rounds=1, participation=0.5,
                           hyperparams=MlpHyperparams(hidden_sizes=(3,), epochs=2))
        master = Rng(1)
        params = init_mlp_params(4, (3,), master)
        [report] = run_round([params], [shards], config, [master], 0)
        assert len(report.participant_ids) == 2
        [report2] = run_round([params], [shards], config, [Rng(1)], 0)
        assert report.participant_ids == report2.participant_ids

    def test_client_selection_stream_pinned(self):
        # Rounds 0-4 of 50 clients at participation 0.5, the draw behind the
        # fed-many-clients runs; it must not move when the selection code does.
        shards = [ClientShard(i, Dataset(np.zeros((1, 1)), np.zeros(1, dtype=np.intp)))
                  for i in range(50)]
        config = FedConfig(participation=0.5)
        picks = [[s.client_id for s in federated._active_clients(shards, config, Rng(1), t)]
                 for t in range(5)]
        assert picks == [
            [1, 5, 6, 7, 8, 13, 16, 17, 19, 20, 21, 22, 23, 25, 27, 30, 31, 32, 33, 34,
             40, 43, 44, 47, 49],
            [0, 5, 6, 7, 8, 9, 11, 12, 14, 15, 16, 22, 26, 27, 31, 32, 33, 39, 40, 41,
             44, 45, 46, 47, 48],
            [0, 1, 2, 3, 6, 9, 13, 15, 17, 18, 19, 21, 22, 23, 25, 29, 32, 33, 38, 39,
             41, 43, 45, 46, 49],
            [1, 3, 4, 8, 11, 14, 15, 17, 18, 20, 21, 23, 24, 25, 27, 28, 31, 32, 33, 34,
             35, 43, 44, 48, 49],
            [0, 1, 3, 4, 7, 9, 11, 17, 18, 19, 20, 23, 25, 28, 29, 31, 34, 35, 36, 37,
             38, 40, 42, 46, 47],
        ]

    @pytest.mark.parametrize("mode", [FEDAVG, FEDSGD])
    def test_empty_shard_refused_before_round_zero(self, monkeypatch, mode):
        ds = data.make_synthetic(50, 0.3, 2.0, 3, Rng(0)).materialize()
        empty = Dataset(np.empty((0, 3)), np.empty(0, dtype=np.intp))
        shards = [ClientShard(0, ds), ClientShard(1, empty)]
        config = FedConfig(rounds=1, aggregation_mode=mode,
                           hyperparams=MlpHyperparams(hidden_sizes=(2,), epochs=2))

        def no_round(*args):
            raise AssertionError("a round ran")

        monkeypatch.setattr(federated, "run_round", no_round)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="client 1 has an empty shard"):
                run_training([shards], config, [0])

    @pytest.mark.parametrize("poison", ["update", "loss"])
    def test_non_finite_client_result_names_round_and_client(self, monkeypatch,
                                                             poison):
        shards, _ = make_shards(120, 3, seed=4)
        config = FedConfig(rounds=1,
                           hyperparams=MlpHyperparams(hidden_sizes=(2,), epochs=2))
        real_results = federated.client_results

        def poisoned(active, params, cfg, masters, round_idx):
            results = real_results(active, params, cfg, masters, round_idx)
            pos = [s.client_id for s in active[0]].index(1)
            vec, n_k, loss = results[0][pos]
            vec = vec.copy()
            if poison == "update":
                vec[0] = np.nan
            else:
                loss = np.inf
            results[0][pos] = (vec, n_k, loss)
            return results

        monkeypatch.setattr(federated, "client_results", poisoned)
        master = Rng(4)
        params = init_mlp_params(4, (2,), master)
        with pytest.raises(DomainError, match="round 3: client 1 .*non-finite"):
            run_round([params], [shards], config, [master], 3)


class TestRunTraining:
    def test_zero_rounds_returns_init(self):
        shards, _ = make_shards(100, 2)
        config = FedConfig(rounds=0,
                           hyperparams=MlpHyperparams(hidden_sizes=(3,), epochs=2))
        [(params, reports)] = run_training([shards], config, [0])
        assert reports == []
        assert np.array_equal(params.as_vector(),
                              init_mlp_params(4, (3,), Rng(0)).as_vector())

    @pytest.mark.parametrize("mode", [FEDAVG, FEDSGD])
    def test_shard_feature_count_mismatch(self, mode):
        shards, _ = make_shards(100, 2)
        narrow = ClientShard(2, Dataset(np.zeros((5, 3)), np.zeros(5, dtype=np.intp)))
        config = FedConfig(rounds=1, aggregation_mode=mode,
                           hyperparams=MlpHyperparams(hidden_sizes=(3,), epochs=2))
        with pytest.raises(ShapeError, match="input has 3 features, model expects 4"):
            run_training([shards + [narrow]], config, [0])

    def test_loss_trend_on_separable_data(self):
        shards, _ = make_shards(600, 3, seed=6)
        hp = MlpHyperparams(hidden_sizes=(4,), learning_rate=0.1, batch_size=16,
                            epochs=2)
        config = FedConfig(rounds=8, hyperparams=hp)
        [(_, reports)] = run_training([shards], config, [6])
        assert reports[-1].train_loss < reports[0].train_loss

    def test_bit_identical_reports_under_seed(self):
        shards, ds = make_shards(300, 3, seed=7)
        config = FedConfig(rounds=4,
                           hyperparams=MlpHyperparams(hidden_sizes=(3,), epochs=2))
        [(p1, r1)] = run_training([shards], config, [7])
        [(p2, r2)] = run_training([shards], config, [7])
        assert np.array_equal(p1.as_vector(), p2.as_vector())
        assert_same_reports(r1, r2)
        assert np.array_equal(r1[-1].params.as_vector(), p1.as_vector())

    def test_weighted_loss_matches_participants(self):
        shards, _ = make_shards(200, 2, seed=9, scheme="quantity_skew")
        config = FedConfig(rounds=1,
                           hyperparams=MlpHyperparams(hidden_sizes=(3,), epochs=2))
        [(_, reports)] = run_training([shards], config, [9])
        assert np.isfinite(reports[0].train_loss)


class TestBatchedFederations:
    @settings(max_examples=30, deadline=None)
    @given(n_feds=st.integers(1, 3), k=st.integers(1, 4),
           sizes=st.lists(st.integers(1, 40), min_size=12, max_size=12),
           mode=st.sampled_from([FEDAVG, FEDSGD]),
           participation=st.sampled_from([0.5, 1.0]),
           batch_size=st.integers(1, 16), seed=st.integers(0, 2**16))
    @example(n_feds=3, k=4, sizes=[40, 3, 17, 17, 1, 40, 9, 9, 25, 2, 33, 8],
             mode=FEDAVG, participation=0.5, batch_size=4, seed=5)
    def test_together_equals_alone(self, n_feds, k, sizes, mode, participation,
                                   batch_size, seed):
        gen = np.random.default_rng(seed)
        hp = MlpHyperparams(hidden_sizes=(3,), learning_rate=0.3,
                            batch_size=batch_size, epochs=2)
        config = FedConfig(rounds=2, participation=participation,
                           aggregation_mode=mode, hyperparams=hp)
        shards = [[ClientShard(cid, Dataset(gen.normal(size=(n, 3)),
                                            gen.integers(0, 2, n)))
                   for cid, n in enumerate(sizes[f * k:(f + 1) * k])]
                  for f in range(n_feds)]
        seeds = [seed + f for f in range(n_feds)]

        together = run_training(shards, config, seeds)
        assert len(together) == n_feds
        for f, (params, reports) in enumerate(together):
            [(alone, alone_reports)] = run_training([shards[f]], config, [seeds[f]])
            assert np.array_equal(params.as_vector(), alone.as_vector())
            assert np.array_equal(np.signbit(params.as_vector()),
                                  np.signbit(alone.as_vector()))
            assert_same_reports(reports, alone_reports)

    def test_two_seeds_give_different_params(self):
        shards, _ = make_shards(100, 2)
        config = FedConfig(rounds=1,
                           hyperparams=MlpHyperparams(hidden_sizes=(3,), epochs=2))
        fits = run_training([shards, shards], config, [0, 1])
        assert not np.array_equal(fits[0][0].as_vector(), fits[1][0].as_vector())

    @pytest.mark.parametrize("seeds", [[0], [0, 1, 2]])
    def test_seed_count_must_match_federations(self, seeds):
        shards, _ = make_shards(100, 2)
        with pytest.raises(DomainError, match="one seed"):
            run_training([shards, shards], FedConfig(), seeds)


class TestPrivacyBoundary:
    def test_aggregation_module_cannot_see_shards(self):
        import inspect

        import fedfraud.aggregation as agg

        # The aggregator's module must not import anything that carries raw
        # client data: no Dataset, no ClientShard, no data module at all.
        assert "Dataset" not in vars(agg)
        assert "ClientShard" not in vars(agg)
        for value in vars(agg).values():
            mod = str(getattr(value, "__module__", "") or "")
            assert "fedfraud.data" not in mod
        src = inspect.getsource(agg)
        assert "ClientShard" not in src
        assert "Dataset" not in src

    def test_aggregate_signature_is_vectors_and_counts_only(self):
        import inspect

        sig = inspect.signature(aggregate)
        assert list(sig.parameters) == ["contributions"]


class TestRoundLoopOnlyTrains:
    def test_round_loop_takes_no_test_data_and_scores_nothing(self):
        import inspect

        # Scoring is the experimenter's job (experiments): the round loop
        # is handed client shards only and has no metrics to compute.
        assert not hasattr(federated, "metrics")
        assert list(inspect.signature(run_training).parameters) == [
            "shards", "config", "seeds"]
