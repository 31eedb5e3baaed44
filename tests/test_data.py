import csv
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedfraud import data
from fedfraud.errors import DataError, DomainError
from fedfraud.numeric import Rng


def reference_load_csv(path, label_column="Class"):
    """The per-cell csv.reader loop that load_csv replaced, kept as the oracle
    for what a well-formed file parses to."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip().strip('"') for h in next(reader)]
        label_idx = header.index(label_column)
        feat_idx = [i for i in range(len(header)) if i != label_idx]
        feats, labels = [], []
        for row in reader:
            if not row:
                continue
            feats.append([float(row[i]) for i in feat_idx])
            lab = float(row[label_idx].strip().strip('"'))
            assert lab in (0.0, 1.0)
            labels.append(int(lab))
    features = np.asarray(feats, dtype=np.float64).reshape(len(labels), len(feat_idx))
    return data.Dataset(features, np.asarray(labels, dtype=np.intp),
                        tuple(header[i] for i in feat_idx))


def assert_bit_equal(got, want):
    assert got.features.dtype == want.features.dtype == np.float64
    assert got.features.shape == want.features.shape
    assert np.array_equal(got.features.view(np.int64), want.features.view(np.int64))
    assert got.labels.dtype == want.labels.dtype
    assert np.array_equal(got.labels, want.labels)
    assert got.feature_names == want.feature_names


@pytest.fixture
def ulb_like_csv(tmp_path):
    """ULB-style quoting plus the awkward cases: CRLF, a blank line, %.15g
    values with exponents and -0.0, quoted feature cells, the label not
    last, and one row with an extra trailing cell."""
    rng = np.random.default_rng(3)
    n, d = 60, 5
    values = rng.standard_normal((n, d)) * 10.0 ** rng.integers(-30, 30, (n, d))
    values[4, 2] = -0.0
    values[7, 0] = 5e-324
    labels = (rng.uniform(size=n) < 0.2).astype(int)
    names = [f"V{i + 1}" for i in range(d)]
    lines = [",".join(f'"{h}"' for h in ["Time", "Class"] + names)]
    for i in range(n):
        cells = [str(i), f'"{labels[i]}"'] + ["%.15g" % v for v in values[i]]
        cells[2 + i % d] = f'"{cells[2 + i % d]}"'
        lines.append(",".join(cells))
    lines[10] += ",trailing"
    lines.insert(20, "")
    path = tmp_path / "ulb_like.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    return path


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("V1,V2,Class\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
    return path


@pytest.fixture
def imbalanced():
    rng = Rng(0)
    return data.make_synthetic(1000, 0.1, 2.0, 4, rng)


class TestLoadCsv:
    def test_three_row_fixture(self, small_csv):
        ds = data.load_csv(small_csv)
        assert ds.n_samples == 3
        assert ds.fraud_count == 1
        assert ds.feature_names == ("V1", "V2")
        assert np.array_equal(ds.labels, [0, 1, 0])
        assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            data.load_csv(tmp_path / "nope.csv")

    def test_unknown_label_column(self, small_csv):
        with pytest.raises(DataError, match="Fraud"):
            data.load_csv(small_csv, label_column="Fraud")

    @pytest.mark.parametrize("header", ["a,a,Class", "Class,a,Class"])
    def test_repeated_header_name(self, tmp_path, header):
        path = tmp_path / "repeated.csv"
        path.write_text(f"{header}\n1,2,0\n3,4,1\n")
        with pytest.raises(DataError, match="header names column '(a|Class)' twice"):
            data.load_csv(path)

    def test_bad_cell_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("V1,Class\n1.0,0\nxyz,1\n")
        with pytest.raises(DataError, match="row 3"):
            data.load_csv(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity"])
    def test_non_finite_cell_reports_row(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        # The blank line still counts toward the reported row number.
        path.write_text(f"V1,V2,Class\n1.0,2.0,0\n\n3.0,4.0,1\n5.0,{cell},0\n6.0,nan,1\n")
        with pytest.raises(DataError, match="row 5: non-finite"):
            data.load_csv(path)

    def test_non_binary_label(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("V1,Class\n1.0,2\n")
        with pytest.raises(DataError, match="0 or 1"):
            data.load_csv(path)

    def test_bit_equal_to_reference_loop(self, ulb_like_csv):
        got = data.load_csv(ulb_like_csv)
        assert got.n_samples == 60
        assert got.feature_names == ("Time", "V1", "V2", "V3", "V4", "V5")
        assert_bit_equal(got, reference_load_csv(ulb_like_csv))

    def test_peak_memory_near_the_parsed_table(self, tmp_path):
        # The features are a view of the one parsed table: no second copy.
        rows, cols = 20_000, 31
        path = tmp_path / "wide.csv"
        table = np.random.default_rng(0).standard_normal((rows, cols))
        table[:, -1] = np.arange(rows) % 2
        np.savetxt(path, table, delimiter=",", fmt="%.15g",
                   header=",".join([f"V{i}" for i in range(cols - 1)] + ["Class"]),
                   comments="")
        tracemalloc.start()
        try:
            ds = data.load_csv(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (rows, cols - 1)
        assert peak <= 1.5 * table.nbytes, peak / table.nbytes

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text('"V1","V2","Class"\r\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = data.load_csv(path)
        assert ds.features.shape == (0, 2)
        assert ds.labels.shape == (0,)

    def test_hash_is_not_a_comment(self, tmp_path):
        path = tmp_path / "hash.csv"
        path.write_text("V1,Class\n1.0,0\n#3,1\n")
        with pytest.raises(DataError, match=r"row 3: bad feature cell .*'#3'"):
            data.load_csv(path)

    def test_bad_label_after_blank_line_reports_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("V1,Class\n1.0,0\n\n2.0,x\n")
        with pytest.raises(DataError, match="row 4: bad label cell"):
            data.load_csv(path)

    @pytest.mark.parametrize("row, message", [
        ("1.0,2.0", "bad label cell"),         # short row
        ("1_0,2.0,1", "bad feature cell"),     # Python-only spelling
        ("1.0,2.0, \"1\"", "bad label cell"),  # quote after a space is literal
    ])
    def test_rejected_row_named(self, tmp_path, row, message):
        path = tmp_path / "bad.csv"
        path.write_text(f"V1,V2,Class\n1.0,2.0,0\n{row}\n")
        with pytest.raises(DataError, match=f"row 3: {message}"):
            data.load_csv(path)

    @pytest.mark.parametrize("cell", ["xyz", "nan"])
    def test_numpy_message_when_rescan_finds_no_row(self, tmp_path, monkeypatch, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"V1,Class\n1.0,0\n{cell},1\n")
        monkeypatch.setattr(data, "_raise_first_bad_row", lambda *args: None)
        with pytest.raises(DataError, match="bad.csv: .*(xyz|non-finite)"):
            data.load_csv(path)

    @settings(max_examples=60, deadline=None)
    @given(hnp.arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 4)),
                      elements=st.floats(allow_nan=False, allow_infinity=False)))
    @example(np.array([[-0.0, 0.0], [5e-324, -2.2250738585072014e-308],
                       [1.7976931348623157e308, -1e-310]]))
    def test_round_trip_bit_exact(self, features):
        labels = np.arange(features.shape[0]) % 2
        ds = data.Dataset(features, labels)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rt.csv"
            data.write_csv(ds, path)
            back = data.load_csv(path)
        assert np.array_equal(back.features.view(np.int64), features.view(np.int64))
        assert np.array_equal(back.labels, labels)

    def test_csv_round_trip(self, tmp_path, imbalanced):
        path = tmp_path / "rt.csv"
        data.write_csv(imbalanced, path)
        back = data.load_csv(path)
        assert np.array_equal(back.features, imbalanced.features)
        assert np.array_equal(back.labels, imbalanced.labels)


class TestStandardizer:
    def test_simple_column(self):
        ds = data.Dataset(np.array([[1.0], [2.0], [3.0]]), np.array([0, 1, 0]))
        params = data.fit_standardizer(ds)
        assert params.mean[0] == 2.0
        assert params.std[0] == pytest.approx(np.sqrt(2.0 / 3.0))
        out = data.apply_standardizer(params, ds)
        assert out.features[1, 0] == 0.0
        assert out.features[0, 0] == pytest.approx(-out.features[2, 0])

    def test_constant_column_no_nan(self):
        ds = data.Dataset(np.array([[5.0], [5.0], [5.0]]), np.array([0, 1, 0]))
        out = data.apply_standardizer(data.fit_standardizer(ds), ds)
        assert np.array_equal(out.features, np.zeros((3, 1)))

    def test_idempotent_normalization(self, imbalanced):
        once = data.apply_standardizer(data.fit_standardizer(imbalanced), imbalanced)
        refit = data.fit_standardizer(once)
        assert np.max(np.abs(refit.mean)) <= 1e-9
        assert np.max(np.abs(refit.std - 1.0)) <= 1e-9

    def test_test_transform_uses_train_stats_only(self, imbalanced):
        train, test = data.stratified_split(imbalanced, 0.3, Rng(1))
        params = data.fit_standardizer(train)
        perturbed = data.Dataset(test.features * 100.0, test.labels)
        out = data.apply_standardizer(params, perturbed)
        denom = np.where(params.std > 0, params.std, 1.0)
        assert np.array_equal(out.features,
                              (perturbed.features - params.mean) / denom)

    def test_empty_dataset(self):
        ds = data.Dataset(np.empty((0, 2)), np.empty(0, dtype=np.intp))
        with pytest.raises(DomainError):
            data.fit_standardizer(ds)


class TestStratifiedSplit:
    def test_exact_proportions(self):
        labels = np.array([1] * 10 + [0] * 90)
        ds = data.Dataset(np.arange(100, dtype=float).reshape(100, 1), labels)
        train, test = data.stratified_split(ds, 0.2, Rng(0))
        assert test.n_samples == 20
        assert test.fraud_count == 2
        assert train.fraud_count == 8

    def test_deterministic(self, imbalanced):
        a = data.stratified_split(imbalanced, 0.3, Rng(5))
        b = data.stratified_split(imbalanced, 0.3, Rng(5))
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].features, b[1].features)

    def test_union_and_disjointness(self):
        for seed in range(20):
            rng = Rng(seed)
            n = int(np.random.default_rng(seed).integers(20, 200))
            ds = data.make_synthetic(n, 0.3, 1.0, 3, rng)
            if ds.fraud_count in (0, n):
                continue
            train, test = data.stratified_split(ds, 0.25, rng.split("s"))
            assert train.n_samples + test.n_samples == n
            # Rows are unique with probability 1; set membership finds overlap.
            all_rows = {tuple(r) for r in ds.features}
            train_rows = {tuple(r) for r in train.features}
            test_rows = {tuple(r) for r in test.features}
            assert train_rows | test_rows == all_rows
            assert not (train_rows & test_rows)

    def test_single_class_rejected(self):
        ds = data.Dataset(np.ones((10, 1)), np.zeros(10, dtype=np.intp))
        with pytest.raises(DomainError):
            data.stratified_split(ds, 0.2, Rng(0))

    def test_bad_fraction(self, imbalanced):
        with pytest.raises(DomainError):
            data.stratified_split(imbalanced, 1.0, Rng(0))


class TestResampleRatio:
    def test_one_to_one(self, imbalanced):
        out = data.resample_ratio(imbalanced, (1, 1), Rng(0))
        assert out.fraud_count == imbalanced.fraud_count
        assert out.n_samples == 2 * imbalanced.fraud_count

    def test_one_to_five(self, imbalanced):
        out = data.resample_ratio(imbalanced, (1, 5), Rng(0))
        assert out.n_samples == 6 * imbalanced.fraud_count

    def test_cap_with_warning(self, imbalanced):
        with pytest.warns(UserWarning, match="keeping all"):
            out = data.resample_ratio(imbalanced, (1, 10**6), Rng(0))
        assert out.n_samples == imbalanced.n_samples

    def test_no_fraud_rejected(self):
        ds = data.Dataset(np.ones((5, 1)), np.zeros(5, dtype=np.intp))
        with pytest.raises(DomainError):
            data.resample_ratio(ds, (1, 1), Rng(0))

    def test_never_duplicates_rows(self, imbalanced):
        out = data.resample_ratio(imbalanced, (1, 2), Rng(3))
        rows = [tuple(r) for r in out.features]
        assert len(rows) == len(set(rows))

    @settings(max_examples=100, deadline=None)
    @given(n_fraud=st.integers(1, 60), n_legit=st.integers(0, 200),
           fraud_part=st.integers(1, 5), legit_part=st.integers(1, 20),
           seed=st.integers(0, 2**16))
    def test_keeps_fraud_and_draws_legit_without_duplicates(
            self, n_fraud, n_legit, fraud_part, legit_part, seed):
        # Feature = original row index, so rows can be told apart.
        n = n_fraud + n_legit
        labels = np.zeros(n, dtype=np.intp)
        labels[np.random.default_rng(seed).permutation(n)[:n_fraud]] = 1
        ds = data.Dataset(np.arange(n, dtype=float).reshape(n, 1), labels)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            out = data.resample_ratio(ds, (fraud_part, legit_part), Rng(seed))
        rows = out.features[:, 0].astype(np.intp)
        assert np.array_equal(out.labels, labels[rows])
        assert len(set(rows.tolist())) == rows.size
        assert sorted(rows[out.labels == 1]) == sorted(np.flatnonzero(labels == 1))
        want = round(n_fraud * legit_part / fraud_part)
        assert np.count_nonzero(out.labels == 0) == min(want, n_legit)


class TestPartition:
    def test_single_shard_identity(self, imbalanced):
        shards = data.partition(imbalanced, 1, "iid", Rng(0))
        assert len(shards) == 1
        assert shards[0].data.n_samples == imbalanced.n_samples

    def test_iid_equal_sizes(self):
        ds = data.Dataset(np.arange(100, dtype=float).reshape(100, 1),
                          np.tile([0, 1], 50))
        shards = data.partition(ds, 4, "iid", Rng(0))
        assert sorted(s.data.n_samples for s in shards) == [25, 25, 25, 25]

    @pytest.mark.parametrize("scheme", ["iid", "quantity_skew", "label_skew"])
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 8), extra_rows=st.integers(0, 300),
           fraud_fraction=st.floats(0.0, 1.0),
           dirichlet_alpha=st.floats(0.01, 100.0),
           fraud_concentration=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    # One label_skew shard: no light shard takes the unconcentrated fraud rows.
    @example(k=1, extra_rows=0, fraud_fraction=1.0, dirichlet_alpha=1.0,
             fraud_concentration=0.0, seed=0)
    def test_conservation_and_disjointness(self, scheme, k, extra_rows,
                                           fraud_fraction, dirichlet_alpha,
                                           fraud_concentration, seed):
        # Feature = original row index, so rows can be told apart.
        n = k + extra_rows
        labels = (np.random.default_rng(seed).uniform(size=n)
                  < fraud_fraction).astype(np.intp)
        ds = data.Dataset(np.arange(n, dtype=float).reshape(n, 1), labels)
        shards = data.partition(ds, k, scheme, Rng(seed),
                                dirichlet_alpha=dirichlet_alpha,
                                fraud_concentration=fraud_concentration)
        assert [s.client_id for s in shards] == list(range(k))
        rows = np.concatenate([s.data.features[:, 0] for s in shards]).astype(np.intp)
        assert np.array_equal(np.sort(rows), np.arange(n))
        for s in shards:
            assert np.array_equal(s.data.labels,
                                  labels[s.data.features[:, 0].astype(np.intp)])
            if scheme != "label_skew":
                assert s.data.n_samples > 0

    def test_label_skew_concentrates_fraud(self):
        rng = Rng(1)
        ds = data.make_synthetic(1000, 0.2, 1.0, 3, rng)
        shards = data.partition(ds, 4, "label_skew", rng.split("p"),
                                fraud_concentration=0.8)
        heavy_fraud = sum(s.data.fraud_count for s in shards[:2])
        assert heavy_fraud >= 0.75 * ds.fraud_count

    def test_too_many_clients(self, imbalanced):
        with pytest.raises(DomainError):
            data.partition(imbalanced, imbalanced.n_samples + 1, "iid", Rng(0))

    def test_unknown_scheme(self, imbalanced):
        with pytest.raises(DomainError):
            data.partition(imbalanced, 2, "nope", Rng(0))


class TestSynthetic:
    def test_fraud_fraction_in_binomial_range(self):
        ds = data.make_synthetic(284_807, 0.0017, 2.0, 4, Rng(0))
        expected = 284_807 * 0.0017
        sd = np.sqrt(expected)
        assert abs(ds.fraud_count - expected) < 5 * sd

    def test_deterministic(self):
        a = data.make_synthetic(500, 0.1, 2.0, 4, Rng(9))
        b = data.make_synthetic(500, 0.1, 2.0, 4, Rng(9))
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_params(self):
        with pytest.raises(DomainError):
            data.make_synthetic(0, 0.1, 1.0, 3, Rng(0))
        with pytest.raises(DomainError):
            data.make_synthetic(10, 1.5, 1.0, 3, Rng(0))
