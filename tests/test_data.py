import csv
import hashlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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


def sidecar_of(path):
    return path.with_name(f".{path.name}.fedfraud.npy")


def wide_csv(tmp_path):
    """A 20 000 x 31 file and its table (features, then a 0/1 label)."""
    rows, cols = 20_000, 31
    path = tmp_path / "wide.csv"
    table = np.random.default_rng(0).standard_normal((rows, cols))
    table[:, -1] = np.arange(rows) % 2
    np.savetxt(path, table, delimiter=",", fmt="%.15g",
               header=",".join([f"V{i}" for i in range(cols - 1)] + ["Class"]),
               comments="")
    return path, table


def traced_peak_load(path):
    tracemalloc.start()
    try:
        ds = data.load_csv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return ds, peak


@pytest.fixture
def small_csv(tmp_path):
    path = tmp_path / "small.csv"
    path.write_text("V1,V2,Class\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
    return path


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=True)
    return buf.getvalue()


# Loads a CSV written into a FIFO by a thread of the same process; prints the
# row and fraud counts, or the DataError.
FIFO_LOAD = """
import sys, threading
from fedfraud import data
from fedfraud.errors import DataError

fifo, content = sys.argv[1], sys.argv[2].encode()

def feed():
    with open(fifo, "wb") as fh:
        fh.write(content)

threading.Thread(target=feed, daemon=True).start()
try:
    ds = data.load_csv(fifo)
except DataError as exc:
    print(f"DataError: {exc}")
else:
    print(ds.n_samples, ds.fraud_count)
"""


def load_from_a_fifo(tmp_path, content):
    """What FIFO_LOAD prints for `content` written into a FIFO in tmp_path;
    a load that blocks fails the test after 30 s instead of hanging it."""
    fifo = tmp_path / "in.csv"
    os.mkfifo(fifo)
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-c", FIFO_LOAD, str(fifo), content],
                          cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


needs_fifo = pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")


@pytest.fixture
def imbalanced():
    rng = Rng(0)
    return data.make_synthetic(1000, 0.1, 2.0, 4, rng).materialize()


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

    @pytest.mark.parametrize("text", ["\ufeffClass,a,b\n0,1.5,2\n1,3,4\n",
                                      '\ufeff"a",b,Class\n1.5,2,0\n3,4,1\n'],
                             ids=["label_first", "quoted_feature_first"])
    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, text):
        path = tmp_path / "bom.csv"
        path.write_bytes(text.encode("utf-8"))
        ds = data.load_csv(path)
        assert ds.feature_names == ("a", "b")
        assert np.array_equal(ds.labels, [0, 1])
        assert np.array_equal(ds.features, [[1.5, 2.0], [3.0, 4.0]])

    def test_byte_order_mark_file_bad_cell_reports_row(self, tmp_path):
        path = tmp_path / "bom-bad.csv"
        path.write_bytes("\ufeffClass,V1\n0,1.0\n1,xyz\n".encode("utf-8"))
        with pytest.raises(DataError, match="row 3: bad feature cell"):
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
        path, table = wide_csv(tmp_path)
        ds, peak = traced_peak_load(path)
        assert ds.features.shape == (table.shape[0], table.shape[1] - 1)
        assert peak <= 1.5 * table.nbytes, peak / table.nbytes

    def test_peak_memory_near_the_table_read_from_the_sidecar(self, tmp_path):
        path, table = wide_csv(tmp_path)
        data.load_csv(path)
        assert sidecar_of(path).is_file()
        ds, peak = traced_peak_load(path)
        assert ds.features.shape == (table.shape[0], table.shape[1] - 1)
        assert peak <= 1.5 * table.nbytes, peak / table.nbytes

    def test_warm_load_reads_the_sidecar_bit_equal_to_the_parse(self, ulb_like_csv,
                                                                monkeypatch):
        cold = data.load_csv(ulb_like_csv)
        assert sidecar_of(ulb_like_csv).is_file()

        def no_parse(*args, **kwargs):
            raise AssertionError("parsed a file whose sidecar matches")

        monkeypatch.setattr(data.np, "loadtxt", no_parse)
        warm = data.load_csv(ulb_like_csv)
        assert_bit_equal(warm, cold)
        assert_bit_equal(warm, reference_load_csv(ulb_like_csv))

    def test_same_size_edit_with_the_old_mtime_loads_the_new_values(self, small_csv):
        data.load_csv(small_csv)
        before = os.stat(small_csv)
        small_csv.write_text("V1,V2,Class\n1.0,2.0,0\n3.0,4.0,1\n5.0,7.0,0\n")
        os.utime(small_csv, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(small_csv)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        ds = data.load_csv(small_csv)
        assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 7]])

    @pytest.mark.parametrize("spoil", [
        lambda good, key: good[:-5],
        lambda good, key: b"not a table",
        lambda good, key: b"",
        lambda good, key: good[:(len(good) - len(key)) // 2] + key,
        lambda good, key: npy_bytes(np.zeros((3, 2))) + key,
        lambda good, key: npy_bytes(np.array([None, 1.0], dtype=object)) + key,
        lambda good, key: npy_bytes(np.zeros(3)) + key,
    ], ids=["truncated", "garbage", "empty", "short_table", "other_shape",
            "pickled", "one_dimensional"])
    def test_unusable_sidecar_is_parsed_over_and_rewritten(self, small_csv, spoil):
        cold = data.load_csv(small_csv)
        sidecar = sidecar_of(small_csv)
        good = sidecar.read_bytes()
        # The sidecar is an .npy file (np.load ignores the key after it).
        key = good[len(npy_bytes(np.load(sidecar))):]
        assert key.startswith(b"fedfraud-table-")
        sidecar.write_bytes(spoil(good, key))
        assert_bit_equal(data.load_csv(small_csv), cold)
        assert sidecar.read_bytes() == good

    def test_unwritable_sidecar_path_loads(self, small_csv):
        # Root may write anywhere, so a directory stands at the sidecar path.
        sidecar_of(small_csv).mkdir()
        first = data.load_csv(small_csv)
        assert_bit_equal(data.load_csv(small_csv), first)
        assert sidecar_of(small_csv).is_dir()
        assert sorted(p.name for p in small_csv.parent.iterdir()) == [
            sidecar_of(small_csv).name, small_csv.name]

    def test_file_replaced_while_loading_keys_the_sidecar_to_the_parsed_bytes(
            self, small_csv, monkeypatch):
        # The load reads only the file it opened: its rows, kept under the
        # hash of its bytes, so the replacement is parsed on the next load.
        opened = small_csv.read_bytes()
        real_reader = csv.reader

        def replace_then_read(fh):
            monkeypatch.setattr(csv, "reader", real_reader)
            new = small_csv.with_name("new.csv")
            new.write_text("V1,V2,Class\n9.0,9.0,1\n8.0,8.0,0\n")
            os.replace(new, small_csv)
            return real_reader(fh)

        monkeypatch.setattr(csv, "reader", replace_then_read)
        ds = data.load_csv(small_csv)
        assert np.array_equal(ds.features, [[1, 2], [3, 4], [5, 6]])
        sidecar = sidecar_of(small_csv)
        key = sidecar.read_bytes()[len(npy_bytes(np.load(sidecar))):]
        assert key.split()[1] == hashlib.sha256(opened).hexdigest().encode()
        assert np.array_equal(data.load_csv(small_csv).features, [[9, 9], [8, 8]])

    def test_the_csv_path_is_opened_once_per_load(self, tmp_path, monkeypatch):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("V1,Class\n1.0,0\n2.0,1\n")
        bad.write_text("V1,Class\n1.0,0\nxyz,1\n")
        opened = []

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file))
            return open(file, *args, **kwargs)

        monkeypatch.setattr(data, "open", counting_open, raising=False)
        data.load_csv(good)  # cold: parsed, sidecar written
        data.load_csv(good)  # warm: the sidecar read
        assert sidecar_of(good).is_file()
        with pytest.raises(DataError, match="row 3"):
            data.load_csv(bad)  # rejected: parsed, then rescanned
        assert (opened.count(os.fspath(good)), opened.count(os.fspath(bad))) == (2, 1)

    @needs_fifo
    def test_fifo_loads_and_leaves_no_sidecar(self, tmp_path):
        assert load_from_a_fifo(tmp_path, "V1,Class\n1.0,0\n2.0,1\n3.0,0\n") == "3 1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["in.csv"]

    @needs_fifo
    @pytest.mark.parametrize("cell, message", [
        ("xyz", "could not convert string 'xyz'"),
        ("nan", "non-finite feature cell or label not 0 or 1"),
    ])
    def test_bad_row_in_a_fifo_is_a_data_error(self, tmp_path, cell, message):
        # Input that cannot be rewound is not rescanned: numpy's message.
        printed = load_from_a_fifo(tmp_path, f"V1,Class\n1.0,0\n{cell},1\n")
        assert printed.startswith(f"DataError: {tmp_path / 'in.csv'}: ")
        assert message in printed

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_bad_row_in_a_pipe_is_a_data_error(self):
        read_end, write_end = os.pipe()
        os.write(write_end, b"V1,Class\n1.0,0\nxyz,1\n")
        os.close(write_end)
        try:
            with pytest.raises(DataError, match=f"/dev/fd/{read_end}: .*'xyz'"):
                data.load_csv(f"/dev/fd/{read_end}")
        finally:
            os.close(read_end)

    def test_other_label_column_on_the_same_file(self, tmp_path):
        path = tmp_path / "two_labels.csv"
        path.write_text("a,b,Class\n1.5,0,1\n2.5,1,0\n3.5,1,1\n")
        for label in ("Class", "b", "Class", "b"):
            assert_bit_equal(data.load_csv(path, label_column=label),
                             reference_load_csv(path, label_column=label))

    @pytest.mark.parametrize("content", [
        b"V1,Class\n1.0,0\nxyz,1\n",
        b"V1,V2,Class\n1.0,2.0,0\n\n3.0,4.0,1\n5.0,nan,0\n",
        b"V1,Class\n1.0,2\n",
        b"V1,Class\n1.0,0\n\n2.0,x\n",
        b"V1,Class\n1.0,0\n#3,1\n",
        b"V1,V2,Class\n1.0,2.0,0\n1_0,2.0,1\n",
        b"a,a,Class\n1,2,0\n",
        b"Class\n0\n1\n",
        b"V1,Class\n1.0,0\n\xff,1\n",
        "\ufeffClass,V1\n0,1.0\n1,xyz\n".encode("utf-8"),
    ], ids=["bad_cell", "non_finite", "non_binary_label", "bad_label_after_blank",
            "hash", "python_spelling", "repeated_header", "label_only",
            "not_utf8", "bom_bad_cell"])
    def test_bad_file_same_error_on_a_second_load_and_no_sidecar(self, tmp_path,
                                                                 content):
        path = tmp_path / "bad.csv"
        path.write_bytes(content)
        messages = []
        for _ in range(2):
            with pytest.raises(DataError) as caught:
                data.load_csv(path)
            messages.append(str(caught.value))
        assert messages[0] == messages[1]
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]

    def test_header_only_is_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text('"V1","V2","Class"\r\n')
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = data.load_csv(path)
        assert ds.features.shape == (0, 2)
        assert ds.labels.shape == (0,)

    def test_label_only_header_is_a_data_error(self, tmp_path):
        path = tmp_path / "label_only.csv"
        path.write_text("Class\n0\n1\n")
        with pytest.raises(DataError, match="no feature columns besides 'Class'"):
            data.load_csv(path)

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
        ("1.0,2.0", "2 cells, but the header has 3"),  # short row
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
        [out] = data.standardize(ds)
        # Row 1 is the mean, 2.0, and row 2 is one std above it.
        assert out.features[2, 0] == pytest.approx(1.0 / np.sqrt(2.0 / 3.0))
        assert out.features[1, 0] == 0.0
        assert out.features[0, 0] == pytest.approx(-out.features[2, 0])

    def test_constant_column_no_nan(self):
        ds = data.Dataset(np.array([[5.0], [5.0], [5.0]]), np.array([0, 1, 0]))
        [out] = data.standardize(ds)
        assert np.array_equal(out.features, np.zeros((3, 1)))

    def test_overflowing_train_column_refused_by_name(self):
        # One huge cell overflows the std to inf; scaled by it, the column
        # would be erased to ±0. numpy's overflow warning (an error in this
        # suite) is not shown: the DataError is the message.
        features = np.tile([[1.0, 2.0]], (6, 1)) + np.arange(6.0)[:, None]
        features[2, 1] = 1e200
        ds = data.Dataset(features, np.array([0, 1, 0, 1, 0, 1]), ("a", "b"))
        with pytest.raises(DataError, match=r"feature column 'b': train mean .* and std "
                                            r"inf must be finite"):
            data.standardize(ds)
        huge = data.Dataset(np.full((4, 1), 1e308), np.array([0, 1, 0, 1]))
        with pytest.raises(DataError, match=r"feature column '#1': train mean inf"):
            data.standardize(huge)

    def test_non_finite_standardized_cell_refused_naming_column_and_set(self):
        # Train's mean and std are finite; the test set's huge cell is not
        # once scaled by that std, and would reach a model as inf.
        train = data.Dataset(np.array([[1.0, 0.0], [2.0, 0.1], [3.0, 0.2]]),
                             np.array([0, 1, 0]), ("a", "b"))
        test = data.Dataset(np.array([[2.0, 0.1], [1.0, -1e308]]), np.array([0, 1]),
                            ("a", "b"))
        with pytest.raises(DataError, match=r"^feature column 'b': a test cell standardizes "
                                            r"to a non-finite value with the train mean "):
            data.standardize(train, test)
        [out] = data.standardize(train)
        assert np.isfinite(out.features).all()

    def test_idempotent_normalization(self, imbalanced):
        [once] = data.standardize(imbalanced)
        assert np.max(np.abs(once.features.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(once.features.std(axis=0) - 1.0)) <= 1e-9

    def test_test_transform_uses_train_stats_only(self, imbalanced):
        train_rows, test_rows = data.stratified_split(imbalanced.labels, 0.3, Rng(1))
        train, test = imbalanced.take(train_rows), imbalanced.take(test_rows)
        perturbed = data.Dataset(test.features * 100.0, test.labels)
        before = perturbed.features.copy()
        _, out = data.standardize(train, perturbed)
        std = train.features.std(axis=0)
        denom = np.where(std > 0, std, 1.0)
        assert np.array_equal(out.features,
                              (perturbed.features - train.features.mean(axis=0)) / denom)
        assert np.array_equal(perturbed.features, before)

    def test_empty_dataset(self):
        ds = data.Dataset(np.empty((0, 2)), np.empty(0, dtype=np.intp))
        with pytest.raises(DomainError):
            data.standardize(ds)


class TestStratifiedSplit:
    def test_exact_proportions(self):
        labels = np.array([1] * 10 + [0] * 90)
        train, test = data.stratified_split(labels, 0.2, Rng(0))
        assert test.size == 20
        assert labels[test].sum() == 2
        assert labels[train].sum() == 8

    def test_deterministic(self, imbalanced):
        a = data.stratified_split(imbalanced.labels, 0.3, Rng(5))
        b = data.stratified_split(imbalanced.labels, 0.3, Rng(5))
        assert np.array_equal(a[0], b[0])
        assert np.array_equal(a[1], b[1])

    def test_union_and_disjointness(self):
        for seed in range(20):
            rng = Rng(seed)
            n = int(np.random.default_rng(seed).integers(20, 200))
            ds = data.make_synthetic(n, 0.3, 1.0, 3, rng)
            if ds.fraud_count in (0, n):
                continue
            train_ids, test_ids = data.stratified_split(ds.labels, 0.25, rng.split("s"))
            assert np.all(np.diff(train_ids) > 0) and np.all(np.diff(test_ids) > 0)
            train, test = ds.take(train_ids), ds.take(test_ids)
            assert train.n_samples + test.n_samples == n
            # Rows are unique with probability 1; set membership finds overlap.
            all_rows = {tuple(r) for r in ds.materialize().features}
            train_rows = {tuple(r) for r in train.features}
            test_rows = {tuple(r) for r in test.features}
            assert train_rows | test_rows == all_rows
            assert not (train_rows & test_rows)

    def test_single_class_splits_its_rows(self):
        # A missing class draws no rows; prepare_splits refuses such a set.
        for cls in (0, 1):
            labels = np.full(10, cls, dtype=np.intp)
            train, test = data.stratified_split(labels, 0.2, Rng(0))
            assert (train.size, test.size) == (8, 2)
            assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(10))
            assert np.all(labels[train] == cls) and np.all(labels[test] == cls)

    def test_bad_fraction(self, imbalanced):
        with pytest.raises(DomainError):
            data.stratified_split(imbalanced.labels, 1.0, Rng(0))


class TestResampleRatio:
    def test_one_to_one(self, imbalanced):
        out = imbalanced.take(data.resample_ratio(imbalanced.labels, (1, 1), Rng(0)))
        assert out.fraud_count == imbalanced.fraud_count
        assert out.n_samples == 2 * imbalanced.fraud_count

    def test_one_to_five(self, imbalanced):
        out = imbalanced.take(data.resample_ratio(imbalanced.labels, (1, 5), Rng(0)))
        assert out.n_samples == 6 * imbalanced.fraud_count

    def test_cap_with_warning(self, imbalanced):
        with pytest.warns(UserWarning, match="keeping all"):
            out = imbalanced.take(
                data.resample_ratio(imbalanced.labels, (1, 10**6), Rng(0)))
        assert out.n_samples == imbalanced.n_samples

    def test_no_fraud_gives_no_ids_and_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ids = data.resample_ratio(np.zeros(5, dtype=np.intp), (1, 1), Rng(0))
        assert ids.size == 0

    def test_never_duplicates_rows(self, imbalanced):
        out = imbalanced.take(data.resample_ratio(imbalanced.labels, (1, 2), Rng(3)))
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
            out = ds.take(data.resample_ratio(ds.labels, (fraud_part, legit_part),
                                              Rng(seed)))
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
           dirichlet_alpha=st.floats(0.01, 100.0), seed=st.integers(0, 2**16))
    # One label_skew shard and one empty class: the empty class's cut is k
    # empty runs.
    @example(k=1, extra_rows=0, fraud_fraction=1.0, dirichlet_alpha=1.0, seed=0)
    # 3 fraud rows in 8 shards, and shards that only the refill fills.
    @example(k=8, extra_rows=12, fraud_fraction=0.15, dirichlet_alpha=0.05, seed=3)
    def test_conservation_and_disjointness(self, scheme, k, extra_rows,
                                           fraud_fraction, dirichlet_alpha, seed):
        # Feature = original row index, so rows can be told apart.
        n = k + extra_rows
        labels = (np.random.default_rng(seed).uniform(size=n)
                  < fraud_fraction).astype(np.intp)
        ds = data.Dataset(np.arange(n, dtype=float).reshape(n, 1), labels)
        shards = data.partition(ds, k, scheme, Rng(seed),
                                dirichlet_alpha=dirichlet_alpha)
        assert [s.client_id for s in shards] == list(range(k))
        rows = np.concatenate([s.data.features[:, 0] for s in shards]).astype(np.intp)
        assert np.array_equal(np.sort(rows), np.arange(n))
        for s in shards:
            assert np.array_equal(s.data.labels,
                                  labels[s.data.features[:, 0].astype(np.intp)])
            assert s.data.n_samples > 0

    @settings(max_examples=100, deadline=None)
    @given(k=st.integers(1, 8), extra_rows=st.integers(0, 300),
           fraud_fraction=st.floats(0.0, 1.0),
           dirichlet_alpha=st.floats(0.01, 100.0), seed=st.integers(0, 2**16))
    def test_label_skew_shard_is_its_run_of_each_class_cut(
            self, k, extra_rows, fraud_fraction, dirichlet_alpha, seed):
        # Each class's rows, permuted and cut at the cumulative proportions
        # of one Dir_k(alpha) draw, recomputed from the partition's splits.
        n = k + extra_rows
        labels = (np.random.default_rng(seed).uniform(size=n)
                  < fraud_fraction).astype(np.intp)
        runs = []
        for c in (0, 1):
            rng = Rng(seed).split("class", c)
            rows = np.flatnonzero(labels == c)
            rows = rows[rng.split("partition").gen.permutation(rows.size)]
            props = rng.split("partition-sizes").gen.dirichlet([dirichlet_alpha] * k)
            ends = [0, *np.floor(np.cumsum(props)[:-1] * rows.size).astype(int),
                    rows.size]
            runs.append([np.sort(rows[ends[i]:ends[i + 1]]) for i in range(k)])
        assume(all(runs[0][i].size + runs[1][i].size for i in range(k)))

        ds = data.Dataset(np.arange(n, dtype=float).reshape(n, 1), labels)
        shards = data.partition(ds, k, "label_skew", Rng(seed),
                                dirichlet_alpha=dirichlet_alpha)
        for i, s in enumerate(shards):
            rows = s.data.features[:, 0].astype(np.intp)
            for c in (0, 1):
                assert np.array_equal(rows[s.data.labels == c], runs[c][i])

    @pytest.mark.parametrize("seed", range(6))
    def test_label_skew_spread_follows_alpha(self, seed):
        labels = (np.arange(5000) % 5 == 0).astype(np.intp)  # 20 % fraud
        ds = data.Dataset(np.zeros((5000, 1)), labels)

        def fraud_shares(alpha):
            return [s.data.fraud_count / s.data.n_samples for s in
                    data.partition(ds, 5, "label_skew", Rng(seed), dirichlet_alpha=alpha)]

        skewed = fraud_shares(0.05)
        assert max(skewed) - min(skewed) > 0.5
        assert all(abs(share - 0.2) < 0.02 for share in fraud_shares(1e4))

    # SHA-256 of each shard's size and sorted row ids, shard by shard. These
    # streams feed the iid, quantity_skew and label_skew runs (the 16 000-row,
    # 50-client cases are shaped like a 1:1 train split of fed-many-clients),
    # so they must not move when partition's code does. The 200-row,
    # 20-client cases need the empty-shard refill.
    @pytest.mark.parametrize("scheme, n, k, alpha, seed, digest", [
        ("iid", 37, 4, 0.5, 0,
         "24c1b8e72db70ae7e00ddbf5440fa279a5a5e6d0e13ee858bf55a23d06927764"),
        ("iid", 1000, 5, 0.5, 1,
         "cbee5c0b1fb4c6bbc178d30617b784d3d81b177a783fc07011569800979f1036"),
        ("iid", 16_000, 50, 0.5, 1,
         "e4e032192959ffc2482bacd5631af81015ed5fdc42a1f22b5867a3b3cf82256a"),
        ("quantity_skew", 1000, 5, 0.5, 1,
         "1fb0ed5aadd0c3866d68bffc12eb93b2ba181aaacd74675b7762148e96c0a384"),
        ("quantity_skew", 500, 3, 100.0, 2,
         "e96eef2c673adcd94481092205ef3a03a2c8a8ea4c042b217289b28f13ff0a32"),
        ("quantity_skew", 200, 20, 0.05, 3,
         "6bb07d3eb09c2ff95dbc87a05a4d4646417013b2be39999d99e3315f4f5dac17"),
        ("quantity_skew", 16_000, 50, 0.5, 1,
         "af24978ee50a0ed234424535a726335896178f7c88fe7861276cea4731423294"),
        ("label_skew", 1000, 5, 0.5, 1,
         "6aa6313ea553e7abc3b819bc9ab9b2aaa9a238e3e31989a4886f6d5524c1e01d"),
        ("label_skew", 200, 20, 0.05, 3,
         "42a5f952848053ccf9845c0479fed81df7b11e701cd0dbc21a6fcf43e16f3122"),
        ("label_skew", 16_000, 50, 0.5, 1,
         "033b8dfda0a5f4b3daec8144738aa7a2195c8a621a05bf6a0ebfe6f8bfc99887"),
    ])
    def test_iid_and_quantity_skew_streams_pinned(self, scheme, n, k, alpha, seed,
                                                  digest):
        labels = (np.arange(n) % 7 == 0).astype(np.intp)
        ds = data.Dataset(np.arange(n, dtype=float).reshape(n, 1), labels)
        h = hashlib.sha256()
        for s in data.partition(ds, k, scheme, Rng(seed), dirichlet_alpha=alpha):
            rows = np.sort(s.data.features[:, 0]).astype("<i8")
            h.update(len(rows).to_bytes(8, "little") + rows.tobytes())
        assert h.hexdigest() == digest

    def test_too_many_clients(self, imbalanced):
        with pytest.raises(DataError):
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
        assert np.array_equal(a.materialize().features, b.materialize().features)
        assert np.array_equal(a.labels, b.labels)

    def test_bad_params(self):
        with pytest.raises(DomainError):
            data.make_synthetic(0, 0.1, 1.0, 3, Rng(0))
        with pytest.raises(DomainError):
            data.make_synthetic(10, 1.5, 1.0, 3, Rng(0))


CHUNK = data.SYNTHETIC_CHUNK_ROWS


def one_shot_features(source):
    """The features of every row of `source` as one draw of the whole
    (n_samples, n_features) normal matrix, the fraud rows shifted: the
    reference for what a take walks in chunks."""
    shape = (source.n_samples, len(source.feature_names))
    feats = source.rng.split("features").gen.normal(0.0, 1.0, shape)
    feats[source.labels == 1] += source.shift
    return feats


class TestSyntheticTake:
    @settings(max_examples=40, deadline=None)
    @given(n=st.sampled_from([1, 5, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 37]),
           seed=st.integers(0, 2**16), picks=st.data())
    @example(n=2 * CHUNK + 37, seed=0, picks=None)  # every row, all chunks
    def test_take_equals_rows_of_one_draw(self, n, seed, picks):
        source = data.make_synthetic(n, 0.3, 2.0, 3, Rng(seed))
        if picks is None:
            ids = np.arange(n)
        else:
            # Unsorted, repeated or empty ids, biased to the chunk boundaries.
            edges = [i for i in (0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK, n - 1) if i < n]
            ids = np.array(picks.draw(st.lists(
                st.one_of(st.integers(0, n - 1), st.sampled_from(edges)), max_size=40)),
                dtype=np.intp)
        taken = source.take(ids)
        expected = one_shot_features(source)[ids]
        assert taken.features.tobytes() == expected.tobytes()
        assert taken.features.shape == (ids.size, 3) and taken.features.flags.c_contiguous
        assert np.array_equal(taken.labels, source.labels[ids])
        assert taken.feature_names == ("V1", "V2", "V3")

    def test_chunk_size_changes_no_byte(self, monkeypatch):
        source = data.make_synthetic(1000, 0.2, 2.0, 4, Rng(3))
        ids = np.array([999, 0, 7, 7, 500, 6, 13])
        whole, some = source.materialize(), source.take(ids)
        monkeypatch.setattr(data, "SYNTHETIC_CHUNK_ROWS", 7)
        assert source.materialize().features.tobytes() == whole.features.tobytes()
        assert source.take(ids).features.tobytes() == some.features.tobytes()

    def test_each_take_restarts_the_stream(self):
        source = data.make_synthetic(3 * CHUNK, 0.2, 2.0, 4, Rng(4))
        first = source.take([CHUNK + 2, 5])
        again = source.take([5, CHUNK + 2])
        assert np.array_equal(first.features, again.features[::-1])
        assert np.array_equal(source.take([5]).features, first.features[1:])

    def test_ids_index_as_numpy_does(self):
        source = data.make_synthetic(20, 0.2, 2.0, 4, Rng(5))
        assert np.array_equal(source.take([-1]).features, source.take([19]).features)
        with pytest.raises(IndexError):
            source.take([20])
