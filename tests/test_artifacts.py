"""The run-file format: atomic writes, a FormatError with path:line for every
bad input, and byte mutations of every artifact kind."""

import hashlib
import re
import shutil
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nprl import artifacts as A
from nprl import cli
from nprl import cohort as C
from nprl import evaluation as E
from nprl import pipeline as P
from nprl import theory as TH
from nprl.errors import FormatError, NprlError
from defaults import default

HEADER = "config_hash=abc seed=1"
COHORT_FILES = ("patients.csv", "hourly.csv", "sofa.csv", "cultures.csv")
INSTANCE_FILES = ("instances.csv", "instances.schema.txt")


def write_all(d: Path) -> None:
    """One small artifact of every kind under ``d``."""
    records = C.generate_cohort(default("generator", n_patients=3, missing_rate=0.1, los_day_min=5, los_day_max=6), 5)
    C.write_cohort(records, d, header_comment=HEADER)
    instances, schema = P.select_features(P.extract_instances(records), P.full_schema(), {1, 2})
    P.write_instances(instances[:4], schema, d / "instances.csv", d / "instances.schema.txt", HEADER)
    probs, labels = np.array([0.9, 0.2, 0.6, 0.4, 0.7]), np.array([1, 0, 1, 0, 0])
    report = E.aggregate([E.score(i, probs, labels, 0.5) for i in range(2)], 0.5)
    E.emit_combined_report({"baseline": report}, d / "report.csv", d / "roc.txt", HEADER)
    theory = TH.TheoremCheckReport(
        l_hat=1.5, gamma=0.04, pairs_checked=10, violations=0, worst_margin=0.25, m0=0.01, m_star=0.02,
        bound_ok=True, bound_constant=0.37, corollary_tol=0.02, pretrain_accuracy=0.9,
        pretrain_mean_abs_cosine=0.125,
    )
    TH.write_theory_report(theory, d / "theory_report.txt", HEADER)


READERS = {
    "cohort": (COHORT_FILES, C.read_cohort),
    "instances": (INSTANCE_FILES, lambda d: P.read_instances(d / "instances.csv", d / "instances.schema.txt")),
    "report": (("report.csv",), lambda d: E.read_report(d / "report.csv")),
    "theory": (("theory_report.txt",), lambda d: TH.read_theory_report(d / "theory_report.txt")),
}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory) -> Path:
    d = tmp_path_factory.mktemp("artifacts")
    write_all(d)
    return d


@pytest.fixture
def run(tmp_path, pristine) -> Path:
    """A writable copy of the pristine artifacts."""
    shutil.copytree(pristine, tmp_path, dirs_exist_ok=True)
    return tmp_path


def edit_line(path: Path, index: int, new: str) -> None:
    lines = path.read_text().splitlines()
    lines[index] = new
    path.write_text("\n".join(lines) + "\n")


class TestReaders:
    @pytest.mark.parametrize("kind", sorted(READERS))
    def test_pristine_artifacts_read_back(self, pristine, kind):
        READERS[kind][1](pristine)

    def test_table_round_trip_with_line_numbers(self, tmp_path):
        A.write_table(tmp_path / "t.csv", ["a", "b"], [["1", "x,y"], ["2", ""]], HEADER)
        assert list(A.read_table(tmp_path / "t.csv", ["a", "b"])) == [(3, ["1", "x,y"]), (4, ["2", ""])]

    def test_fields_round_trip_with_line_numbers(self, tmp_path):
        A.write_fields(tmp_path / "f.txt", [("a", 1), ("b", "x=y")], HEADER, note="second comment")
        fields = A.read_fields(tmp_path / "f.txt")
        assert fields == {"a": "1", "b": "x=y"}
        assert fields.line == {"a": 3, "b": 4}

    def test_repeated_key_rejected(self, tmp_path):
        (tmp_path / "f.txt").write_text("a=1\na=2\n")
        with pytest.raises(FormatError, match=r"f\.txt:2: repeated key 'a'"):
            A.read_fields(tmp_path / "f.txt")

    def test_wrong_header_reports_line(self, tmp_path):
        (tmp_path / "t.csv").write_text("# c\na,c\n1,2\n")
        with pytest.raises(FormatError, match=r"t\.csv:2: unexpected header"):
            list(A.read_table(tmp_path / "t.csv", ["a", "b"]))

    def test_csv_syntax_error_reports_line(self, tmp_path):
        (tmp_path / "t.csv").write_bytes(b"a,b\n1,2\n3,4\r5\n")
        with pytest.raises(FormatError, match=r"t\.csv:3: "):
            list(A.read_table(tmp_path / "t.csv", ["a", "b"]))


class TestRegressions:
    """Each input here used to end in a traceback or in silently wrong data."""

    def test_comment_only_report(self, tmp_path):  # was IndexError
        (tmp_path / "report.csv").write_text(f"# {HEADER}\n")
        with pytest.raises(FormatError, match=r"report\.csv: missing header row"):
            E.read_report(tmp_path / "report.csv")

    def test_theory_line_without_equals(self, run):  # was ValueError
        edit_line(run / "theory_report.txt", 4, "violations 0")
        with pytest.raises(FormatError, match=r"theory_report\.txt:5: expected key=value"):
            TH.read_theory_report(run / "theory_report.txt")

    def test_sidecar_window_len_not_an_integer(self, run):  # was ValueError
        edit_line(run / "instances.schema.txt", 1, "window_len=abc")
        with pytest.raises(FormatError, match=r"instances\.schema\.txt:2: window_len is not an integer"):
            P.read_instances(run / "instances.csv", run / "instances.schema.txt")

    def test_sidecar_window_len_other_than_nine(self, run):  # had no line number
        edit_line(run / "instances.schema.txt", 1, "window_len=8")
        with pytest.raises(FormatError, match=r"instances\.schema\.txt:2: window_len must be 9, got 8"):
            P.read_instances(run / "instances.csv", run / "instances.schema.txt")

    def test_comment_only_instances(self, run):  # used to load as []
        (run / "instances.csv").write_text(f"# {HEADER}\n")
        with pytest.raises(FormatError, match=r"instances\.csv: missing header row"):
            P.read_instances(run / "instances.csv", run / "instances.schema.txt")

    def test_header_only_instances(self, run):  # used to load as [], then fail naming no file
        path = run / "instances.csv"
        path.write_text("\n".join(path.read_text().splitlines()[:2]) + "\n")
        with pytest.raises(FormatError, match=r"instances\.csv: no instance rows"):
            P.read_instances(path, run / "instances.schema.txt")

    def test_patient_without_sofa_rows(self, run):  # used to load, then fail in extract naming no file
        path = run / "sofa.csv"
        lines = path.read_text().splitlines()
        pid = lines[2].split(",")[0]
        path.write_text("\n".join(line for line in lines if not line.startswith(pid + ",")) + "\n")
        with pytest.raises(FormatError, match=rf"sofa\.csv: patient '{pid}' has no organ-dysfunction scores"):
            C.read_cohort(run)

    @pytest.mark.parametrize("name", ["hourly.csv", "instances.csv"])
    def test_commented_out_data_row(self, run, name):  # used to be dropped
        path = run / name
        line = path.read_text().splitlines()[3]
        edit_line(path, 3, "#" + line)
        with pytest.raises(FormatError, match=rf"{name}:4: comment line after the data began"):
            if name == "hourly.csv":
                C.read_cohort(run)
            else:
                P.read_instances(run / "instances.csv", run / "instances.schema.txt")

    def test_missing_hourly_file(self, run):  # was FileNotFoundError
        (run / "hourly.csv").unlink()
        with pytest.raises(FormatError, match=r"hourly\.csv: cannot read"):
            C.read_cohort(run)

    @pytest.mark.parametrize("name", COHORT_FILES + INSTANCE_FILES + ("report.csv", "theory_report.txt"))
    def test_byte_0xff_reports_line(self, run, name):  # was UnicodeDecodeError
        path = run / name
        lines = path.read_bytes().split(b"\n")
        lines[2] = b"\xff" + lines[2]
        path.write_bytes(b"\n".join(lines))
        read = next(reader for files, reader in READERS.values() if name in files)
        with pytest.raises(FormatError, match=rf"{name}:3: not UTF-8"):
            read(run)


class TestValues:
    @pytest.mark.parametrize("label", ["2", "-1"])
    def test_instance_label_outside_0_1(self, run, label):
        path = run / "instances.csv"
        cells = path.read_text().splitlines()[2].split(",")
        cells[3] = label
        edit_line(path, 2, ",".join(cells))
        with pytest.raises(FormatError, match=rf"instances\.csv:3: label must be 0 or 1, got {label}"):
            P.read_instances(path, run / "instances.schema.txt")

    def test_repeated_instance_index(self, run):  # used to fail later, naming no file
        path = run / "instances.csv"
        lines = path.read_text().splitlines()
        first = lines[2].split(",")[0]
        cells = lines[3].split(",")
        cells[0] = first
        edit_line(path, 3, ",".join(cells))
        message = rf"instances\.csv:4: repeated instance_index {first} \(first at line 3\)"
        with pytest.raises(FormatError, match=message):
            P.read_instances(path, run / "instances.schema.txt")

    def test_repeated_report_row(self, run):  # the last copy used to win silently
        path = run / "report.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[2]]) + "\n")
        message = rf"report\.csv:{len(lines) + 1}: repeated row for arm baseline fold 0 \(first at line 3\)"
        with pytest.raises(FormatError, match=message):
            E.read_report(path)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e400"])
    def test_instance_value_not_finite(self, run, cell):
        path = run / "instances.csv"
        cells = path.read_text().splitlines()[2].split(",")
        cells[-1] = cell
        edit_line(path, 2, ",".join(cells))
        with pytest.raises(FormatError, match=r"instances\.csv:3: non-finite"):
            P.read_instances(path, run / "instances.schema.txt")

    @pytest.mark.parametrize("name", ["hourly.csv", "patients.csv"])
    def test_cohort_value_not_finite(self, run, name):
        path = run / name
        cells = path.read_text().splitlines()[2].split(",")
        cells[-1] = "nan"
        edit_line(path, 2, ",".join(cells))
        with pytest.raises(FormatError, match=rf"{name}:3: bad number 'nan'"):
            C.read_cohort(run)

    @pytest.mark.parametrize("name", ["hourly.csv", "patients.csv", "instances.csv"])
    def test_digit_separator_in_a_number(self, run, name):  # used to load as a different number
        path = run / name
        cells = path.read_text().splitlines()[2].split(",")
        at = next(i for i, cell in enumerate(cells) if i > 1 and "." in cell)
        cells[at] = cells[at].replace(".", "_", 1)
        edit_line(path, 2, ",".join(cells))
        with pytest.raises(FormatError, match=rf"{name}:3: bad number '{cells[at]}'"):
            READERS["cohort" if name in COHORT_FILES else "instances"][1](run)

    def test_admit_time_after_hourly_rows(self, run):  # used to load with a negative stay
        path = run / "patients.csv"
        cells = path.read_text().splitlines()[2].split(",")
        cells[1] = "2030-01-01T00:00:00"
        edit_line(path, 2, ",".join(cells))
        with pytest.raises(FormatError, match=r"patients\.csv:3: admit time 2030-01-01T00:00:00 is after"):
            C.read_cohort(run)

    def test_timestamp_with_utc_offset_rejected(self, run):
        path = run / "hourly.csv"
        cells = path.read_text().splitlines()[3].split(",")
        cells[1] += "+00:00"
        edit_line(path, 3, ",".join(cells))
        with pytest.raises(FormatError, match=r"hourly\.csv:4: bad timestamp"):
            C.read_cohort(run)


class TestBulkNumbers:
    """``numbers`` converts a table's cells at once; it must accept and reject
    exactly the cells ``number`` does, one at a time."""

    ODD_CELLS = [
        "", " ", "_", "1_0", "1__0", "nan", "NaN", "-nan", "inf", "-Infinity", "1e400", "-1e400", "1e-400",
        " 1.5", "1.5 ", "\t2\n", "\u00a01", "１２", "١٢", "0x10", "1\x00", "\x00", "1.5e", ".", "+.5", "5.", "1j",
    ]
    CELLS = st.one_of(
        st.sampled_from(ODD_CELLS),
        st.floats().map(repr),
        st.text(alphabet="0123456789.eE+-_ nafity\t", max_size=8),
        st.text(max_size=6),
    )
    # cells float() parses, some of which number() rejects: these lists take the bulk path
    FLOAT_CELLS = st.one_of(
        st.just(""),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
        st.sampled_from(["1_0", "nan", "-nan", "inf", "-Infinity", "1e400", "1e-400", " 1.5", "\t2\n", "１２", "+.5"]),
    )

    @given(st.one_of(st.lists(CELLS, max_size=12), st.lists(FLOAT_CELLS, max_size=12)), st.booleans())
    @example(["1_0", "2.5"], False)
    @example(["1.5", "", "2.0"], True)
    @example(["1.5", "", "2.0"], False)
    @example(["1.5", "nan"], True)
    @example(["1.5", "1e400"], True)
    @settings(max_examples=300, deadline=None)
    def test_same_verdicts_as_number(self, cells, empty_is_missing):
        values, accepted = A.numbers(cells, empty_is_missing)
        assert values.shape == accepted.shape == (len(cells),)
        for cell, value, ok in zip(cells, values.tolist(), accepted.tolist()):
            if empty_is_missing and cell == "":
                assert ok and np.isnan(value)
                continue
            try:
                expected = A.number(cell)
            except ValueError:
                assert not ok and np.isnan(value), cell
            else:
                assert ok and value == expected, cell

    def test_empty_instance_value_rejected(self, run):
        # an empty cell means missing only in the hourly value columns
        path = run / "instances.csv"
        cells = path.read_text().splitlines()[2].split(",")
        cells[-1] = ""
        edit_line(path, 2, ",".join(cells))
        with pytest.raises(FormatError, match=r"instances\.csv:3: could not convert string to float: ''"):
            P.read_instances(path, run / "instances.schema.txt")

    def test_first_bad_hourly_row_reported(self, run):
        # rows are checked in file order, and within a row the stamp before the values
        path = run / "hourly.csv"
        lines = path.read_text().splitlines()
        number_line, stamp_line = lines[4].split(","), lines[6].split(",")
        number_line[-1], stamp_line[1] = "x", "never"
        edit_line(path, 4, ",".join(number_line))
        edit_line(path, 6, ",".join(stamp_line))
        with pytest.raises(FormatError, match=r"hourly\.csv:5: bad number 'x'"):
            C.read_cohort(run)
        number_line[1] = "never"
        edit_line(path, 4, ",".join(number_line))
        with pytest.raises(FormatError, match=r"hourly\.csv:5: bad timestamp 'never'"):
            C.read_cohort(run)


def bits(values: np.ndarray) -> np.ndarray:
    """The float64 array's bit patterns, so that NaN positions compare too."""
    return np.ascontiguousarray(values, dtype=np.float64).view(np.int64)


# (block size, both rows in one block?, which comes first) for a bad value
# cell and a row with a cell too few, in adjacent data rows
ORDER_CASES = [
    (block, same, first)
    for block in (1, 2, 3)
    for same in (True, False)
    for first in ("value", "count")
    if block > 1 or not same  # a block of one row cannot hold both
]


class TestBlockReads:
    """hourly.csv and instances.csv are converted ``READ_BLOCK`` rows at a time."""

    @pytest.mark.parametrize("name", ["hourly.csv", "instances.csv"])
    @pytest.mark.parametrize("block, same, first", ORDER_CASES)
    def test_first_bad_line_in_file_order(self, run, monkeypatch, name, block, same, first):
        monkeypatch.setattr(A, "READ_BLOCK", block)
        # the last two rows of the first block, or the rows on either side of
        # its end; data row r is on line r + 3, after a comment and the column row
        rows = (block - 2, block - 1) if same else (block - 1, block)
        path = run / name
        lines = path.read_text().splitlines()
        for row, kind in zip(rows, (first, "count" if first == "value" else "value")):
            cells = lines[row + 2].split(",")
            edit_line(path, row + 2, ",".join(cells[:-1] if kind == "count" else cells[:-1] + ["x"]))
        if first == "count":
            message = r"expected \d+ cells, got \d+"
        else:
            message = "bad number 'x'" if name == "hourly.csv" else "could not convert string to float: 'x'"
        with pytest.raises(FormatError, match=rf"{re.escape(name)}:{rows[0] + 3}: {message}"):
            READERS["cohort" if name == "hourly.csv" else "instances"][1](run)

    def test_block_size_does_not_change_what_is_read(self, tmp_path, monkeypatch):
        records = C.generate_cohort(default("generator", n_patients=6, missing_rate=0.1, sepsis_fraction=0.5), 4)
        assert any(C.planted_onset(r) is not None for r in records)
        assert np.isnan(np.concatenate([r.hourly for r in records])).any()
        ends = np.cumsum([r.los_hours for r in records])
        default_block = A.READ_BLOCK
        # one patient's rows straddle the first boundary of default-size blocks
        assert any(end - r.los_hours < default_block < end for r, end in zip(records, ends))
        C.write_cohort(records, tmp_path)
        instances, schema = P.select_features(P.extract_instances(records), P.full_schema(), {1, 2, 3})
        P.write_instances(instances, schema, tmp_path / "instances.csv", tmp_path / "instances.schema.txt")

        assert C.read_cohort(tmp_path) == records

        def read(block):
            monkeypatch.setattr(A, "READ_BLOCK", block)
            cohort = C.read_cohort(tmp_path)
            loaded, _ = P.read_instances(tmp_path / "instances.csv", tmp_path / "instances.schema.txt")
            return (
                [(r.patient_id, r.admit_ts, r.los_hours, r.hours.tolist(), bits(r.hourly).tolist(),
                  bits(r.statics).tolist(), r.sofa, r.cultures) for r in cohort],
                [(i.instance_index, i.patient_id, i.day_index, i.label, bits(i.temporal).tolist(),
                  bits(i.statics).tolist()) for i in loaded],
            )

        expected = read(default_block)
        assert len(expected[1]) == len(instances)
        for block in (1, 7):
            assert read(block) == expected, block

    def test_read_cohort_peak_memory_follows_the_block(self, tmp_path, monkeypatch):
        # converting the whole of hourly.csv at once peaked at 11.6 times the
        # memory the records keep; block by block it is 1.4 times
        C.write_cohort(C.generate_cohort(default("generator", n_patients=40, missing_rate=0.05), 3), tmp_path)
        monkeypatch.setattr(A, "READ_BLOCK", 256)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            records = C.read_cohort(tmp_path)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 40
        assert peak - before < 3 * (kept - before), (peak - before, kept - before)


# sha256 of each file of a small cohort with missing cells and septic
# patients: no change of record layout or number formatting may move a byte
GOLDEN_SHA256 = {
    "patients.csv": "72a6002fce3a5fc505354b6fa3bcfab1995a0948b1fa08fe4ef50e42ae8fee2b",
    "hourly.csv": "62f86a2f1cde1804b5f63aa1974ef7913b6e418f9884666382d9def6d618a6bf",
    "sofa.csv": "89ccdbf5bc064a9f14350e3cf08c5d5d66543ba0bf52276c1412690f44b9dc28",
    "cultures.csv": "29c18a31fd46169d68cd3767b843e70d16d6f490273604dbbe4da9698e0a20ad",
    "instances.csv": "d498e2f0e8d671d47022c6e6e09b43130e9f3756cae546539d1e2b53534e0cd3",
    "instances.schema.txt": "c711c6aa4148059f1e1dc7d0713e5ebca5b714c077e46bb145c309bf18b9f546",
}


def test_golden_cohort_and_instance_bytes(tmp_path):
    records = C.generate_cohort(default("generator", n_patients=20, missing_rate=0.05), 3)
    assert sum(C.planted_onset(r) is not None for r in records) == 3
    assert np.isnan(np.concatenate([r.hourly for r in records])).any()
    header = "config_hash=abc seed=3"
    C.write_cohort(records, tmp_path, header_comment=header)
    instances = P.extract_instances(C.read_cohort(tmp_path))
    instances, schema = P.select_features(instances, P.full_schema(), {1, 2, 3})
    assert sum(inst.label for inst in instances) == 3
    P.write_instances(instances, schema, tmp_path / "instances.csv", tmp_path / "instances.schema.txt", header)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_SHA256}
    assert digests == GOLDEN_SHA256


# fixed scores with ties inside a fold, across folds and at the 0.5 threshold
GOLDEN_SCORES = {
    "baseline": [
        ([0.9, 0.5, 0.5, 1 / 3, 0.1, 0.7], [1, 1, 0, 0, 0, 1]),
        ([0.5, 0.2, 0.8, 1 / 3, 0.65], [0, 1, 1, 0, 0]),
    ],
    "nprl": [
        ([0.3, 0.3, 0.3, 0.6], [1, 0, 0, 1]),
        ([2 / 3, 0.1, 0.45, 0.45, 0.05], [0, 1, 1, 0, 0]),
    ],
}
GOLDEN_REPORT_SHA256 = {
    "report.csv": "4e80c0b67f28c714d0f0f29dd7c1a1a308cadcc2bb6f26ba61c8d20945bb4bb1",
    "roc.txt": "5cffff03baea5c1af0e31ed7ee58299f2912b5b83252b3d706d885f5b3ebb95c",
}


def test_golden_report_bytes(tmp_path):
    reports = {
        arm: E.aggregate([E.score(i, np.array(p), np.array(y), 0.5) for i, (p, y) in enumerate(folds)], 0.5)
        for arm, folds in GOLDEN_SCORES.items()
    }
    E.emit_combined_report(reports, tmp_path / "report.csv", tmp_path / "roc.txt", HEADER)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN_REPORT_SHA256}
    assert digests == GOLDEN_REPORT_SHA256


def bits_to_float(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


class TestNumberRows:
    """``number_rows`` formats each distinct bit pattern of a block once; its
    rows must equal ``repr`` of every cell, with NaN left empty."""

    EDGES = [
        0.0, -0.0, float("nan"), -float("nan"), bits_to_float(0x7FF8_0000_0000_0001),  # a NaN payload
        5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,  # subnormals and the least normal
        1e16, 9999999999999998.0, 1.0000000000000002e16, -1e16,  # repr turns to exponent form at 1e16
        1e-4, 9.999999999999999e-05, 0.00010000000000000002, -1e-4,  # and below 1e-4
        1.0, 0.1, float("inf"), -float("inf"),
    ]

    @given(
        pool=st.lists(st.one_of(st.sampled_from(EDGES), st.floats()), min_size=1, max_size=12),
        n_rows=st.one_of(st.integers(0, 3), st.integers(A.NUMBER_BLOCK - 1, A.NUMBER_BLOCK + 2)),
        n_cols=st.integers(0, 5),
    )
    @example(pool=[0.0, -0.0, float("nan")], n_rows=A.NUMBER_BLOCK + 1, n_cols=3)
    @example(pool=[1e16, 1e-4], n_rows=1, n_cols=1)
    @settings(max_examples=60, deadline=None)
    def test_equals_repr_of_each_cell(self, pool, n_rows, n_cols):
        # the pool tiled over the shape: values repeat within and across rows and blocks
        values = np.resize(np.array(pool, dtype=np.float64), (n_rows, n_cols))
        expected = [",".join(map(repr, row)).replace("nan", "") for row in values.tolist()]
        assert list(A.number_rows(values)) == expected


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        path = tmp_path / "t.csv"
        A.write_table(path, ["a"], [["1"]], HEADER)
        before = path.read_bytes()

        def rows():
            yield ["2"]
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            A.write_table(path, ["a"], rows(), HEADER)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def test_cli_reports_bad_artifact_without_traceback(tmp_path, capsys):
    overrides = ["--set", "generator.n_patients=5", "--set", "generator.missing_rate=0.0"]
    assert cli.main(["gen", "--out", str(tmp_path)] + overrides) == 0
    (hourly,) = tmp_path.glob("run-*/cohort/hourly.csv")
    hourly.write_bytes(hourly.read_bytes().replace(b"p00001", b"p0000\xff", 1))
    capsys.readouterr()
    assert cli.main(["extract", "--out", str(tmp_path)] + overrides) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "hourly.csv:" in err and "not UTF-8" in err
    assert "Traceback" not in err


def mutate(blob: bytes, op: str, at: int, value: int) -> bytes:
    if op == "overwrite":
        return blob[:at] + bytes([value]) + blob[at + 1 :]
    if op == "delete":
        return blob[:at] + blob[at + 1 :]
    return blob[:at]


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_any_byte_mutation_returns_or_raises_nprl_error(pristine, kind, data):
    files, read = READERS[kind]
    name = data.draw(st.sampled_from(files), label="file")
    blob = (pristine / name).read_bytes()
    op = data.draw(st.sampled_from(["overwrite", "delete", "truncate"]), label="op")
    at = data.draw(st.integers(0, len(blob) - (op != "truncate")), label="offset")
    value = data.draw(st.integers(0, 255), label="byte")
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for f in files:
            shutil.copy(pristine / f, d / f)
        (d / name).write_bytes(mutate(blob, op, at, value))
        try:
            read(d)
        except NprlError:
            pass
