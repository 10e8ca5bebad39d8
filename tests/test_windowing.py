import csv
import dataclasses
import re
import tracemalloc

import numpy as np
import pytest

from lrtvar.errors import (
    InvalidHyperparameterError,
    NonFiniteError,
    SeriesTooShortError,
    ShapeMismatchError,
    ZeroVarianceError,
)
from lrtvar.windowing import (
    SnapshotPair,
    TimeSeries,
    build_snapshots,
    read_csv,
    read_series_csv,
    standardize,
    write_csv,
    write_series_csv,
)


def make_series(rng, N, n_samples):
    return TimeSeries(values=rng.standard_normal((N, n_samples)))


def read_records(path):
    """Reference outcome of ``read_csv(path)``, one record at a time: each
    content line (not blank, not ``#`` after leading whitespace) is parsed
    alone by ``np.loadtxt``.  A first line that fails alone is the header.
    Returns ``("ok", header, shape, bytes)``, or the error class and the
    prefix its message must start with; a parse error's prefix stops before
    the column that may follow the line."""
    header, rows = None, []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.rstrip("\r\n")
            if not text or text.lstrip().startswith("#"):
                continue
            try:
                row = np.loadtxt([text], delimiter=",", quotechar='"', comments=None, ndmin=2)
            except ValueError:
                row = None
            if row is None and header is None and not rows:
                header = [c.strip() for c in next(csv.reader([text]))]
            elif row is None or (rows and row.shape != rows[0].shape):
                return ShapeMismatchError, f"{path}: line {lineno}"
            else:
                rows.append(row)
    if not rows:
        return SeriesTooShortError, f"{path}: no data rows"
    data = np.concatenate(rows)
    if header is not None and len(header) != data.shape[1]:
        return ShapeMismatchError, f"{path}: header has {len(header)} names, data rows have {data.shape[1]} cells"
    if not np.all(np.isfinite(data)):
        return NonFiniteError, f"{path}: non-finite cell in data"
    return "ok", header, data.shape, data.tobytes()


class TestBuildSnapshots:
    def test_tiny_scalar_series(self):
        series = TimeSeries(values=np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
        pair = build_snapshots(series, M=2)
        assert pair.T == 2 and pair.M == 2 and pair.dropped == 0
        assert np.array_equal(pair.X[:, :, 0], [[1.0, 2.0]])
        assert np.array_equal(pair.Y[:, :, 0], [[2.0, 3.0]])
        assert np.array_equal(pair.X[:, :, 1], [[3.0, 4.0]])
        assert np.array_equal(pair.Y[:, :, 1], [[4.0, 5.0]])

    def test_affine_ones_row(self):
        series = TimeSeries(values=np.array([[1.0, 2.0, 3.0, 4.0, 5.0]]))
        pair = build_snapshots(series, M=2, affine=True)
        assert pair.N_in == 2
        assert np.array_equal(pair.X[:, :, 0], [[1.0, 2.0], [1.0, 1.0]])
        assert np.array_equal(pair.Y[:, :, 0], [[2.0, 3.0]])

    def test_reindexing_oracle(self):
        # brute force: check every tensor entry against the source series
        rng = np.random.default_rng(21)
        series = make_series(rng, N=3, n_samples=61)
        pair = build_snapshots(series, M=20)
        assert pair.T == 3
        for i in range(3):
            for j in range(20):
                for k in range(3):
                    assert pair.X[i, j, k] == series.values[i, k * 20 + j]
                    assert pair.Y[i, j, k] == series.values[i, k * 20 + j + 1]

    def test_lagged_stacking_oracle(self):
        rng = np.random.default_rng(22)
        N, P, M = 2, 3, 4
        series = make_series(rng, N, n_samples=15)  # tau = 14, transitions = 12, T = 3
        pair = build_snapshots(series, M=M, P=P)
        assert pair.T == 3 and pair.N_in == N * P and pair.dropped == 0
        for k in range(pair.T):
            for j in range(M):
                t0 = (P - 1) + k * M + j
                for lag in range(P):
                    assert np.array_equal(pair.X[lag * N : (lag + 1) * N, j, k], series.values[:, t0 - lag])
                assert np.array_equal(pair.Y[:, j, k], series.values[:, t0 + 1])

    def test_lag_transition_count(self):
        rng = np.random.default_rng(23)
        series = make_series(rng, 2, 21)  # tau = 20
        for P in (1, 2, 3):
            pair = build_snapshots(series, M=3, P=P)
            assert pair.T * pair.M + pair.dropped == 20 - (P - 1)

    def test_tail_dropped_and_counted(self):
        rng = np.random.default_rng(24)
        series = make_series(rng, 2, 12)  # tau = 11 transitions
        pair = build_snapshots(series, M=4)
        assert pair.T == 2 and pair.dropped == 3

    def test_round_trip_concatenation(self):
        rng = np.random.default_rng(25)
        series = make_series(rng, 4, 41)
        pair = build_snapshots(series, M=10)
        x_cat = np.concatenate([pair.X[:, :, k] for k in range(pair.T)], axis=1)
        y_cat = np.concatenate([pair.Y[:, :, k] for k in range(pair.T)], axis=1)
        assert np.array_equal(x_cat, series.values[:, : pair.T * pair.M])
        assert np.array_equal(y_cat, series.values[:, 1 : pair.T * pair.M + 1])

    def test_shift_identity(self):
        rng = np.random.default_rng(26)
        pair = build_snapshots(make_series(rng, 3, 31), M=5)
        assert np.array_equal(pair.Y[:, :-1, :], pair.X[:, 1:, :])

    def test_deterministic(self):
        rng = np.random.default_rng(27)
        series = make_series(rng, 3, 30)
        a = build_snapshots(series, M=4, P=2, affine=True)
        b = build_snapshots(series, M=4, P=2, affine=True)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y)

    def test_too_short(self):
        series = TimeSeries(values=np.array([[1.0, 2.0, 3.0]]))
        with pytest.raises(SeriesTooShortError):
            build_snapshots(series, M=5)
        with pytest.raises(SeriesTooShortError):
            build_snapshots(series, M=2, P=2)

    def test_non_finite_rejected_at_series(self):
        with pytest.raises(NonFiniteError):
            TimeSeries(values=np.array([[1.0, np.inf, 2.0]]))

    def test_bad_parameters(self):
        series = TimeSeries(values=np.ones((1, 5)) * np.arange(5))
        with pytest.raises(InvalidHyperparameterError, match="M must be"):
            build_snapshots(series, M=0)
        with pytest.raises(InvalidHyperparameterError, match="P must be"):
            build_snapshots(series, M=2, P=0)

    @pytest.mark.parametrize(
        "options, message",
        [({"M": 2.5}, "M must be"), ({"M": True}, "M must be"), ({"M": "4"}, "M must be"), ({"M": 0}, "M must be"),
         ({"M": 2, "P": 1.5}, "P must be"), ({"M": 2, "P": True}, "P must be"), ({"M": 2, "P": 0}, "P must be")],
        ids=["M-float", "M-bool", "M-str", "M-zero", "P-float", "P-bool", "P-zero"],
    )
    def test_bad_window_or_lags_rejected_at_entry(self, options, message):
        # 2.5 and "4" once raised TypeError inside numpy, P=True was taken as 1
        series = TimeSeries(values=np.ones((1, 9)) * np.arange(9))
        with pytest.raises(InvalidHyperparameterError, match=message):
            build_snapshots(series, **options)

    def test_numpy_integers_accepted(self):
        series = TimeSeries(values=np.arange(18.0).reshape(2, 9))
        a, b = build_snapshots(series, M=np.int64(2), P=np.int32(2)), build_snapshots(series, M=2, P=2)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.Y, b.Y) and (a.M, a.T, a.P) == (b.M, b.T, b.P)


class TestStandardize:
    def test_constant_channel_rejected(self):
        series = TimeSeries(values=np.array([[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]]), channel_names=["flat", "ok"])
        with pytest.raises(ZeroVarianceError, match="flat"):
            standardize(series)

    def test_two_point_channel(self):
        # sample (ddof=1) convention: mean 1, sd sqrt(2)
        series = TimeSeries(values=np.array([[0.0, 2.0]]))
        out, tr = standardize(series)
        assert tr.mean[0] == pytest.approx(1.0)
        assert tr.std[0] == pytest.approx(np.sqrt(2.0))
        assert np.allclose(out.values, [[-1 / np.sqrt(2), 1 / np.sqrt(2)]])

    def test_moments_after_transform(self):
        rng = np.random.default_rng(28)
        series = TimeSeries(values=3.0 + 2.5 * rng.standard_normal((4, 100)))
        out, tr = standardize(series)
        assert np.all(np.abs(out.values.mean(axis=1)) < 1e-12)
        assert np.all(np.abs(out.values.std(axis=1, ddof=1) - 1.0) < 1e-12)

    def test_invert_round_trip(self):
        rng = np.random.default_rng(29)
        series = TimeSeries(values=rng.standard_normal((3, 50)) * 4 - 2)
        out, tr = standardize(series)
        assert np.allclose(tr.invert(out.values), series.values, atol=1e-12)


class TestSeriesCsv:
    def test_write_read_round_trip(self, tmp_path):
        rng = np.random.default_rng(30)
        series = TimeSeries(values=rng.standard_normal((3, 20)), channel_names=["a", "b", "c"])
        path = tmp_path / "series.csv"
        write_series_csv(path, series, manifest="tool=demo seed=1")
        back = read_series_csv(path)
        assert back.channel_names == ["a", "b", "c"]
        assert np.array_equal(back.values, series.values)

    @pytest.mark.parametrize("names", [["a,b", "c"], ['say "hi"', "c"], ["#a", "c"], [""], ["1", "2"],
                                       [" a", "b "], ["a\nb", "c"], ["a\rb", "c"], ["a b", "c\td"]],
                             ids=["comma", "quote", "hash", "one-empty", "numbers", "spaces-around",
                                  "newline", "carriage-return", "spaces-inside"])
    def test_channel_names_survive_the_round_trip_or_nothing_is_written(self, tmp_path, names):
        # these once read back as 3 names for 2 cells, as no names (twice), as no names plus a sample
        # [1, 2], as ['a', 'b'], and (line breaks) failed to read: "line 2, column 1: could not convert"
        series = TimeSeries(values=np.arange(3.0 * len(names)).reshape(len(names), 3), channel_names=names)
        path = tmp_path / "series.csv"
        rejected = {"1": r"^channel names \['1', '2'\] would read back as a data row$",
                    " a": r"^channel name ' a' holds a line break or surrounding white space$",
                    "a\nb": r"^channel name 'a\\nb' holds a line break",
                    "a\rb": r"^channel name 'a\\rb' holds a line break"}
        if names[0] in rejected:
            with pytest.raises(ShapeMismatchError, match=rejected[names[0]]):
                write_series_csv(path, series)
            assert not path.exists()
            return
        write_series_csv(path, series)
        back = read_series_csv(path)
        assert back.channel_names == names
        assert np.array_equal(back.values, series.values)

    def test_headerless_numeric_file(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5,2.0\n2.5,3.0\n3.5,4.0\n")
        series = read_series_csv(path)
        assert series.channel_names is None
        assert np.array_equal(series.values, np.array([[1.5, 2.5, 3.5], [2.0, 3.0, 4.0]]))

    def test_missing_cell_is_error(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("a,b\n1.0,2.0\n3.0\n")
        with pytest.raises(ShapeMismatchError):
            read_series_csv(path)

    def test_non_finite_cell_is_error(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("a,b\n1.0,nan\n")
        with pytest.raises(NonFiniteError):
            read_series_csv(path)

    def test_non_numeric_body_is_error(self, tmp_path):
        path = tmp_path / "mixed.csv"
        path.write_text("a,b\n1.0,2.0\nx,3.0\n")
        with pytest.raises(ShapeMismatchError):
            read_series_csv(path)

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# only a comment\n")
        with pytest.raises(SeriesTooShortError):
            read_series_csv(path)


class TestCsvCodec:
    def test_write_golden_text(self, tmp_path):
        path = tmp_path / "golden.csv"
        rows = [[0.1, 3, "ok"], [np.float64(1.0) / 3, np.int64(-2), ""], [2.5e-300, 0, "a b"]]
        write_csv(path, rows, header=["x", "n", "s"], manifest="manifest tool=demo", comments=["rows: cases"])
        assert path.read_text(encoding="utf-8") == (
            "# manifest tool=demo\n"
            "# rows: cases\n"
            "x,n,s\n"
            "0.10000000000000001,3,ok\n"
            "0.33333333333333331,-2,\n"
            "2.5e-300,0,a b\n"
        )

    def test_read_header_and_values(self, tmp_path):
        path = tmp_path / "m.csv"
        values = np.random.default_rng(31).standard_normal((4, 3))
        write_csv(path, values, header=["a", "b", "c"], manifest="m", comments=["c"])
        header, back = read_csv(path)
        assert header == ["a", "b", "c"]
        assert np.array_equal(back, values)

    def test_bad_cell_names_its_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# manifest\na,b\n1.0,2.0\n3.0,x\n")
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(str(path))}: line 4, column 2: "
                                             r"could not convert string 'x' to float64$"):
            read_csv(path)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_one_shot_parse_matches_the_record_reader(self, tmp_path, newline):
        # every outcome of read_csv, data or error, is the one of read_records,
        # which parses each line alone; an error names the first line that
        # fails alone or changes the width.  Every line here has balanced quotes.
        rows = ["1,2,3", "4.5e-300,-0,7", "5e-324, 6 ,\t7", "0.1,0.2,0.30000000000000004", "1_0,2,3", "\uff11,2,3",
                '"1",2,3']
        others = ["# manifest", "  # indented comment", "", "   ", "a,b,c", " x , y ,z", "0.1,1e400,2", "nan,1,2",
                  "1,2", "1,2,3,4", "1,,3", "1,2,3,", ' "1",2,3', '"#q",1,2', "1,2,x", "1.5 2,3,4", '# a "quote"',
                  '"a,b",c,d']
        rng = np.random.default_rng(32)
        files = [["", "1,2,3"], ["1", "   ", "2"], ["x", "1", "", "2"], ['"#q",1,2', "1,2,3"], ["# c", "1", "2"]]
        files += [[rows[rng.integers(len(rows))] if rng.random() < 0.6 else others[rng.integers(len(others))]
                   for _ in range(int(rng.integers(0, 6)))] for _ in range(400)]
        for trial, lines in enumerate(files):
            path = tmp_path / f"f{trial}.csv"
            path.write_bytes(newline.join(lines).encode("utf-8") + (newline.encode() if rng.random() < 0.5 else b""))
            expected = read_records(path)
            try:
                header, data = read_csv(path)
            except ValueError as exc:
                assert type(exc) is expected[0] and str(exc).startswith(expected[1]), (lines, str(exc))
                # the file line is the only row location; numpy's own is dropped
                assert re.match(r"(, column \d+)?: |$", str(exc)[len(expected[1]):]), (lines, str(exc))
                assert " at row " not in str(exc) and "usecols" not in str(exc), (lines, str(exc))
            else:
                assert ("ok", header, data.shape, data.tobytes()) == expected, lines

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("bad", ["1,x,3", "1,2", "1,2,3,4", '1,"2'])
    def test_numpy_pulls_one_line_at_a_time(self, tmp_path, newline, bad):
        message = {"1,x,3": ", column 2: could not convert string 'x' to float64",
                   "1,2": ": the number of columns changed from 3 to 2",
                   "1,2,3,4": ": the number of columns changed from 3 to 4", '1,"2': ": unterminated quote"}[bad]
        # the line read_csv names is the one np.loadtxt failed on, so numpy must
        # not read ahead: a bad line near the end of 2000 is named by its own number
        lines = ["# manifest", "a,b,c"] + [f"{i},{i}.5,-{i}" for i in range(1998)]
        for lineno in (4, 1990, 2000):
            path = tmp_path / f"bad{lineno}.csv"
            text = lines[: lineno - 1] + [bad] + lines[lineno:]
            path.write_bytes(newline.join(text).encode("utf-8") + newline.encode())
            with pytest.raises(ShapeMismatchError, match=f"^{re.escape(str(path))}: line {lineno}{re.escape(message)}$"):
                read_csv(path)

    @pytest.mark.parametrize(("text", "names", "cells"), [("a,b,c\n1,2\n3,4\n", 3, 2), ("# m\nch0,ch1\n1,2,3\n", 2, 3)],
                             ids=["wider", "narrower"])
    def test_header_width_must_match_the_data(self, tmp_path, text, names, cells):
        path = tmp_path / "series.csv"
        path.write_text(text)
        message = f"^{re.escape(str(path))}: header has {names} names, data rows have {cells} cells$"
        with pytest.raises(ShapeMismatchError, match=message):
            read_csv(path)
        with pytest.raises(ShapeMismatchError, match=message):
            read_series_csv(path)

    def test_quoted_cells_and_header_names(self, tmp_path):
        path = tmp_path / "quoted.csv"
        path.write_text('"x,y",z\n"1.5",2\n3,"4e0"\n')
        header, data = read_csv(path)
        assert header == ["x,y", "z"]
        assert np.array_equal(data, [[1.5, 2.0], [3.0, 4.0]])

    def test_unterminated_quote_names_its_line(self, tmp_path):
        # numpy would run a quoted cell on into the next line: 1,"2 + ",3 reads as 1,2,3
        path = tmp_path / "quote.csv"
        path.write_text('1,2,3\n1,"2\n",3\n')
        with pytest.raises(ShapeMismatchError, match="line 2: unterminated quote"):
            read_csv(path)

    @pytest.mark.parametrize("cell", ["1_0", "\uff11"], ids=["underscore", "fullwidth-digit"])
    def test_python_only_float_spellings_are_bad_cells(self, tmp_path, cell):
        path = tmp_path / "spelling.csv"
        path.write_text(f"a,b\n1,2\n{cell},3\n", encoding="utf-8")
        with pytest.raises(ShapeMismatchError, match=f": line 3, column 1: could not convert string '{cell}' to float64$"):
            read_csv(path)
        path.write_text(f"{cell},2\n1,2\n", encoding="utf-8")  # a first line in such a spelling is a header
        assert read_csv(path)[0] == [cell, "2"]

    def test_file_that_is_not_utf8_is_named(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes("a,b\n1,2\n3,\u00e9\n".encode("latin-1"))
        with pytest.raises(ShapeMismatchError, match=f"^{re.escape(str(path))}: not UTF-8: "):
            read_csv(path)

    def test_comments_are_decided_on_the_raw_line(self, tmp_path):
        path = tmp_path / "comment.csv"
        path.write_text('  # comment\n"#q",1\n1,2\n')
        header, data = read_csv(path)
        assert header == ["#q", "1"]
        assert np.array_equal(data, [[1.0, 2.0]])

    def test_array_rows_write_the_text_of_their_scalars(self, tmp_path):
        values = np.random.default_rng(35).standard_normal((6, 5)) * np.logspace(-310, 300, 5)
        values[0, :3] = [-0.0, 5e-324, np.finfo(float).max]
        write_csv(tmp_path / "array.csv", values, header=list("abcde"))
        write_csv(tmp_path / "scalars.csv", (list(row) for row in values), header=list("abcde"))
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "scalars.csv").read_bytes()

    def test_float_array_rows_write_the_per_cell_text(self, tmp_path):
        # 100k magnitudes over the whole float range, and the special values
        rng = np.random.default_rng(36)
        values = rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-323, 308, 100_000)
        special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, np.nan, np.inf, -np.inf,
                   np.finfo(float).max, -np.finfo(float).max, 0.1, 1.0 / 3]
        values = np.concatenate([values, special, np.zeros(7)]).reshape(-1, 20)
        write_csv(tmp_path / "array.csv", values)
        write_csv(tmp_path / "cells.csv", ([float(x) for x in row] for row in values))
        assert (tmp_path / "array.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    @pytest.mark.parametrize("values", [np.array([[1, -2], [3, 4]]), np.array([[True, False]])], ids=["int", "bool"])
    def test_integer_and_bool_arrays_keep_the_per_cell_text(self, tmp_path, values):
        write_csv(tmp_path / "array.csv", values)
        assert (tmp_path / "array.csv").read_text().splitlines() == [",".join(map(str, row)) for row in values.tolist()]

    def test_lines_are_parsed_as_they_are_read(self, tmp_path):
        # 2000 channels by 201 samples, the size of the N=2000 switching series:
        # the reader's peak stays near the array, not the file's text
        path = tmp_path / "series.csv"
        write_series_csv(path, make_series(np.random.default_rng(34), 2000, 201), manifest="m")
        tracemalloc.start()
        try:
            _, data = read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data.shape == (201, 2000)
        assert peak <= 1.5 * data.nbytes


class TestSnapshotPairValidation:
    def test_shape_consistency_enforced(self):
        with pytest.raises(ShapeMismatchError, match="must cover the same nonempty windows"):
            SnapshotPair(X=np.zeros((2, 3, 4)), Y=np.zeros((2, 3, 5)))
        with pytest.raises(ShapeMismatchError, match=r"X has 3 rows, expected P\*2 for an integer P >= 1"):
            SnapshotPair(X=np.zeros((3, 3, 4)), Y=np.zeros((2, 3, 4)))  # N_in != N*P

    def test_properties(self):
        pair = SnapshotPair(X=np.zeros((5, 3, 4)), Y=np.zeros((2, 3, 4)), affine=True)
        assert (pair.N, pair.N_in, pair.M, pair.T, pair.P) == (2, 5, 3, 4, 2)
        # the lag order, window length and window count are read from the tensors
        assert SnapshotPair(X=np.zeros((6, 3, 4)), Y=np.zeros((2, 3, 4))).P == 3
        assert [f.name for f in dataclasses.fields(SnapshotPair)] == ["X", "Y", "affine", "dropped"]
        for name in ("N", "N_in", "M", "T", "P"):
            assert isinstance(getattr(SnapshotPair, name), property)
            with pytest.raises(AttributeError):
                setattr(pair, name, 1)
