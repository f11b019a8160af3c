import csv
import json

import numpy as np
import pytest

from zeroport import marketdata
from zeroport.marketdata import (
    DataError,
    PriceRelativeMatrix,
    clean_relatives,
    cleaning_report,
    load_csv,
    load_relatives_csv,
    select_tickers,
    to_relatives,
)

HEADER = "ticker,timestamp,open,high,low,close\n"


def write(tmp_path, body, name="bars.csv"):
    path = tmp_path / name
    path.write_text(HEADER + body)
    return path


def bars(ticker, rows):
    return "".join(
        f"{ticker},{ts},{o},{h},{lo},{c}\n" for ts, o, h, lo, c in rows
    )


class TestLoadCsv:
    def test_two_row_parse(self, tmp_path):
        path = write(tmp_path, bars("AAA", [
            ("2001-01-01", 10, 10, 10, 10),
            ("2001-01-02", 10.5, 11, 10.4, 11),
        ]))
        series = load_csv(path)
        assert len(series) == 1
        assert series[0].ticker == "AAA"
        assert len(series[0]) == 2
        np.testing.assert_allclose(series[0].close, [10.0, 11.0])

    def test_unsorted_rows_sorted_idempotently(self, tmp_path):
        rows = [("2001-01-03", 12, 12, 12, 12),
                ("2001-01-01", 10, 10, 10, 10),
                ("2001-01-02", 11, 11, 11, 11)]
        shuffled = load_csv(write(tmp_path, bars("AAA", rows)))
        ordered = load_csv(write(tmp_path, bars("AAA", sorted(rows)), name="sorted.csv"))
        np.testing.assert_array_equal(shuffled[0].close, ordered[0].close)
        assert shuffled[0].timestamps == ordered[0].timestamps

    def test_zero_price_flags_missing_not_error(self, tmp_path):
        path = write(tmp_path, bars("AAA", [
            ("2001-01-01", 10, 10, 10, 10),
            ("2001-01-02", 11, 11, 11, 0),
            ("2001-01-03", 12, 12, 12, 12),
        ]))
        series = load_csv(path)
        np.testing.assert_array_equal(series[0].missing, [False, True, False])

    def test_blank_price_flags_missing(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + "AAA,2001-01-01,10,10,10,\nAAA,2001-01-02,11,11,11,11\n")
        series = load_csv(path)
        assert series[0].missing[0]

    def test_duplicate_timestamp_rejected_with_row(self, tmp_path):
        path = write(tmp_path, bars("AAA", [
            ("2001-01-01", 10, 10, 10, 10),
            ("2001-01-01", 11, 11, 11, 11),
        ]))
        with pytest.raises(DataError, match="row 3"):
            load_csv(path)

    def test_garbled_price_reports_row(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + "AAA,2001-01-01,10,10,10,ten\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_bad_timestamp_reports_row(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text(HEADER + "AAA,yesterday,10,10,10,10\n")
        with pytest.raises(DataError, match="row 2"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text("ticker,timestamp,open\nAAA,2001-01-01,10\n")
        with pytest.raises(DataError, match="missing column"):
            load_csv(path)

    def test_schema_remap(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text("sym,date,o,h,l,c\nAAA,2001-01-01,1,1,1,1\nAAA,2001-01-02,2,2,2,2\n")
        series = load_csv(path, schema={"ticker": "sym", "timestamp": "date",
                                        "open": "o", "high": "h", "low": "l", "close": "c"})
        assert series[0].close.tolist() == [1.0, 2.0]

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        body = "\nAAA,2001-01-01,10,10,10,10\n\n\nAAA,2001-01-02,11,11,11,11\n\n"
        series = load_csv(write(tmp_path, body))
        assert series[0].close.tolist() == [10.0, 11.0]
        path = write(tmp_path, body + "AAA,2001-01-03,12,12,12,twelve\n", name="bad.csv")
        with pytest.raises(DataError, match="row 4: unparsable close price 'twelve'"):
            load_csv(path)

    def test_short_row_reads_blank_and_extra_fields_ignored(self, tmp_path):
        body = "AAA,2001-01-01,10,10\nAAA,2001-01-02,11,11,11,11,extra,fields\n"
        series = load_csv(write(tmp_path, body))
        assert series[0].missing.tolist() == [True, False]
        assert np.isnan(series[0].close[0]) and series[0].close[1] == 11.0
        with pytest.raises(DataError, match="row 4: unparsable ISO timestamp ''"):
            load_csv(write(tmp_path, body + "AAA\n", name="short.csv"))

    def test_repeated_column_name_reads_last(self, tmp_path):
        path = tmp_path / "bars.csv"
        path.write_text("ticker,timestamp,open,high,low,close,close\n"
                        "AAA,2001-01-01,1,1,1,9,2\nAAA,2001-01-02,1,1,1,9,3\n")
        assert load_csv(path)[0].close.tolist() == [2.0, 3.0]


class TestToRelatives:
    def _series(self, tmp_path, rows, ticker="AAA"):
        return load_csv(write(tmp_path, bars(ticker, rows)))

    def test_close_to_close_ratios(self, tmp_path):
        series = self._series(tmp_path, [
            ("2001-01-01", 10, 10, 10, 10),
            ("2001-01-02", 11, 11, 11, 11),
            ("2001-01-03", 9.9, 9.9, 9.9, 9.9),
        ])
        m = to_relatives(series, "close_to_close")
        np.testing.assert_allclose(m.values[:, 0], [1.1, 0.9])
        assert m.values.shape == (2, 1)

    def test_open_to_close_no_lag(self, tmp_path):
        series = self._series(tmp_path, [
            ("2001-01-01", 10, 10, 10, 10),
            ("2001-01-02", 11, 11, 11, 11),
        ])
        m = to_relatives(series, "open_to_close")
        np.testing.assert_allclose(m.values[:, 0], [1.0, 1.0])
        assert m.values.shape == (2, 1)

    def test_close_to_open_hand_ratio(self, tmp_path):
        series = self._series(tmp_path, [
            ("2001-01-01", 10.5, 11, 10, 10),
            ("2001-01-02", 10.8, 11, 10, 11),
        ])
        m = to_relatives(series, "close_to_open")
        np.testing.assert_allclose(m.values[:, 0], [1.08])

    def test_open_to_open(self, tmp_path):
        series = self._series(tmp_path, [
            ("2001-01-01", 10.0, 11, 10, 10),
            ("2001-01-02", 12.5, 13, 12, 12),
        ])
        m = to_relatives(series, "open_to_open")
        np.testing.assert_allclose(m.values[:, 0], [1.25])

    def test_constant_prices_all_conventions_give_ones(self, tmp_path):
        series = self._series(tmp_path, [
            (f"2001-01-{d:02d}", 7, 7, 7, 7) for d in range(1, 6)
        ])
        for conv in marketdata.CONVENTIONS:
            m = to_relatives(series, conv)
            np.testing.assert_array_equal(m.values, np.ones_like(m.values))

    def test_lag_drops_one_period_only_when_needed(self, tmp_path):
        series = self._series(tmp_path, [
            (f"2001-01-{d:02d}", 10 + d, 11 + d, 9 + d, 10 + d) for d in range(1, 5)
        ])
        assert to_relatives(series, "close_to_close").values.shape[0] == 3
        assert to_relatives(series, "open_to_close").values.shape[0] == 4

    def test_union_calendar_missing_bar_becomes_one(self, tmp_path):
        body = bars("AAA", [("2001-01-01", 10, 10, 10, 10),
                            ("2001-01-02", 11, 11, 11, 11),
                            ("2001-01-03", 12, 12, 12, 12)])
        body += bars("BBB", [("2001-01-01", 5, 5, 5, 5),
                             ("2001-01-03", 6, 6, 6, 6)])
        m = to_relatives(load_csv(write(tmp_path, body)), "close_to_close")
        assert m.tickers == ["AAA", "BBB"]
        col = m.tickers.index("BBB")
        np.testing.assert_array_equal(m.values[:, col], [1.0, 1.0])
        np.testing.assert_array_equal(m.cleaned[:, col], [True, True])

    def test_single_period_rejected(self, tmp_path):
        series = self._series(tmp_path, [("2001-01-01", 10, 10, 10, 10)])
        with pytest.raises(DataError, match="fewer than 2"):
            to_relatives(series, "close_to_close")

    def test_unknown_convention(self, tmp_path):
        series = self._series(tmp_path, [("2001-01-01", 10, 10, 10, 10),
                                         ("2001-01-02", 10, 10, 10, 10)])
        with pytest.raises(ValueError):
            to_relatives(series, "close_to_yesterday")


def matrix_of(values, cleaned=None):
    values = np.asarray(values, dtype=float)
    cleaned = (np.zeros_like(values, dtype=bool) if cleaned is None
               else np.asarray(cleaned, dtype=bool))
    return PriceRelativeMatrix(
        values=values,
        tickers=[f"T{j}" for j in range(values.shape[1])],
        timestamps=[str(i) for i in range(values.shape[0])],
        cleaned=cleaned,
    )


class TestCleanRelatives:
    def test_low_outlier_replaced(self):
        m = clean_relatives(matrix_of([[0.5, 1.0]]))
        np.testing.assert_array_equal(m.values, [[1.0, 1.0]])
        np.testing.assert_array_equal(m.cleaned, [[True, False]])

    def test_interior_untouched(self):
        m0 = matrix_of([[0.8, 1.2], [1.0, 1.29]])
        m = clean_relatives(m0)
        np.testing.assert_array_equal(m.values, m0.values)
        assert not m.cleaned.any()

    def test_high_outlier_just_past_threshold(self):
        m = clean_relatives(matrix_of([[1.31]]))
        np.testing.assert_array_equal(m.values, [[1.0]])

    def test_exact_boundaries_survive(self):
        m = clean_relatives(matrix_of([[0.7, 1.3]]))
        np.testing.assert_array_equal(m.values, [[0.7, 1.3]])
        assert not m.cleaned.any()

    def test_idempotent(self, rng):
        values = np.exp(rng.normal(0, 0.4, size=(20, 3)))
        once = clean_relatives(matrix_of(values))
        twice = clean_relatives(once)
        np.testing.assert_array_equal(once.values, twice.values)
        np.testing.assert_array_equal(once.cleaned, twice.cleaned)

    def test_custom_thresholds_validated(self):
        with pytest.raises(ValueError):
            clean_relatives(matrix_of([[1.0]]), lo=1.1, hi=1.3)

    def test_report_counts_per_ticker(self):
        m = clean_relatives(matrix_of([[0.5, 1.0], [1.5, 1.0], [1.0, 0.6]]))
        report = cleaning_report(m)
        assert report["replaced"] == {"T0": 2, "T1": 1}
        assert report["total"] == 3

    def test_report_json_round_trip(self, tmp_path):
        m = clean_relatives(matrix_of([[0.5, 1.0]]))
        path = tmp_path / "report.json"
        marketdata.write_cleaning_report(m, path)
        assert json.loads(path.read_text())["total"] == 1


class TestRelativesCsv:
    def test_round_trip_byte_identical(self, tmp_path, rng):
        m = matrix_of(np.exp(rng.normal(0, 0.02, size=(15, 3))))
        path = tmp_path / "a.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(m.tickers)
            writer.writerows([repr(float(v)) for v in row] for row in m.values)
        again = load_relatives_csv(path)
        assert again.tickers == m.tickers
        np.testing.assert_array_equal(again.values, m.values)

    def test_ragged_row_reports_row_number(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("A,B\n1.0,1.1\n1.0\n")
        with pytest.raises(DataError, match="row 3"):
            load_relatives_csv(path)

    def test_blank_lines_not_counted_in_row_number(self, tmp_path):
        # The bad row is on line 5, after two blank lines: row 3, as load_csv counts.
        path = tmp_path / "wide.csv"
        path.write_text("A,B\n1.0,1.1\n\n\n1.0,x\n")
        with pytest.raises(DataError, match="row 3: unparsable relative"):
            load_relatives_csv(path)
        path.write_text("A,B\n\n1.0,1.0\n\n1.0," + "1" * 131_073 + "\n")  # past csv's field limit
        with pytest.raises(DataError, match="row 3: malformed CSV"):
            load_relatives_csv(path)

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("A,B\n1.0,-0.5\n")
        with pytest.raises(DataError):
            load_relatives_csv(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_relatives_csv(path)

    def test_select_tickers_subset_order(self, tmp_path):
        m = matrix_of([[1.0, 1.1, 0.9], [1.2, 1.0, 1.0]])
        sub = select_tickers(m, ["T2", "T0"])
        assert sub.tickers == ["T2", "T0"]
        np.testing.assert_array_equal(sub.values[:, 0], m.values[:, 2])
        with pytest.raises(DataError):
            select_tickers(m, ["T9"])


@pytest.mark.parametrize("load", [load_csv, load_relatives_csv])
class TestUnreadableFile:
    def test_directory_is_data_error(self, tmp_path, load):
        with pytest.raises(DataError, match="cannot read"):
            load(tmp_path)

    def test_missing_file_is_data_error(self, tmp_path, load):
        with pytest.raises(DataError, match="cannot read"):
            load(tmp_path / "nope.csv")

    def test_undecodable_bytes_are_data_error(self, tmp_path, load):
        path = tmp_path / "binary.csv"
        path.write_bytes(b"A,B\n\xff\xfe,1.0\n")
        with pytest.raises(DataError, match="cannot read"):
            load(path)

    def test_oversized_field_is_data_error_with_row(self, tmp_path, load):
        # csv's default field limit is 131 072 characters.
        path = tmp_path / "big.csv"
        head = HEADER + "AAA,2001-01-01,10,10,10,10\nAAA,2001-01-02,11,11,11," \
            if load is load_csv else "A,B\n1.0,1.0\n1.0,"
        path.write_text(head + "1" * 131_073 + "\n")
        with pytest.raises(DataError, match="row 3: malformed CSV: field larger than"):
            load(path)


class TestMatrixInvariants:
    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            matrix_of([[np.inf, 1.0]])

    def test_rejects_cleaned_not_one(self):
        with pytest.raises(ValueError):
            matrix_of([[1.5]], cleaned=[[True]])

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            PriceRelativeMatrix(values=np.ones((2, 2)), tickers=["A"],
                                timestamps=["1", "2"], cleaned=np.zeros((2, 2), dtype=bool))
