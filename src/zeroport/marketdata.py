"""OHLC bar ingestion and price-relative feature construction.

The engine never sees prices, only per-period gross returns ("price
relatives").  Bars arrive as long-format CSV (one row per ticker per
timestamp); pre-computed relatives arrive as wide CSV (header = tickers).
Four pairing conventions turn bars into relatives:

    close_to_close  c_t / c_{t-1}
    open_to_close   c_t / o_t        (same bar, no lag)
    close_to_open   o_t / c_{t-1}
    open_to_open    o_t / o_{t-1}

Bars missing from a ticker's calendar, non-positive prices, and relatives
outside the split/merger thresholds all become a relative of exactly 1 and
are tracked in the matrix's ``cleaned`` mask, from which the cleaning
report is built.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import closing
from dataclasses import dataclass, replace
from datetime import datetime

import numpy as np

CONVENTIONS = ("close_to_close", "open_to_close", "close_to_open", "open_to_open")

DEFAULT_SCHEMA = {
    "ticker": "ticker",
    "timestamp": "timestamp",
    "open": "open",
    "high": "high",
    "low": "low",
    "close": "close",
}

SPLIT_LO = 0.7
SPLIT_HI = 1.3


class DataError(ValueError):
    """Malformed market data; carries the offending 1-based CSV row."""

    def __init__(self, message: str, row: int | None = None):
        self.message = message
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)

    def __reduce__(self):
        return type(self), (self.message, self.row)


def _lines(path):
    """Lines of a text file, read lazily; an unreadable file is a DataError."""
    try:
        with open(path, newline="") as fh:
            yield from fh
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def _parse_timestamp(raw: str, row: int) -> datetime:
    try:
        return datetime.fromisoformat(raw)
    except ValueError as exc:
        raise DataError(f"unparsable ISO timestamp {raw!r}", row) from exc


@dataclass(frozen=True)
class OhlcSeries:
    """One ticker's bar history on a strictly increasing calendar."""

    ticker: str
    timestamps: tuple
    open: np.ndarray
    high: np.ndarray
    low: np.ndarray
    close: np.ndarray
    missing: np.ndarray

    def __post_init__(self):
        n = len(self.timestamps)
        for name in ("open", "high", "low", "close", "missing"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{self.ticker}: field {name} length mismatch")
        if any(b >= a for a, b in zip(self.timestamps[1:], self.timestamps)):
            raise ValueError(f"{self.ticker}: timestamps not strictly increasing")
        ok = ~self.missing
        for name in ("open", "high", "low", "close"):
            vals = getattr(self, name)[ok]
            if vals.size and (not np.all(np.isfinite(vals)) or np.any(vals <= 0)):
                raise ValueError(f"{self.ticker}: non-positive {name} on a present bar")

    def __len__(self):
        return len(self.timestamps)


@dataclass(frozen=True)
class PriceRelativeMatrix:
    """T x M grid of gross returns; the engine's sole feature input."""

    values: np.ndarray
    tickers: list
    timestamps: list
    cleaned: np.ndarray

    def __post_init__(self):
        v = self.values
        if v.ndim != 2:
            raise ValueError("relatives must be 2-d")
        if v.shape != self.cleaned.shape:
            raise ValueError("cleaned mask shape mismatch")
        if v.shape[1] != len(self.tickers) or v.shape[0] != len(self.timestamps):
            raise ValueError("labels do not match matrix shape")
        if not np.all(np.isfinite(v)) or np.any(v <= 0):
            raise ValueError("relatives must be finite and positive")
        if not np.all(v[self.cleaned] == 1.0):
            raise ValueError("cleaned entries must equal exactly 1")

    @property
    def shape(self):
        return self.values.shape


def load_csv(path, schema: dict | None = None, delimiter: str = ",") -> list:
    """Parse long-format OHLC CSV into one series per ticker.

    Rows may arrive unsorted; duplicate (ticker, timestamp) pairs are
    rejected.  A non-positive or blank price flags the bar missing rather
    than failing the load; anything unparsable raises with its row number.
    Rows are numbered from 2 without counting blank lines; a short row reads
    as blank in its missing fields, and extra fields are ignored.
    """
    cols = dict(DEFAULT_SCHEMA, **(schema or {}))
    fields = ("open", "high", "low", "close")
    per_ticker: dict = {}
    parsed: dict = {}  # timestamp text -> datetime, each parsed once
    rownum = 0  # the last row read
    with closing(_lines(path)) as lines:
        reader = csv.reader(lines, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError("empty file")
            rownum = 1
            pos = {name: i for i, name in enumerate(header)}  # a repeated name: its last column
            for key in cols.values():
                if key not in pos:
                    raise DataError(f"missing column {key!r} (have {header})")
            i_ticker, i_stamp = pos[cols["ticker"]], pos[cols["timestamp"]]
            i_prices = [pos[cols[f]] for f in fields]
            width = max(pos.values()) + 1
            for rec in reader:
                if not rec:
                    continue
                rownum += 1
                if len(rec) < width:
                    rec += [""] * (width - len(rec))
                ticker = rec[i_ticker].strip()
                if not ticker:
                    raise DataError("blank ticker", rownum)
                raw = rec[i_stamp].strip()
                ts = parsed.get(raw)
                if ts is None:
                    ts = parsed[raw] = _parse_timestamp(raw, rownum)
                prices = []
                missing = False
                for f, i in zip(fields, i_prices):
                    raw = rec[i].strip()
                    if raw == "" or raw.lower() == "nan":
                        prices.append(math.nan)
                        missing = True
                        continue
                    try:
                        val = float(raw)
                    except ValueError as exc:
                        raise DataError(f"unparsable {f} price {raw!r}", rownum) from exc
                    if not 0 < val < math.inf:
                        missing = True
                    prices.append(val)
                per_ticker.setdefault(ticker, []).append((ts, prices, missing, rownum))
        except csv.Error as exc:
            raise DataError(f"malformed CSV: {exc}", rownum + 1) from exc

    out = []
    for ticker in sorted(per_ticker):
        rows = sorted(per_ticker[ticker], key=lambda item: item[0])
        for (ts1, _, _, r1), (ts2, _, _, r2) in zip(rows, rows[1:]):
            if ts1 == ts2:
                raise DataError(f"duplicate timestamp {ts1.isoformat()} for {ticker}", r2)
        stamps = tuple(r[0] for r in rows)
        arr = np.array([r[1] for r in rows], dtype=float)
        missing = np.array([r[2] for r in rows], dtype=bool)
        out.append(OhlcSeries(
            ticker=ticker, timestamps=stamps,
            open=arr[:, 0], high=arr[:, 1], low=arr[:, 2], close=arr[:, 3],
            missing=missing,
        ))
    return out


def to_relatives(series, convention: str) -> PriceRelativeMatrix:
    """Relatives under one pairing convention on the union calendar.

    Tickers missing a bar (or flagged missing) get a relative of exactly 1
    there, marked in the cleaned mask; lagged conventions drop the first
    calendar entry.
    """
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; pick one of {CONVENTIONS}")
    if not series:
        raise DataError("no series to align")
    calendar = sorted({ts for s in series for ts in s.timestamps})
    if len(calendar) < 2:
        raise DataError("fewer than 2 periods: relatives matrix would be empty")
    index = {ts: i for i, ts in enumerate(calendar)}
    t_cal, m = len(calendar), len(series)

    opens = np.full((t_cal, m), np.nan)
    closes = np.full((t_cal, m), np.nan)
    for j, s in enumerate(series):
        rows = [index[ts] for ts in s.timestamps]
        ok = ~s.missing
        opens[np.asarray(rows)[ok], j] = s.open[ok]
        closes[np.asarray(rows)[ok], j] = s.close[ok]

    if convention == "close_to_close":
        num, den, lag = closes[1:], closes[:-1], True
    elif convention == "open_to_open":
        num, den, lag = opens[1:], opens[:-1], True
    elif convention == "close_to_open":
        num, den, lag = opens[1:], closes[:-1], True
    else:  # open_to_close, same bar
        num, den, lag = closes, opens, False

    with np.errstate(invalid="ignore", divide="ignore"):
        values = num / den
    cleaned = ~np.isfinite(values)
    values = np.where(cleaned, 1.0, values)
    stamps = [ts.isoformat() if isinstance(ts, datetime) else str(ts)
              for ts in (calendar[1:] if lag else calendar)]
    return PriceRelativeMatrix(
        values=values,
        tickers=[s.ticker for s in series],
        timestamps=stamps,
        cleaned=cleaned,
    )


def clean_relatives(matrix: PriceRelativeMatrix, lo: float = SPLIT_LO,
                    hi: float = SPLIT_HI) -> PriceRelativeMatrix:
    """Replace split/merger outliers with a relative of exactly 1.

    Entries strictly outside [lo, hi] are replaced (exact boundary values
    survive); already-cleaned entries stay cleaned, making the operation
    idempotent.
    """
    if not lo < 1.0 < hi:
        raise ValueError(f"thresholds must straddle 1: got lo={lo}, hi={hi}")
    outlier = (matrix.values < lo) | (matrix.values > hi)
    values = np.where(outlier, 1.0, matrix.values)
    return replace(matrix, values=values, cleaned=matrix.cleaned | outlier)


def cleaning_report(matrix: PriceRelativeMatrix) -> dict:
    """Replaced-cell counts per ticker, JSON-ready."""
    counts = matrix.cleaned.sum(axis=0)
    return {
        "replaced": {t: int(c) for t, c in zip(matrix.tickers, counts)},
        "total": int(matrix.cleaned.sum()),
        "periods": int(matrix.values.shape[0]),
    }


def write_cleaning_report(matrix: PriceRelativeMatrix, path):
    with open(path, "w") as fh:
        json.dump(cleaning_report(matrix), fh, indent=2)


def load_relatives_csv(path, delimiter: str = ",") -> PriceRelativeMatrix:
    """Wide pre-computed relatives: header = tickers, T data rows.

    This is the passthrough mode for files that already ship relatives
    (e.g. the public NYSE test sets); no ratios are computed.  Blank rows
    are skipped and, as in :func:`load_csv`, not counted in row numbers.
    """
    rows, rownum = [], 0  # rownum: the last row read
    with closing(_lines(path)) as lines:
        reader = csv.reader(lines, delimiter=delimiter)
        try:
            header = next(reader, None)
            if header is None:
                raise DataError("empty file")
            rownum = 1
            tickers = [h.strip() for h in header]
            if not tickers or any(not t for t in tickers):
                raise DataError("header must name one ticker per column")
            for rec in reader:
                if not rec or all(not cell.strip() for cell in rec):
                    continue
                rownum += 1
                if len(rec) != len(tickers):
                    raise DataError(f"expected {len(tickers)} columns, got {len(rec)}", rownum)
                try:
                    rows.append([float(cell) for cell in rec])
                except ValueError as exc:
                    raise DataError(f"unparsable relative in {rec!r}", rownum) from exc
        except csv.Error as exc:
            raise DataError(f"malformed CSV: {exc}", rownum + 1) from exc
    if not rows:
        raise DataError("no data rows")
    values = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(values)) or np.any(values <= 0):
        raise DataError("relatives must be finite and positive")
    return PriceRelativeMatrix(
        values=values,
        tickers=tickers,
        timestamps=[str(i + 1) for i in range(len(rows))],
        cleaned=np.zeros(values.shape, dtype=bool),
    )


def select_tickers(matrix: PriceRelativeMatrix, tickers) -> PriceRelativeMatrix:
    """Column subset in the requested order."""
    pos = {t: i for i, t in enumerate(matrix.tickers)}
    missing = [t for t in tickers if t not in pos]
    if missing:
        raise DataError(f"unknown tickers {missing}; available: {matrix.tickers[:8]}...")
    cols = [pos[t] for t in tickers]
    return PriceRelativeMatrix(
        values=matrix.values[:, cols].copy(),
        tickers=list(tickers),
        timestamps=list(matrix.timestamps),
        cleaned=matrix.cleaned[:, cols].copy(),
    )
