"""The one text format of every run artifact, and atomic file writes.

An artifact is optional ``# ...`` comment lines, allowed only before the
first data line, then either a CSV table whose first row names the columns
or ``key=value`` lines. Every read failure ends in :class:`FormatError` with
a ``<path>:<line>:`` message (``<path>:`` where no line applies); every
number in one goes through :func:`number` or its bulk twin :func:`numbers`,
which gives the same verdicts. Tables are read as a stream, and the numeric
ones are converted :data:`READ_BLOCK` rows at a time by :func:`number_blocks`.
Every write goes to ``<path>.tmp``, which then replaces ``path``, so no
reader ever sees a half-written file.
"""

from __future__ import annotations

import csv
import io
import itertools
import os
from contextlib import contextmanager
from math import isfinite, isnan
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError

# Rows that number_rows formats at a time: its table of distinct cells holds
# a Python string per cell, so this bounds the transient memory of a wide
# table (512 rows of the shipped instances.csv are about 50k cells) and takes
# a whole stay of hourly rows at the shipped lengths of stay.
NUMBER_BLOCK = 512
# Rows that number_blocks converts at a time: a block's cells are Python
# strings until they are converted, so this, not a file's length, bounds the
# transient memory of a numeric table's reader. Like NUMBER_BLOCK, 512 rows of
# the shipped instances.csv are about 50k cells; blocks of 4,096 rows raised
# the peak RSS of a 300-patient gen + extract + instance read by 12 MB.
READ_BLOCK = 512


def number(raw: str, kind: type = float):
    """``kind(raw)`` (``float`` or ``int``) for a finite number written without
    ``_`` digit separators, which ``float`` and ``int`` would accept, so that
    one changed byte cannot load as a different number; ValueError otherwise."""
    if "_" in raw:
        raise ValueError(f"bad number {raw!r}")
    value = kind(raw)
    if not isfinite(value):
        raise ValueError(f"non-finite number {raw!r}")
    return value


def numbers(cells: list[str], empty_is_missing: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """:func:`number` over many cells at once: the values, NaN where a cell is
    rejected, and a mask of the accepted cells. With ``empty_is_missing`` an
    empty cell is accepted as NaN (a literal ``nan`` is still rejected)."""
    text = [c or "nan" for c in cells] if empty_is_missing else cells
    try:
        values = np.fromiter(map(float, text), np.float64, len(text))
        if "_" in "".join(text):
            raise ValueError("digit separator")
    except ValueError:  # some cell is bad: find which, one at a time
        values = np.array([_number_or_nan(c) for c in text], dtype=np.float64)
    accepted = np.isfinite(values)
    values[~accepted] = np.nan
    if empty_is_missing:
        accepted |= np.fromiter(map(len, cells), np.int64, len(cells)) == 0
    return values, accepted


def first_rejected(cells: Sequence[str], empty_is_missing: bool = False) -> str:
    """The first of ``cells`` that :func:`numbers` rejects; call it on a row
    that its mask does not accept throughout."""
    return next(c for c in cells if (c or not empty_is_missing) and isnan(_number_or_nan(c)))


def _number_or_nan(raw: str) -> float:
    try:
        return number(raw)
    except ValueError:
        return float("nan")


def number_rows(values: np.ndarray) -> Iterator[str]:
    """Each row of the 2-D float array ``values`` as CSV cells: ``repr`` of
    each number, an empty cell for NaN. Rows go in blocks of
    ``NUMBER_BLOCK``, and each distinct bit pattern of a block is formatted
    once (so ``0.0`` and ``-0.0`` stay apart)."""
    for start in range(0, len(values), NUMBER_BLOCK):
        block = np.ascontiguousarray(values[start : start + NUMBER_BLOCK], dtype=np.float64)
        bits, cells = np.unique(block.view(np.int64), return_inverse=True)
        distinct = bits.view(np.float64)
        text = np.array(list(map(float.__repr__, distinct.tolist())), dtype=object)
        text[np.isnan(distinct)] = ""
        yield from map(",".join, text[cells].reshape(block.shape).tolist())


def csv_row(cells: Sequence) -> str:
    """``cells`` as :func:`write_table` writes them in one row, without the
    line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow(cells)
    return buf.getvalue()


@contextmanager
def atomic_open(path):
    """Write text to ``<path>.tmp``, its directory made if missing; move it onto
    ``path`` only once the block succeeds, and remove it if the block raises."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write(path, header_comment: str | None, note: str | None, body) -> None:
    with atomic_open(path) as fh:
        if header_comment:
            fh.write(f"# {header_comment}\n")
        if note is not None:
            fh.write(f"# {note}\n")
        body(fh)


def write_table(path, columns: Sequence[str], rows: Iterable[Sequence], header_comment: str | None = None) -> None:
    """The comment line, the column row, then one CSV row per item of ``rows``."""
    _write(path, header_comment, None, lambda fh: csv.writer(fh).writerows(itertools.chain([columns], rows)))


def write_lines(path, columns: Sequence[str], lines: Iterable[str], header_comment: str | None = None) -> None:
    """:func:`write_table` for data rows already joined by :func:`csv_row`
    and :func:`number_rows`; lines end in CR LF, as csv.writer's do."""
    rows = itertools.chain([csv_row(columns)], lines)
    _write(path, header_comment, None, lambda fh: fh.writelines(f"{row}\r\n" for row in rows))


def write_fields(path, items: Iterable[tuple], header_comment: str | None = None, note: str | None = None) -> None:
    """The comment line, ``note`` as a second comment line, then ``key=value`` lines."""
    _write(path, header_comment, note, lambda fh: fh.writelines(f"{k}={v}\n" for k, v in items))


def write_text(path, lines: Iterable[str], header_comment: str | None = None) -> None:
    """The comment line, then each of ``lines`` as is."""
    _write(path, header_comment, None, lambda fh: fh.writelines(f"{line}\n" for line in lines))


def _lines(path):
    """The file's lines as text; I/O and decoding failures end in FormatError."""
    try:
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    yield raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise FormatError(f"{path}:{lineno}: not UTF-8 ({exc.reason})") from None
    except OSError as exc:
        raise FormatError(f"{path}: cannot read: {exc.strerror or exc}") from None


def read_table(path, columns: Sequence[str]) -> Iterator[tuple[int, list[str]]]:
    """``(line number, cells)`` per data row of a table whose column row must
    equal ``columns``, as the rows are read; blank lines are skipped."""
    columns, header = list(columns), None
    reader = csv.reader(_lines(path))
    try:
        for row in reader:
            if not row or (header is None and row[0].startswith("#")):
                continue
            if header is None:
                header = row
                if row != columns:
                    raise FormatError(f"{path}:{reader.line_num}: unexpected header {row}")
            elif row[0].startswith("#"):
                raise FormatError(f"{path}:{reader.line_num}: comment line after the data began")
            elif len(row) != len(columns):
                raise FormatError(f"{path}:{reader.line_num}: expected {len(columns)} cells, got {len(row)}")
            else:
                yield reader.line_num, row
    except csv.Error as exc:
        raise FormatError(f"{path}:{reader.line_num}: {exc}") from None
    if header is None:
        raise FormatError(f"{path}: missing header row")


def number_blocks(
    path, columns: Sequence[str], first: int, empty_is_missing: bool = False
) -> Iterator[tuple[list[tuple[int, list[str]]], np.ndarray, np.ndarray]]:
    """:func:`read_table` in blocks of up to :data:`READ_BLOCK` rows: each
    block's ``(line number, cells)`` rows, the (rows, cells) float array of
    the cells from column ``first`` on (:func:`numbers`, so NaN where a cell
    is rejected) and a per-row mask of the rows whose cells were all
    accepted. A structural error (a bad row, a CSV or decoding error) is
    raised only after the rows before it have been handed out, so that a
    caller that checks each block in order reports the first bad line of
    the file."""
    rows, width = read_table(path, columns), len(columns) - first
    while True:
        block: list[tuple[int, list[str]]] = []
        error = None
        try:
            for row in itertools.islice(rows, READ_BLOCK):
                block.append(row)
        except FormatError as exc:
            error = exc
        if block:
            values, accepted = numbers([cell for _, cells in block for cell in cells[first:]], empty_is_missing)
            yield block, values.reshape(-1, width), accepted.reshape(-1, width).all(axis=1)
        if error is not None:
            raise error
        if len(block) < READ_BLOCK:
            return


class Fields(dict):
    """``key -> value``; ``line`` maps each key to its line number."""

    line: dict[str, int]


def read_fields(path) -> Fields:
    """The ``key=value`` lines; blank lines are skipped, a repeated key is an error."""
    out = Fields()
    out.line = {}
    for lineno, raw in enumerate(_lines(path), start=1):
        line = raw.strip()
        if not line or (not out and line.startswith("#")):
            continue
        if line.startswith("#") or "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        if key in out:
            raise FormatError(f"{path}:{lineno}: repeated key {key!r}")
        out[key], out.line[key] = value, lineno
    return out
