"""CSV and JSON input/output.

CSV layouts: narrow ``label,lo,hi`` for one series, wide
``label,lo_1,hi_1,...,lo_D,hi_D`` for several series sharing labels.  All
file writes go through a temp file and os.replace, and the JSON emitter is
deterministic (fixed float formatting, insertion-ordered keys) so repeated
runs produce identical bytes.  The emitter walks the document once and
formats its floats in batches, each distinct float of a batch once.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import tempfile
from io import StringIO
from json.encoder import encode_basestring_ascii as _json_string
from typing import Iterable, Sequence

import numpy as np

from .core import (
    CsvError,
    IntervalSeries,
    InvalidValueError,
    OutputError,
    ParameterError,
    ShapeError,
)

#: Significant digits for CSV floats.
CSV_DIGITS = 12

#: Significant digits for JSON floats; 17 round-trips float64 exactly.
JSON_DIGITS = 17

#: Spaces per nesting level of the JSON document.
JSON_INDENT = 2

#: Pending floats at which a closing container formats its batch.  A
#: component's record closes within one batch, so its interval channels
#: share their texts with the raw channels they copy.  Each batch's text is
#: joined as it is flushed, so at this size the pending floats and pieces
#: stay small beside the document's text: the traced peak of writing a
#: 1.6 MB weekly ``decompose`` document is 3.15 MB, and 6.2 MB as one batch.
_JSON_BATCH = 4096


def read_csv(path: str) -> list[IntervalSeries]:
    """Read interval series from a narrow or wide CSV file.

    The file is UTF-8, with or without a byte-order mark.  Structural
    problems and undecodable bytes raise CsvError with a 1-based line
    number; interval violations (lo > hi, non-finite endpoints) raise
    InvalidValueError naming the line.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise CsvError(f"cannot open {path}: {exc.strerror}", line=0) from None
    try:
        # utf-8-sig drops the byte-order mark spreadsheet exports write
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise CsvError(
            f"not UTF-8: byte {raw[exc.start]:#04x}",
            line=raw.count(b"\n", 0, exc.start) + 1,
        ) from None
    numbered = [
        (lineno, row)
        for lineno, row in enumerate(csv.reader(StringIO(text, newline="")), start=1)
        if row and any(cell.strip() for cell in row)
    ]
    if not numbered:
        raise CsvError("file has no header row", line=1)
    header_line, header = numbered[0]
    cols = [c.strip() for c in header]
    if cols == ["label", "lo", "hi"]:
        n_series = 1
    else:
        if cols[:1] != ["label"] or len(cols) < 3 or (len(cols) - 1) % 2 != 0:
            raise CsvError(
                f"unrecognized header {','.join(cols)!r}; expected "
                "'label,lo,hi' or 'label,lo_1,hi_1,...'",
                line=header_line,
            )
        n_series = (len(cols) - 1) // 2
        for s in range(n_series):
            want = (f"lo_{s + 1}", f"hi_{s + 1}")
            got = (cols[1 + 2 * s], cols[2 + 2 * s])
            if got != want:
                raise CsvError(
                    f"unrecognized header columns {got[0]!r},{got[1]!r}; "
                    f"expected {want[0]!r},{want[1]!r}",
                    line=header_line,
                )
    data = numbered[1:]
    if not data:
        raise CsvError("file has no data rows", line=header_line)
    labels: list[str] = []
    lo = np.empty((n_series, len(data)))
    hi = np.empty((n_series, len(data)))
    for t, (lineno, row) in enumerate(data):
        if len(row) != len(cols):
            raise CsvError(
                f"expected {len(cols)} fields, got {len(row)}", line=lineno
            )
        labels.append(row[0].strip())
        for s in range(n_series):
            raw_lo, raw_hi = row[1 + 2 * s].strip(), row[2 + 2 * s].strip()
            try:
                a = float(raw_lo)
                b = float(raw_hi)
            except ValueError:
                bad = raw_lo if _is_bad_float(raw_lo) else raw_hi
                raise CsvError(
                    f"non-numeric value {bad!r}", line=lineno
                ) from None
            if not (math.isfinite(a) and math.isfinite(b)):
                raise InvalidValueError(
                    f"non-finite endpoint at line {lineno}: [{raw_lo}, {raw_hi}]"
                )
            if a > b:
                raise InvalidValueError(
                    f"lower endpoint exceeds upper at line {lineno}: "
                    f"{a!r} > {b!r}"
                )
            lo[s, t] = a
            hi[s, t] = b
    tags = tuple(labels)
    return [
        IntervalSeries(lo[s], hi[s], labels=tags) for s in range(n_series)
    ]


def _is_bad_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return ""
        return format(v, f".{CSV_DIGITS}g")
    return str(value)


def check_regular_target(path: str) -> None:
    """Raise OutputError if path exists but is no regular file: a directory,
    a FIFO or a device, which ``os.replace`` would swap for a file."""
    if os.path.exists(path) and not os.path.isfile(path):
        kind = "Is a directory" if os.path.isdir(path) else "not a regular file"
        raise OutputError(f"cannot write {path}: {kind}")


def atomic_write_text(path: str, text: str) -> None:
    """Write text via a sibling temp file and os.replace; OSError -> OutputError."""
    check_regular_target(path)
    directory = os.path.dirname(os.path.abspath(path))
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".ivssa-", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            # mkstemp creates 0600 files; restore the umask-governed default
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OutputError(f"cannot write {path}: {exc.strerror}") from exc


def write_table_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a generic table with fixed float formatting, atomically; rows
    may be any iterable, such as ``zip`` over columns."""
    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in rows:
        writer.writerow([_format_cell(v) for v in row])
    atomic_write_text(path, buf.getvalue())


def series_columns(
    series: IntervalSeries | Sequence[IntervalSeries],
    labels: Sequence[str] | None = None,
) -> dict:
    """Named columns of one series (narrow layout) or several (wide layout);
    labels default to the first series' own, else 1..n."""
    if isinstance(series, IntervalSeries):
        group = [series]
    else:
        group = list(series)
    if not group:
        raise ParameterError("no series to write")
    n = len(group[0])
    for s in group[1:]:
        if len(s) != n:
            raise ShapeError("all series must share one length")
    if labels is None:
        labels = group[0].labels
    if labels is None:
        labels = range(1, n + 1)
    if len(labels) != n:
        raise ShapeError(f"got {len(labels)} labels for {n} rows")
    cols = {"label": labels}
    for s, y in enumerate(group, start=1):
        tag = f"_{s}" if len(group) > 1 else ""
        cols[f"lo{tag}"] = y.lo
        cols[f"hi{tag}"] = y.hi
    return cols


def write_series_csv(
    path: str,
    series: IntervalSeries | Sequence[IntervalSeries],
    labels: Sequence[str] | None = None,
) -> None:
    """Write one series (narrow layout) or several (wide layout)."""
    cols = series_columns(series, labels)
    write_table_csv(path, list(cols), zip(*cols.values()))


def _float_texts(a: np.ndarray) -> list[str]:
    """JSON texts of floats: one %-template, then a vectorised patch."""
    texts = ("\0".join((f"%.{JSON_DIGITS}g",) * a.size) % tuple(a.tolist())).split("\0")
    finite = np.isfinite(a)
    for i in np.flatnonzero(~finite):
        texts[i] = "null"
    # integral values below 1e17 print bare (0.0, -0.0, 3.0): keep them floats
    a = np.where(finite, a, 0.5)  # keeps nan out of the comparisons below
    for i in np.flatnonzero((a == np.trunc(a)) & (np.abs(a) < 10.0**JSON_DIGITS)):
        texts[i] += ".0"
    return texts


class _Doc:
    """One JSON document as it is written: the walk appends layout, keys,
    strings, ints, bools and nulls to ``out``, and each float scalar or
    float run (a non-empty 1-D float array, a row of a 2-D one, a list of
    floats) leaves an empty slot there.  ``flush`` fills the slots and
    moves the batch's text to ``done``."""

    def __init__(self) -> None:
        self.out: list[str] = []  # the text since the last flush
        self.done: list[str] = []  # the text of each flushed batch
        self.scalars: list[float] = []
        self.scalar_slots: list[int] = []
        self.runs: list[tuple[int, str, np.ndarray]] = []  # (index in out, separator, floats)
        self.pending = 0

    def walk(self, obj, level: int) -> None:
        out = self.out
        # exact ints and floats, most values of a record document, are
        # told apart by type alone: the checks below cost several times more
        kind = type(obj)
        if kind is int:
            out.append(str(obj))
        elif kind is float:
            self.scalar_slots.append(len(out))
            self.scalars.append(obj)
            self.pending += 1
            out.append("")
        elif isinstance(obj, str):
            out.append(_json_string(obj))
        elif obj is None:
            out.append("null")
        elif isinstance(obj, (bool, np.bool_)):
            out.append("true" if obj else "false")
        elif isinstance(obj, (int, np.integer)):
            out.append(str(int(obj)))
        elif isinstance(obj, (float, np.floating)):
            self.walk(float(obj), level)
        elif isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f" and obj.size:
            pad_in = " " * (JSON_INDENT * (level + 1))
            self.runs.append((len(out) + 1, ",\n" + pad_in, obj.astype(float, copy=False)))
            self.pending += obj.size
            out += ["[\n" + pad_in, "", "\n" + " " * (JSON_INDENT * level) + "]"]
        elif isinstance(obj, np.ndarray):
            # rows of a 2-D array are runs of their own
            self.walk(list(obj) if obj.ndim > 1 else obj.tolist(), level)
        elif isinstance(obj, (list, tuple)) and obj and all(isinstance(v, (float, np.floating)) for v in obj):
            self.walk(np.array(obj, dtype=float), level)
        elif isinstance(obj, (dict, list, tuple)):
            pad_in = " " * (JSON_INDENT * (level + 1))
            if isinstance(obj, dict):
                heads = [pad_in + _json_string(k if isinstance(k, str) else str(k)) + ": " for k in obj]
                values, brackets = obj.values(), "{}"
            else:
                heads, values, brackets = [pad_in] * len(obj), obj, "[]"
            if not obj:
                out.append(brackets)
                return
            sep, walk = brackets[0] + "\n", self.walk
            for head, value in zip(heads, values):
                out.append(sep + head)
                walk(value, level + 1)
                sep = ",\n"
            out.append("\n" + " " * (JSON_INDENT * level) + brackets[1])
            if self.pending >= _JSON_BATCH:
                self.flush()
        else:
            raise ParameterError(f"cannot serialize {type(obj).__name__} to JSON")

    def flush(self) -> None:
        """Fill the pending slots with one text per distinct float.  Floats
        are told apart by their int64 bits, on which a text depends: -0.0
        and 0.0, or two NaN payloads, keep texts of their own."""
        runs = [run for _, _, run in self.runs]
        bits = np.concatenate([np.array(self.scalars, dtype=float), *runs]).view(np.int64)
        distinct, inverse = np.unique(bits, return_inverse=True)
        texts = np.array(_float_texts(distinct.view(float)), dtype=object)[inverse].tolist()
        for slot, text in zip(self.scalar_slots, texts):
            self.out[slot] = text
        end = len(self.scalars)
        for slot, sep, run in self.runs:
            start, end = end, end + run.size
            self.out[slot] = sep.join(texts[start:end])
        self.scalars, self.scalar_slots, self.runs, self.pending = [], [], [], 0
        self.done.append("".join(self.out))
        self.out.clear()


def json_dumps(obj) -> str:
    """Deterministic JSON text: .17g floats that always carry a '.' or an
    exponent, NaN/inf as null, insertion order preserved."""
    doc = _Doc()
    doc.walk(obj, 0)
    doc.flush()
    return "".join(doc.done)


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json_dumps(obj) + "\n")
