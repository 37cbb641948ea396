"""CSV and JSON input/output.

CSV layouts: narrow ``label,lo,hi`` for one series, wide
``label,lo_1,hi_1,...,lo_D,hi_D`` for several series sharing labels.  All
file writes go through a temp file and os.replace, and the JSON emitter is
deterministic (fixed float formatting, insertion-ordered keys) so repeated
runs produce identical bytes.  A float's text depends only on its bits, so
the emitter formats each distinct float of a dict's arrays once, and a list
of flat records one column at a time, with the bytes unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import tempfile
from io import StringIO
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

#: Exact types whose JSON text depends only on (type, value), and the
#: types the emitter writes over several lines.
_PLAIN = {str, int, bool, type(None)}
_NESTED = (dict, list, tuple, np.ndarray)


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
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if not math.isfinite(v):
            return ""
        return format(v, f".{CSV_DIGITS}g")
    return str(value)


def atomic_write_text(path: str, text: str) -> None:
    """Write text via a sibling temp file and os.replace; OSError -> OutputError."""
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


def _float_texts(values) -> list[str]:
    """JSON texts of floats: one %-template, then a vectorised patch."""
    texts = ("\0".join((f"%.{JSON_DIGITS}g",) * len(values)) % tuple(values)).split("\0")
    a = np.asarray(values, dtype=float)
    finite = np.isfinite(a)
    for i in np.flatnonzero(~finite):
        texts[i] = "null"
    # integral values below 1e17 print bare (0.0, -0.0, 3.0): keep them floats
    a = np.where(finite, a, 0.5)  # keeps nan out of the comparisons below
    for i in np.flatnonzero((a == np.trunc(a)) & (np.abs(a) < 10.0**JSON_DIGITS)):
        texts[i] += ".0"
    return texts


def _shared_texts(runs: list[np.ndarray]) -> list[list[str]]:
    """The texts of each float array in ``runs``, formatting each distinct
    float once.  A text depends only on the float's bits, so floats are
    told apart by their int64 bit pattern: -0.0 and 0.0, or two NaN
    payloads, keep texts of their own."""
    bits = np.concatenate([r.astype(float, copy=False) for r in runs]).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(_float_texts(distinct.view(float).tolist()), dtype=object)
    ends = np.cumsum([r.size for r in runs])
    return [texts[k].tolist() for k in np.split(inverse.ravel(), ends[:-1])]


def _emit_texts(texts: list[str], out: list[str], level: int) -> None:
    """A non-empty run of formatted values, one per line, with one join."""
    pad_in = " " * (JSON_INDENT * (level + 1))
    out.append("[\n" + pad_in + (",\n" + pad_in).join(texts))
    out.append("\n" + " " * (JSON_INDENT * level) + "]")


def _column_texts(values: list, level: int) -> list[str]:
    """JSON texts of one column of records: floats and None (null, as NaN
    is) formatted together, else each distinct str, int or bool once."""
    if all(v is None or isinstance(v, float) for v in values):
        return _float_texts([math.nan if v is None else v for v in values])
    seen = {(type(v), v): v for v in values if type(v) in _PLAIN}
    seen = {key: _json_text(v, level) for key, v in seen.items()}
    return [seen[type(v), v] if type(v) in _PLAIN else _json_text(v, level) for v in values]


def _emit_records(records, out: list[str], level: int) -> None:
    """A list of flat dicts that share their keys in order: the key
    prefixes are built once and each column's values are formatted
    together."""
    pad = " " * (JSON_INDENT * (level + 1))
    keys = list(records[0])
    heads = [" " * (JSON_INDENT * (level + 2)) + json.dumps(k) + ": " for k in keys]
    columns = [_column_texts([r[k] for r in records], level + 2) for k in keys]
    close = "\n" + pad + "}"
    body = (",\n" + pad).join(
        "{\n" + ",\n".join(map(str.__add__, heads, row)) + close for row in zip(*columns)
    )
    out.append("[\n" + pad + body + "\n" + " " * (JSON_INDENT * level) + "]")


def _is_records(obj) -> bool:
    """Whether a list holds dicts with one order of str keys, the first of
    them non-empty and flat: records of arrays keep the dict path's shared
    texts."""
    keys = list(obj[0]) if isinstance(obj[0], dict) else []
    flat = keys and all(type(k) is str and not isinstance(obj[0][k], _NESTED) for k in keys)
    return bool(flat) and all(isinstance(r, dict) and list(r) == keys for r in obj)


def _is_run(obj) -> bool:
    return isinstance(obj, np.ndarray) and obj.ndim == 1 and obj.dtype.kind == "f" and obj.size > 0


def _emit_json(obj, out: list[str], level: int) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, bool) or isinstance(obj, np.bool_):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_float_texts([float(obj)])[0])
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        if _is_run(obj):
            _emit_texts(_float_texts(obj.tolist()), out, level)
        else:
            # rows of a 2-D array are runs of their own
            _emit_json(list(obj) if obj.ndim > 1 else obj.tolist(), out, level)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pad_in = " " * (JSON_INDENT * (level + 1))
        runs = [v for v in obj.values() if _is_run(v)]
        shared = dict(zip(map(id, runs), _shared_texts(runs))) if runs else {}
        out.append("{\n")
        for i, (key, value) in enumerate(obj.items()):
            if not isinstance(key, str):
                key = str(key)
            out.append(pad_in + json.dumps(key) + ": ")
            if id(value) in shared:
                _emit_texts(shared[id(value)], out, level + 1)
            else:
                _emit_json(value, out, level + 1)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(" " * (JSON_INDENT * level) + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
        elif all(isinstance(v, float) for v in obj):
            _emit_texts(_float_texts(obj), out, level)
        elif _is_records(obj):
            _emit_records(obj, out, level)
        else:
            pad_in = " " * (JSON_INDENT * (level + 1))
            out.append("[\n")
            for i, value in enumerate(obj):
                out.append(pad_in)
                _emit_json(value, out, level + 1)
                out.append(",\n" if i + 1 < len(obj) else "\n")
            out.append(" " * (JSON_INDENT * level) + "]")
    else:
        raise ParameterError(f"cannot serialize {type(obj).__name__} to JSON")


def _json_text(obj, level: int) -> str:
    out: list[str] = []
    _emit_json(obj, out, level)
    return "".join(out)


def json_dumps(obj) -> str:
    """Deterministic JSON text: .17g floats that always carry a '.' or an
    exponent, NaN/inf as null, insertion order preserved."""
    return _json_text(obj, 0)


def write_json(path: str, obj) -> None:
    atomic_write_text(path, json_dumps(obj) + "\n")
