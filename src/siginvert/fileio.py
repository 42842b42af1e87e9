"""CSV path files and JSON signature records.

Path CSV: one point per row, d real columns.  An optional header may name
a ``t`` column (times), an ``id`` column (multi-path files) and an
``error`` column (failure markers), each at most once; headerless files
are treated as pure coordinate rows of a single path.

Signature JSON: an object {"dim": d, "depth": n, "levels": [[...], ...]}
with level k holding d**k reals; a batch is a JSON array of such objects.
An optional "id" key, a string or an integer unique within the file, tags
records from multi-path files; a record without one takes its index.
Level entries must be JSON numbers.  The writer's bytes are those of
``json.dump(..., indent=2)``.  The reader checks a record's JSON types,
applying the whole size rule (``check_levels``) before it looks at any
level; reader and writer leave the rest to ``TruncatedSignature``, which
checks dim and the shape and finiteness of every level, so a non-finite
level is never read or written.  The reader converts each record while it
parses and drops its level lists, so at most two records' Python numbers
are alive at once; refusals are raised after parsing, in the order a
whole-file read would raise them, each named by its record.

Decimal text is used throughout: CSV floats carry 17 significant digits,
JSON floats the shortest repr that round-trips, as ``json`` writes them.
The writer computes those digits in numpy (``_floatfmt.join_reprs``), one
buffer of ``_JSON_CHUNK`` level entries at a time.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
import sys

import numpy as np

from .errors import AllocationCapError, InputFormatError
from .signature import PiecewiseLinearPath
from .tensor_algebra import TruncatedSignature, check_levels


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def read_paths_csv(stream) -> list[tuple[str, PiecewiseLinearPath]]:
    """Parse a path CSV into (id, path) pairs, ordered by first appearance."""
    if isinstance(stream, str):
        # utf-8-sig drops a byte-order mark, which made row 1 read as a header
        with open(stream, newline="", encoding="utf-8-sig") as fh:
            return read_paths_csv(fh)
    try:
        rows = [r for r in csv.reader(stream) if r and any(f.strip() for f in r)]
    except (csv.Error, UnicodeDecodeError) as exc:
        raise InputFormatError(f"unreadable CSV: {exc}") from exc
    if not rows:
        raise InputFormatError("no points: the CSV file is empty")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise InputFormatError("inconsistent column count across CSV rows")

    header = None
    if not all(_is_float(f) for f in rows[0]):
        header = [f.strip().lower() for f in rows[0]]
        rows = rows[1:]
        if not rows:
            raise InputFormatError("no points: header-only CSV file")
        for name in ("t", "id", "error"):
            if header.count(name) > 1:
                raise InputFormatError(
                    f"the CSV header names the {name!r} column more than once")

    t_col = header.index("t") if header and "t" in header else None
    id_col = header.index("id") if header and "id" in header else None
    err_col = header.index("error") if header and "error" in header else None
    coord_cols = [j for j in range(len(rows[0]))
                  if j not in (t_col, id_col, err_col)]
    if not coord_cols:
        raise InputFormatError("no coordinate columns in CSV file")

    # a dict keeps the ids in order of first appearance
    groups: dict[str, list[tuple[float | None, list[float]]]] = {}
    for line_no, r in enumerate(rows, start=1):
        if err_col is not None and r[err_col].strip():
            continue  # failure marker row, carries no point data
        try:
            coords = [float(r[j]) for j in coord_cols]
            t = float(r[t_col]) if t_col is not None else None
        except ValueError as exc:
            raise InputFormatError(f"bad numeric field in CSV row {line_no}") from exc
        if not all(map(math.isfinite, coords)) or (
                t is not None and not math.isfinite(t)):
            raise InputFormatError(f"non-finite value in CSV row {line_no}")
        pid = r[id_col].strip() if id_col is not None else "0"
        groups.setdefault(pid, []).append((t, coords))
    if not groups:
        raise InputFormatError("no points: every CSV row is an error marker")

    out = []
    for pid, recs in groups.items():
        pts = np.array([c for _, c in recs])
        times = np.array([t for t, _ in recs]) if t_col is not None else None
        try:
            out.append((pid, PiecewiseLinearPath(pts, times)))
        except ValueError as exc:
            raise InputFormatError(f"path {pid!r}: {exc}") from exc
    return out


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_paths_csv(stream, records, errors=None, dim=None) -> None:
    """Write (id, path) pairs as id,t,x1..xd rows plus an error column.

    ``errors`` maps ids to failure messages; failed records emit a single
    row carrying only the id and the message.  ``dim`` (d in the header)
    defaults to the first record's and is required when there is none.
    """
    records = list(records)
    errors = errors or {}
    if dim is None:
        if not records:
            raise ValueError("write_paths_csv needs dim when no record is given")
        dim = records[0][1].dim
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["id", "t"] + [f"x{j + 1}" for j in range(dim)] + ["error"])
    for pid, path in records:
        for t, pt in zip(path.times, path.points):
            w.writerow([pid, format_float(t)]
                       + [format_float(c) for c in pt] + [""])
    for pid, message in errors.items():
        w.writerow([pid, ""] + [""] * dim + [message])


# JSON's names for the Python types json.load makes, but int
_JSON_NAMES = {bool: "a boolean", str: "a string", list: "a list",
               dict: "an object", type(None): "a null", float: "a float"}


def record_to_signature(rec: dict) -> TruncatedSignature:
    try:
        dim, depth, levels = rec["dim"], rec["depth"], rec["levels"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError("signature record needs dim/depth/levels") from exc
    # named, not printed: the reader has dropped the levels of any object
    # inside it
    if type(dim) in _JSON_NAMES:
        raise InputFormatError("signature record dim must be an integer, "
                               f"not {_JSON_NAMES[type(dim)]}")
    if not isinstance(depth, int) or isinstance(depth, bool):
        raise InputFormatError("signature record depth must be an integer")
    if not isinstance(levels, list):
        raise InputFormatError("signature record levels must be a list")
    if len(levels) != depth + 1:
        raise InputFormatError("signature record has wrong level count")
    # the whole size rule before any per-level work, so that an over-deep
    # or over-wide record costs only its parse
    check_levels(dim, depth)
    for k, level in enumerate(levels):
        if not isinstance(level, list):
            raise InputFormatError(f"level {k} must be a list of numbers")
        others = {t for t in set(map(type, level))
                  if issubclass(t, bool) or not issubclass(t, numbers.Real)}
        if others:
            names = sorted(_JSON_NAMES.get(t, t.__name__) for t in others)
            raise InputFormatError(
                f"level {k} holds {' and '.join(names)}, not only numbers")
    try:
        sig = TruncatedSignature(dim, levels)
    except (ValueError, TypeError, OverflowError) as exc:
        raise InputFormatError(str(exc)) from exc
    return sig


_JSON_CHUNK = 4096  # floats per formatting call: bounds the text alive at once


def _write_floats(stream, values, runs, sep: str) -> None:
    """Write each (prefix, stop) run as its prefix, then ``sep.join`` of the
    reprs of ``values`` from the previous run's stop to ``stop``."""
    # imported here, so that only a process that writes signatures builds
    # the formatter's tables
    from ._floatfmt import join_reprs

    text, ends = join_reprs(values, sep)
    start = 0
    for prefix, stop in runs:
        end = ends[stop - 1]
        stream.write(prefix)
        stream.write(text[start:end])
        start = end + len(sep)
    runs.clear()


def write_signatures_json(stream, sigs_with_ids) -> None:
    """Write records (a bare object for one, an array for a batch).

    The bytes are those ``json.dump(payload, stream, indent=2)`` plus a
    newline writes for records {"dim", "depth", "levels"} with "id" last
    when it is not None (one object for one record).  Level entries
    pass through one buffer of ``_JSON_CHUNK`` floats, across level and
    record boundaries; each full buffer is formatted at once and its text
    cut at those boundaries.
    """
    items = list(sigs_with_ids)
    if not items:
        stream.write("[]\n")
        return
    pad = "" if len(items) == 1 else "  "
    key, row, num = pad + "  ", pad + "    ", pad + "      "
    sep = ",\n" + num
    buf = np.empty(_JSON_CHUNK)
    fill, runs = 0, []
    text = "" if len(items) == 1 else "["       # written before the next float
    for i, (path_id, sig) in enumerate(items):
        if pad:
            text += ",\n  " if i else "\n  "
        text += (f'{{\n{key}"dim": {sig.dim},\n{key}"depth": {sig.depth},'
                 f'\n{key}"levels": [')
        for k, level in enumerate(sig.levels):
            text += f"{',' if k else ''}\n{row}[\n{num}"
            lo = 0
            while lo < level.size:
                take = min(level.size - lo, _JSON_CHUNK - fill)
                buf[fill:fill + take] = level[lo:lo + take]
                fill, lo = fill + take, lo + take
                runs.append((text, fill))
                text = sep            # a level cut by a flush goes on after it
                if fill == _JSON_CHUNK:
                    _write_floats(stream, buf, runs, sep)
                    fill = 0
            text = f"\n{row}]"
        text += f"\n{key}]"
        if path_id is not None:
            text += f',\n{key}"id": {json.dumps(path_id)}'
        text += f"\n{pad}}}"
    if runs:
        _write_floats(stream, buf[:fill], runs, sep)
    stream.write(text + ("\n]\n" if pad else "\n"))


def _parse_int(text: str) -> int:
    """A JSON integer literal as an int, refused past Python's digit limit."""
    digits = len(text) - text.startswith("-")
    limit = sys.get_int_max_str_digits()
    if limit and digits > limit:
        raise InputFormatError(
            f"invalid JSON: an integer literal of {digits} digits is longer "
            f"than the limit of {limit} digits")
    return int(text)


# the key under which the reader keeps a parsed object's outcome: its
# signature or its refusal's (class, message); no JSON key is equal to it
_OUTCOME = object()


def _outcome(rec):
    try:
        return record_to_signature(rec)
    except (InputFormatError, AllocationCapError) as exc:
        return type(exc), str(exc)


def read_signatures_json(stream) -> list[tuple[str, TruncatedSignature]]:
    """Parse a signature JSON into (id, signature) pairs in file order.

    A record without an "id" takes its index.  An id that is not a JSON
    string or integer, or two records with the same id, raise
    InputFormatError, since outputs are keyed by id; so does an id with a
    lone surrogate, which no UTF-8 output could encode.

    Every JSON object goes through ``record_to_signature`` when the parser
    closes the next one, the last after ``json.load`` has freed the text,
    and then loses its level lists: a batch holds at most two records'
    Python numbers beside the text and the finished buffers.  A refusal
    is kept as its class and message and raised after parsing, prefixed
    with its record's id, in file order after the id checks, so a JSON
    syntax error wins over any record's.  A nested object is converted
    too, and its outcome ignored.
    """
    if isinstance(stream, str):
        # utf-8-sig drops a byte-order mark, which json.load refuses
        with open(stream, encoding="utf-8-sig") as fh:
            return read_signatures_json(fh)
    pending = None  # the object the parser closed last, not yet converted

    def convert(rec: dict) -> None:
        try:
            rec[_OUTCOME] = _outcome(rec)
        except RecursionError:
            return  # deep in the parser's stack: converted at its turn below
        rec.pop("levels", None)

    def hook(obj: dict) -> dict:
        nonlocal pending
        if pending is not None:
            convert(pending)
        pending = obj
        return obj

    try:
        payload = json.load(stream, parse_int=_parse_int, object_hook=hook)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and UnicodeDecodeError;
        # RecursionError, nesting past the parser's limit
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    if pending is not None:
        convert(pending)
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise InputFormatError("expected a signature object or array")
    out, seen = [], set()
    for i, rec in enumerate(payload):
        pid = rec.get("id", i) if isinstance(rec, dict) else i
        if type(pid) not in (str, int):  # json.load makes true a bool
            raise InputFormatError(f"record {i}: id must be a string or an "
                                   f"integer, not {_JSON_NAMES[type(pid)]}")
        pid = str(pid)
        try:
            pid.encode()
        except UnicodeEncodeError as exc:
            raise InputFormatError(f"record {i}: id {pid!r} holds a lone "
                                   "surrogate, not valid in UTF-8") from exc
        if pid in seen:
            raise InputFormatError(
                f"duplicate record id {pid!r} (record {i}); a record "
                "without an id takes its index as id"
            )
        seen.add(pid)
        if not isinstance(rec, dict):
            raise InputFormatError(
                f"record {pid!r}: signature record needs dim/depth/levels")
        # an object left at the recursion limit has no outcome yet
        sig = rec[_OUTCOME] if _OUTCOME in rec else _outcome(rec)
        if isinstance(sig, tuple):
            cls, message = sig
            raise cls(f"record {pid!r}: {message}")
        out.append((pid, sig))
    return out
