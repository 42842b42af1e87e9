"""CSV path files and JSON signature records.

Path CSV: one point per row, d real columns.  An optional header may name
a ``t`` column (times) and an ``id`` column (multi-path files); headerless
files are treated as pure coordinate rows of a single path.

Signature JSON: an object {"dim": d, "depth": n, "levels": [[...], ...]}
with level k holding d**k reals; a batch is a JSON array of such objects.
An optional "id" key tags records from multi-path files.

Decimal text is used throughout (17 significant digits for CSV floats;
JSON floats round-trip exactly via repr).
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

from .errors import InputFormatError
from .signature import PiecewiseLinearPath
from .tensor_algebra import TruncatedSignature


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def read_paths_csv(stream) -> list[tuple[str, PiecewiseLinearPath]]:
    """Parse a path CSV into (id, path) pairs, ordered by first appearance."""
    if isinstance(stream, str):
        with open(stream, newline="") as fh:
            return read_paths_csv(fh)
    rows = [r for r in csv.reader(stream) if r and any(f.strip() for f in r)]
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

    t_col = header.index("t") if header and "t" in header else None
    id_col = header.index("id") if header and "id" in header else None
    err_col = header.index("error") if header and "error" in header else None
    coord_cols = [j for j in range(len(rows[0]))
                  if j not in (t_col, id_col, err_col)]
    if not coord_cols:
        raise InputFormatError("no coordinate columns in CSV file")

    groups: dict[str, list[tuple[float | None, list[float]]]] = {}
    order: list[str] = []
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
        if pid not in groups:
            groups[pid] = []
            order.append(pid)
        groups[pid].append((t, coords))

    out = []
    for pid in order:
        recs = groups[pid]
        if len(recs) < 2:
            raise InputFormatError(f"path {pid!r} has fewer than 2 points")
        pts = np.array([c for _, c in recs])
        times = None
        if t_col is not None:
            times = np.array([t for t, _ in recs])
            if np.any(np.diff(times) <= 0):
                raise InputFormatError(
                    f"times not strictly increasing for path {pid!r}"
                )
        try:
            out.append((pid, PiecewiseLinearPath(pts, times)))
        except ValueError as exc:
            raise InputFormatError(str(exc)) from exc
    return out


def format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_paths_csv(stream, records, errors=None) -> None:
    """Write (id, path) pairs as id,t,x1..xd rows plus an error column.

    ``errors`` maps ids to failure messages; failed records emit a single
    row carrying only the id and the message.
    """
    records = list(records)
    errors = errors or {}
    dim = records[0][1].dim if records else 1
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(["id", "t"] + [f"x{j + 1}" for j in range(dim)] + ["error"])
    for pid, path in records:
        for t, pt in zip(path.times, path.points):
            w.writerow([pid, format_float(t)]
                       + [format_float(c) for c in pt] + [""])
    for pid, message in errors.items():
        w.writerow([pid, ""] + [""] * dim + [message])


def signature_to_record(sig: TruncatedSignature, path_id: str | None = None) -> dict:
    rec = {
        "dim": sig.dim,
        "depth": sig.depth,
        "levels": [sig.level(k).tolist() for k in range(sig.depth + 1)],
    }
    if path_id is not None:
        rec["id"] = path_id
    return rec


def record_to_signature(rec: dict) -> TruncatedSignature:
    try:
        dim, depth, levels = rec["dim"], rec["depth"], rec["levels"]
    except (KeyError, TypeError) as exc:
        raise InputFormatError("signature record needs dim/depth/levels") from exc
    for key, value in (("dim", dim), ("depth", depth)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputFormatError(f"signature record {key} must be an integer")
    if not isinstance(levels, list):
        raise InputFormatError("signature record levels must be a list")
    if len(levels) != depth + 1:
        raise InputFormatError("signature record has wrong level count")
    try:
        sig = TruncatedSignature.from_arrays(dim, levels)
    except (ValueError, TypeError) as exc:
        raise InputFormatError(str(exc)) from exc
    if not all(np.isfinite(lvl.coeffs).all() for lvl in sig.levels):
        raise InputFormatError("signature record has a non-finite level entry")
    return sig


def write_signatures_json(stream, sigs_with_ids) -> None:
    """Write records (a bare object for one, an array for a batch)."""
    records = [signature_to_record(s, pid) for pid, s in sigs_with_ids]
    payload = records[0] if len(records) == 1 else records
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def read_signatures_json(stream) -> list[tuple[str, TruncatedSignature]]:
    if isinstance(stream, str):
        with open(stream) as fh:
            return read_signatures_json(fh)
    try:
        payload = json.load(stream)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc}") from exc
    if isinstance(payload, dict):
        payload = [payload]
    if not isinstance(payload, list):
        raise InputFormatError("expected a signature object or array")
    out = []
    for i, rec in enumerate(payload):
        pid = str(rec.get("id", i)) if isinstance(rec, dict) else str(i)
        out.append((pid, record_to_signature(rec)))
    return out


def dumps_signatures(sigs_with_ids) -> str:
    buf = io.StringIO()
    write_signatures_json(buf, sigs_with_ids)
    return buf.getvalue()
