"""Fuzz test of the readers and of ``main()``: random CSV/JSON text and
argument values must end in exit code 0 (silent on stderr, every number
written finite) or 2, 3 or 4 (one ``error:`` line), never in an exception.

Most inputs are well formed, so that the numeric code behind the readers
runs too; the rest is corrupted or random text and bytes.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from siginvert.cli import main

EXIT_CODES = {0, 2, 3, 4}

# Few distinct values, so that repeated points, backtracks, collinear and
# extremely short or long segments are common.
number = st.one_of(
    st.sampled_from([0.0, 1.0, -1.0, 0.5, 1e-7, 5e-324, 1e-300, 1e300]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.floats(),
)
junk_text = st.text(max_size=40)
junk_field = st.one_of(
    st.sampled_from(["", "t", "id", "x1", "error", "nan", "inf", "1e400",
                     "1" + "0" * 400]),
    st.text(max_size=4),
)


@st.composite
def path_csv(draw):
    """A path CSV: d columns, optional t/id columns, a few rows; now and
    then one field replaced by junk."""
    d = draw(st.integers(min_value=1, max_value=3))
    rows = draw(st.integers(min_value=0, max_value=6))
    has_t, has_id = draw(st.booleans()), draw(st.booleans())
    header = (["id"] if has_id else []) + (["t"] if has_t else []) \
        + [f"x{j + 1}" for j in range(d)]
    lines = [header] if has_t or has_id or draw(st.booleans()) else []
    times = sorted(draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                 min_size=rows, max_size=rows)))
    for i in range(rows):
        line = ([draw(st.sampled_from(["a", "b"]))] if has_id else []) \
            + ([repr(times[i])] if has_t else []) \
            + [repr(draw(number)) for _ in range(d)]
        lines.append(line)
    if lines and draw(st.integers(min_value=0, max_value=4)) == 0:
        line = draw(st.sampled_from(lines))
        line[draw(st.integers(min_value=0, max_value=len(line) - 1))] = \
            draw(junk_field)
    return "".join(",".join(line) + "\n" for line in lines)


json_junk = st.recursive(
    st.one_of(st.none(), st.booleans(), number, st.text(max_size=3),
              st.just(10**400)),
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=3)),
    max_leaves=8,
)


# What json.load makes of level entries that are not JSON numbers, and
# numpy would take as numbers (1.0, 2.5) or as a shape error.
non_number = st.one_of(st.booleans(), number.map(repr),
                       st.lists(number, min_size=1, max_size=2))


@st.composite
def signature_record(draw, only_non_number=False):
    """A signature record of the right shape; now and then one key holds
    junk or a big integer, or one level entry is a boolean, a numeric string
    or a list.  Ids come often from a small pool, so that a batch repeats an
    id or collides with the index id of a record without one.

    With ``only_non_number`` the record is well formed but for one such
    entry."""
    d = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=4))
    rec = {"dim": d, "depth": n,
           "levels": [draw(st.lists(number, min_size=d**k, max_size=d**k))
                      for k in range(n + 1)]}
    if draw(st.booleans()):
        rec["id"] = draw(st.one_of(st.sampled_from(["a", "0", "1"]),
                                   st.text(max_size=3)))
    if only_non_number or draw(st.integers(min_value=0, max_value=4)) == 0:
        level = draw(st.sampled_from(rec["levels"]))
        level[draw(st.integers(min_value=0, max_value=len(level) - 1))] = \
            draw(non_number)
    if only_non_number:
        return rec
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        key = draw(st.sampled_from(["dim", "depth", "levels"]))
        rec[key] = draw(st.one_of(json_junk, st.integers(min_value=-2,
                                                         max_value=10**400)))
    if n and draw(st.integers(min_value=0, max_value=4)) == 0:
        level = rec["levels"]
        if isinstance(level, list) and level and isinstance(level[-1], list) \
                and level[-1]:
            level[-1][0] = 10**400
    return rec


csv_bytes = st.one_of(path_csv(), path_csv(), path_csv(), junk_text).map(
    str.encode) | st.binary(max_size=40)
json_bytes = st.one_of(
    signature_record().map(json.dumps),
    st.lists(signature_record(), max_size=3).map(json.dumps),
    json_junk.map(json.dumps),
    junk_text,
).map(str.encode) | st.binary(max_size=40)

depth = st.integers(min_value=-2, max_value=6)
max_coeffs = st.one_of(
    st.just([]),
    st.integers(min_value=-5, max_value=10**6).map(
        lambda n: [f"--max-coeffs={n}"]),
)
COMMANDS = {
    "sign": (csv_bytes, st.tuples(depth, st.booleans()).map(
        lambda a: [f"--depth={a[0]}"] + ["--constant-speed"] * a[1])),
    "invert": (json_bytes, st.one_of(
        st.just([]),
        st.lists(number, min_size=1, max_size=3).map(
            lambda xs: ["--start=" + ",".join(map(repr, xs))]),
        junk_text.map(lambda s: ["--start=" + s]))),
    "roundtrip": (csv_bytes, st.lists(depth, max_size=3).map(
        lambda ds: ["--depths=" + ",".join(map(str, ds))])),
    "trend": (csv_bytes, depth.map(lambda n: [f"--depth={n}"])),
    "develop": (csv_bytes, st.one_of(
        st.just([]),
        st.one_of(number, st.floats(min_value=0.0, max_value=800.0)).map(
            lambda a: [f"--alpha={a!r}"]))),
}


def run_main(command, content, args):
    with tempfile.TemporaryDirectory() as tmp:
        f = Path(tmp) / "input"
        f.write_bytes(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([command, str(f)] + args)
    return code, out.getvalue(), err.getvalue()


def output_numbers(command, out):
    """Every numeric field of a command's output, as written."""
    if command == "sign":
        payload = json.loads(out)
        records = payload if isinstance(payload, list) else [payload]
        return [x for rec in records for level in rec["levels"] for x in level]
    if command == "develop":
        return [v for v in json.loads(out).values() if not isinstance(v, bool)]
    # invert/trend path CSV (error rows carry no numbers) or roundtrip table
    return [v for row in csv.DictReader(io.StringIO(out)) if not row.get("error")
            for key, v in row.items() if key not in ("id", "error")]


# Extreme coordinates overflow in signing and inversion; the test is about
# exit codes, so the RuntimeWarnings are expected noise here.
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(COMMANDS))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_main_exits_with_a_documented_code(command, data):
    content_st, args_st = COMMANDS[command]
    content = data.draw(content_st, label="input")
    args = data.draw(args_st, label="args") + data.draw(max_coeffs)
    code, out, err = run_main(command, content, args)
    assert code in EXIT_CODES
    lines = err.splitlines()
    if code == 0:
        assert lines == []
        numbers = output_numbers(command, out)
        assert all(math.isfinite(float(x)) for x in numbers), numbers
    else:
        assert len(lines) == 1 and lines[0].startswith("error: "), lines


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(records=st.lists(signature_record(only_non_number=True), min_size=1,
                        max_size=3))
def test_invert_refuses_non_number_level_entries(records):
    payload = records[0] if len(records) == 1 else records
    code, out, err = run_main("invert", json.dumps(payload).encode(), [])
    assert code == 2, err
    assert out == "" and err.startswith("error: ") and len(err.splitlines()) == 1
