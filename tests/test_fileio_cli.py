import csv
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from siginvert import (
    AllocationCapError,
    AssumptionViolation,
    InputFormatError,
    PiecewiseLinearPath,
    TruncatedSignature,
    constant_speed_reparam,
    get_allocation_cap,
    invert_signature,
    path_signature,
    segment_geometry,
    set_allocation_cap,
)
from siginvert import cli, fileio
from siginvert.cli import (
    RESAMPLE_POINTS,
    main,
    resample_arclength,
    roundtrip_errors,
)
from siginvert.fileio import (
    format_float,
    read_paths_csv,
    read_signatures_json,
    record_to_signature,
    write_paths_csv,
)

from conftest import random_path
from oracles import dumps_signatures, linear_signature, signature_to_record


def write_path_csv_file(tmp_path, name, points, times=None, pid=None):
    pts = np.asarray(points, dtype=np.float64)
    f = tmp_path / name
    with f.open("w") as fh:
        cols = (["id"] if pid is not None else []) \
            + (["t"] if times is not None else []) \
            + [f"x{j + 1}" for j in range(pts.shape[1])]
        fh.write(",".join(cols) + "\n")
        for i, p in enumerate(pts):
            row = ([pid] if pid is not None else []) \
                + ([format_float(times[i])] if times is not None else []) \
                + [format_float(c) for c in p]
            fh.write(",".join(row) + "\n")
    return str(f)


def write_paths_file(tmp_path, name, paths):
    """A multi-path CSV with an id column: ``paths`` maps ids to points."""
    f = tmp_path / name
    with f.open("w") as fh:
        fh.write("id,x1,x2\n")
        for pid, pts in paths.items():
            for x, y in pts:
                fh.write(f"{pid},{format_float(x)},{format_float(y)}\n")
    return str(f)


def half_circle(samples=100):
    theta = np.linspace(0.0, math.pi, samples + 1)
    return np.column_stack([np.cos(theta), np.sin(theta)])


EDGE_FLOATS = np.array([-0.0, 5e-324, 1.7976931348623157e308])


def edge_signature(rng, dim, depth):
    """Levels of mixed magnitude holding the edge floats (as many as fit)."""
    sizes = [dim**k for k in range(depth + 1)]
    flat = rng.normal(size=sum(sizes)) * 10.0 ** rng.integers(-30, 30, sum(sizes))
    fit = min(flat.size, EDGE_FLOATS.size)
    flat[:fit] = EDGE_FLOATS[:fit]
    rng.shuffle(flat)
    return TruncatedSignature(dim, np.split(flat, np.cumsum(sizes)[:-1]))


def json_dump_oracle(sigs_with_ids):
    records = [signature_to_record(sig, pid) for pid, sig in sigs_with_ids]
    return json.dumps(records[0] if len(records) == 1 else records,
                      indent=2) + "\n"


@pytest.fixture(scope="module")
def deep_planar_signature():
    """d=2, depth 17: the top level's 131,072 entries span several chunks."""
    sig = path_signature(random_path(np.random.default_rng(17), 6, 2), 17)
    assert sig.level(17).size > fileio._JSON_CHUNK
    return sig


class CountingSink:
    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


class TestSignatureJson:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("depth", [0, 1, 5])
    @pytest.mark.parametrize("count", [0, 1, 3])
    @pytest.mark.parametrize("pid", [None, 'a"b', "\u00e9"])
    def test_bytes_equal_json_dump(self, rng, dim, depth, count, pid):
        items = [(pid, edge_signature(rng, dim, depth)) for _ in range(count)]
        assert dumps_signatures(items) == json_dump_oracle(items)

    def test_edge_floats_and_escapes_written(self, rng):
        text = dumps_signatures([("\u00e9", edge_signature(rng, 3, 1))])
        for token in ("-0.0", "5e-324", "1.7976931348623157e+308",
                      '"id": "\\u00e9"'):
            assert token in text

    def test_bytes_equal_json_dump_across_chunks(self, deep_planar_signature):
        for items in ([("x", deep_planar_signature)],
                      [(None, deep_planar_signature), ("y", deep_planar_signature)]):
            assert dumps_signatures(items) == json_dump_oracle(items)

    def test_batch_levels_straddle_buffers(self, rng):
        # 11 records of levels with 1..1024 entries: the writer's buffer of
        # _JSON_CHUNK floats fills and is cut inside levels and records
        items = [(str(i) if i % 3 else None, edge_signature(rng, 2, 10))
                 for i in range(11)]
        total = sum(sig.level(k).size for _, sig in items for k in range(11))
        assert total > 5 * fileio._JSON_CHUNK
        assert dumps_signatures(items) == json_dump_oracle(items)

    def test_writer_peak_below_one_level_of_reprs(self, deep_planar_signature):
        reprs = list(map(float.__repr__, deep_planar_signature.level(17).tolist()))
        level_reprs = sys.getsizeof(reprs) + sum(map(sys.getsizeof, reprs))
        del reprs
        sink = CountingSink()
        tracemalloc.start()
        try:
            fileio.write_signatures_json(sink, [("x", deep_planar_signature)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sink.chars == len(dumps_signatures([("x", deep_planar_signature)]))
        # a whole level held as text, as json.dump holds it, exceeds a quarter
        assert peak < level_reprs / 4

    def test_roundtrip_bit_identical(self, rng):
        sig = path_signature(random_path(rng, 3, 2), 4)
        text = dumps_signatures([("a", sig)])
        back = read_signatures_json(io.StringIO(text))
        assert back[0][0] == "a"
        for k in range(5):
            np.testing.assert_array_equal(back[0][1].level(k), sig.level(k))

    def test_single_record_is_bare_object(self, rng):
        sig = path_signature(random_path(rng, 2, 2), 3)
        payload = json.loads(dumps_signatures([("a", sig)]))
        assert isinstance(payload, dict)
        payload = json.loads(dumps_signatures([("a", sig), ("b", sig)]))
        assert isinstance(payload, list) and len(payload) == 2

    def test_record_validation(self):
        with pytest.raises(InputFormatError):
            record_to_signature({"dim": 2, "depth": 2, "levels": [[1.0]]})
        with pytest.raises(InputFormatError):
            record_to_signature({"dim": 2})

    @pytest.mark.parametrize("rec", [
        {"dim": "2", "depth": 1, "levels": [[1.0], [0.0, 1.0]]},
        {"dim": 2, "depth": 1.0, "levels": [[1.0], [0.0, 1.0]]},
        {"dim": True, "depth": 1, "levels": [[1.0], [1.0]]},
        {"dim": 2, "depth": False, "levels": [[1.0]]},
        {"dim": 2, "depth": 1, "levels": "ab"},
        {"dim": 2, "depth": 1, "levels": {"0": [1.0], "1": [0.0, 1.0]}},
        {"dim": 2, "depth": 1, "levels": [[1.0], {"x": 1.0}]},
    ])
    def test_record_types(self, rec):
        with pytest.raises(InputFormatError):
            record_to_signature(rec)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_level(self, bad):
        with pytest.raises(InputFormatError, match="non-finite"):
            record_to_signature({"dim": 2, "depth": 1,
                                 "levels": [[1.0], [bad, 1.0]]})

    def test_level_lengths(self, rng):
        sig = path_signature(random_path(rng, 2, 3), 3)
        rec = signature_to_record(sig)
        assert [len(lv) for lv in rec["levels"]] == [1, 3, 9, 27]


def whole_file_read(payload):
    """The reader's oracle: each record of the whole file's ``json.load``
    through ``record_to_signature``."""
    records = [payload] if isinstance(payload, dict) else payload
    return [(str(rec.get("id", i)), record_to_signature(rec))
            for i, rec in enumerate(records)]


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_whole_file(path):
    with open(path, encoding="utf-8-sig") as fh:
        return whole_file_read(json.load(fh))


class TestSignatureJsonReader:
    """The reader converts each record while json.load parses: the same
    signatures and refusals as reading the whole file first, with fewer
    Python numbers alive."""

    GOOD = '{"dim": 1, "depth": 2, "levels": [[1.0], [0.5], [0.125]]'

    @pytest.mark.parametrize("refused", [False, True],
                             ids=["read", "every-record-refused"])
    def test_batch_peak_below_two_and_a_half_file_sizes(self, tmp_path, rng,
                                                        refused):
        # entries of 0.0 and 1.0 cost 32 bytes each as Python floats in
        # lists, about 3 times their text: a whole-file read peaks at 3.5
        # file sizes, converting each record as it closes at 2.  A kept
        # refusal must not keep its record's numbers either.
        sizes = [2**k for k in range(11)]
        levels = [[rng.integers(0, 2, n).astype(np.float64) for n in sizes]
                  for _ in range(100)]
        for lv in levels if refused else ():
            lv[10][0] = 2.0
        text = dumps_signatures([(str(i), TruncatedSignature(2, lv))
                                 for i, lv in enumerate(levels)])
        f = tmp_path / "batch.json"
        f.write_text(text.replace("2.0", "1e400"))  # json.load reads inf

        def read():
            try:
                read_signatures_json(str(f))
            except InputFormatError as exc:
                assert refused and str(exc).startswith("record '0': level 10")
            else:
                assert not refused

        assert traced_peak(read) < 2.5 * f.stat().st_size

    def test_one_record_peak_not_above_whole_file_read(self, tmp_path, rng):
        # the last record is converted after json.load frees the text, so
        # its buffers and the text are never alive together
        sig = path_signature(random_path(rng, 10, 2), 14)
        f = tmp_path / "deep.json"
        f.write_text(dumps_signatures([("x", sig)]))
        oracle = traced_peak(read_whole_file, str(f))
        peak = traced_peak(read_signatures_json, str(f))
        assert peak <= oracle + f.stat().st_size // 16

    @pytest.mark.parametrize("text", [
        dumps_signatures([("a", linear_signature([1.0, -0.5], 0.75, 4))]),
        dumps_signatures([(pid, edge_signature(np.random.default_rng(5), 2, 5))
                          for pid in ("x", None, "z")]),
        '[{"dim": 2, "depth": 2, "levels": [[1], [0, -2], [3, 0.5, 10, '
        '100000000000000000000]], "id": 7}, {"dim": 1, "depth": 1, '
        '"levels": [[1], [-0.0]], "id": "b"}, {"dim": 1, "depth": 0, '
        '"levels": [[2]]}]',
    ], ids=["bare-object", "batch", "integers-and-ids"])
    def test_signatures_equal_whole_file_read(self, text):
        got = read_signatures_json(io.StringIO(text))
        expected = whole_file_read(json.loads(text))
        assert [pid for pid, _ in got] == [pid for pid, _ in expected]
        for (_, a), (_, b) in zip(got, expected):
            assert (a.dim, a.depth) == (b.dim, b.depth)
            assert np.concatenate(a.levels).view(np.uint64).tolist() == \
                np.concatenate(b.levels).view(np.uint64).tolist()

    @pytest.mark.parametrize("dim, depth, level_1, message", [
        (1, 20_000, "[0.5]", "a depth-20000 signature over R^1 has 20001 levels"),
        (1, 20_000, '["x"]', "a depth-20000 signature over R^1 has 20001 levels"),
        (0, 20_000, "[0.5]", "a depth-20000 signature over R^0 has 20001 levels"),
        (2, 12, '["x", 0.5]',
         "a degree-12 tensor over R^2 needs 2**12 coefficients, above the cap"),
    ], ids=["numbers", "string-at-level-1", "dim-0", "planar-past-the-cap"])
    def test_over_deep_record_is_refused_before_its_levels(
            self, tmp_path, dim, depth, level_1, message):
        # the whole size rule decides before any level is scanned or
        # converted: neither a bad level 1 nor a dim below 1 is refused
        # first, and the peak stays near that of json.loads
        rest = "".join(", [%s]" % ", ".join(["0.5"] * max(dim, 1)**k)
                       for k in range(2, depth + 1))
        text = ('{"dim": %d, "depth": %d, "levels": [[1.0], %s%s]}'
                % (dim, depth, level_1, rest))
        f = tmp_path / "deep.json"
        f.write_text(text)

        def read():
            with pytest.raises(AllocationCapError) as refused:
                read_signatures_json(str(f))
            assert str(refused.value).startswith(f"record '0': {message}")

        previous = get_allocation_cap()
        try:
            set_allocation_cap(1000)
            assert traced_peak(read) <= 1.5 * traced_peak(json.loads, text)
        finally:
            set_allocation_cap(previous)

    def test_accepted_deep_one_column_record_peak(self, tmp_path):
        # the constructor converts each level and copies it into the one
        # buffer in turn, so no second copy of the levels is ever alive
        depth = 20_000
        text = '{"dim": 1, "depth": %d, "levels": [[1.0]%s]}' % (
            depth, ", [0.5]" * depth)
        f = tmp_path / "deep.json"
        f.write_text(text)
        [(_, sig)] = read_signatures_json(str(f))
        assert sig.depth == depth and sig.level(depth).tolist() == [0.5]
        assert (traced_peak(read_signatures_json, str(f))
                <= 2.8 * traced_peak(json.loads, text))

    def test_cap_refusal_is_named_by_its_record(self, tmp_path, capsys):
        levels = ", ".join(["[1.0]"] + ["[0.5]"] * 300)
        f = tmp_path / "two.json"
        f.write_text('[{"dim": 1, "depth": 1, "levels": [[1.0], [0.5]], '
                     '"id": "a"}, {"dim": 1, "depth": 300, "levels": '
                     f'[{levels}], "id": "b"}}]')
        assert main(["invert", str(f), "--max-coeffs", "1000"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: record 'b': a depth-300 signature over "
                              "R^1 has 301 levels, ")
        assert len(err.splitlines()) == 1

    def test_syntax_error_wins_over_a_record_past_the_cap(self, tmp_path,
                                                          capsys):
        # the first record's refusal is kept until json.load has parsed the
        # whole text, which is cut off inside the second record
        sig = linear_signature([1.0, 0.5], 1.0, 3)
        text = json.dumps([signature_to_record(sig, "a"),
                           signature_to_record(sig, "b")], indent=2)
        f = tmp_path / "cut.json"
        f.write_text(text)
        assert main(["invert", str(f), "--max-coeffs", "5"]) == 3
        capsys.readouterr()
        cut = text.index('"levels": [', text.index('"id": "a"')) + 11
        f.write_text(text[:cut])
        assert main(["invert", str(f), "--max-coeffs", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: invalid JSON: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("ids, message", [
        (['"a"', '"b"', '"a"'], "record 'b': level 2 holds a string, "
                                "not only numbers"),
        (['"a"', '"a"', '"b"'], "duplicate record id 'a' (record 1); a record "
                                "without an id takes its index as id"),
    ], ids=["bad-record-first", "duplicate-first"])
    def test_refusals_keep_file_order(self, tmp_path, capsys, ids, message):
        bad = '{"dim": 1, "depth": 2, "levels": [[1.0], [0.5], ["x"]]'
        recs = [self.GOOD, bad, self.GOOD] if ids[2] == '"a"' else \
            [self.GOOD, self.GOOD, bad]
        f = tmp_path / "order.json"
        f.write_text("[" + ", ".join(f'{rec}, "id": {pid}}}'
                                     for rec, pid in zip(recs, ids)) + "]")
        assert main(["invert", str(f)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_object_inside_a_level(self, tmp_path, capsys):
        # the inner object is a valid record and converts, but only its
        # parent's refusal is reported
        f = tmp_path / "nested.json"
        f.write_text('[{"dim": 1, "depth": 1, "levels": [[1.0], '
                     f'[{self.GOOD}}}]]}}]')
        assert main(["invert", str(f)]) == 2
        assert capsys.readouterr().err == (
            "error: record '0': level 1 holds an object, not only numbers\n")

    @pytest.mark.parametrize("dim", [
        '{"dim": 1, "depth": 0, "levels": [[1.0]]}', "[1]", '"2"', "true", "2.0",
    ], ids=["object", "list", "string", "boolean", "float"])
    def test_dim_not_an_integer_is_named(self, tmp_path, capsys, dim):
        # the reader drops the levels of an object inside dim, so the
        # refusal names dim's JSON type and prints none of it
        text = f'{{"dim": {dim}, "depth": 0, "levels": [[1.0]]}}'
        with pytest.raises(InputFormatError) as oracle:
            whole_file_read(json.loads(text))
        assert str(oracle.value).startswith(
            "signature record dim must be an integer, not ")
        f = tmp_path / "dim.json"
        f.write_text(text)
        with pytest.raises(InputFormatError) as got:
            read_signatures_json(str(f))
        assert str(got.value) == f"record '0': {oracle.value}"
        assert main(["invert", str(f)]) == 2
        assert capsys.readouterr().err == f"error: record '0': {oracle.value}\n"

    def test_record_converted_too_deep_is_converted_after_parsing(
            self, monkeypatch):
        # a conversion that meets the recursion limit inside the parser's
        # stack is left for the loop after parsing
        calls = []

        def first_call_too_deep(rec):
            calls.append(rec)
            if len(calls) == 1:
                raise RecursionError
            return record_to_signature(rec)

        monkeypatch.setattr(fileio, "record_to_signature", first_call_too_deep)
        text = f"[{self.GOOD}}}, {self.GOOD}}}]"
        got = read_signatures_json(io.StringIO(text))
        assert len(calls) == 3
        assert [pid for pid, _ in got] == ["0", "1"]
        assert [sig.level(2).tolist() for _, sig in got] == [[0.125]] * 2


class TestPathCsv:
    def test_roundtrip_bit_identical(self, rng):
        p = random_path(rng, 4, 3)
        buf = io.StringIO()
        write_paths_csv(buf, [("7", p)])
        back = read_paths_csv(io.StringIO(buf.getvalue()))
        assert back[0][0] == "7"
        np.testing.assert_array_equal(back[0][1].points, p.points)
        np.testing.assert_array_equal(back[0][1].times, p.times)

    def test_headerless_coordinates_only(self):
        text = "0.0,0.0\n1.0,2.0\n"
        [(pid, p)] = read_paths_csv(io.StringIO(text))
        assert pid == "0"
        np.testing.assert_array_equal(p.points, [[0.0, 0.0], [1.0, 2.0]])
        np.testing.assert_array_equal(p.times, [0.0, 1.0])

    def test_multiple_ids_keep_first_appearance_order(self):
        text = "id,x1\nb,0\nb,1\na,0\na,2\nc,0\nc,-1\n"
        out = read_paths_csv(io.StringIO(text))
        assert [pid for pid, _ in out] == ["b", "a", "c"]

    def test_empty_file_message(self):
        with pytest.raises(InputFormatError, match="no points"):
            read_paths_csv(io.StringIO(""))

    def test_bad_numeric_field(self):
        with pytest.raises(InputFormatError, match="bad numeric"):
            read_paths_csv(io.StringIO("x1,x2\n1.0,oops\n2.0,3.0\n"))

    def test_non_increasing_times(self):
        with pytest.raises(InputFormatError, match="strictly increasing"):
            read_paths_csv(io.StringIO("t,x1\n0.0,1.0\n0.0,2.0\n"))

    def test_repeated_times_name_the_path(self):
        text = "id,t,x1\na,0,0\na,1,1\nb,0,0\nb,0,1\n"
        with pytest.raises(InputFormatError,
                           match="path 'b': .*strictly increasing"):
            read_paths_csv(io.StringIO(text))

    @pytest.mark.parametrize("header,name", [
        ("t,t,x1", "t"), ("id,x1,id", "id"), ("x1,error,ERROR", "error")])
    def test_special_column_named_twice(self, header, name):
        # else a second t is read as a coordinate, a second id as a number
        with pytest.raises(InputFormatError,
                           match=f"names the '{name}' column more than once"):
            read_paths_csv(io.StringIO(header + "\n0,1,2\n1,2,3\n"))

    def test_coordinate_columns_may_share_a_name(self):
        [(_, p)] = read_paths_csv(io.StringIO("x,x\n0,1\n2,3\n"))
        np.testing.assert_array_equal(p.points, [[0.0, 1.0], [2.0, 3.0]])

    def test_single_point_path(self):
        with pytest.raises(InputFormatError, match="fewer than 2"):
            read_paths_csv(io.StringIO("x1,x2\n1.0,2.0\n"))

    def test_ragged_rows(self):
        with pytest.raises(InputFormatError, match="column count"):
            read_paths_csv(io.StringIO("x1,x2\n1.0,2.0\n1.0\n"))

    @pytest.mark.parametrize("text", [
        "x1,x2\n0.0,0.0\nnan,1.0\n",
        "x1,x2\n0.0,inf\n1.0,1.0\n",
        "t,x1\n0.0,0.0\nnan,1.0\n",
        "t,x1\n0.0,0.0\ninf,1.0\n",
    ])
    def test_non_finite_values(self, text):
        with pytest.raises(InputFormatError, match="non-finite"):
            read_paths_csv(io.StringIO(text))

    @pytest.mark.parametrize("text", ["0,0\n1,0\n1,1\n",
                                      "id,x1,x2\na,0,0\na,1,0\na,1,1\n"])
    def test_byte_order_mark_is_dropped(self, tmp_path, capsys, text):
        # with the mark, the first row of the headerless file read as a
        # header, and the header's id column was not recognised
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        [(pid, want)] = read_paths_csv(str(plain))
        [(marked_pid, got)] = read_paths_csv(str(marked))
        assert marked_pid == pid
        np.testing.assert_array_equal(got.points, want.points)
        np.testing.assert_array_equal(got.times, want.times)
        outputs = []
        for f in (plain, marked):
            assert main(["sign", str(f), "--depth", "1"]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    def test_header_needs_dim_without_records(self):
        buf = io.StringIO()
        write_paths_csv(buf, [], errors={"bad": "went wrong"}, dim=3)
        assert buf.getvalue().splitlines()[0] == "id,t,x1,x2,x3,error"
        with pytest.raises(ValueError, match="dim"):
            write_paths_csv(io.StringIO(), [], errors={"bad": "went wrong"})

    def test_only_error_rows_is_no_points(self):
        with pytest.raises(InputFormatError, match="no points"):
            read_paths_csv(io.StringIO("id,t,x1,x2,error\na,,,,failed\n"))

    def test_error_rows(self):
        buf = io.StringIO()
        p = PiecewiseLinearPath([[0.0], [1.0]])
        write_paths_csv(buf, [("good", p)], errors={"bad": "went wrong"})
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["id", "t", "x1", "error"]
        assert rows[-1][0] == "bad" and rows[-1][-1] == "went wrong"


class TestSignInvertCli:
    def test_sign_two_point_file(self, tmp_path, capsys):
        f = write_path_csv_file(tmp_path, "p.csv", [[0.0, 0.0], [1.0, 1.0]])
        assert main(["sign", f, "--depth", "2"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["dim"] == 2 and rec["depth"] == 2
        assert rec["levels"][0] == [1.0]
        assert rec["levels"][1] == [1.0, 1.0]
        assert rec["levels"][2] == [0.5, 0.5, 0.5, 0.5]

    def test_sign_then_invert_linear(self, tmp_path):
        f = write_path_csv_file(tmp_path, "p.csv", [[0.5, -1.0], [1.5, 2.0]])
        sig_file = str(tmp_path / "sig.json")
        out_file = str(tmp_path / "recon.csv")
        assert main(["sign", f, "--depth", "6", "--out", sig_file]) == 0
        assert main(["invert", sig_file, "--start", "0.5,-1.0",
                     "--out", out_file]) == 0
        [(_, recon)] = read_paths_csv(out_file)
        assert recon.points.shape == (7, 2)
        np.testing.assert_allclose(recon.points[0], [0.5, -1.0], atol=1e-12)
        np.testing.assert_allclose(recon.points[-1], [1.5, 2.0], atol=1e-9)
        # all interior points must sit on the segment
        for t, pt in zip(recon.times, recon.points):
            want = np.array([0.5, -1.0]) + t * np.array([1.0, 3.0])
            np.testing.assert_allclose(pt, want, atol=1e-9)

    @pytest.mark.parametrize("points, depth", [
        pytest.param([[0.0, 0.0], [1.0, 0.5], [0.25, 1.5]], 6, id="planar-6"),
        pytest.param([[0.0, 0.0], [1.0, 0.5], [0.25, 1.5]], 16, id="planar-16"),
        # R^3 at depth 10 lies past the d = 3 shapes (n <= 9) of SHAPES in
        # test_insertion.py
        pytest.param([[0.0, 0.0, 0.0], [1.0, 0.5, 0.25], [0.25, 1.5, -0.5],
                      [0.5, 1.0, 1.0]], 10, id="r3-10"),
        pytest.param([[0.0], [150.0], [370.0]], 1000, id="line-1000"),
        # signed by Horner's scheme, its top levels were lost to
        # cancellation, and the inversion ended at 315.38
        pytest.param([[0.0], [150.0], [20.0], [40.0]], 30, id="backtrack-30"),
    ])
    def test_backtracking_one_column_path_inverts_to_its_end(self, tmp_path,
                                                             points, depth):
        f = write_path_csv_file(tmp_path, "x.csv", points)
        sig_file, out_file = str(tmp_path / "sig.json"), str(tmp_path / "r.csv")
        assert main(["sign", f, "--depth", str(depth), "--out", sig_file]) == 0
        assert main(["invert", sig_file, "--out", out_file]) == 0
        [(_, recon)] = read_paths_csv(out_file)
        assert np.abs(recon.points[-1] - points[-1]).max() <= 1e-9

    def test_json_byte_order_mark_is_dropped(self, tmp_path):
        # with the mark, json.load refused the file as invalid JSON
        f = write_path_csv_file(tmp_path, "p.csv", [[0.0, 0.0], [1.0, 0.5],
                                                    [0.25, 1.5]])
        plain, marked = tmp_path / "plain.json", tmp_path / "marked.json"
        assert main(["sign", f, "--depth", "6", "--out", str(plain)]) == 0
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        outputs = []
        for sig_file in (plain, marked):
            out_file = tmp_path / f"{sig_file.stem}.csv"
            assert main(["invert", str(sig_file), "--out", str(out_file)]) == 0
            outputs.append(out_file.read_bytes())
        assert outputs[0] == outputs[1]

    def test_invert_depth2_gives_three_points(self, tmp_path, capsys):
        sig = path_signature(PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.5]]), 2)
        sig_file = tmp_path / "sig.json"
        sig_file.write_text(dumps_signatures([("0", sig)]))
        assert main(["invert", str(sig_file)]) == 0
        [(_, recon)] = read_paths_csv(io.StringIO(capsys.readouterr().out))
        assert recon.points.shape == (3, 2)

    def test_invert_default_start_is_origin(self, tmp_path, capsys):
        sig = path_signature(PiecewiseLinearPath([[2.0, 2.0], [3.0, 1.0]]), 4)
        sig_file = tmp_path / "sig.json"
        sig_file.write_text(dumps_signatures([("0", sig)]))
        assert main(["invert", str(sig_file)]) == 0
        [(_, recon)] = read_paths_csv(io.StringIO(capsys.readouterr().out))
        np.testing.assert_allclose(recon.points[0], [0.0, 0.0], atol=1e-15)

    def test_batch_of_three_ids(self, tmp_path, capsys, rng):
        pts = np.vstack([half_circle(6), half_circle(6) * 2.0,
                         half_circle(6) + 1.0])
        ids = sum([[pid] * 7 for pid in ("a", "b", "c")], [])
        f = tmp_path / "p.csv"
        with f.open("w") as fh:
            fh.write("id,x1,x2\n")
            for pid, p in zip(ids, pts):
                fh.write(f"{pid},{p[0]},{p[1]}\n")
        assert main(["sign", str(f), "--depth", "3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["id"] for r in payload] == ["a", "b", "c"]
        sig_file = tmp_path / "sigs.json"
        sig_file.write_text(json.dumps(payload))
        assert main(["invert", str(sig_file)]) == 0
        out = read_paths_csv(io.StringIO(capsys.readouterr().out))
        assert [pid for pid, _ in out] == ["a", "b", "c"]
        for _, recon in out:
            assert recon.points.shape == (4, 2)

    def test_sign_batch_bytes_equal_per_path_records(self, tmp_path, rng):
        paths = {"long": rng.normal(size=(11, 2)), "two": rng.normal(size=(2, 2)),
                 "five": rng.normal(size=(5, 2))}
        paths["five"][3] = paths["five"][2]   # a repeated point
        f = write_paths_file(tmp_path, "p.csv", paths)
        out_file = tmp_path / "sigs.json"
        assert main(["sign", f, "--depth", "7", "--out", str(out_file)]) == 0
        want = [(pid, path_signature(path, 7)) for pid, path in read_paths_csv(f)]
        assert [pid for pid, _ in want] == ["long", "two", "five"]
        assert out_file.read_text() == dumps_signatures(want)

    def test_sign_reports_first_failing_path(self, tmp_path, capsys):
        # the second path overflows at level 2; the third overflows at
        # level 1 and, having fewer segments, is signed in the batch first
        second = PiecewiseLinearPath([[0.0, 0.0], [1e300, 1.0], [1e300, 2.0]])
        with pytest.raises(AssumptionViolation) as info:
            path_signature(second, 3)
        paths = {"a": [[0.0, 0.0], [1.0, 0.5], [2.0, 0.0]],
                 "b": second.points, "c": [[-1.7e308, 0.0], [1.7e308, 0.0]]}
        f = write_paths_file(tmp_path, "p.csv", paths)
        out_file = tmp_path / "sigs.json"
        assert main(["sign", f, "--depth", "3", "--out", str(out_file)]) == 4
        assert capsys.readouterr().err == f"error: {info.value}\n"
        assert not out_file.exists()

    def test_degenerate_record_becomes_error_row(self, tmp_path, capsys):
        good = path_signature(PiecewiseLinearPath([[0.0, 0.0], [1.0, 0.0]]), 3)
        bad = {"id": "zero", "dim": 2, "depth": 3,
               "levels": [[1.0], [0.0] * 2, [0.0] * 4, [0.0] * 8]}
        sig_file = tmp_path / "sigs.json"
        sig_file.write_text(json.dumps(
            [json.loads(dumps_signatures([("ok", good)])) | {"id": "ok"},
             bad]))
        assert main(["invert", str(sig_file)]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        error_rows = [r for r in rows[1:] if r[-1]]
        assert len(error_rows) == 1 and error_rows[0][0] == "zero"

    def test_record_of_another_dim_becomes_error_row(self, tmp_path, capsys):
        # the start point lives in the first record's R^2
        flat = linear_signature(np.array([1.0, 0.5]), 1.0, 3)
        wide = linear_signature(np.array([1.0, 0.5, 2.0]), 1.0, 3)
        f = tmp_path / "sigs.json"
        f.write_text(dumps_signatures([("flat", flat), ("wide", wide)]))
        assert main(["invert", str(f)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        rows = list(csv.DictReader(io.StringIO(out.out)))
        assert [r["id"] for r in rows] == ["flat"] * 4 + ["wide"]
        assert rows[-1]["error"] == ("a start point of shape (2,) does not fit "
                                     "a signature over R^3")

    def test_every_record_failing_keeps_batch_header(self, tmp_path, capsys):
        zero = {"dim": 2, "depth": 3,
                "levels": [[1.0], [0.0] * 2, [0.0] * 4, [0.0] * 8]}
        sig_file = tmp_path / "sigs.json"
        sig_file.write_text(json.dumps([zero | {"id": "a"}, zero | {"id": "b"}]))
        out_file = tmp_path / "recon.csv"
        assert main(["invert", str(sig_file), "--out", str(out_file)]) == 0
        rows = list(csv.reader(io.StringIO(out_file.read_text())))
        assert rows[0] == ["id", "t", "x1", "x2", "error"]
        assert [r[0] for r in rows[1:]] == ["a", "b"]
        assert all(r[-1] and len(r) == 5 for r in rows[1:])
        capsys.readouterr()
        # signing the all-failed output is an input error, not an empty batch
        assert main(["sign", str(out_file), "--depth", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "no points" in captured.err

    def test_bad_records_become_error_rows(self, tmp_path, capsys, rng):
        sig = path_signature(random_path(rng, 3, 2), 5)
        good = json.loads(dumps_signatures([("good", sig)]))
        zero = good | {"id": "zero", "levels": [[1.0]] + [
            [0.0] * 2**k for k in range(1, 6)]}
        huge = good | {"id": "huge", "levels": [[1.0]] + [
            [1e200] * 2**k for k in range(1, 6)]}
        shallow = {"id": "shallow", "dim": 2, "depth": 1,
                   "levels": [[1.0], [1.0, 2.0]]}
        sig_file = tmp_path / "sigs.json"
        sig_file.write_text(json.dumps([good, zero, huge, shallow]))
        assert main(["invert", str(sig_file)]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        rows = list(csv.DictReader(io.StringIO(out.out)))
        assert {r["id"] for r in rows if r["error"]} == {"zero", "huge",
                                                         "shallow"}
        [(pid, recon)] = read_paths_csv(io.StringIO(out.out))
        assert pid == "good"
        np.testing.assert_array_equal(recon.points,
                                      invert_signature(sig).path.points)


class TestRoundtripAndTrend:
    def test_roundtrip_half_circle_improves_with_depth(self, tmp_path, capsys):
        f = write_path_csv_file(tmp_path, "hc.csv", half_circle(24))
        assert main(["roundtrip", f, "--depths", "4,8,12"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        means = [float(r["mean_error"]) for r in rows]
        assert means[0] > means[1] > means[2]
        assert all(float(r["max_error"]) >= float(r["mean_error"])
                   for r in rows)

    def test_roundtrip_linear_is_tiny(self, tmp_path, capsys):
        f = write_path_csv_file(tmp_path, "lin.csv",
                                [[0.0, 0.0], [2.0, 1.0]])
        assert main(["roundtrip", f, "--depths", "5"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert float(rows[0]["max_error"]) < 1e-9

    def test_roundtrip_spiral_3d(self, tmp_path, capsys):
        theta = np.linspace(0.0, 3.0 * math.pi, 31)
        pts = np.column_stack([np.cos(theta), np.sin(theta),
                               theta / (3.0 * math.pi)])
        f = write_path_csv_file(tmp_path, "sp.csv", pts)
        assert main(["roundtrip", f, "--depths", "5,10,15"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        means = [float(r["mean_error"]) for r in rows]
        assert means[0] > means[1] > means[2]

    def test_roundtrip_signs_each_path_once(self, tmp_path, capsys,
                                            signed_depths):
        f = write_paths_file(tmp_path, "two.csv", {
            "a": [(0.0, 0.0), (1.0, 0.5), (0.25, 1.5)],
            "b": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.5)]})
        assert main(["roundtrip", f, "--depths", "4,8,12"]) == 0
        assert signed_depths == [12, 12]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 3

    def test_roundtrip_resamples_each_path_once(self, tmp_path, capsys,
                                                monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "resample_arclength", lambda points, count: (
            calls.append(len(points)) or resample_arclength(points, count)))
        f = write_paths_file(tmp_path, "two.csv", {
            "a": [(0.0, 0.0), (1.0, 0.5), (0.25, 1.5)],
            "b": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (2.0, 1.5)]})
        assert main(["roundtrip", f, "--depths", "4,8,12"]) == 0
        # each input path once, then its inversion at each of 3 depths
        assert calls == [3, 5, 9, 13, 4, 5, 9, 13]
        assert len(capsys.readouterr().out.splitlines()) == 1 + 2 * 3

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_roundtrip_rows_equal_signing_each_depth_alone(self, tmp_path,
                                                           capsys, rng, dim):
        # the rows of one signature per path are the bytes of signing,
        # inverting and measuring each depth on its own
        f = tmp_path / "mixed.csv"
        with f.open("w", newline="") as fh:
            write_paths_csv(fh, [(f"p{m}", random_path(rng, m, dim))
                                 for m in (1, 3, 7, 20)])
        depths = [9, 2, 5]
        assert main(["roundtrip", str(f), "--depths",
                     ",".join(map(str, depths))]) == 0
        expected = ["id,depth,mean_error,max_error"]
        for pid, path in read_paths_csv(str(f)):
            for n in depths:
                recon = invert_signature(path_signature(path, n),
                                         start=path.points[0])
                dist = np.linalg.norm(
                    resample_arclength(path.points, RESAMPLE_POINTS)
                    - resample_arclength(recon.path.points, RESAMPLE_POINTS),
                    axis=1)
                expected.append(f"{pid},{n},{format_float(dist.mean())},"
                                f"{format_float(dist.max())}")
        assert capsys.readouterr().out.splitlines() == expected

    def test_trend_noiseless_line(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 21)
        pts = np.column_stack([t, 2.0 * t])
        f = write_path_csv_file(tmp_path, "line.csv", pts, times=t)
        assert main(["trend", f, "--depth", "8"]) == 0
        [(_, recon)] = read_paths_csv(io.StringIO(capsys.readouterr().out))
        for u, pt in zip(recon.times, recon.points):
            np.testing.assert_allclose(pt, [u, 2.0 * u], atol=1e-6)

    def test_trend_denoises_cosine(self, tmp_path, capsys):
        # time-augmented cosine plus AR(1) noise: the reconstruction from a
        # shallow signature should track the clean curve better than the
        # noisy samples do
        rng = np.random.default_rng(20240817)
        t = np.linspace(0.0, 1.0, 61)
        clean = np.cos(math.pi * t)
        noise = np.empty_like(t)
        noise[0] = rng.standard_normal() * 0.25
        for i in range(1, t.size):
            noise[i] = 0.8 * noise[i - 1] + 0.25 * rng.standard_normal()
        noisy = clean + noise
        f = write_path_csv_file(tmp_path, "cos.csv",
                                np.column_stack([t, noisy]), times=t)
        assert main(["trend", f, "--depth", "12"]) == 0
        [(_, recon)] = read_paths_csv(io.StringIO(capsys.readouterr().out))
        recon_on_grid = np.interp(t, recon.points[:, 0], recon.points[:, 1])
        err_recon = float(np.mean(np.abs(recon_on_grid - clean)))
        err_noisy = float(np.mean(np.abs(noisy - clean)))
        assert err_recon < err_noisy

    def test_trend_depth_controls_coarseness(self, tmp_path, capsys):
        t = np.linspace(0.0, 1.0, 40)
        pts = np.column_stack([t, np.sin(3.0 * t)])
        f = write_path_csv_file(tmp_path, "s.csv", pts, times=t)
        for depth, rows_expected in ((2, 3), (21, 22)):
            assert main(["trend", f, "--depth", str(depth)]) == 0
            [(_, recon)] = read_paths_csv(io.StringIO(capsys.readouterr().out))
            assert recon.points.shape == (rows_expected, 2)

    def test_trend_of_a_one_column_walk_ends_at_its_last_point(self, tmp_path,
                                                               capsys):
        # a 50-step Gaussian walk whose depth-12 trend, signed by Horner's
        # scheme, missed its last point by a fifth of its length
        walk = np.cumsum(np.random.default_rng(5).normal(size=(6, 51, 1)),
                         axis=1)[5]
        f = write_path_csv_file(tmp_path, "walk.csv", walk)
        assert main(["trend", f, "--depth", "12"]) == 0
        [(_, recon)] = read_paths_csv(io.StringIO(capsys.readouterr().out))
        length = np.abs(np.diff(walk[:, 0])).sum()
        np.testing.assert_allclose(recon.points[-1], walk[-1], rtol=0,
                                   atol=1e-14 * (length + abs(walk[0, 0])))

    def test_trend_rejects_multiple_paths(self, tmp_path):
        f = tmp_path / "two.csv"
        f.write_text("id,x1,x2\na,0,0\na,1,1\nb,0,0\nb,1,2\n")
        assert main(["trend", str(f), "--depth", "4"]) == 2


class TestDevelopCli:
    def test_single_segment_alpha3(self, tmp_path, capsys):
        f = write_path_csv_file(tmp_path, "seg.csv", [[0.0, 0.0], [2.0, 0.0]])
        assert main(["develop", f, "--alpha", "3.0"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["segments"] == 1
        assert rep["lhs"] == pytest.approx(math.exp(3.0), rel=1e-12)
        assert rep["satisfied"] is True

    def test_auto_alpha(self, tmp_path, capsys):
        pts = [[0.0, 0.0], [0.5, 0.0], [0.5, 0.5]]
        f = write_path_csv_file(tmp_path, "corner.csv", pts)
        assert main(["develop", f]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["segments"] == 2
        assert rep["omega"] == pytest.approx(math.pi / 2.0, abs=1e-12)
        assert rep["alpha"] == pytest.approx(2.0 * rep["K_omega"] / 0.5,
                                             rel=1e-11)
        assert rep["satisfied"] is True

    def test_backtracking_path_exits_4(self, tmp_path):
        f = write_path_csv_file(tmp_path, "back.csv",
                                [[0.0, 0.0], [1.0, 0.0], [0.25, 0.0]])
        assert main(["develop", f]) == 4

    @pytest.mark.parametrize("step", [1e-310, 1e-320, 5e-324])
    def test_subnormal_time_step(self, tmp_path, capsys, step):
        # the check reads no times; dividing by this step overflows a slope
        pts = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]
        timed = write_path_csv_file(tmp_path, "timed.csv", pts, [0.0, step, 1.0])
        plain = write_path_csv_file(tmp_path, "plain.csv", pts)
        assert main(["develop", plain]) == 0
        want = capsys.readouterr().out
        assert main(["develop", timed]) == 0
        assert capsys.readouterr() == (want, "")

    def test_short_path_far_from_origin(self, tmp_path, capsys):
        # scaling the absolute points by 1/ell = 1e10 would overflow them
        f = write_path_csv_file(tmp_path, "far.csv", [[1e300, 0.0], [1e300, 1e-10]])
        assert main(["develop", f]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["segments"] == 1 and rep["satisfied"] is True
        assert all(math.isfinite(v) for v in (rep["lhs"], rep["rhs"], rep["alpha"]))


class TestExitCodes:
    def test_missing_file_is_input_error(self):
        assert main(["sign", "/nonexistent/x.csv", "--depth", "3"]) == 2

    def test_empty_csv_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "empty.csv"
        f.write_text("")
        assert main(["sign", str(f), "--depth", "3"]) == 2
        assert "no points" in capsys.readouterr().err

    def test_malformed_json_is_input_error(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{not json")
        assert main(["invert", str(f)]) == 2

    def test_bad_start_vector_is_input_error(self, tmp_path):
        sig = path_signature(PiecewiseLinearPath([[0.0, 0.0], [1.0, 1.0]]), 3)
        f = tmp_path / "sig.json"
        f.write_text(dumps_signatures([("0", sig)]))
        assert main(["invert", str(f), "--start", "1.0"]) == 2
        assert main(["invert", str(f), "--start", "a,b"]) == 2

    def test_allocation_cap_is_numeric_error(self, tmp_path):
        f = write_path_csv_file(tmp_path, "p.csv", [[0.0, 0.0], [1.0, 1.0]])
        assert main(["sign", str(f), "--depth", "10",
                     "--max-coeffs", "100"]) == 3

    def test_non_finite_path_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "nan.csv"
        f.write_text("x1,x2\n0.0,0.0\n1.0,nan\n2.0,1.0\n")
        assert main(["sign", str(f), "--depth", "3"]) == 2
        assert main(["roundtrip", str(f), "--depths", "3"]) == 2
        captured = capsys.readouterr()
        assert "non-finite" in captured.err
        assert "nan" not in captured.out.lower()

    def test_non_finite_signature_is_input_error(self, tmp_path, capsys):
        f = tmp_path / "nan.json"
        f.write_text('{"dim": 2, "depth": 2, "levels": '
                     '[[1.0], [1.0, NaN], [0.5, 0.0, 0.0, 0.0]]}')
        assert main(["invert", str(f)]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_non_finite_start_is_input_error(self, tmp_path):
        sig = path_signature(PiecewiseLinearPath([[0.0, 0.0], [1.0, 1.0]]), 3)
        f = tmp_path / "sig.json"
        f.write_text(dumps_signatures([("0", sig)]))
        assert main(["invert", str(f), "--start", "nan,0.0"]) == 2

    @pytest.mark.parametrize("raw, start", [
        ("nan,0.0", [math.nan, 0.0]), ("1.0", [1.0]), ("1,2,inf", [1, 2, 3]),
    ], ids=["non-finite", "short", "long"])
    def test_start_is_refused_as_the_library_refuses_it(self, tmp_path,
                                                         capsys, raw, start):
        sig = path_signature(PiecewiseLinearPath([[0.0, 0.0], [1.0, 1.0]]), 3)
        f = tmp_path / "sig.json"
        f.write_text(dumps_signatures([("0", sig)]))
        with pytest.raises(ValueError) as refused:
            invert_signature(sig, start=start)
        assert main(["invert", str(f), "--start", raw]) == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"

    def test_mistyped_signature_record_is_input_error(self, tmp_path):
        f = tmp_path / "typed.json"
        f.write_text('{"dim": "2", "depth": 2, "levels": '
                     '[[1.0], [1.0, 0.0], [0.5, 0.0, 0.0, 0.0]]}')
        assert main(["invert", str(f)]) == 2

    def test_assumption_violation_is_exit_4(self, tmp_path):
        f = write_path_csv_file(tmp_path, "coll.csv",
                                [[0.0, 0.0], [0.5, 0.0], [1.0, 0.0]])
        assert main(["develop", str(f)]) == 4


def assert_one_error_line(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err


class TestBadArguments:
    """Bad argument values and unreadable inputs exit 2; inputs past the
    allocation cap exit 3, and paths outside develop's assumptions or
    float64 range exit 4; always one error line and no traceback."""

    @pytest.fixture
    def square(self, tmp_path):
        return write_path_csv_file(tmp_path, "sq.csv",
                                   [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])

    @pytest.mark.parametrize("argv", [
        ["sign", "{f}", "--depth=-1"],
        ["roundtrip", "{f}", "--depths", "0"],
        ["roundtrip", "{f}", "--depths", "4,1"],
        ["roundtrip", "{f}", "--depths", "4,a"],
        ["roundtrip", "{f}", "--depths", ","],
        ["roundtrip", "{f}", "--depths", ""],
        ["trend", "{f}", "--depth", "1"],
        ["sign", "{f}", "--depth", "3", "--max-coeffs=-5"],
        ["sign", "{f}", "--depth", "3", "--max-coeffs", "0"],
        ["develop", "{f}", "--alpha", "nan"],
        ["develop", "{f}", "--alpha=-inf"],
    ], ids=lambda argv: " ".join(argv[:1] + argv[2:]))
    def test_bad_argument_value(self, square, capsys, argv):
        assert main([a.format(f=square) for a in argv]) == 2
        assert_one_error_line(capsys)

    def test_huge_integer_level(self, tmp_path, capsys):
        f = tmp_path / "big.json"
        f.write_text('{"dim": 1, "depth": 2, "levels": [[1.0], [1.0], [1'
                     + "0" * 400 + ']]}')
        assert main(["invert", str(f)]) == 2
        assert_one_error_line(capsys)

    def test_integer_past_the_digit_limit(self, tmp_path, capsys):
        # int() refuses more than 4,300 digits; the message names the limit
        # and does not pass on Python's advice to raise it
        f = tmp_path / "long.json"
        f.write_text("[[1" + "0" * 4999 + "]]")
        assert main(["invert", str(f)]) == 2
        err = capsys.readouterr().err
        limit = sys.get_int_max_str_digits()
        assert err == (f"error: invalid JSON: an integer literal of 5000 digits "
                       f"is longer than the limit of {limit} digits\n")
        assert "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("dim, code", [
        (0, 2), (-2, 2), (-100000, 2), (100000, 3),
    ], ids=["0", "-2", "-100000", "100000"])
    def test_bad_dim(self, tmp_path, capsys, dim, code):
        # level 2 over R^100000 is past the cap, which the size rule
        # refuses before the short level 1 is read; a dim below 1 has no
        # level to count, however large its square
        f = tmp_path / "dim.json"
        f.write_text(f'{{"dim": {dim}, "depth": 2, "levels": [[1.0], [0.5], [0.125]]}}')
        assert main(["invert", str(f)]) == code
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("text", [
        "[" * 100000 + "]" * 100000,
        '{"dim": 1, "depth": 2, "levels": [[1.0], [0.5], [0.125]], "id": '
        + "[" * 50000 + "]" * 50000 + "}",
    ], ids=["nested-arrays", "nested-id"])
    def test_deeply_nested_json(self, tmp_path, capsys, text):
        # json.load raises RecursionError past its nesting limit
        f = tmp_path / "deep.json"
        f.write_text(text)
        assert main(["invert", str(f)]) == 2
        assert_one_error_line(capsys)

    def test_huge_dim_without_levels_to_match(self, tmp_path, capsys):
        f = tmp_path / "wide.json"
        f.write_text('{"dim": 1' + "0" * 400 + ', "depth": 0, "levels": [[1.0]]}')
        assert main(["invert", str(f)]) == 3
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("depth", [0, 1], ids=["depth-0", "level-1"])
    def test_later_record_past_the_cap(self, tmp_path, capsys, depth):
        # a depth-0 record cannot claim a dim whose level 1 is past the
        # cap, even when it is not the record the batch dim comes from
        good = signature_to_record(linear_signature(np.array([1.0, 0.5]), 1.0, 2))
        wide = {"dim": 10**9, "depth": depth, "levels": [[1.0], [0.5]][:depth + 1]}
        f = tmp_path / "wide.json"
        f.write_text(json.dumps([good, wide]))
        assert main(["invert", str(f)]) == 3
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("ids", [["a", "b", "a"], [None, None, "1"]],
                             ids=["explicit", "index-collides"])
    def test_duplicate_record_ids(self, tmp_path, capsys, ids):
        # outputs are keyed by id, so a repeat would drop error rows and
        # merge ok paths; the record without an id at index 1 is id "1"
        sig = linear_signature(np.array([1.0, 0.5]), 1.0, 3)
        f = tmp_path / "dup.json"
        f.write_text(json.dumps([signature_to_record(sig, pid) for pid in ids]))
        assert main(["invert", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error: duplicate record id '")

    @pytest.mark.parametrize("pid, name", [
        ("null", "a null"), ("true", "a boolean"), ("[1, 2]", "a list"),
        ('{"a": 1}', "an object"), ("1.5", "a float")],
        ids=["null", "boolean", "list", "object", "float"])
    def test_record_id_not_string_or_integer(self, tmp_path, capsys, pid, name):
        # str() of these would write Python reprs such as None or {'a': 1}
        f = tmp_path / "ids.json"
        rec = '{"dim": 1, "depth": 2, "levels": [[1.0], [0.5], [0.125]]'
        f.write_text(f'[{rec}, "id": "p"}}, {rec}, "id": {pid}}}]')
        assert main(["invert", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: record 1: id must be a string or an integer, "
                       f"not {name}\n")

    def test_record_id_with_a_lone_surrogate(self, tmp_path, capsys):
        # no output can encode the id, which failed only after the output
        # had opened and its header was written
        f = tmp_path / "ids.json"
        f.write_text('{"dim": 1, "depth": 2, "id": "\\ud800", '
                     '"levels": [[1.0], [0.5], [0.125]]}')
        out_file = tmp_path / "path.csv"
        assert main(["invert", str(f), "--out", str(out_file)]) == 2
        assert capsys.readouterr().err == (
            "error: record 0: id '\\ud800' holds a lone surrogate, not "
            "valid in UTF-8\n")
        assert not out_file.exists()

    def test_integer_record_ids_are_kept(self, tmp_path, capsys):
        rec = '{"dim": 1, "depth": 2, "levels": [[1.0], [0.5], [0.125]]'
        f = tmp_path / "ids.json"
        f.write_text(f'[{rec}, "id": 7}}, {rec}, "id": -3}}]')
        assert main(["invert", str(f)]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["id"] for r in rows] == ["7"] * 3 + ["-3"] * 3

    @pytest.mark.parametrize("entry, name", [
        ("true", "boolean"), ('"2.5"', "string"), ("[2.0]", "list")],
        ids=["boolean", "numeric-string", "nested-list"])
    def test_level_entry_not_a_number(self, tmp_path, capsys, entry, name):
        # json.load makes 1.0, 2.5 and a one-entry list of these, which
        # numpy would take as numbers or as a shape error
        f = tmp_path / "typed.json"
        good = '{"dim": 1, "depth": 2, "levels": [[1.0], [0.5], [0.125]]}'
        f.write_text(f'[{good}, {{"dim": 1, "depth": 2, "id": "p", '
                     f'"levels": [[1.0], [0.5], [{entry}]]}}]')
        assert main(["invert", str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: record 'p': level 2 holds a {name}, not only numbers\n"

    @pytest.mark.parametrize("command", [
        ["sign", "--depth", "2"], ["roundtrip", "--depths", "2"],
        ["trend", "--depth", "2"], ["develop"], ["invert"],
    ], ids=lambda c: c[0])
    def test_non_utf8_input(self, tmp_path, capsys, command):
        f = tmp_path / "latin1.txt"
        f.write_bytes(b"x1,x2\n0,0\n1,\xe9\n")
        assert main([command[0], str(f)] + command[1:]) == 2
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("command", [
        ["sign", "--depth", "2"], ["invert"],
    ], ids=lambda c: c[0])
    def test_directory_input(self, tmp_path, capsys, command):
        assert main([command[0], str(tmp_path)] + command[1:]) == 2
        assert_one_error_line(capsys)

    def test_no_coordinate_columns(self, tmp_path, capsys):
        f = tmp_path / "bare.csv"
        f.write_text("id,t\na,0\na,1\n")
        assert main(["sign", str(f), "--depth", "2"]) == 2
        assert capsys.readouterr().err == \
            "error: no coordinate columns in CSV file\n"

    def test_special_column_named_twice(self, tmp_path, capsys):
        f = tmp_path / "dup.csv"
        f.write_text("t,t,x1\n0,0,0\n1,1,1\n")
        assert main(["sign", str(f), "--depth", "2"]) == 2
        assert_one_error_line(capsys)

    def test_develop_constant_path(self, tmp_path, capsys):
        f = write_path_csv_file(tmp_path, "c.csv", [[1.0, 2.0], [1.0, 2.0]])
        assert main(["develop", f]) == 4
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["--alpha", "1000"],   # exp(alpha) overflows
        [],                    # a short segment makes the default alpha huge
    ], ids=["alpha-1000", "default-alpha"])
    def test_develop_overflow(self, tmp_path, capsys, argv):
        f = write_path_csv_file(tmp_path, "s.csv",
                                [[0.0, 0.0], [1.0, 0.0], [1.0, 1e-7]])
        assert main(["develop", f] + argv) == 4
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("argv", [
        ["sign", "{f}", "--depth", "3"],
        ["roundtrip", "{f}", "--depths", "3"],
        ["trend", "{f}", "--depth", "3"],
    ], ids=lambda argv: argv[0])
    def test_signature_overflow(self, tmp_path, capsys, argv):
        f = tmp_path / "big.csv"
        f.write_text("0,0\n1e300,1\n")
        assert main([a.format(f=f) for a in argv]) == 4
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("column", [[0.0, 0.0, 1e300, 1.0],
                                        [0.0, 8e307, 1.0]],
                             ids=["squares-overflow", "sum-overflows"])
    def test_roundtrip_of_a_huge_excursion_is_finite(self, tmp_path, capsys,
                                                     column):
        # over R^1 signing reads only the endpoints, so these paths sign
        # and invert; their distances once overflowed to inf
        f = write_path_csv_file(tmp_path, "x.csv", np.array(column)[:, None])
        assert main(["roundtrip", f, "--depths", "2"]) == 0
        [row] = csv.DictReader(io.StringIO(capsys.readouterr().out))
        mean, top = float(row["mean_error"]), float(row["max_error"])
        [(_, path)] = read_paths_csv(f)
        recon = invert_signature(path_signature(path, 2), start=path.points[0])
        dist = np.abs(resample_arclength(path.points, RESAMPLE_POINTS)
                      - resample_arclength(recon.path.points, RESAMPLE_POINTS))
        assert top == dist.max() < math.inf
        assert math.isclose(mean, math.fsum(dist[:, 0] / dist.size),
                            rel_tol=1e-12)

    def test_roundtrip_of_an_arc_length_past_float64(self, tmp_path, capsys):
        f = write_path_csv_file(tmp_path, "x.csv",
                                [[0.0], [1.5e308], [-1.5e308], [1.0]])
        assert main(["roundtrip", f, "--depths", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a path's arc length overflows float64\n"

    def test_depth_below_2_is_refused_before_signing(self, square, capsys,
                                                     signed_depths):
        assert main(["roundtrip", square, "--depths", "40,1"]) == 2
        assert signed_depths == []
        assert capsys.readouterr().err == (
            "error: depth must be an integer in [2, 2**53], got 1\n")

    @pytest.mark.parametrize("depths", ["2,6", "6,2"])
    def test_roundtrip_refusal_does_not_depend_on_the_depth_order(
            self, tmp_path, capsys, depths):
        # a closed loop: depth 2 alone is refused by the guard (exit 3), but
        # the path is signed once at depth 6 first, which overflows
        f = write_path_csv_file(tmp_path, "loop.csv", [
            [0.0, 0.0], [1e60, 0.0], [1e60, 1e60], [0.0, 0.0]])
        assert main(["roundtrip", f, "--depths", depths]) == 4
        assert capsys.readouterr().err == ("error: the depth-6 signature "
                                           "overflows float64: level 6 has a "
                                           "non-finite entry\n")

    def test_depth_0_signature_of_a_dim_past_the_cap(self, tmp_path, capsys):
        f = write_path_csv_file(tmp_path, "six.csv",
                                [np.zeros(6), np.arange(1.0, 7.0)])
        assert main(["sign", f, "--depth", "0", "--max-coeffs", "5"]) == 3
        assert_one_error_line(capsys)
        assert main(["sign", f, "--depth", "0", "--max-coeffs", "6"]) == 0

    def test_failed_roundtrip_writes_nothing(self, tmp_path, capsys):
        f = tmp_path / "big.csv"
        f.write_text("0,0\n1e300,1\n")
        assert main(["roundtrip", str(f), "--depths", "3"]) == 4
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: ")
        out_file = tmp_path / "table.csv"
        assert main(["roundtrip", str(f), "--depths", "3",
                     "--out", str(out_file)]) == 4
        assert not out_file.exists()

    def test_one_dimensional_level_cap(self, tmp_path, capsys):
        # 17 coefficients a level, 17 * 235 <= 4 * 1000 < 17 * 236, for a
        # path signed and a record read alike
        f = write_path_csv_file(tmp_path, "line.csv", [[0.0], [100.0]])
        sig_file, out_file = tmp_path / "sig.json", str(tmp_path / "r.csv")
        assert main(["sign", f, "--depth", "234", "--max-coeffs", "1000",
                     "--out", str(sig_file)]) == 0
        assert main(["invert", str(sig_file), "--max-coeffs", "1000",
                     "--out", out_file]) == 0
        [(_, recon)] = read_paths_csv(out_file)
        assert recon.points.shape == (235, 1)
        assert abs(recon.points[-1, 0] - 100.0) <= 1e-9
        assert main(["sign", f, "--depth", "235", "--max-coeffs", "1000"]) == 3
        assert_one_error_line(capsys)
        rec = json.loads(sig_file.read_text())
        rec["depth"] += 1
        rec["levels"].append(rec["levels"][-1])
        sig_file.write_text(json.dumps(rec))
        assert main(["invert", str(sig_file), "--max-coeffs", "1000"]) == 3
        assert_one_error_line(capsys)
        # the default cap refuses from depth 23,529,411 on
        assert main(["sign", f, "--depth", "23529411"]) == 3
        assert_one_error_line(capsys)

    def test_depth_2_pow_53_is_past_the_cap(self, square, capsys):
        # refused at once, without building 2**(2**53)
        assert main(["sign", square, "--depth", str(2**53)]) == 3
        assert_one_error_line(capsys)

    def test_develop_n1_overflow(self, tmp_path, capsys):
        steps = np.tile([[1.0, 0.0], [0.0, 1.0]], (100, 1))
        pts = np.vstack([[0.0, 0.0], np.cumsum(steps, axis=0)])
        f = write_path_csv_file(tmp_path, "stairs.csv", pts)
        assert main(["develop", f, "--alpha", "500"]) == 4
        assert_one_error_line(capsys)


SRC = Path(__file__).resolve().parents[1] / "src"


def run_module(cwd, *argv, **env):
    """``python -m siginvert.cli`` in its own process, importing the
    package from this checkout, with the variables ``env`` set."""
    return subprocess.run([sys.executable, "-m", "siginvert.cli", *argv],
                          cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=str(SRC), **env),
                          capture_output=True, timeout=120)


class TestProcess:
    def test_bytes_equal_in_process_main(self, tmp_path, capsys):
        f = write_path_csv_file(tmp_path, "p.csv",
                                [[0.0, 0.0], [1.0, 0.5], [0.25, 1.5]])
        sign = run_module(tmp_path, "sign", f, "--depth", "6")
        assert (sign.returncode, sign.stderr) == (0, b"")
        assert main(["sign", f, "--depth", "6"]) == 0
        assert sign.stdout == capsys.readouterr().out.encode()
        sig_file = tmp_path / "sig.json"
        sig_file.write_bytes(sign.stdout)
        invert = run_module(tmp_path, "invert", str(sig_file))
        assert (invert.returncode, invert.stderr) == (0, b"")
        assert main(["invert", str(sig_file)]) == 0
        assert invert.stdout == capsys.readouterr().out.encode()

    def test_out_files_are_utf8_in_the_c_locale(self, tmp_path):
        # the files were written in the locale's encoding, ASCII here, so a
        # non-ASCII id failed after the header had been written
        f = tmp_path / "p.csv"
        f.write_bytes("id,x1\n\u00df,0\n\u00df,1\n\u00df,3\n".encode())
        sig, back, trend = (tmp_path / name for name in
                            ("sig.json", "back.csv", "trend.csv"))
        for argv in (["sign", str(f), "--depth", "4", "--out", str(sig)],
                     ["invert", str(sig), "--out", str(back)],
                     ["trend", str(f), "--depth", "4", "--out", str(trend)]):
            proc = run_module(tmp_path, *argv, LC_ALL="C",
                              PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
            assert (proc.returncode, proc.stderr) == (0, b""), argv
        for out in (back, trend):
            [(pid, path)] = read_paths_csv(str(out))
            assert pid == "\u00df" and path.points.shape == (5, 1)

    def test_stdout_prints_nothing_it_cannot_encode(self, tmp_path):
        # stdout is ASCII here, so each table fails whole: no header is printed
        f = tmp_path / "p.csv"
        f.write_bytes("id,x1,x2\n\u00df,0,0\n\u00df,1,0.5\n\u00df,0.25,1.5\n".encode())
        sig = tmp_path / "sig.json"
        assert main(["sign", str(f), "--depth", "4", "--out", str(sig)]) == 0
        for argv in (["invert", str(sig)], ["roundtrip", str(f), "--depths", "4"],
                     ["trend", str(f), "--depth", "4"]):
            proc = run_module(tmp_path, *argv, LC_ALL="C",
                              PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")
            assert (proc.returncode, proc.stdout) == (2, b""), argv
            [line] = proc.stderr.decode().splitlines()
            assert line.startswith("error: ") and "ascii" in line, argv

    def test_malformed_csv_exits_2_with_one_line(self, tmp_path):
        f = tmp_path / "bad.csv"
        f.write_text("x1,x2\n0.0,0.0\n1.0,oops\n")
        proc = run_module(tmp_path, "sign", str(f), "--depth", "3")
        assert (proc.returncode, proc.stdout) == (2, b"")
        [line] = proc.stderr.decode().splitlines()
        assert line.startswith("error: ")


class TestResample:
    def test_endpoint_preserved(self, rng):
        pts = random_path(rng, 4, 2).points
        out = resample_arclength(pts, 50)
        np.testing.assert_allclose(out[0], pts[0], atol=1e-14)
        np.testing.assert_allclose(out[-1], pts[-1], atol=1e-12)

    def test_uniform_spacing(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]])
        out = resample_arclength(pts, 21)
        gaps = np.linalg.norm(np.diff(out, axis=0), axis=1)
        np.testing.assert_allclose(gaps, 0.1, atol=1e-12)

    def test_constant_polyline(self):
        pts = np.array([[1.5, -2.0]] * 3)
        np.testing.assert_array_equal(resample_arclength(pts, 7),
                                      np.repeat(pts[:1], 7, axis=0))

    def test_roundtrip_errors_zero_for_linear(self):
        p = PiecewiseLinearPath([[0.0, 0.0], [1.0, 2.0]])
        mean_err, max_err = roundtrip_errors(p, 5)
        assert max_err < 1e-9
