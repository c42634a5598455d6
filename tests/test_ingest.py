import bz2
import gzip
import io
import lzma
import math
import os
import threading
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    IDENTITY,
    anchor_points_reference,
    assembled,
    assert_same_bits,
    assert_table_matches_rows,
    assert_tables_equal,
    clip_to_aoi_oracle,
    det,
    direction_kept_oracle,
    filter_counts_reference,
    is_column_major,
    label_codes_reference,
    near_direction_gate,
    only_track,
    parse_text,
    point_in_polygon_oracle,
    range_faults_reference,
    scene_config_dict,
    straight_track_detections,
    subset_reference,
    synthesize_bulk_csv,
    track_rows,
    track_table,
    tracks_of,
    with_anchors,
)
from speedstudy import (
    DetectionTable,
    Homography,
    TrackTable,
    anchor_points,
    assemble_tracks,
    clip_to_aoi,
    filter_direction,
    filter_following,
    filter_stationary,
    filter_vehicle_type,
    parse_track_file,
    run_filter_cascade,
    serialize_detections,
    to_world_track,
    track_kinematics,
)
from speedstudy import ingest
from speedstudy.geometry import project_points
from speedstudy.errors import MalformedRow
from speedstudy.config import Thresholds, scene_config_from_dict
from speedstudy.ingest import CASCADE_STAGES, LABELS, VEHICLE_LABELS, ClassLabel, row_subset
from speedstudy.pipeline import FATES, filter_counts, process_detections

CLASS_MAP = {1: ClassLabel.CAR, 2: ClassLabel.BUS, 3: ClassLabel.TRUCK,
             4: ClassLabel.MOTORCYCLE, 5: ClassLabel.BICYCLE, 6: ClassLabel.PEDESTRIAN}
SQUARE_100 = np.array([[0, 0], [100, 0], [100, 100], [0, 100]], dtype=float)
CONCAVE_100 = np.array([[0, 0], [100, 0], [100, 100], [50, 40], [0, 100]], dtype=float)


def track_of(detections) -> TrackTable:
    """The one-track table of one vehicle's detections."""
    table = tracks_of(detections)
    assert len(table) == 1
    return table


def ids(table) -> list[int]:
    return table.track_ids.tolist()


class TestParse:
    def test_single_row(self):
        rows = parse_text("120,7,512.0,300.0,40.0,60.0,0.93,1\n", CLASS_MAP)
        assert len(rows) == 1
        assert rows.frame[0] == 120 and rows.track_id[0] == 7
        assert rows.bbox[0].tolist() == [512.0, 300.0, 40.0, 60.0]
        assert rows.confidence[0] == 0.93
        assert LABELS[rows.label[0]] is ClassLabel.CAR

    def test_empty_file(self):
        assert len(parse_text("", CLASS_MAP)) == 0

    def test_wrong_column_count(self):
        with pytest.raises(MalformedRow) as exc_info:
            parse_text("120,7,512,300,40,60,0.93\n", CLASS_MAP)
        assert exc_info.value.line_no == 1

    def test_error_line_number_counts_comments(self):
        text = "# header comment\n1,1,0,0,10,10,0.9,1\nbogus,row\n"
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(text, CLASS_MAP)
        assert exc_info.value.line_no == 3

    def test_unknown_class_id_maps_to_other(self, caplog):
        with caplog.at_level("WARNING"):
            rows = parse_text("1,1,0,0,10,10,0.9,99\n", CLASS_MAP)
        assert LABELS[rows.label[0]] is ClassLabel.OTHER
        assert "99" in caplog.text

    def test_rejects_nonpositive_bbox(self):
        with pytest.raises(MalformedRow):
            parse_text("1,1,0,0,0,10,0.9,1\n", CLASS_MAP)

    def test_rejects_out_of_range_confidence(self):
        with pytest.raises(MalformedRow):
            parse_text("1,1,0,0,10,10,1.5,1\n", CLASS_MAP)

    def test_trailing_comment_is_malformed(self):
        text = "# export\n1,1,0,0,10,10,0.9,1\n2,1,0,0,10,10,0.9,1 # late\n"
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(text, CLASS_MAP)
        assert exc_info.value.line_no == 3

    def test_blank_and_indented_comment_lines_skipped(self):
        text = "\n   \n  # note\n1,1,0,0,10,10,0.9,1\r\n\t\n2,1,0,0,10,10,0.9,1"
        rows = parse_text(text, CLASS_MAP)
        assert rows.frame.tolist() == [1, 2]

    @pytest.mark.parametrize("column", range(2, 7))
    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity", "1e999"])
    def test_rejects_non_finite_numbers(self, column, value):
        fields = "1,1,0,0,10,10,0.9,1".split(",")
        fields[column] = value
        text = "1,1,0,0,10,10,0.9,1\n" + ",".join(fields) + "\n"
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(text, CLASS_MAP)
        assert exc_info.value.line_no == 2

    @pytest.mark.parametrize(
        "row",
        [
            "1_000,1,0,0,10,10,0.9,1",  # digit separators
            "1,9223372036854775808,0,0,10,10,0.9,1",  # id beyond int64
            "1.0,1,0,0,10,10,0.9,1",  # float in an integer column
            "1,1,0x10,0,10,10,0.9,1",  # hex float
            "1,1,\u0661,0,10,10,0.9,1",  # non-ASCII digit
            "1,1,0,0,10,10,0.9,1,",  # ninth column
            "1,1,1.7e308,0,1.7e308,10,0.9,1",  # anchor overflows
        ],
    )
    def test_rejected_forms(self, row):
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(row + "\n", CLASS_MAP)
        assert exc_info.value.line_no == 1

    @pytest.mark.parametrize(
        "data, line_no",
        [
            pytest.param(b"1,1,0,0,10,10,0.9,1\n2,1,\xff0,0,10,10,0.9,1\n", 2, id="data-row"),
            pytest.param(b"# caf\xe9\n1,1,0,0,10,10,0.9,1\n", 1, id="comment"),
            pytest.param(
                b"1,1,0,0,10,10,0.9,1\nbad\n3,1,0,0,10,10,0.9,1 \xe2\x82\n", 2, id="earlier-fault-first"
            ),
        ],
    )
    def test_bytes_not_utf8_are_malformed(self, tmp_path, data, line_no):
        path = tmp_path / "dets.csv"
        path.write_bytes(data)
        with pytest.raises(MalformedRow) as exc_info:
            parse_track_file(path, CLASS_MAP)
        assert exc_info.value.line_no == line_no
        assert exc_info.value.source == str(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "second, outcome", [("2,1,0,0,10,10,0.9,1", [1, 2]), ("bad", 2)], ids=["valid", "malformed"]
    )
    def test_path_and_bytes_break_lines_alike(self, tmp_path, second, outcome, end):
        """A file's bytes break into lines at LF, CRLF or CR: the rows read,
        or the line number of the malformed one."""
        path = tmp_path / "dets.csv"
        path.write_bytes(f"1,1,0,0,10,10,0.9,1{end}{second}{end}".encode())
        try:
            assert parse_track_file(path, CLASS_MAP).frame.tolist() == outcome
        except MalformedRow as exc:
            assert exc.line_no == outcome

    def test_comment_free_file_is_one_loadtxt_call(self, tmp_path, monkeypatch):
        path = tmp_path / "dets.csv"
        path.write_text("1,1,0,0,10,10,0.9,1\n2,1,0,0,10,10,0.9,1\n")
        calls = []
        loadtxt = ingest._loadtxt
        monkeypatch.setattr(ingest, "_loadtxt", lambda source: calls.append(source) or loadtxt(source))
        monkeypatch.setattr(ingest, "_is_data", lambda line: pytest.fail("line filter ran"))
        assert parse_track_file(path, CLASS_MAP).frame.tolist() == [1, 2]
        assert calls == [str(path)]  # by name, so numpy reads the file itself

    def test_rejecting_a_long_file_checks_one_chunk_line_by_line(self, tmp_path, monkeypatch):
        """A bad last line costs at most one one-line check per line of its
        chunk, not one per row of the file."""
        text, n_rows = synthesize_bulk_csv(n_tracks=100)
        path = tmp_path / "dets.csv"
        path.write_text(text + "1,1,0\n")
        calls = []
        row_fault = ingest._row_fault
        monkeypatch.setattr(ingest, "_row_fault", lambda line: calls.append(1) or row_fault(line))
        with pytest.raises(MalformedRow) as exc_info:
            parse_track_file(path, CLASS_MAP)
        assert exc_info.value.line_no == n_rows + 1
        assert n_rows >= 20_000 and len(calls) <= ingest._CHUNK_LINES < n_rows

    FAULTS = {
        b"1,1,0,0,10,10,1.5,1\n": "confidence must be in [0, 1]",
        b"1,1,0,0\n": None,  # the loader's message
        b"# caf\xe9\n": "byte 0xE9 is not valid UTF-8",
    }

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4096])
    @pytest.mark.parametrize("first", range(3))
    def test_earliest_fault_wins_across_chunks(self, tmp_path, monkeypatch, chunk, first):
        """Three faults of different kinds, the given one first: it is named
        however the data lines fall into chunks."""
        monkeypatch.setattr(ingest, "_CHUNK_LINES", chunk)
        faults = list(self.FAULTS)
        faults = faults[first:] + faults[:first]
        good = b"1,1,0,0,10,10,0.9,1\n"
        path = tmp_path / "dets.csv"
        path.write_bytes(good * 4 + b"# note\n" + good.join(faults))
        with pytest.raises(MalformedRow) as exc_info:
            parse_track_file(path, CLASS_MAP)
        assert exc_info.value.line_no == 6
        assert self.FAULTS[faults[0]] in (None, exc_info.value.reason)

    def test_class_ids_beyond_int64_in_the_map_match_no_row(self):
        class_map = {2**63: ClassLabel.BUS, -(2**63) - 1: ClassLabel.BUS, -(2**63): ClassLabel.TRUCK}
        text = "1,1,0,0,10,10,0.9,9223372036854775807\n2,1,0,0,10,10,0.9,-9223372036854775808\n"
        table = parse_text(text, class_map)
        assert [LABELS[c] for c in table.label] == [ClassLabel.OTHER, ClassLabel.TRUCK]

    def test_unknown_class_ids_warned_once_each_in_order(self, caplog):
        text = "".join(f"{k},1,0,0,10,10,0.9,{c}\n" for k, c in enumerate([9, 1, 7, 9, 7, 2]))
        with caplog.at_level("WARNING"):
            table = parse_text(text, CLASS_MAP)
        assert [r.getMessage() for r in caplog.records] == [
            "unknown class id 9 mapped to 'other'", "unknown class id 7 mapped to 'other'"
        ]
        assert [LABELS[c] for c in table.label] == [
            ClassLabel.OTHER, ClassLabel.CAR, ClassLabel.OTHER, ClassLabel.OTHER, ClassLabel.OTHER,
            ClassLabel.BUS,
        ]

    @pytest.mark.parametrize(
        "at, line", [(2, "# note"), (1, " \t ")], ids=["last-line-comment", "inner-whitespace-line"]
    )
    def test_dropped_line_reads_as_if_absent(self, at, line):
        lines = ["1,1,0,0,10,10,0.9,1", "2,3,1.5,2,10,10,0.5,2"]
        with_line = lines[:at] + [line] + lines[at:]
        got = parse_text("\n".join(with_line) + "\n", CLASS_MAP)
        want = parse_text("\n".join(lines) + "\n", CLASS_MAP)
        for column in ("frame", "track_id", "bbox", "confidence", "label"):
            np.testing.assert_array_equal(getattr(got, column), getattr(want, column))

    def test_round_trip_lossless(self, rng):
        dets = []
        for i in range(200):
            dets.append(
                det(
                    frame=int(rng.integers(0, 1000)),
                    track_id=int(rng.integers(1, 50)),
                    bbox=tuple(float(v) for v in rng.uniform(0.1, 500, 4)),
                    conf=float(rng.uniform(0, 1)),
                    label=list(CLASS_MAP.values())[int(rng.integers(0, 6))],
                )
            )
        text = serialize_detections(dets, CLASS_MAP)
        assert_table_matches_rows(parse_text(text, CLASS_MAP), dets)


def parse_outcome(path):
    """The columns parse_track_file reads from path, or the line number and
    reason of the MalformedRow it raises."""
    try:
        table = parse_track_file(path, CLASS_MAP)
    except MalformedRow as exc:
        return exc.line_no, exc.reason
    return tuple(getattr(table, c).tolist() for c in ("frame", "track_id", "bbox", "confidence", "label"))


class TestReadByName:
    """A plain CSV file goes to np.loadtxt by name; every input reads as the
    line walk reads it."""

    ROWS = "1,1,0,0,10,10,0.9,1", "2,3,1.5,2,10,10,0.5,2"

    @pytest.mark.parametrize(
        "text, outcome",
        [
            pytest.param("{0}\n{1}\n", [1, 2], id="lf"),
            pytest.param("{0}\r\n{1}\r\n", [1, 2], id="crlf"),
            pytest.param("{0}\r{1}\r", [1, 2], id="cr"),
            pytest.param("{0}\n{1}", [1, 2], id="no-trailing-newline"),
            pytest.param("\ufeff{0}\n{1}\n", 1, id="bom"),
            pytest.param("", [], id="empty"),
            pytest.param("{0}\n \t \n{1}\n", [1, 2], id="whitespace-only-line"),
            pytest.param("# export\n{0}\n{1}\n", [1, 2], id="comment-line"),
            pytest.param("{0}\r\nbad\r\n{1}\r\n", 2, id="malformed-crlf"),
        ],
    )
    def test_reads_as_the_line_walk(self, tmp_path, monkeypatch, text, outcome):
        """The rows read, or the line number of the malformed one; the line
        walk alone gives the same table, or the same line and message."""
        path = tmp_path / "dets.csv"
        path.write_bytes(text.format(*self.ROWS).encode())
        got = parse_outcome(path)
        assert got[0] == outcome  # the frames read, or the malformed line's number
        monkeypatch.setattr(ingest, "_load_rows", lambda path: None)
        assert parse_outcome(path) == got

    @pytest.mark.parametrize("suffix, compress", [
        (".gz", gzip.compress), (".bz2", bz2.compress), (".xz", lzma.compress),
        (".lzma", lambda data: lzma.compress(data, format=lzma.FORMAT_ALONE)),
    ])
    def test_compressed_file_is_read_as_it_is(self, tmp_path, monkeypatch, suffix, compress):
        """numpy would decompress by suffix; the file's bytes are read instead."""
        path = tmp_path / f"x.csv{suffix}"
        path.write_bytes(compress(f"{self.ROWS[0]}\n".encode()))
        with pytest.raises(MalformedRow) as exc_info:
            parse_track_file(path, CLASS_MAP)
        if suffix == ".gz":
            assert (exc_info.value.line_no, exc_info.value.reason) == (1, "byte 0x8B is not valid UTF-8")
        monkeypatch.setattr(ingest, "_load_rows", lambda path: None)
        assert parse_outcome(path) == (exc_info.value.line_no, exc_info.value.reason)

    def test_missing_file_is_not_read_from_a_compressed_sibling(self, tmp_path):
        (tmp_path / "rec.csv.gz").write_bytes(gzip.compress(f"{self.ROWS[0]}\n".encode()))
        with pytest.raises(FileNotFoundError) as exc_info:
            parse_track_file(tmp_path / "rec.csv", CLASS_MAP)
        assert exc_info.value.filename == str(tmp_path / "rec.csv")

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_named_pipe_is_read_once(self, tmp_path):
        """A pipe, which cannot be rewound, reads as the file it carries."""
        path = tmp_path / "dets.fifo"
        os.mkfifo(path)
        text = "# export\n{0}\n{1}\n".format(*self.ROWS)
        writer = threading.Thread(target=path.write_text, args=(text,), daemon=True)
        writer.start()
        try:
            got = parse_outcome(path)
        finally:
            writer.join(10)
        assert not writer.is_alive()
        plain = tmp_path / "dets.csv"
        plain.write_text(text)
        assert got[0] == [1, 2] and got == parse_outcome(plain)

    def test_str_path_and_bytes_names_read_alike(self, tmp_path, monkeypatch):
        """A str, a Path and a bytes path give the same table through one
        loadtxt call by name, and the same message for a malformed row."""
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        good.write_text("{0}\n{1}\n".format(*self.ROWS))
        bad.write_text(f"{self.ROWS[0]}\nbad\n")
        calls = []
        loadtxt = ingest._loadtxt
        monkeypatch.setattr(ingest, "_loadtxt", lambda source: calls.append(source) or loadtxt(source))
        tables, messages = [], []
        for kind in (str, Path, os.fsencode):
            calls.clear()
            tables.append(parse_track_file(kind(good), CLASS_MAP))
            assert calls == [str(good)]
            with pytest.raises(MalformedRow) as exc_info:
                parse_track_file(kind(bad), CLASS_MAP)
            messages.append(str(exc_info.value))
        for table in tables[1:]:
            for column in ("frame", "track_id", "bbox", "confidence", "label"):
                assert np.array_equal(getattr(table, column), getattr(tables[0], column)), column
        assert messages == messages[:1] * 3
        assert messages[0].startswith(f"malformed row at {bad}:2: ")

    def test_url_shaped_name_is_not_fetched(self, tmp_path, monkeypatch):
        """A local file whose name parses as a URL is read by name, in one
        loadtxt call: numpy gets its absolute path, which it never fetches."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "http:" / "localhost").mkdir(parents=True)
        (tmp_path / "http:" / "localhost" / "x.csv").write_text(f"{self.ROWS[0]}\n")
        monkeypatch.setattr("urllib.request.urlopen", lambda *a, **k: pytest.fail("fetched"))
        calls = []
        loadtxt = ingest._loadtxt
        monkeypatch.setattr(ingest, "_loadtxt", lambda source: calls.append(source) or loadtxt(source))
        assert parse_track_file("http://localhost/x.csv", CLASS_MAP).frame.tolist() == [1]
        assert calls == [os.path.join(os.getcwd(), "http://localhost/x.csv")]

    @pytest.mark.skipif(not hasattr(os, "symlink"), reason="no symlinks")
    def test_dotdot_after_a_symlinked_directory_reads_the_file_the_os_finds(
        self, tmp_path, monkeypatch
    ):
        """'runs/../data/x.csv' with runs a symlink leads through the link's
        target, as the OS resolves it; the decoy where a textual '..' would
        lead is never read."""
        (tmp_path / "store" / "runs").mkdir(parents=True)
        (tmp_path / "store" / "data").mkdir()
        (tmp_path / "store" / "data" / "x.csv").write_text(f"{self.ROWS[0]}\n")
        (tmp_path / "work" / "data").mkdir(parents=True)
        (tmp_path / "work" / "data" / "x.csv").write_text(f"{self.ROWS[1]}\n")
        (tmp_path / "work" / "runs").symlink_to(tmp_path / "store" / "runs")
        monkeypatch.chdir(tmp_path / "work")
        calls = []
        loadtxt = ingest._loadtxt
        monkeypatch.setattr(ingest, "_loadtxt", lambda source: calls.append(source) or loadtxt(source))
        assert parse_track_file("runs/../data/x.csv", CLASS_MAP).frame.tolist() == [1]
        assert len(calls) == 1


EXTREME_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0, 0.5, 1.0, 1.7e308, -1.7e308, 5e-324]
)


@settings(max_examples=300, deadline=None)
@given(st.lists(
    st.tuples(
        st.integers(-2, 2),
        st.integers(-2, 2),
        st.lists(st.one_of(EXTREME_FLOATS, st.floats()), min_size=5, max_size=5),
    ),
    max_size=12,
))
@example([(1, 1, [1.7e308, 0.0, 1.7e308, 1.0, 0.5])])  # anchor u overflows
@example([(1, 1, [0.0, math.nan, 1.0, 1.0, 0.5])])  # only top is not finite
@example([(1, 1, [0.0, -1.7e308, 1.0, -1.7e308, 0.5])])  # anchor v overflows
def test_range_masks_match_whole_row_expressions(values):
    """The column-by-column masks equal the .all(axis=1) masks over rows
    holding NaN, infinities, zeros, negatives and near-overflow values."""
    rows = np.zeros(len(values), dtype=ingest._ROW_DTYPE)
    for k, (frame, track_id, floats) in enumerate(values):
        rows[k] = frame, track_id, floats[:4], floats[4], 1
    got = list(ingest._range_faults(rows))
    want = range_faults_reference(rows)
    assert [reason for _, reason in got] == [reason for _, reason in want]
    for (mask, _), (expected, _) in zip(got, want):
        assert_same_bits(mask, expected)


INT64_IDS = st.one_of(
    st.sampled_from([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]),
    st.integers(-(2**63), 2**63 - 1),
)
MAP_IDS = st.one_of(INT64_IDS, st.sampled_from([2**63, -(2**63) - 1, 2**64]))
COCO_MAP = {k: LABELS[k % len(LABELS)] for k in range(-10, 70)}  # 80 ids, some negative


@st.composite
def labelled_ids(draw):
    """A class_map and class ids drawn partly from its in-range keys."""
    class_map = draw(st.one_of(
        st.dictionaries(MAP_IDS, st.sampled_from(LABELS), max_size=8), st.just(COCO_MAP)
    ))
    keys = [k for k in class_map if -(2**63) <= k < 2**63]
    ids = st.one_of(INT64_IDS, st.sampled_from(keys)) if keys else INT64_IDS
    return class_map, draw(st.lists(ids, max_size=30))


@settings(max_examples=300, deadline=None)
@given(labelled_ids())
@example(({2**63 - 1: ClassLabel.BUS, -(2**63): ClassLabel.TRUCK, 2**63: ClassLabel.CAR},
          [2**63 - 1, -(2**63), 0, 2**63 - 1]))
@example((COCO_MAP, [-10, 69, 70, -11, 0, 70]))
@example(({}, [3, 1, 3]))
def test_label_lookup_matches_one_mask_per_id(case):
    """The searchsorted lookup gives the per-id masks' codes, and warns for
    the same unknown ids, once each, in order of first appearance."""
    class_map, ids = case
    rows = np.zeros(len(ids), dtype=ingest._ROW_DTYPE)
    rows["class_id"] = ids
    want, unknown = label_codes_reference(rows["class_id"], class_map)
    with mock.patch.object(ingest.log, "warning") as warning:
        got = ingest._label_codes(rows["class_id"], class_map)
    assert_same_bits(got, want)
    assert [call.args[1] for call in warning.call_args_list] == unknown


class TestAssemble:
    def test_groups_by_id(self):
        dets = [det(0, 3), det(1, 9), det(1, 3), det(2, 9)]
        tracks = tracks_of(dets)
        assert ids(tracks) == [3, 9]
        assert tracks.offsets.tolist() == [0, 2, 4]

    def test_sorts_frames(self):
        dets = [det(5, 1), det(2, 1), det(8, 1)]
        t = track_of(dets)
        assert t.frames.tolist() == [2, 5, 8]

    def test_duplicate_frame_tie_keeps_first_row(self):
        text = (
            "5,1,0,0,10,20,0.7,1\n"
            "5,1,30,0,10,20,0.9,1\n"  # highest confidence, first of the tie
            "5,1,60,0,10,20,0.9,2\n"
            "4,1,90,0,10,20,0.1,1\n"
        )
        t = assemble_tracks(parse_text(text, CLASS_MAP), IDENTITY)
        assert t.frames.tolist() == [4, 5]
        assert t.anchors.tolist() == [[95.0, 20.0], [35.0, 20.0]]
        assert [LABELS[c] for c in t.labels] == [ClassLabel.CAR, ClassLabel.CAR]

    def test_duplicate_frame_keeps_higher_confidence(self):
        # the anchor tells which row was kept
        dets = [det(5, 1, bbox=(0.0, 0.0, 10.0, 20.0), conf=0.4),
                det(5, 1, bbox=(10.0, 0.0, 10.0, 20.0), conf=0.9),
                det(6, 1, bbox=(20.0, 0.0, 10.0, 20.0), conf=0.5)]
        t = track_of(dets)
        assert t.anchors.tolist() == [[15.0, 20.0], [25.0, 20.0]]

    def test_anchor_rows_align_with_detections(self):
        t = track_of([det(0, 1, bbox=(512.0, 300.0, 40.0, 60.0))])
        assert t.anchors[0].tolist() == [532.0, 360.0]

    def test_empty_input(self):
        t = tracks_of([])
        assert len(t) == 0 and t.offsets.tolist() == [0]
        assert t.anchors.shape == (0, 2)

    def test_world_column_projects_every_anchor(self, rng):
        r31, _, r33 = VANISHING_H.inverse().matrix[2]
        anchors = rng.uniform(-150, 150, (40, 2))
        anchors[::7, 0] = -r33 / r31  # on the inverse map's horizon
        t = assembled(rng.permutation(40), rng.integers(1, 5, 40), anchors, np.zeros(40), VANISHING_H)
        want, valid = project_points(VANISHING_H.inverse().matrix, t.anchors)
        assert_same_bits(t.world, want)
        assert_same_bits(t.projectable, valid)
        assert 0 < valid.sum() < len(valid)

    def test_columns_read_only(self):
        t = tracks_of([det(0, 1), det(1, 1), det(0, 2)])
        for column in (t.track_ids, t.offsets, t.frames, t.anchors, t.labels):
            with pytest.raises(ValueError):
                column[0] = 0


class TestRowSubset:
    """row_subset and TrackTable.subset against a per-track recount."""

    @given(st.lists(st.lists(st.booleans(), max_size=6), max_size=8))
    @example([])
    @example([[False, False], [True], []])
    def test_offsets_match_per_track_recount(self, masks):
        offsets = np.cumsum([0] + [len(m) for m in masks])
        rows = np.array([b for m in masks for b in m], dtype=bool)
        kept, got = row_subset(offsets, rows)
        counts = [sum(m) for m in masks]
        assert kept.tolist() == [c > 0 for c in counts]
        assert got.tolist() == np.cumsum([0] + [c for c in counts if c]).tolist()
        assert got.dtype == np.int64

    @given(st.lists(st.lists(st.booleans(), min_size=1, max_size=6), max_size=8))
    @example([])
    @example([[False, False], [True], [False]])
    @example([[True, True], [True]])
    def test_table_subset_matches_per_track_recount(self, masks):
        table = track_table(
            [(np.arange(len(m)) * 2 + k, np.column_stack([np.arange(len(m)), np.full(len(m), k)]),
              np.arange(len(m)) % len(LABELS)) for k, m in enumerate(masks)],
            track_ids=[10 * (k + 1) for k in range(len(masks))],
        )
        rows = np.array([b for m in masks for b in m], dtype=bool)
        got = table.subset(rows)
        want = track_table(
            [(table.frames[track_rows(table, k)][m], table.anchors[track_rows(table, k)][m],
              table.labels[track_rows(table, k)][m]) for k, m in enumerate(masks) if any(m)],
            track_ids=[10 * (k + 1) for k, m in enumerate(masks) if any(m)],
        )
        assert_tables_equal(got, want)
        for column in (got.track_ids, got.offsets, got.frames, got.anchors, got.labels,
                       got.world, got.projectable):
            with pytest.raises(ValueError):
                column[...] = 0

    @given(
        st.lists(st.lists(st.booleans(), min_size=1, max_size=6), max_size=8),
        st.sampled_from(["drawn", "all", "none"]),
        st.integers(0, 2**32 - 1),
    )
    @example([], "drawn", 0)
    @example([[True, False, True], [False], [True, True]], "drawn", 1)
    def test_index_gathers_match_boolean_mask_reference(self, masks, fill, seed):
        # anchors on the inverse map's horizon give rows that do not project
        rng = np.random.default_rng(seed)
        r31, _, r33 = VANISHING_H.inverse().matrix[2]
        columns = []
        for k, m in enumerate(masks):
            anchors = rng.uniform(-150, 150, (len(m), 2))
            anchors[rng.random(len(m)) < 0.3, 0] = -r33 / r31
            columns.append((np.arange(len(m)) * 3 + k, anchors, rng.integers(0, len(LABELS), len(m))))
        table = track_table(columns, h=VANISHING_H)
        drawn = np.array([b for m in masks for b in m], dtype=bool)
        rows = {"drawn": drawn, "all": np.ones_like(drawn), "none": np.zeros_like(drawn)}[fill]
        got, want = table.subset(rows), subset_reference(table, rows)
        for column in ("track_ids", "offsets", "frames", "anchors", "labels", "world", "projectable"):
            assert_same_bits(getattr(got, column), getattr(want, column))
        assert is_column_major(got.anchors) and is_column_major(got.world)


class TestAnchor:
    def test_definition(self):
        assert anchor_points(np.array([[0.0, 0.0, 10.0, 20.0]])).tolist() == [[5.0, 20.0]]

    def test_second_example(self):
        assert anchor_points(np.array([[512.0, 300.0, 40.0, 60.0]])).tolist() == [[532.0, 360.0]]

    @given(
        st.lists(st.tuples(*[st.floats(-1e6, 1e6, allow_nan=False)] * 4), max_size=20),
        st.data(),
    )
    @example([], None)
    @example([(0.1, 0.2, 0.30000000000000004, 1e-300)], None)
    def test_gathered_columns_match_whole_array_expressions(self, boxes, data):
        bbox = np.array(boxes, dtype=np.float64).reshape(-1, 4)
        assert_same_bits(anchor_points(bbox), anchor_points_reference(bbox))
        if data is None or not len(bbox):
            return
        rows = np.array(data.draw(st.lists(st.integers(0, len(bbox) - 1), max_size=30)), dtype=np.intp)
        assert_same_bits(anchor_points(bbox, rows), anchor_points_reference(bbox[rows]))

    def test_gather_from_a_strided_view_holds_only_the_gathered_rows(self):
        """The bbox field of the parsed records is a strided view; gathering
        a tenth of its rows copies no whole column of it."""
        records = np.zeros(100_000, dtype=ingest._ROW_DTYPE)
        records["bbox"] = np.arange(4 * len(records), dtype=np.float64).reshape(-1, 4)
        rows = np.arange(0, len(records), 10)
        anchor_points(records["bbox"], rows)  # numpy's lazy set-up is not billed
        tracemalloc.start()
        try:
            anchors = anchor_points(records["bbox"], rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (K, 2) output and one gathered column
        assert peak <= 24 * len(rows) + 4096, f"{peak / len(rows):.1f} B/row"
        assert_same_bits(anchors, anchor_points_reference(records["bbox"][rows]))

    @given(st.lists(
        st.tuples(st.integers(0, 5), st.integers(1, 4), *[st.floats(-1e4, 1e4, allow_nan=False)] * 2,
                  st.floats(0.001, 1e3), st.floats(0.001, 1e3)),
        max_size=25,
    ))
    def test_assembled_anchors_match_whole_array_expressions(self, rows):
        # unique (id, frame) pairs, so every row is kept, in (id, frame) order
        rows = list({(frame, tid): (frame, tid, *box) for frame, tid, *box in rows}.values())
        table = DetectionTable(
            np.array([r[0] for r in rows], dtype=np.int64).reshape(-1),
            np.array([r[1] for r in rows], dtype=np.int64).reshape(-1),
            np.array([r[2:] for r in rows], dtype=np.float64).reshape(-1, 4),
            np.ones(len(rows)),
            np.zeros(len(rows), dtype=np.int8),
        )
        order = np.lexsort((table.frame, table.track_id))
        want = anchor_points_reference(table.bbox[order])
        assert_same_bits(assemble_tracks(table, IDENTITY).anchors, want)


class TestClipToAoi:
    def test_all_inside_unchanged(self):
        t = track_of(straight_track_detections(1, 20, (10, 10), (2, 2)))
        clipped = clip_to_aoi(t, SQUARE_100)
        assert_tables_equal(clipped, t)

    def test_none_inside(self):
        t = track_of(straight_track_detections(1, 5, (200, 200), (1, 0)))
        assert len(clip_to_aoi(t, SQUARE_100)) == 0

    def test_longest_contiguous_run(self):
        # frames 0-30 inside, 31-35 outside, 36-40 inside: keep the long run
        dets = (
            straight_track_detections(1, 31, (10, 50), (1, 0))
            + straight_track_detections(1, 5, (150, 50), (1, 0), first_frame=31)
            + straight_track_detections(1, 5, (50, 50), (1, 0), first_frame=36)
        )
        t = track_of(dets)
        clipped = clip_to_aoi(t, SQUARE_100)
        assert ids(clipped) == [1]
        frames = clipped.frames.tolist()
        # oracle: exhaustive run-length scan over the inside flags
        inside = [
            point_in_polygon_oracle(u, v, SQUARE_100) for u, v in t.anchors
        ]
        runs, start = [], None
        for i, flag in enumerate(inside + [False]):
            if flag and start is None:
                start = i
            elif not flag and start is not None:
                runs.append((start, i))
                start = None
        best = max(runs, key=lambda r: r[1] - r[0])
        assert frames == t.frames[best[0]:best[1]].tolist()
        assert frames == list(range(0, 31))

    def test_clipped_anchors_all_inside(self, rng):
        dets = []
        for i in range(20):
            n = int(rng.integers(5, 40))
            start = rng.uniform(-50, 150, 2)
            step = rng.uniform(-10, 10, 2)
            dets += straight_track_detections(i + 1, n, start, step)
        for u, v in clip_to_aoi(tracks_of(dets), SQUARE_100).anchors:
            assert point_in_polygon_oracle(u, v, SQUARE_100)

    @staticmethod
    def tracks_at(anchor_lists):
        return track_table([(np.arange(len(a)), a, None) for a in anchor_lists])

    # grid points, some on the polygons' edges: inside, outside and the
    # boundary are decided exactly by the kernel and the scalar oracle alike
    ANCHOR = st.one_of(
        st.tuples(st.integers(-20, 120), st.integers(-20, 120)),
        st.sampled_from([(0, 0), (0, 50), (100, 37), (64, 100), (100, 100), (50, 25), (20, 60)]),
    )

    @given(
        st.lists(st.lists(ANCHOR, min_size=1, max_size=12), max_size=8),
        st.sampled_from(["square", "concave"]),
    )
    @example([], "square")
    @example([[(50, 50)], [(150, 50)], [(0, 50)]], "square")  # one-detection tracks
    @example([[(150, 0), (200, 0)], [(5, 5), (-5, 5), (5, 5)]], "square")  # wholly outside
    # equal runs (earliest wins), touching the first and the last row
    @example([[(5, 5), (6, 6), (-5, 5), (7, 7), (8, 8)], [(0, 0), (-1, 0), (100, 100)]], "square")
    @example([[(-5, 5), (5, 5), (6, 6), (-5, 5), (7, 7), (8, 8)]], "concave")
    # a run ending at one track's last row, the next starting at its first
    @example([[(-5, 5), (5, 5)], [(5, 5), (-5, 5)]], "square")
    def test_matches_per_track_oracle(self, anchor_lists, polygon):
        poly = SQUARE_100 if polygon == "square" else CONCAVE_100
        tracks = self.tracks_at(anchor_lists)
        runs = [clip_to_aoi_oracle(a, poly) for a in anchor_lists]
        columns, kept_ids = [], []
        for k, (anchors, run) in enumerate(zip(anchor_lists, runs)):
            if run:
                a, b = run
                columns.append((np.arange(a, b), np.array(anchors, dtype=float)[a:b], None))
                kept_ids.append(k + 1)
        want = track_table(columns, track_ids=kept_ids)
        got = clip_to_aoi(tracks, poly)
        assert len(got) == len(want)
        assert (got is tracks) == all(
            run == (0, len(a)) for a, run in zip(anchor_lists, runs)
        )
        assert_tables_equal(got, want)


class TestVehicleType:
    def test_all_car_retained(self):
        t = track_of(straight_track_detections(1, 5, (0, 0), (1, 0)))
        assert_tables_equal(filter_vehicle_type(t), t)

    def test_all_bicycle_removed(self):
        t = track_of(straight_track_detections(1, 5, (0, 0), (1, 0), label=ClassLabel.BICYCLE))
        assert len(filter_vehicle_type(t)) == 0

    def test_majority_car_with_pedestrian_flicker(self):
        dets = [det(i, 1, label=ClassLabel.CAR) for i in range(3)]
        dets += [det(i, 1, label=ClassLabel.PEDESTRIAN) for i in range(3, 5)]
        t = track_of(dets)
        assert_tables_equal(filter_vehicle_type(t), t)

    def test_tie_broken_toward_vehicle(self):
        dets = [det(0, 1, label=ClassLabel.TRUCK), det(1, 1, label=ClassLabel.PEDESTRIAN)]
        t = track_of(dets)
        assert_tables_equal(filter_vehicle_type(t), t)

    @given(st.lists(st.lists(st.sampled_from(LABELS), min_size=1, max_size=8), max_size=8))
    def test_matches_per_track_vote(self, label_lists):
        tracks = track_table([
            (np.arange(len(labels)), np.zeros((len(labels), 2)),
             [LABELS.index(label) for label in labels])
            for labels in label_lists
        ])
        want = []
        for k, labels in enumerate(label_lists):
            counts = {label: labels.count(label) for label in labels}
            modal = [label for label, c in counts.items() if c == max(counts.values())]
            if any(label in VEHICLE_LABELS for label in modal):
                want.append(k)
        keep = np.isin(np.arange(len(tracks)), want)
        assert_tables_equal(filter_vehicle_type(tracks), tracks.subset(tracks.per_row(keep)))


class TestStationary:
    def test_parked_vehicle_removed(self):
        t = track_of(straight_track_detections(1, 30, (50, 50), (0, 0)))
        assert len(filter_stationary(t)) == 0

    def test_moving_vehicle_retained(self):
        # 10 m/s for 3 s at 10 fps under the identity map (px == m)
        t = track_of(straight_track_detections(1, 30, (0, 0), (1, 0)))
        assert_tables_equal(filter_stationary(t), t)

    def test_creep_below_threshold_removed(self):
        # 1.5 m total displacement over 30 frames
        t = track_of(straight_track_detections(1, 30, (0, 0), (1.5 / 29, 0)))
        assert len(filter_stationary(t)) == 0
        assert_tables_equal(filter_stationary(t, Thresholds(stationary_m=1.0)), t)


# the inverse map's vanishing line u = -r33 / r31 crosses the scene, so
# endpoints placed on it do not project
VANISHING_H = Homography([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1e-2, 0.0, 1.0]])


class TestEndpointStages:
    def test_fates_over_many_tracks_equal_one_track_fates(self, rng):
        h = VANISHING_H
        r31, _, r33 = h.inverse().matrix[2]
        dets = []
        for tid in range(1, 41):
            n = int(rng.integers(2, 15))
            dets += straight_track_detections(tid, n, rng.uniform(-50, 90, 2), rng.normal(0, 1, 2))
        tracks = tracks_of(dets, h)
        anchors = tracks.anchors.copy()
        for k, tid in enumerate(ids(tracks)):
            if tid % 7 == 0:
                rows = track_rows(tracks, k)
                anchors[rows.start if tid % 2 else rows.stop - 1, 0] = -r33 / r31
        tracks = with_anchors(tracks, anchors, h)
        stages = (
            filter_stationary,
            lambda ts: filter_direction(ts, np.array([1.0, 0.0]), Thresholds(direction_deg=60.0)),
        )
        for stage in stages:
            batch = ids(stage(tracks))
            assert batch == [
                tid for k, tid in enumerate(ids(tracks)) if len(stage(only_track(tracks, k)))
            ]
            assert 0 < len(batch) < len(tracks)
        unprojectable = [tid for tid in ids(tracks) if tid % 7 == 0]
        for tid in unprojectable:
            ends = tracks.anchors[track_rows(tracks, tid - 1)][[0, -1]]
            _, valid = project_points(h.inverse().matrix, ends)
            assert valid.tolist() == ([False, True] if tid % 2 else [True, False])
        assert set(unprojectable) <= set(ids(stages[0](tracks)))
        # any nonzero displacement is within 180 degrees: only these drop
        kept = filter_direction(tracks, np.array([1.0, 0.0]), Thresholds(direction_deg=180.0))
        assert set(ids(tracks)) - set(ids(kept)) == set(unprojectable)


class TestFollowing:
    direction = np.array([1.0, 0.0])

    def test_far_apart_both_retained(self):
        tracks = tracks_of(straight_track_detections(1, 20, (300, 50), (5, 0))
                           + straight_track_detections(2, 20, (100, 50), (5, 0)))
        kept = filter_following(tracks, IDENTITY, self.direction)
        assert len(kept) == 2

    def test_close_trailing_removed_leader_retained(self):
        lead = track_of(straight_track_detections(1, 20, (130, 50), (5, 0)))
        tracks = tracks_of(straight_track_detections(1, 20, (130, 50), (5, 0))
                           + straight_track_detections(2, 20, (100, 50), (5, 0)))
        kept = filter_following(tracks, IDENTITY, self.direction)
        assert_tables_equal(kept, lead)

    def test_brief_closeness_retained(self):
        # trailing vehicle within 40 px for only 2 of 20 coexisting frames
        lead = straight_track_detections(1, 20, (200, 50), (5, 0))
        tail_pts = straight_track_detections(2, 2, (170, 50), (5, 0))
        tail_pts += straight_track_detections(2, 18, (80, 50), (5, 0), first_frame=2)
        tracks = tracks_of(lead + tail_pts)
        kept = filter_following(tracks, IDENTITY, self.direction)
        assert len(kept) == 2

    def test_vehicle_ahead_is_not_removed_by_follower(self):
        # follower 30 px behind: only the follower goes, per-frame oracle agrees
        tracks = tracks_of(straight_track_detections(1, 20, (130, 50), (5, 0))
                           + straight_track_detections(2, 20, (100, 50), (5, 0)))
        lead, tail = (tracks.anchors[track_rows(tracks, k)] for k in range(2))
        close_frames = sum(
            1
            for a, b in zip(tail, lead)
            if np.hypot(*(b - a)) < 40 and (b - a)[0] > 0
        )
        assert close_frames == 20
        kept = filter_following(tracks, IDENTITY, self.direction)
        assert ids(kept) == [1]

    def test_heading_is_zero_where_the_anchor_does_not_project(self, rng):
        r31, _, r33 = VANISHING_H.inverse().matrix[2]
        anchors = rng.uniform(0, 90, (12, 2))
        anchors[::3, 0] = -r33 / r31  # on the inverse map's horizon
        tracks = track_table([(np.arange(12), anchors, None)], h=VANISHING_H)
        dirs = ingest._image_headings(tracks, VANISHING_H, self.direction)
        ok = tracks.projectable
        assert ok.tolist() == [k % 3 != 0 for k in range(12)]
        assert (dirs[~ok] == 0.0).all()
        # elsewhere: the image of a 1 m step ahead, minus the anchor
        ahead, _ = project_points(VANISHING_H.matrix, tracks.world[ok] + self.direction)
        assert_same_bits(dirs[ok], ahead - tracks.anchors[ok])


@st.composite
def direction_scenes(draw):
    """A travel direction, a gate and world displacements: most at an angle
    to the direction a few ulp of either coordinate off max_deg + 1e-9, or
    off parallel or antiparallel, the rest arbitrary or degenerate; plus
    endpoint rows to make unprojectable. Gates near 0 and 180 degrees, down to
    tiny ones, are where acos is steepest and rounding moves an angle most."""
    heading = draw(st.floats(-math.pi, math.pi))
    max_deg = draw(st.one_of(
        st.floats(0.5, 179.5),
        st.floats(1e-12, 1e-5),
        st.floats(180.0 - 1e-5, 180.0),
        st.sampled_from([1e-9, 1.2e-6, 180.0 - 1.2e-6]),
    ))
    gate = math.radians(max_deg + 1e-9)
    disps = []
    for _ in range(draw(st.integers(1, 4))):
        radius = draw(st.floats(1.0, 1e3))
        angle = heading + draw(st.sampled_from([-gate, gate, 0.0, math.pi]))
        disp = [radius * math.cos(angle), radius * math.sin(angle)]
        for axis in range(2):
            toward = draw(st.sampled_from([-math.inf, math.inf]))
            for _ in range(draw(st.integers(0, 4))):
                disp[axis] = math.nextafter(disp[axis], toward)
        disps.append(disp)
    disps += draw(st.lists(st.one_of(
        st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
        st.sampled_from([(0.0, 0.0), (1.0, 0.0), (-1.0, 0.0), (0.0, 5e-324), (1e-300, 0.0)]),
    ).map(list), max_size=4))
    unprojectable = draw(st.sets(st.integers(0, 2 * len(disps) - 1), max_size=3))
    return [math.cos(heading), math.sin(heading)], max_deg, disps, unprojectable


class TestDirection:
    direction = np.array([1.0, 0.0])

    def test_aligned_retained(self):
        t = track_of(straight_track_detections(1, 10, (0, 0), (5, 0)))
        assert_tables_equal(filter_direction(t, self.direction), t)

    def test_opposite_removed(self):
        t = track_of(straight_track_detections(1, 10, (100, 0), (-5, 0)))
        assert len(filter_direction(t, self.direction)) == 0

    @pytest.mark.parametrize("angle_deg,kept", [(44.0, True), (46.0, False)])
    def test_angle_boundary(self, angle_deg, kept):
        # oracle: displacement angle from the dot product
        step = (5 * np.cos(np.radians(angle_deg)), 5 * np.sin(np.radians(angle_deg)))
        t = track_of(straight_track_detections(1, 10, (0, 0), step))
        disp = t.anchors[-1] - t.anchors[0]
        oracle_deg = np.degrees(
            np.arccos(disp @ self.direction / np.linalg.norm(disp))
        )
        assert (oracle_deg <= 45.0) == kept
        assert (len(filter_direction(t, self.direction)) == 1) == kept

    @settings(max_examples=300, deadline=None)
    @given(scene=direction_scenes(), kept=st.none())
    @example(scene=([1.0, 0.0], 45.0, [[1.0, 1.0], [0.0, 0.0], [-1.0, 0.0]], {0, 3}), kept=None)
    # inside the rounding band: the per-track cosine is 1 (0 degrees, kept)
    # and the vectorized one 2**-52 less (1.2e-6 degrees, past the gate)
    @example(scene=(
        [0.8281484988395901, 0.5605087544987442], 1e-9, [[0.8281484988200247, 0.5605087545276521]],
        set(),
    ), kept=[])
    # the dot product and the norm overflow: the NaN cosine is clamped to -1,
    # 180 degrees, which only a 180-degree gate keeps (np.clip keeps the NaN)
    @example(scene=([0.5**0.5, 0.5**0.5], 45.0, [[1.5e308, 1.5e308]], set()), kept=[])
    @example(scene=([0.5**0.5, 0.5**0.5], 180.0, [[1.5e308, 1.5e308]], set()), kept=[1])
    def test_matches_per_track_loop(self, scene, kept):
        """Each track's fate is the per-track scalar loop's wherever the two
        must agree: zero displacements, unprojectable endpoints and angles
        outside the rounding band around the gate (near_direction_gate).
        Angles a few ulp off the gate lie inside the band. An example that
        gives kept pins the ids the gate keeps, inside the band or not."""
        direction, max_deg, disps, unprojectable = scene
        # track k + 1 runs from the world origin to disps[k], in rows 2k and 2k + 1
        n = len(disps)
        world = np.zeros((2 * n, 2))
        world[1::2] = disps
        projectable = np.ones(2 * n, dtype=bool)
        projectable[sorted(unprojectable)] = False
        world[~projectable] = 0.0
        tracks = TrackTable(
            np.arange(1, n + 1), np.arange(0, 2 * n + 1, 2), np.tile(np.arange(2), n), world,
            np.zeros(2 * n, dtype=np.int8), world, projectable,
        )
        displacements = world[1::2] - world[0::2]
        valid = projectable[0::2] & projectable[1::2]
        # the gate runs under the warnings the test run sets: the overflow
        # examples must not warn
        got = ids(filter_direction(tracks, direction, Thresholds(direction_deg=max_deg)))
        with np.errstate(over="ignore", invalid="ignore"):  # the overflow examples
            want = direction_kept_oracle(displacements, valid, direction, max_deg)
            near = [near_direction_gate(disp, direction, max_deg) for disp in displacements]
        for k in range(n):
            if not (valid[k] and near[k]):
                assert (k + 1 in got) == want[k], k
        if kept is not None:
            assert got == kept


class TestCascade:
    DIRECTION = np.array([1.0, 0.0])

    def random_tracks(self, rng, n):
        dets = []
        for tid in range(1, n + 1):
            n_frames = int(rng.integers(4, 40))
            start = rng.uniform(-20, 120, 2)
            step = rng.uniform(-4, 4, 2)
            label = list(CLASS_MAP.values())[int(rng.integers(0, 6))]
            dets += straight_track_detections(tid, n_frames, start, step, label=label)
        return tracks_of(dets)

    def test_subset_property_and_accounting(self, rng):
        tracks = self.random_tracks(rng, 30)
        survivors, fates = run_filter_cascade(tracks, SQUARE_100, self.DIRECTION, IDENTITY)
        assert set(ids(survivors)) <= set(ids(tracks))
        assert (fates.dtype, len(fates)) == (np.int8, len(tracks))
        assert 0 <= fates.min() and fates.max() <= len(CASCADE_STAGES)
        assert tracks.track_ids[fates == 0].tolist() == ids(survivors)

    def test_coordinates_stay_column_major(self):
        # one designed fate per stage, so that every stage drops rows and
        # gathers new columns; track 1's run inside the AoI, 5 and 7 are kept
        dets = [
            *straight_track_detections(1, 30, (-30.0, 95.0), (3.0, 0.0)),  # aoi: starts outside
            *straight_track_detections(2, 20, (10.0, 75.0), (3.0, 0.0),
                                       label=ClassLabel.PEDESTRIAN),  # vehicle_type
            *straight_track_detections(3, 20, (50.0, 25.0), (0.01, 0.0)),  # stationary
            *straight_track_detections(4, 20, (10.0, 50.0), (2.0, 0.0)),  # following 5
            *straight_track_detections(5, 20, (30.0, 50.0), (2.0, 0.0)),
            *straight_track_detections(6, 20, (90.0, 5.0), (-3.0, 0.0)),  # direction
            *straight_track_detections(7, 20, (5.0, 95.0), (4.0, 0.0), first_frame=100),
        ]
        tables = [tracks_of(dets)]
        stages = (
            lambda t: clip_to_aoi(t, SQUARE_100),
            filter_vehicle_type,
            filter_stationary,
            lambda t: filter_following(t, IDENTITY, self.DIRECTION),
            lambda t: filter_direction(t, self.DIRECTION),
        )
        for stage in stages:
            tables.append(stage(tables[-1]))
        assert all(len(b.frames) < len(a.frames) for a, b in zip(tables, tables[1:]))
        assert ids(tables[-1]) == [1, 5, 7]
        tables.append(to_world_track(tables[-1]))
        for table in tables:
            assert is_column_major(table.anchors) and is_column_major(table.world)
        assert is_column_major(track_kinematics(tables[-1], 10.0).points)

    def test_idempotent(self, rng):
        for _ in range(20):
            tracks = self.random_tracks(rng, 15)
            once, _ = run_filter_cascade(tracks, SQUARE_100, self.DIRECTION, IDENTITY)
            twice, _ = run_filter_cascade(once, SQUARE_100, self.DIRECTION, IDENTITY)
            assert ids(twice) == ids(once)
            assert_tables_equal(once, twice)


# -- what became of each input track -----------------------------------------

# an image-space AoI around the designed tracks below, VANISHING_H's
# horizon (u = 100) included
FATES_AOI = [[-10.0, -200.0], [110.0, -200.0], [110.0, 300.0], [-10.0, 300.0]]


def recording_table(rows) -> DetectionTable:
    """A DetectionTable of (frame, track id, u, v, label code) rows, each box
    of zero size so that its anchor is exactly (u, v)."""
    frames, track_ids, us, vs, labels = np.array(rows, dtype=np.float64).reshape(-1, 5).T
    bbox = np.zeros((len(frames), 4))
    bbox[:, 0], bbox[:, 1] = us, vs
    return DetectionTable(
        frames.astype(np.int64), track_ids.astype(np.int64), bbox, np.ones(len(frames)),
        labels.astype(np.int8),
    )


def fates_scene():
    """The demo scene config with FATES_AOI (its calibration is not used)."""
    return scene_config_from_dict(scene_config_dict(VANISHING_H, aoi_polygon=FATES_AOI))


class TestFates:
    CAR, PEDESTRIAN = LABELS.index(ClassLabel.CAR), LABELS.index(ClassLabel.PEDESTRIAN)

    def straight(self, track_id, n, u0, v, du, label=CAR):
        return [(k, track_id, u0 + k * du, v, label) for k in range(n)]

    def test_each_designed_track_gets_its_fate(self):
        r31, _, r33 = VANISHING_H.inverse().matrix[2]
        unprojectable = self.straight(6, 20, 0.0, 50.0, 2.0)
        for k in (5, 6, 7):  # 3 of 20 rows on the horizon: over the 10% a track may lose
            unprojectable[k] = (k, 6, -r33 / r31, 50.0, self.CAR)
        rows = [
            *self.straight(1, 20, 0.0, -250.0, 2.0),  # never inside the AoI
            *self.straight(2, 20, 0.0, -150.0, 2.0, self.PEDESTRIAN),
            *self.straight(3, 20, 20.0, -100.0, 0.01),  # parked
            *self.straight(4, 20, 0.0, 0.0, 2.0),  # 20 px behind track 8
            *self.straight(5, 20, 40.0, -95.0, -2.0),  # against the travel direction
            *unprojectable,
            *self.straight(7, 3, 0.0, -50.0, 3.0),  # too short for a speed window
            *self.straight(8, 20, 20.0, 0.0, 2.0),
        ]
        result = process_detections(recording_table(rows), fates_scene(), VANISHING_H)
        designed = ("aoi", "vehicle_type", "stationary", "following", "direction",
                    "unprojectable", "no_kinematics", "kept")
        assert result.fates.tolist() == [FATES.index(fate) for fate in designed]
        assert result.kinematics.track_ids.tolist() == [8]
        assert filter_counts(result.fates) == {
            "input": 8, "aoi": 1, "vehicle_type": 1, "stationary": 1, "following": 1,
            "direction": 1, "surviving": 3, "unprojectable": 1, "no_kinematics": 1,
        }
        with pytest.raises(ValueError):
            result.fates[0] = 0

    def test_no_tracks(self):
        result = process_detections(recording_table([]), fates_scene(), VANISHING_H)
        assert result.fates.dtype == np.int8 and len(result.fates) == 0
        assert filter_counts(result.fates) == dict.fromkeys(
            ("input", *CASCADE_STAGES, "surviving", "unprojectable", "no_kinematics"), 0
        )

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_tracks=st.integers(0, 25),
        thresholds=st.fixed_dictionaries({
            "stationary_m": st.floats(0.5, 8.0),
            "following_px": st.floats(2.0, 60.0),
            "following_frac": st.floats(0.1, 1.0),
            "direction_deg": st.floats(10.0, 120.0),
        }),
    )
    def test_counts_equal_the_table_length_accounting(self, seed, n_tracks, thresholds):
        """On random recordings, anchors on the horizon among them: the
        counts of the fate codes equal the differences of table lengths,
        key for key and in order, and each track's code names the step
        that left it out."""
        rng = np.random.default_rng(seed)
        r31, _, r33 = VANISHING_H.inverse().matrix[2]
        rows = []
        for tid in range(1, n_tracks + 1):
            n, first = int(rng.integers(1, 30)), int(rng.integers(0, 20))
            (u, v), (du, dv) = rng.uniform(-20.0, 120.0, 2), rng.uniform(-4.0, 4.0, 2)
            label = int(rng.integers(0, len(LABELS)))
            rows += [
                (first + k, tid, -r33 / r31 if rng.random() < 0.05 else u + k * du, v + k * dv,
                 label)
                for k in range(n)
            ]
        table = recording_table(rows)
        cfg = fates_scene()._replace(thresholds=Thresholds(**thresholds))
        tracks = assemble_tracks(table, VANISHING_H)
        counts, fates = filter_counts_reference(tracks, cfg, VANISHING_H)
        result = process_detections(table, cfg, VANISHING_H)
        assert list(filter_counts(result.fates).items()) == list(counts.items())
        assert [FATES[code] for code in result.fates.tolist()] == list(fates.values())
        assert list(fates) == tracks.track_ids.tolist()


# -- the columnar parser against the line-by-line validator ------------------

INT64 = st.integers(-(2**63), 2**63 - 1)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
VALID_COLUMNS = (
    st.integers(0, 2**63 - 1),
    st.integers(1, 2**63 - 1),
    FINITE,
    FINITE,
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    st.floats(0.0, 1.0),
    INT64,
)
JUNK = st.one_of(
    st.sampled_from(
        ["", "nan", "-inf", "Infinity", "1e400", "1_0", "0x10", "1.0", "1e3", ".5", "5.",
         "+7", "-0", "9223372036854775808", "-9223372036854775809", "\u0661", "1 2", "#",
         "0", "-1", "1.5"]
    ),
    st.text(alphabet="0123456789+-.eE_ naifx#\t\r\u3000\u0661", max_size=6),
)
PADDING = st.sampled_from(["", " ", "\t", "\u3000", "\xa0"])


FLOAT_FORMATS = (repr, "{:.6g}".format, "{:e}".format)


@st.composite
def rows(draw):
    """A valid row, sometimes with one field replaced by junk, padded, or
    given a ninth column."""
    values = draw(st.tuples(*VALID_COLUMNS))
    fmt = draw(st.sampled_from(FLOAT_FORMATS))
    fields = [str(v) if isinstance(v, int) else fmt(v) for v in values]
    col = draw(st.integers(0, 7))
    change = draw(st.sampled_from(["none", "junk", "junk", "pad", "extra"]))
    if change == "junk":
        fields[col] = draw(JUNK)
    elif change == "pad":
        fields[col] = draw(PADDING) + fields[col] + draw(PADDING)
    elif change == "extra":
        fields.append(draw(JUNK))
    return ",".join(fields)


LINES = st.one_of(rows(), rows(), rows(), st.sampled_from(["", "  ", "# note", " # x"]))
TEXTS = st.lists(
    st.tuples(LINES, st.sampled_from(["\n", "\r\n", "\r"])), min_size=1, max_size=4
).map(lambda parts: "".join(line + end for line, end in parts))


def _reference_row(line):
    """Values of an accepted line, read with plain int() and float()."""
    fields = [f.strip() for f in line.split(",")]
    ints = [int(fields[i]) for i in (0, 1, 7)]
    floats = [float(f) for f in fields[2:7]]
    return ints[0], ints[1], floats[:4], floats[4], ints[2]


def _is_data(line):
    head = line.lstrip()[:1]
    return bool(head) and head != "#"


@settings(max_examples=200, deadline=None)
@given(TEXTS)
@example("1,1,0,0,10,10,0.9,1\r\n2,3,1.5,2,10,10,0.5,2\r\n")  # whole-stream read
@example("1,1,0,0,10,10,0.9,1\n2,3,1.5,2,10,10,0.5,2\n# note\n")  # line-filtered read
@example("1,1,0,0,10,10,0.9,1\r\r\n2,1,0,0,10,10,0.9,1\rbad\n")  # CR ends a line
def test_columnar_parser_agrees_with_line_validator(text):
    """The whole-file parse names the first line the one-line validator
    rejects, or reads every line to the values int() and float() give."""
    # the line split open() makes of the file parse_text writes
    lines = io.StringIO(text, newline=None).readlines()
    bad = [no for no, line in enumerate(lines, 1) if _is_data(line) and ingest._row_fault(line)]
    if bad:
        with pytest.raises(MalformedRow) as exc_info:
            parse_text(text, CLASS_MAP)
        assert exc_info.value.line_no == bad[0]
        return
    table = parse_text(text, CLASS_MAP)
    expected = [_reference_row(line) for line in lines if _is_data(line)]
    assert table.frame.tolist() == [r[0] for r in expected]
    assert table.track_id.tolist() == [r[1] for r in expected]
    assert table.bbox.tolist() == [r[2] for r in expected]
    assert table.confidence.tolist() == [r[3] for r in expected]
    assert [LABELS[c] for c in table.label] == [
        CLASS_MAP.get(r[4], ClassLabel.OTHER) for r in expected
    ]
