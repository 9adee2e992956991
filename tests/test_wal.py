"""Write-ahead log tests: framing, recovery, torn tails, segments."""

import os
from pathlib import Path

import pytest

from repro.chain.wal import (
    WALCorruption, WALError, WALRecord, WriteAheadLog, _encode,
    _segment_files, read_wal,
)


def write_records(data_dir, n=5) -> list[dict]:
    wal = WriteAheadLog(data_dir)
    datas = [{"i": i, "payload": "x" * (i * 3)} for i in range(n)]
    for data in datas:
        wal.append("test", data)
    wal.barrier()
    wal.close()
    return datas


def only_segment(data_dir) -> Path:
    (path,) = _segment_files(Path(data_dir))
    return path


# -- basics -------------------------------------------------------------------

def test_append_read_roundtrip(tmp_path):
    datas = write_records(tmp_path, n=5)
    records = read_wal(tmp_path)
    assert [r.data for r in records] == datas
    assert [r.seq for r in records] == [1, 2, 3, 4, 5]
    assert all(r.type == "test" for r in records)


def test_reopen_continues_sequence(tmp_path):
    write_records(tmp_path, n=3)
    wal = WriteAheadLog(tmp_path)
    assert [r.seq for r in wal.recovered] == [1, 2, 3]
    assert wal.append("more", {}) == 4
    wal.close()
    assert [r.seq for r in read_wal(tmp_path)] == [1, 2, 3, 4]


def test_read_missing_dir_is_empty(tmp_path):
    assert read_wal(tmp_path / "nope") == []


def test_closed_wal_refuses_appends(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.close()
    with pytest.raises(WALError):
        wal.append("x", {})
    with pytest.raises(WALError):
        wal.barrier()


# -- corruption ---------------------------------------------------------------

def test_interior_corruption_rejected(tmp_path):
    write_records(tmp_path, n=5)
    path = only_segment(tmp_path)
    blob = bytearray(path.read_bytes())
    # Flip a payload byte in the middle of the file: an interior CRC
    # mismatch is corruption, not a torn tail.
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(WALCorruption):
        read_wal(tmp_path)
    with pytest.raises(WALCorruption):
        WriteAheadLog(tmp_path)


def test_sequence_gap_rejected(tmp_path):
    path = Path(tmp_path) / "wal-0000000001.log"
    frames = (_encode(WALRecord(1, "a", {})) +
              _encode(WALRecord(3, "b", {})) +   # 2 is missing
              _encode(WALRecord(4, "c", {})))
    path.write_bytes(frames)
    with pytest.raises(WALCorruption, match="sequence gap"):
        read_wal(tmp_path)


def test_tail_sequence_gap_is_torn_write(tmp_path):
    path = Path(tmp_path) / "wal-0000000001.log"
    path.write_bytes(_encode(WALRecord(1, "a", {})) +
                     _encode(WALRecord(5, "b", {})))
    assert [r.seq for r in read_wal(tmp_path)] == [1]


# -- torn tails ---------------------------------------------------------------

def test_torn_tail_truncated_at_every_byte_offset(tmp_path):
    """The satellite property test: however much of the final record
    reached the disk, replay recovers exactly the preceding prefix —
    no exception, no partial record applied."""
    datas = write_records(tmp_path / "ref", n=4)
    path = only_segment(tmp_path / "ref")
    blob = path.read_bytes()
    frames = [_encode(WALRecord(i + 1, "test", data))
              for i, data in enumerate(datas)]
    assert blob == b"".join(frames)
    prefix_len = sum(len(f) for f in frames[:3])
    target_dir = tmp_path / "cut"
    target_dir.mkdir()
    target = target_dir / path.name
    for cut in range(prefix_len, len(blob)):
        target.write_bytes(blob[:cut])
        records = read_wal(target_dir)
        assert [r.data for r in records] == datas[:3], f"cut at {cut}"


def test_recovery_truncates_torn_tail_and_reuses_seq(tmp_path):
    write_records(tmp_path, n=3)
    path = only_segment(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-4])  # tear the last record

    wal = WriteAheadLog(tmp_path)
    assert [r.seq for r in wal.recovered] == [1, 2]
    assert path.stat().st_size < len(blob) - 4  # physically truncated
    # The torn record's sequence number is reused, keeping the log
    # contiguous.
    assert wal.append("replacement", {}) == 3
    wal.close()
    assert [(r.seq, r.type) for r in read_wal(tmp_path)] == \
        [(1, "test"), (2, "test"), (3, "replacement")]


def test_unterminated_tail_record_is_torn(tmp_path):
    write_records(tmp_path, n=2)
    path = only_segment(tmp_path)
    path.write_bytes(path.read_bytes()[:-1])  # strip the newline only
    assert [r.seq for r in read_wal(tmp_path)] == [1]


def test_garbage_only_tail_segment(tmp_path):
    write_records(tmp_path, n=2)
    path = only_segment(tmp_path)
    path.write_bytes(path.read_bytes() + b"###garbage")
    assert [r.seq for r in read_wal(tmp_path)] == [1, 2]
    wal = WriteAheadLog(tmp_path)
    assert wal.last_seq == 2
    wal.close()


# -- segments, rotation, compaction -------------------------------------------

def test_rotate_starts_new_segment(tmp_path):
    wal = WriteAheadLog(tmp_path)
    wal.append("a", {})
    wal.rotate()
    wal.append("b", {})
    wal.close()
    names = [p.name for p in _segment_files(Path(tmp_path))]
    assert names == ["wal-0000000001.log", "wal-0000000002.log"]
    assert [r.seq for r in read_wal(tmp_path)] == [1, 2]


def test_compact_drops_only_covered_segments(tmp_path):
    wal = WriteAheadLog(tmp_path)
    for chunk in range(3):
        for _ in range(2):
            wal.append("x", {"chunk": chunk})
        wal.rotate()
    # Segments: [1,2], [3,4], [5,6] plus the empty active one at 7.
    deleted = wal.compact(keep_from_seq=4)
    assert deleted == ["wal-0000000001.log"]
    assert [r.seq for r in read_wal(tmp_path)] == [3, 4, 5, 6]
    # The active segment is never deleted, whatever the argument.
    deleted = wal.compact(keep_from_seq=10**9)
    assert "wal-0000000007.log" not in deleted
    wal.append("y", {})
    wal.close()
    assert [r.seq for r in read_wal(tmp_path)] == [7]


def test_malformed_segment_name_rejected(tmp_path):
    from repro.chain.wal import _first_seq_of
    (Path(tmp_path) / "wal-oops.log").write_bytes(b"")
    with pytest.raises(WALError, match="malformed segment name"):
        _first_seq_of(Path(tmp_path) / "wal-oops.log")
