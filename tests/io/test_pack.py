"""Pack store: round trips, append atomicity, corruption taxonomy.

Every corruption mode — truncation, bad magic, entry-table checksum
mismatch, schema-version drift, per-blob checksum failure — must raise
an actionable :class:`PackError`/:class:`PackVersionError`, never
return bad bytes, and never destroy the file (quarantining is the cache
layer's job, covered in tests/pipeline/test_pack_cache.py).
"""

import hashlib
import struct

import numpy as np
import pytest

from repro.core.table import SweepTable, decode_column, encode_column
from repro.io.pack import (
    HEADER_SIZE, PACK_MAGIC, PACK_VERSION, Pack, PackError,
    PackVersionError, PackWriter, append_entries, compact,
)


def make_pack(path, items=(("a", "kind", b"alpha"),
                           ("b", "kind", b"bravo"))):
    with PackWriter.create(path) as writer:
        for key, kind, data in items:
            writer.add(key, kind, data)
    return path


class TestRoundTrip:
    def test_write_then_read(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            assert len(pack) == 2
            assert pack.keys() == ["a", "b"]
            assert "a" in pack and "z" not in pack
            assert bytes(pack.read("a")) == b"alpha"
            assert bytes(pack.read("b")) == b"bravo"

    def test_raw_read_is_zero_copy_view(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        pack = Pack.open(path)
        view = pack.read("a")
        assert isinstance(view, memoryview)
        # Closing while the view is alive must not invalidate it.
        pack.close()
        assert bytes(view) == b"alpha"
        del view
        pack.close()

    def test_compressed_entry(self, tmp_path):
        payload = b"x" * 10_000
        path = tmp_path / "p.rpak"
        with PackWriter.create(path) as writer:
            entry = writer.add("big", "json", payload, compress=True)
        assert entry.compressed and entry.csize < entry.osize
        with Pack.open(path) as pack:
            data = pack.read("big")
            assert isinstance(data, bytes) and data == payload
            assert pack.entry("big").csize < len(payload)

    def test_entry_metadata(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            entry = pack.entry("a")
            assert entry.kind == "kind"
            assert entry.osize == entry.csize == 5
            assert entry.offset == HEADER_SIZE
            assert entry.sha == hashlib.sha256(b"alpha").digest()

    def test_digest_ending_in_nul_byte_survives_table_roundtrip(
            self, tmp_path):
        """Regression: NumPy strips trailing NULs from S-typed record
        fields, so a stored SHA-256 ending in 0x00 used to read back
        short and fail verification on ~1/256 of entries."""
        payload = next(
            f"nul-digest-{i}".encode() for i in range(10_000)
            if hashlib.sha256(f"nul-digest-{i}".encode())
            .digest().endswith(b"\x00")
        )
        path = tmp_path / "p.rpak"
        with PackWriter.create(path) as writer:
            writer.add("k", "kind", payload)
        with Pack.open(path) as pack:
            assert pack.entry("k").sha == hashlib.sha256(payload).digest()
            assert bytes(pack.read("k")) == payload

    def test_unknown_key_is_actionable(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            with pytest.raises(KeyError, match="unknown pack entry"):
                pack.entry("nope")

    def test_key_and_kind_validation(self, tmp_path):
        with PackWriter.create(tmp_path / "p.rpak") as writer:
            with pytest.raises(PackError, match="key"):
                writer.add("x" * 64, "k", b"")
            with pytest.raises(PackError, match="key"):
                writer.add("", "k", b"")
            with pytest.raises(PackError, match="kind"):
                writer.add("ok", "toolongkk", b"")
            writer.add("ok", "k", b"fine")

    def test_abort_leaves_no_file_or_temp(self, tmp_path):
        writer = PackWriter.create(tmp_path / "p.rpak")
        writer.add("a", "k", b"data")
        writer.abort()
        assert list(tmp_path.iterdir()) == []

    def test_context_manager_aborts_on_exception(self, tmp_path):
        with pytest.raises(RuntimeError):
            with PackWriter.create(tmp_path / "p.rpak") as writer:
                writer.add("a", "k", b"data")
                raise RuntimeError("boom")
        assert list(tmp_path.iterdir()) == []


class TestAppend:
    def test_append_to_missing_path_creates_pack(self, tmp_path):
        path = tmp_path / "p.rpak"
        added = append_entries(path, [("a", "k", b"alpha")])
        assert added == 1
        with Pack.open(path) as pack:
            assert bytes(pack.read("a")) == b"alpha"

    def test_torn_first_append_is_restarted(self, tmp_path):
        """A first append that died before its header landed leaves a
        file shorter than a header: no committed data, so the next
        append starts the pack over instead of failing on it."""
        path = tmp_path / "p.rpak"
        path.write_bytes(b"\x00" * (HEADER_SIZE // 2))
        assert append_entries(path, [("a", "k", b"alpha")]) == 1
        with Pack.open(path) as pack:
            assert pack.keys() == ["a"]
            assert bytes(pack.read("a")) == b"alpha"

    def test_first_append_commits_an_empty_pack_first(self, tmp_path):
        """Dying during the first append's blob writes leaves a valid,
        empty pack (the ignored tail is reclaimed by compaction)."""
        path = tmp_path / "p.rpak"
        append_entries(path, [("a", "k", b"alpha")])
        with open(path, "r+b") as fh:  # undo phase 2 of the append
            fh.write(
                struct.pack("<8sIIQQ32s", PACK_MAGIC, PACK_VERSION, 0,
                            HEADER_SIZE, 0, hashlib.sha256().digest())
            )
        with Pack.open(path) as pack:
            assert pack.keys() == []
        assert append_entries(path, [("a", "k", b"alpha")]) == 1

    def test_damaged_entry_is_re_appended(self, tmp_path):
        """An identical payload is skipped only while the stored copy
        still verifies; a damaged copy gets a shadowing record."""
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            offset = pack.entry("a").offset
        data = bytearray(path.read_bytes())
        data[offset] ^= 0xFF
        path.write_bytes(bytes(data))
        assert append_entries(path, [("a", "kind", b"alpha")]) == 1
        with Pack.open(path) as pack:
            assert bytes(pack.read("a")) == b"alpha"

    def test_append_is_idempotent_for_identical_payloads(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        size = path.stat().st_size
        assert append_entries(path, [("a", "kind", b"alpha")]) == 0
        # Nothing appended: the file did not grow at all.
        assert path.stat().st_size == size

    def test_changed_payload_shadows_old_record(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        assert append_entries(path, [("a", "kind", b"ALPHA2")]) == 1
        with Pack.open(path) as pack:
            assert bytes(pack.read("a")) == b"ALPHA2"
            assert pack.keys() == ["a", "b"]
            # The superseded record is still visible to `repro ls`.
            assert len(pack.records()) == 3

    def test_append_never_rewrites_existing_blobs(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        with Pack.open(path) as pack:
            before = {
                key: (pack.entry(key).offset, bytes(pack.read(key)))
                for key in pack.keys()
            }
        append_entries(path, [("c", "kind", b"charlie")])
        raw = path.read_bytes()
        with Pack.open(path) as pack:
            for key, (offset, payload) in before.items():
                assert pack.entry(key).offset == offset
                assert raw[offset:offset + len(payload)] == payload

    def test_torn_append_leaves_old_pack_readable(self, tmp_path):
        """A crash after the tail write but before the header commit
        must leave the previous pack state fully intact."""
        path = make_pack(tmp_path / "p.rpak")
        before = path.read_bytes()
        append_entries(path, [("c", "kind", b"charlie")])
        # Simulate dying before phase 2: restore the old header while
        # keeping the appended tail bytes in place.
        with open(path, "r+b") as fh:
            fh.write(before[:HEADER_SIZE])
        with Pack.open(path) as pack:
            assert pack.keys() == ["a", "b"]
            assert bytes(pack.read("a")) == b"alpha"

    def test_compact_drops_dead_regions(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        append_entries(path, [("a", "kind", b"much longer payload")])
        grown = path.stat().st_size
        kept = compact(path, path)
        assert kept == 2
        assert path.stat().st_size < grown
        with Pack.open(path) as pack:
            assert bytes(pack.read("a")) == b"much longer payload"
            assert bytes(pack.read("b")) == b"bravo"
            assert len(pack.records()) == 2


class TestCorruption:
    def test_truncated_pack(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(PackError, match="truncated"):
            Pack.open(path)
        path.write_bytes(data[: HEADER_SIZE - 1])
        with pytest.raises(PackError, match="truncated|shorter"):
            Pack.open(path)

    def test_bad_magic(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTAPACK"
        path.write_bytes(bytes(data))
        with pytest.raises(PackError, match="bad magic"):
            Pack.open(path)

    def test_entry_table_checksum_mismatch(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        data[-1] ^= 0xFF  # last byte lives in the entry table
        path.write_bytes(bytes(data))
        with pytest.raises(PackError, match="checksum"):
            Pack.open(path)

    def test_schema_version_drift(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        struct.pack_into("<I", data, 8, PACK_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(PackVersionError, match="version"):
            Pack.open(path)

    def test_blob_checksum_mismatch_on_read(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        data[HEADER_SIZE] ^= 0xFF  # first byte of entry "a"'s blob
        path.write_bytes(bytes(data))
        with Pack.open(path) as pack:
            with pytest.raises(PackError, match="checksum"):
                pack.read("a")
            # Unverified reads still work (quarantine evidence capture).
            assert len(bytes(pack.read("a", verify=False))) == 5
            # Other entries are unaffected.
            assert bytes(pack.read("b")) == b"bravo"

    def test_not_a_pack_at_all(self, tmp_path):
        path = tmp_path / "p.rpak"
        path.write_bytes(b"hello world, definitely not a pack file!" * 4)
        with pytest.raises(PackError, match="bad magic"):
            Pack.open(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(PackError, match="cannot open"):
            Pack.open(tmp_path / "absent.rpak")

    def test_compact_refuses_corrupt_source(self, tmp_path):
        path = make_pack(tmp_path / "p.rpak")
        data = bytearray(path.read_bytes())
        data[:8] = b"NOTAPACK"
        path.write_bytes(bytes(data))
        with pytest.raises(PackError):
            compact(path, tmp_path / "out.rpak")
        assert not (tmp_path / "out.rpak").exists()


class TestColumnBlobs:
    def table(self):
        return SweepTable.from_rows([
            {"device": "A", "gflops": 1.5, "nnz": 100, "best": True},
            {"device": "B", "gflops": 2.5, "nnz": 240, "best": False},
        ])

    def test_encode_decode_column(self):
        for arr in (np.arange(6, dtype=np.int64),
                    np.linspace(0, 1, 5),
                    np.array([True, False]),
                    np.array([], dtype=np.float64)):
            out = decode_column(encode_column(arr))
            assert out.dtype == arr.dtype
            np.testing.assert_array_equal(out, arr)

    def test_decode_rejects_missing_descriptor(self):
        with pytest.raises(ValueError, match="descriptor"):
            decode_column(b"\xff" * 300)

    def test_table_through_pack(self, tmp_path):
        table = self.table()
        blobs = table.to_blobs(prefix="t/")
        path = tmp_path / "p.rpak"
        with PackWriter.create(path) as writer:
            for key in sorted(blobs):
                writer.add(key, "col", blobs[key])
        with Pack.open(path) as pack:
            back = SweepTable.from_blobs(
                {k: pack.read(k) for k in pack.keys()}, prefix="t/"
            )
        assert back.names == table.names
        for name in table.names:
            np.testing.assert_array_equal(
                back._columns[name], table._columns[name]
            )

    def test_deterministic_npz_bytes(self, tmp_path):
        """Equal tables serialise to equal bytes (the property `repro
        pack`/`unpack` byte-identity rests on): the NPZ writer pins the
        zip timestamps instead of embedding wall-clock time."""
        table = self.table()
        table.to_npz(tmp_path / "a.npz")
        table.to_npz(tmp_path / "b.npz")
        a = (tmp_path / "a.npz").read_bytes()
        assert a == (tmp_path / "b.npz").read_bytes()
        back = SweepTable.from_npz(tmp_path / "a.npz")
        back.to_npz(tmp_path / "c.npz")
        assert a == (tmp_path / "c.npz").read_bytes()
