"""The sweep's persistent record cache: one append-only pack per directory.

A sweep's expensive work per spec — generating the representative
structure, extracting features, regenerating the declared-scale row
profile, format statistics, SIMD utilisation and imbalance — ends in one
:class:`~repro.perfmodel.record.SpecRecord`, a pure function of the
:class:`~repro.core.generator.MatrixSpec`, the ``max_nnz`` cap and the
measurement keys the swept devices need.  ``--cache-dir D`` keeps those
records, and nothing else, in ``D/records.rpak``:

* :func:`spec_key` — a stable hash of the spec's fields.  Everything that
  influences the generated structure is part of the key; dataset names
  and spec indices are not (they only label rows and seed the noise,
  which is recomputed at score time).
* :class:`RecordCache` — loads a chunk's records in one pack open and
  appends new ones with the pack's two-phase append
  (:func:`repro.io.pack.append_entries`), serialised across processes by
  an exclusive ``flock``.  A record that gains keys (a new device set) is
  appended again; the last record wins.  The sweep engine appends only
  from the parent process.

Corruption is *quarantined*, never trusted and never deleted: a record
whose checksum or JSON fails has its raw bytes copied into
``quarantine/`` (the pack is shared, so it stays) and is recomputed and
re-appended; a pack whose header or entry table fails is moved there
wholesale.  Each incident is counted for ``RunReport.cache_quarantined``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Set

from ..core.generator import MatrixSpec
from ..io.pack import Pack, PackError, append_entries
from ..perfmodel.record import SpecRecord

__all__ = ["spec_key", "RecordCache", "CACHE_VERSION", "PACK_NAME",
           "RECORD_KIND"]

# Bump when the generator or the record layout changes behaviour: the
# key changes, so stale records are simply never looked up again.
# v3: per-spec measurement records replace cached matrix instances.
CACHE_VERSION = 3

# The single pack a cache directory holds, and its entries' kind.
PACK_NAME = "records.rpak"
RECORD_KIND = "record"


def spec_key(spec: MatrixSpec, max_nnz: int) -> str:
    """Stable content key for ``(spec, max_nnz)``.

    Hashes every spec field plus the representative cap and the cache
    version; two equal specs always map to the same key across processes
    and sessions (plain SHA-256 of the canonical JSON encoding).
    """
    payload = {f.name: getattr(spec, f.name)
               for f in dataclasses.fields(spec)}
    payload["__max_nnz__"] = int(max_nnz)
    payload["__version__"] = CACHE_VERSION
    text = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:32]


class RecordCache:
    """Spec records of one cache directory (``<root>/records.rpak``)."""

    def __init__(self, root):
        self.root = Path(root)
        if self.root.exists() and not self.root.is_dir():
            raise NotADirectoryError(
                f"cache path {self.root} exists and is not a directory"
            )
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        # Corrupt records or packs this handle found (copied or moved,
        # not deleted); the sweep RunReport sums them across workers.
        self.quarantined = 0
        # Keys whose live record this handle found corrupt.
        self._bad: Set[str] = set()

    @property
    def pack_path(self) -> Path:
        return self.root / PACK_NAME

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def _open(self) -> Optional[Pack]:
        """The pack, or ``None`` when there is none yet or it failed
        validation (then it is quarantined).  An empty file is a first
        append that has not written its header yet: no pack, not
        corruption."""
        try:
            if self.pack_path.stat().st_size == 0:
                return None
            return Pack.open(self.pack_path)
        except FileNotFoundError:
            return None
        except PackError:
            try:
                if self.pack_path.stat().st_size == 0:
                    return None
            except FileNotFoundError:
                return None
            self._quarantine(self.pack_path)
            return None

    # -- reads -----------------------------------------------------------
    def load(self, keys: Sequence[str]) -> List[Optional[SpecRecord]]:
        """The live record of each key, ``None`` for a miss.

        A record that fails its checksum or does not parse is a miss:
        its raw bytes are copied into ``quarantine/`` as evidence and
        the key is remembered as bad until a fresh record supersedes it.
        """
        out: List[Optional[SpecRecord]] = [None] * len(keys)
        pack = self._open()
        if pack is not None:
            with pack:
                for i, key in enumerate(keys):
                    if key in pack and key not in self._bad:
                        out[i] = self._read(pack, key)
        found = sum(r is not None for r in out)
        self.hits += found
        self.misses += len(keys) - found
        return out

    def _read(self, pack: Pack, key: str) -> Optional[SpecRecord]:
        try:
            record = SpecRecord.from_bytes(pack.read(key))
        except (PackError, ValueError):
            self._bad.add(key)
            try:
                evidence = bytes(pack.read(key, verify=False))
            except (PackError, OSError):
                evidence = b""
            self._quarantine_bytes(f"{key}.json", evidence)
            return None
        return record

    def __len__(self) -> int:
        """Live records this handle has not found corrupt (one read of
        the pack's entry table; no directory scan)."""
        pack = self._open()
        if pack is None:
            return 0
        with pack:
            return len(set(pack.keys()) - self._bad)

    # -- writes ----------------------------------------------------------
    def append(self, records: Dict[str, SpecRecord]) -> int:
        """Append ``records`` (key → record); returns how many were
        written.  A key whose live record is byte-identical and intact is
        skipped, so re-appending after a retried chunk costs nothing.
        A corrupt pack is quarantined and the append starts a new one."""
        if not records:
            return 0
        items = [(key, RECORD_KIND, records[key].to_bytes())
                 for key in sorted(records)]
        try:
            added = append_entries(self.pack_path, items)
        except PackError:
            self._quarantine(self.pack_path)
            added = append_entries(self.pack_path, items)
        self._bad.difference_update(records)
        return added

    # -- quarantine ------------------------------------------------------
    def _reserve_quarantine_name(self, name: str) -> Optional[Path]:
        """Atomically reserve ``quarantine/<name>[.N]``.

        ``O_CREAT | O_EXCL`` makes the reservation itself the race
        arbiter: two processes quarantining same-named evidence at the
        same instant get *different* suffixes instead of clobbering one
        another's evidence.
        """
        suffix = 0
        while True:
            target = self.quarantine_dir / (
                name if suffix == 0 else f"{name}.{suffix}"
            )
            try:
                fd = os.open(
                    target, os.O_CREAT | os.O_EXCL | os.O_WRONLY
                )
            except FileExistsError:
                suffix += 1
                continue
            except OSError:
                return None
            os.close(fd)
            return target

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt file into ``quarantine/`` and count it.

        The name is reserved exclusively first, then ``os.replace``
        (atomic on one filesystem) moves the evidence over the
        reservation.  Concurrent processes race benignly: whoever moves
        the file first wins, the loser's missing-source error is
        tolerated — detection is counted even if the move fails.
        """
        self.quarantined += 1
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
        except OSError:
            return
        if not path.exists():
            return
        target = self._reserve_quarantine_name(path.name)
        if target is None:
            return
        try:
            os.replace(path, target)
        except OSError:
            try:
                os.unlink(target)  # release the unused reservation
            except OSError:
                pass

    def _quarantine_bytes(self, name: str, payload: bytes) -> None:
        """Copy a corrupt record's raw bytes into ``quarantine/`` and
        count it (the pack is shared, so the evidence is copied)."""
        self.quarantined += 1
        try:
            self.quarantine_dir.mkdir(exist_ok=True)
        except OSError:
            return
        target = self._reserve_quarantine_name(name)
        if target is not None:
            try:
                target.write_bytes(payload)
            except OSError:
                pass
