"""Persistent proof-result store.

Verdicts are keyed by the obligation's content fingerprint (circuit
slice + scenario assumptions + commitment target are all part of the
exported CNF, so the key identifies the proof up to bit-level identity;
with cone-of-influence slicing the encoding is canonical, so the same
logical query hashes identically across windows and runs).  Each verdict
lives in its own JSON file, written atomically, so many worker processes
can share one cache directory without locking.

Only definite verdicts (sat/unsat) are stored: an ``unknown`` outcome
depends on the conflict limit of the run that produced it.

Besides verdicts the store keeps *warm-start* entries — the post-BVE
simplified clause database of an obligation, under the sibling key
``<fingerprint>.simp`` — so a repeat solve whose verdict is missing
(evicted, or the first run hit its conflict limit) at least skips the
preprocessing pass (:meth:`store_simplified` /
:meth:`lookup_simplified`; see ``solve_obligation``).

The store is size-capped: a small index file (``_index.json``) tracks
per-entry sizes and a logical LRU clock; when ``max_bytes`` (or the
``REPRO_ENGINE_CACHE_MAX_BYTES`` environment knob) is exceeded, the
least-recently-used verdicts are pruned.  The index is advisory — if it
is missing, stale or corrupted it is rebuilt from the directory listing,
and stale ``*.tmp`` files from interrupted writers are removed on init.
Index writes are batched (every few stores, after an eviction, and on
:meth:`ResultCache.flush` — which ``ProofEngine.close`` calls so warm
all-hit runs still persist their recency), and each save merges with
the on-disk index so sibling processes' entries survive.  With the
directory shared between processes the byte cap and LRU order are
best-effort per process, not a global invariant.

Every entry carries a CRC32 of its canonical payload serialization; an
entry whose checksum (or JSON structure) does not survive the round
trip — a truncated write, a flipped bit on disk — is *quarantined*:
moved aside into ``_quarantine/`` and treated as a miss, never a crash
and never served.  Entries written before checksumming landed are
accepted as-is (missing checksum = legacy entry).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zlib
from typing import Any, Dict, Optional, Tuple

from repro.engine.obligation import DEFINITE, ProofObligation, Verdict

#: Environment knob: byte budget for every cache directory opened
#: without an explicit ``max_bytes``.
CACHE_MAX_ENV = "REPRO_ENGINE_CACHE_MAX_BYTES"

_INDEX_NAME = "_index.json"

#: Subdirectory corrupt entries are moved into (quarantine-and-miss):
#: kept for post-mortem instead of deleted, out of the lookup path.
_QUARANTINE_DIR = "_quarantine"

#: Key suffix of warm-start entries: the simplified clause database of
#: an obligation lives beside its verdict as ``<fingerprint>.simp.json``
#: and shares the index/LRU machinery.
_SIMP_SUFFIX = ".simp"

#: A ``*.tmp`` file this old cannot be an in-flight write of a live
#: concurrent worker; younger ones are left alone so opening a shared
#: cache directory never races a sibling's store.
_ORPHAN_TTL_S = 3600.0

#: Persist the index after this many unsaved mutations (stores/touches)
#: rather than on every store — the index is advisory and rebuilt from
#: the listing, so batching costs nothing but staleness.
_SAVE_EVERY = 16


def _canonical(body: Dict[str, Any]) -> str:
    """The canonical serialization: sorted keys, no whitespace."""
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


def _payload_crc(payload: Dict[str, Any]) -> int:
    """CRC32 over the canonical serialization of an entry's payload
    (the ``crc32`` field itself excluded)."""
    body = {key: value for key, value in payload.items() if key != "crc32"}
    return zlib.crc32(_canonical(body).encode("utf-8"))


def _env_max_bytes() -> Optional[int]:
    raw = os.environ.get(CACHE_MAX_ENV)
    if not raw:
        return None
    try:
        value = int(raw)
    except ValueError:
        return None
    return value if value > 0 else None


class ResultCache:
    """On-disk obligation-verdict store (one JSON file per fingerprint)."""

    def __init__(self, root: str,
                 max_bytes: Optional[int] = None) -> None:
        self.root = root
        self.max_bytes = max_bytes if max_bytes is not None \
            else _env_max_bytes()
        os.makedirs(root, exist_ok=True)
        self._clean_orphans()
        self._tick, self._entries = self._load_index()
        self._dirty = 0
        #: Corrupt entries moved to ``_quarantine/`` by this process.
        self.quarantined = 0

    def __enter__(self) -> "ResultCache":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()

    def __del__(self) -> None:
        # A worker that dies mid-sweep (or any holder that never reaches
        # ProofEngine.close) must not lose its batched index updates —
        # recency ticks feed LRU eviction, and an index that never sees
        # new entries keeps adopting them at tick 0, eviction-first.
        try:
            self.flush()
        except Exception:   # interpreter teardown: best-effort only
            pass

    # ------------------------------------------------------------------
    # Index maintenance
    # ------------------------------------------------------------------
    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX_NAME)

    def _clean_orphans(self) -> None:
        """Remove stale ``*.tmp`` leftovers of writers that died
        mid-store.  Recent temp files are spared: a worker sharing the
        directory may be between ``mkstemp`` and ``os.replace`` right
        now, and unlinking its file would silently drop that verdict."""
        try:
            names = os.listdir(self.root)
        except OSError:
            return
        cutoff = time.time() - _ORPHAN_TTL_S
        for name in names:
            if not name.endswith(".tmp"):
                continue
            path = os.path.join(self.root, name)
            try:
                if os.path.getmtime(path) < cutoff:
                    os.unlink(path)
            except OSError:
                pass

    def _load_index(self) -> Tuple[int, Dict[str, Dict[str, int]]]:
        """Read the index and reconcile it against the directory: entries
        without a backing file are dropped, files the index never saw are
        adopted with the oldest possible recency (tick 0)."""
        tick = 0
        entries: Dict[str, Dict[str, int]] = {}
        try:
            with open(self._index_path(), "r", encoding="utf-8") as handle:
                data = json.load(handle)
            tick = int(data["tick"])
            for key, entry in data["entries"].items():
                entries[str(key)] = {
                    "size": int(entry["size"]),
                    "tick": int(entry["tick"]),
                }
        except (OSError, ValueError, KeyError, TypeError):
            tick, entries = 0, {}
        try:
            names = os.listdir(self.root)
        except OSError:
            names = []
        on_disk = set()
        for name in names:
            if not name.endswith(".json") or name == _INDEX_NAME:
                continue
            fingerprint = name[:-len(".json")]
            on_disk.add(fingerprint)
            if fingerprint not in entries:
                try:
                    size = os.path.getsize(os.path.join(self.root, name))
                except OSError:
                    continue
                entries[fingerprint] = {"size": size, "tick": 0}
        for fingerprint in list(entries):
            if fingerprint not in on_disk:
                del entries[fingerprint]
        return tick, entries

    def _save_index(self) -> None:
        """Persist the index, merging entries sibling processes wrote to
        the shared directory since we loaded it (their files exist but
        our in-memory view never saw them; last-writer-wins would drop
        them to tick 0 and make them eviction-first)."""
        try:
            with open(self._index_path(), "r", encoding="utf-8") as handle:
                disk = json.load(handle)
            self._tick = max(self._tick, int(disk["tick"]))
            for key, entry in disk["entries"].items():
                key = str(key)
                if key in self._entries:
                    continue
                if os.path.exists(self._path(key)):
                    self._entries[key] = {
                        "size": int(entry["size"]),
                        "tick": int(entry["tick"]),
                    }
        except (OSError, ValueError, KeyError, TypeError):
            pass
        payload = {"tick": self._tick, "entries": self._entries}
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, self._index_path())
            self._dirty = 0
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass

    def flush(self) -> None:
        """Persist any unsaved recency/entry updates (called by
        ``ProofEngine.close``; cheap no-op when nothing changed)."""
        if self._dirty:
            self._save_index()

    def _touch(self, fingerprint: str, size: Optional[int] = None) -> None:
        self._tick += 1
        self._dirty += 1
        entry = self._entries.get(fingerprint)
        if entry is None:
            if size is None:
                try:
                    size = os.path.getsize(self._path(fingerprint))
                except OSError:
                    return
            entry = self._entries[fingerprint] = {"size": size}
        elif size is not None:
            entry["size"] = size
        entry["tick"] = self._tick

    def _prune(self) -> bool:
        """Evict least-recently-used verdicts until under the byte cap;
        returns whether anything was evicted."""
        if self.max_bytes is None:
            return False
        total = sum(entry["size"] for entry in self._entries.values())
        if total <= self.max_bytes:
            return False
        # Oldest tick first; fingerprint breaks ties deterministically.
        order = sorted(self._entries.items(),
                       key=lambda item: (item[1]["tick"], item[0]))
        evicted = False
        for fingerprint, entry in order:
            if total <= self.max_bytes:
                break
            try:
                os.unlink(self._path(fingerprint))
            except OSError:
                pass
            total -= entry["size"]
            del self._entries[fingerprint]
            evicted = True
        return evicted

    # ------------------------------------------------------------------
    # Store / lookup
    # ------------------------------------------------------------------
    def _path(self, fingerprint: str) -> str:
        return os.path.join(self.root, f"{fingerprint}.json")

    def _quarantine(self, key: str) -> None:
        """Move a corrupt entry out of the lookup path (kept under
        ``_quarantine/`` for post-mortem) and forget it ever existed —
        the caller reports a miss, the next store rewrites it clean."""
        target_dir = os.path.join(self.root, _QUARANTINE_DIR)
        path = self._path(key)
        try:
            os.makedirs(target_dir, exist_ok=True)
            os.replace(path, os.path.join(target_dir, f"{key}.json"))
        except OSError:
            try:
                os.unlink(path)
            except OSError:
                pass
        self._entries.pop(key, None)
        self._dirty += 1
        self.quarantined += 1

    def _read_entry(self, key: str) -> Optional[Dict[str, Any]]:
        """Read and integrity-check one entry; corrupt files (bad JSON,
        non-dict payload, or a present-but-mismatched checksum) are
        quarantined and reported as a miss.  Entries without a
        ``crc32`` field predate checksumming and are accepted."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                raw = handle.read()
        except OSError:
            return None
        try:
            payload = json.loads(raw.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("payload is not a mapping")
        except (ValueError, UnicodeDecodeError):
            self._quarantine(key)
            return None
        crc = payload.get("crc32")
        if crc is not None:
            try:
                ok = int(crc) == _payload_crc(payload)
            except (TypeError, ValueError):
                ok = False
            if not ok:
                self._quarantine(key)
                return None
        return payload

    def has(self, fingerprint: str) -> bool:
        """Whether a verdict for this fingerprint is on disk (no read,
        no recency touch — used to skip redundant gossip writes)."""
        return os.path.exists(self._path(fingerprint))

    def lookup(self, obligation: ProofObligation) -> Optional[Verdict]:
        """Return the stored verdict for an obligation, or None."""
        return self.lookup_verdict(obligation.fingerprint())

    def lookup_verdict(self, fingerprint: str) -> Optional[Verdict]:
        """Return the stored verdict for a bare fingerprint, or None —
        the durable-broker path: the memo is keyed by fingerprint, not
        by a live obligation."""
        data = self._read_entry(fingerprint)
        if data is None:
            return None
        try:
            verdict = Verdict.from_dict(data["verdict"])
        except (KeyError, TypeError, ValueError):
            # Structurally broken in a way the checksum could not see
            # (a legacy entry, or a clean write of garbage): same
            # treatment — out of the lookup path, report a miss.
            self._quarantine(fingerprint)
            return None
        verdict.cached = True
        # Recency is tracked in memory and persisted on the next store:
        # a read-only hit must not pay a write.
        self._touch(fingerprint)
        return verdict

    def store(self, obligation: ProofObligation, verdict: Verdict) -> None:
        """Persist a definite verdict (atomic write; unknowns are skipped)."""
        self.store_verdict(verdict, meta=obligation.meta,
                           size=obligation.size())

    def store_verdict(self, verdict: Verdict,
                      meta: Optional[Dict[str, Any]] = None,
                      size: Optional[Dict[str, int]] = None) -> None:
        """Persist a verdict known only by its fingerprint — the gossip
        path: a broker-relayed verdict arrives without its obligation."""
        if verdict.status not in DEFINITE or verdict.cached:
            return
        payload: Dict[str, Any] = {
            "verdict": verdict.to_dict(),
            "meta": meta if meta is not None else {},
            "size": size if size is not None else {},
        }
        self._write_entry(verdict.fingerprint, payload)

    def _write_entry(self, key: str, payload: Dict[str, Any]) -> None:
        # The file is the canonical body that ``_payload_crc`` hashes,
        # with the checksum spliced in as its first key: one encoding.
        body = _canonical(payload)
        crc = zlib.crc32(body.encode("utf-8"))
        encoded = '{"crc32":%d' % crc + ("," if len(body) > 2 else "") \
            + body[1:]
        path = self._path(key)
        fd, tmp = tempfile.mkstemp(dir=self.root, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(encoded)
            os.replace(tmp, path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return
        self._touch(key, size=len(encoded))
        if self._prune() or self._dirty >= _SAVE_EVERY:
            self._save_index()

    # ------------------------------------------------------------------
    # Warm-start entries (post-BVE simplified clause databases)
    # ------------------------------------------------------------------
    def store_simplified(self, fingerprint: str,
                         payload: Dict[str, Any]) -> None:
        """Persist the snapshot a cold ``solve_obligation`` searched —
        ``{"nvars", "clauses", "stack"}``: the units and simplified
        clauses, and the model-reconstruction entries as ``[witness
        literal, clause]`` pairs — under a sibling key of the
        obligation's verdict entry; subject to the same LRU byte cap."""
        self._write_entry(fingerprint + _SIMP_SUFFIX,
                          {"simplified": payload})

    def lookup_simplified(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        key = fingerprint + _SIMP_SUFFIX
        data = self._read_entry(key)
        if data is None:
            return None
        payload = data.get("simplified")
        if not isinstance(payload, dict):
            self._quarantine(key)
            return None
        self._touch(key)
        return payload

    def __len__(self) -> int:
        return sum(1 for name in os.listdir(self.root)
                   if name.endswith(".json") and name != _INDEX_NAME
                   and not name.endswith(_SIMP_SUFFIX + ".json"))
