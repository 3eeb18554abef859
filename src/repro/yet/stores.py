"""Pluggable Year-Event-Table store backends for the distributed fleet.

A fleet coordinator never ships a whole YET with every shard request;
workers fetch trial columns *by reference* from a store both sides can
reach.  This module defines the store contract and two backends:

* :class:`LocalDirYetStore` — a directory of :func:`~repro.yet.io.save_yet_store`
  store directories, one per key.  The shared-filesystem deployment: the
  coordinator ``put``\\ s once, every worker on the same filesystem (or NFS
  mount) memory-maps the store through :class:`~repro.yet.io.YetShardReader`
  and copies only the trial windows it prices.
* :class:`InMemoryYetStore` — an object-store-style mapping of key to table,
  fed either with live tables or with the :func:`~repro.yet.io.yet_to_bytes`
  wire blobs the coordinator ships when no filesystem is shared.  Its
  ``inline`` kind names those shipped tables on the wire: a worker keeps
  them in its bounded trial-source cache, keyed by digest.

Both backends hand out **trial sources**: the local-dir store opens a
:class:`~repro.yet.io.YetShardReader`, the in-memory store returns the
table itself.  An :class:`~repro.core.plan.ExecutionPlan` prices either
through its ``trial_window`` (both enforce the same
``0 <= start <= stop <= n`` bounds contract), so the engine and the worker
protocol are indifferent to where the trial columns actually live.

Store *references* are small JSON-compatible dicts (``{"kind": ...}``)
that travel on the control channel; :func:`resolve_yet_ref` turns one back
into a trial source on the worker.
"""

from __future__ import annotations

import os
from abc import ABC, abstractmethod
from pathlib import Path
from typing import Any, List, Mapping

from repro.yet.io import YetShardReader, save_yet_store, yet_from_bytes, yet_to_bytes
from repro.yet.table import YearEventTable

__all__ = [
    "YetStore",
    "LocalDirYetStore",
    "InMemoryYetStore",
    "resolve_yet_ref",
]


def _validate_key(key: str) -> str:
    """Reject keys that cannot serve as a single path component / digest."""
    if not key or any(ch in key for ch in ("/", "\\", "\x00")) or key in (".", ".."):
        raise ValueError(f"invalid YET store key {key!r}")
    return key


class YetStore(ABC):
    """Abstract keyed store of Year Event Tables.

    Keys are opaque single-component strings — in the distributed protocol
    they are the content digests from :func:`repro.service.digests.yet_digest`,
    which makes every store automatically deduplicating and immutable.
    """

    @abstractmethod
    def put(self, key: str, yet: YearEventTable) -> Mapping[str, Any]:
        """Store a table under ``key``; returns the JSON-able reference."""

    @abstractmethod
    def open(self, key: str):
        """A trial source over the stored table (``KeyError`` if absent)."""

    @abstractmethod
    def contains(self, key: str) -> bool:
        """Whether ``key`` is present."""

    @abstractmethod
    def ref(self, key: str) -> Mapping[str, Any]:
        """The JSON-able reference a worker resolves via :func:`resolve_yet_ref`."""

    def __contains__(self, key: str) -> bool:
        return self.contains(key)


class LocalDirYetStore(YetStore):
    """A root directory of per-key YET store directories (shared-filesystem)."""

    kind = "local_dir"

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        return self.root / _validate_key(key)

    def put(self, key: str, yet: YearEventTable) -> Mapping[str, Any]:
        target = self._path(key)
        if not self.contains(key):
            save_yet_store(yet, target)
        return self.ref(key)

    def open(self, key: str) -> YetShardReader:
        target = self._path(key)
        if not self.contains(key):
            raise KeyError(f"no YET stored under key {key!r} in {self.root}")
        return YetShardReader(target)

    def contains(self, key: str) -> bool:
        return (self._path(key) / "yet_store.json").exists()

    def ref(self, key: str) -> Mapping[str, Any]:
        return {"kind": self.kind, "path": str(self._path(key).resolve())}

    def keys(self) -> List[str]:
        """Stored keys, sorted (directories with a manifest only)."""
        return sorted(
            p.name for p in self.root.iterdir() if (p / "yet_store.json").exists()
        )


class InMemoryYetStore(YetStore):
    """An object-store-style in-memory mapping of key to table.

    :meth:`put_bytes` / :meth:`get_bytes` round-trip tables through the
    :func:`~repro.yet.io.yet_to_bytes` wire form a coordinator ships inline.
    """

    kind = "inline"

    def __init__(self) -> None:
        self._tables: dict[str, YearEventTable] = {}

    def put(self, key: str, yet: YearEventTable) -> Mapping[str, Any]:
        self._tables[_validate_key(key)] = yet
        return self.ref(key)

    def put_bytes(self, key: str, payload: bytes) -> Mapping[str, Any]:
        """Store a table from its :func:`~repro.yet.io.yet_to_bytes` form."""
        return self.put(key, yet_from_bytes(payload))

    def get_bytes(self, key: str) -> bytes:
        """The stored table in wire form (``KeyError`` if absent)."""
        return yet_to_bytes(self._tables[_validate_key(key)])

    def open(self, key: str) -> YearEventTable:
        return self._tables[_validate_key(key)]

    def contains(self, key: str) -> bool:
        return key in self._tables

    def ref(self, key: str) -> Mapping[str, Any]:
        return {"kind": self.kind, "digest": _validate_key(key)}

    def keys(self) -> List[str]:
        return sorted(self._tables)

    def __len__(self) -> int:
        return len(self._tables)


def resolve_yet_ref(ref: Mapping[str, Any], inline_store: InMemoryYetStore | None = None):
    """Turn a store reference back into a trial source (a table or a reader).

    ``{"kind": "local_dir", "path": ...}`` opens a
    :class:`~repro.yet.io.YetShardReader` on the referenced store directory;
    ``{"kind": "inline", "digest": ...}`` resolves against ``inline_store``
    and raises ``KeyError`` when the digest is not stored there.
    """
    kind = ref.get("kind")
    if kind == LocalDirYetStore.kind:
        return YetShardReader(ref["path"])
    if kind == InMemoryYetStore.kind:
        if inline_store is None:
            raise KeyError(
                f"inline YET reference {ref.get('digest')!r} but no inline store"
            )
        return inline_store.open(str(ref["digest"]))
    raise ValueError(f"unknown YET store reference kind {kind!r}")
