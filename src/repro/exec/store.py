"""Persistent cell-hash result store + the backend that rides it.

Repeated sweeps are the dominant workload: CI re-prices the same grids
on every push, parameter studies re-run with one axis extended.  Every
cell of a declarative plan is a *pure function* of its
:class:`~repro.api.plan.PlanCell` fields (the seeded emitter makes the
source deterministic), so its result row can be cached **across
processes and machines** — which in-memory LRUs cannot.

:func:`cell_key` canonicalises a cell into a sha256 hex digest over
every declarative field — (algorithm, n, p, sigma, topology, policy,
policy_seed, machine, relative_to_dbsp, mode, arbiter, arbiter_seed,
flits_per_message, seed, params) — plus the ``check`` flag and
``repro.__version__``.  The version is *part of the key*: a release that
changes any measured quantity silently invalidates every stored row
(stale rows linger until evicted; they can never be returned).

Cells that are not pure functions of their declaration are never cached:
``@``-sourced cells (in-memory traces of unknown content), cells holding
:class:`~repro.networks.policy.RoutingPolicy` instances, and machine
cells whose plan carries custom machine builders.

:class:`ResultStore` is a small sqlite table (``key -> row JSON``) with
LRU eviction by access sequence and hit/miss/eviction counters;
:class:`CachedBackend` wraps any inner :class:`ExecutorBackend`: hits
skip *everything* — source emission, folds, routes, sims — and only the
miss indices reach the inner backend (whose ``prepare`` then
materialises only the sources those misses need).
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import threading
from dataclasses import fields
from pathlib import Path
from typing import Any

from repro.exec.base import ExecutorBackend
from repro.exec.dag import Substrate
from repro.exec.registry import by_executor, register_executor
from repro.util import sanitize
from repro.util.caches import register_cache

__all__ = [
    "cell_key",
    "ResultStore",
    "CachedBackend",
    "store_cache_stats",
    "clear_store_stats",
]

# Process-wide counters aggregated across every ResultStore instance
# (the repro.cache_stats() "store" entry).
_stats_lock = threading.Lock()
_hits = 0
_misses = 0
_evictions = 0


def store_cache_stats() -> dict[str, int]:
    """Hit/miss/eviction counters summed over every result store."""
    with _stats_lock:
        return {"hits": _hits, "misses": _misses, "evictions": _evictions}


def clear_store_stats() -> None:
    """Reset the aggregate store counters (stored rows are untouched)."""
    global _hits, _misses, _evictions
    with _stats_lock:
        _hits = 0
        _misses = 0
        _evictions = 0


register_cache("store", store_cache_stats, clear_store_stats)


def _version() -> str:
    from repro import __version__  # lazy: repro imports this module

    return __version__


def cell_key(
    cell: Any, *, check: bool = False, version: str | None = None
) -> str | None:
    """Canonical sha256 identity of one cell's row, or ``None`` if the
    cell is not a pure function of its declaration (see module doc)."""
    if cell.algorithm.startswith("@"):
        return None
    payload: dict = {}
    for f in fields(cell):
        value = getattr(cell, f.name)
        if f.name == "policy" and value is not None and not isinstance(value, str):
            return None  # a RoutingPolicy instance has no declarative identity
        if f.name == "params":
            value = sorted((k, v) for k, v in value)
        payload[f.name] = value
    payload["__check__"] = bool(check)
    payload["__version__"] = version if version is not None else _version()
    try:
        text = json.dumps(payload, sort_keys=True, default=_json_scalar)
    except TypeError:
        return None  # non-declarative params (arrays, objects, ...)
    return hashlib.sha256(text.encode()).hexdigest()


def _json_scalar(x: object) -> object:
    """JSON encoder fallback: numpy scalars become their Python twins."""
    item = getattr(x, "item", None)
    if item is not None:
        return item()
    raise TypeError(f"not JSON-serialisable: {type(x).__name__}")


class ResultStore:
    """Persistent ``cell hash -> result row`` table in one sqlite file.

    Thread-safe (one connection guarded by a lock — plan runs touch the
    store in one batch before and after execution, so contention is
    nil).  ``max_rows`` bounds the table; eviction drops the
    least-recently-*accessed* rows, so warm sweeps keep their working
    set even across version-bump garbage.
    """

    def __init__(
        self, path: str | os.PathLike, *, max_rows: int | None = None
    ) -> None:
        self.path = Path(path)
        self.max_rows = max_rows
        self._lock = threading.Lock()
        self._conn = sqlite3.connect(str(self.path), check_same_thread=False)
        with self._lock, self._conn:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS results ("
                " key TEXT PRIMARY KEY,"
                " version TEXT NOT NULL,"
                " row TEXT NOT NULL,"
                " seq INTEGER NOT NULL)"
            )
            cur = self._conn.execute("SELECT COALESCE(MAX(seq), 0) FROM results")
            self._seq = int(cur.fetchone()[0])
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- batch API (what CachedBackend uses) ---------------------------
    def get_many(self, keys: list[str]) -> dict[str, tuple]:
        """Stored rows for ``keys`` (touching their access sequence).

        Counts one hit per found key and one miss per absent key.
        """
        global _hits, _misses
        found: dict[str, tuple] = {}
        with self._lock:
            for key in keys:
                cur = self._conn.execute(
                    "SELECT row FROM results WHERE key = ?", (key,)
                )
                got = cur.fetchone()
                if got is not None:
                    found[key] = tuple(json.loads(got[0]))
                    self._seq += 1
                    self._conn.execute(
                        "UPDATE results SET seq = ? WHERE key = ?",
                        (self._seq, key),
                    )
            self._conn.commit()
        hits, misses = len(found), len(keys) - len(found)
        self.hits += hits
        self.misses += misses
        with _stats_lock:
            _hits += hits
            _misses += misses
        return found

    def put_many(self, rows: dict[str, tuple]) -> None:
        """Insert (or refresh) rows, then evict past ``max_rows``."""
        global _evictions
        if not rows:
            return
        with self._lock, self._conn:
            for key, row in rows.items():
                self._seq += 1
                self._conn.execute(
                    "INSERT OR REPLACE INTO results (key, version, row, seq)"
                    " VALUES (?, ?, ?, ?)",
                    (key, _version(), json.dumps(row, default=_json_scalar),
                     self._seq),
                )
            evicted = 0
            if self.max_rows is not None:
                (count,) = self._conn.execute(
                    "SELECT COUNT(*) FROM results"
                ).fetchone()
                excess = int(count) - self.max_rows
                if excess > 0:
                    self._conn.execute(
                        "DELETE FROM results WHERE key IN ("
                        " SELECT key FROM results ORDER BY seq LIMIT ?)",
                        (excess,),
                    )
                    evicted = excess
        if evicted:
            self.evictions += evicted
            with _stats_lock:
                _evictions += evicted

    def __len__(self) -> int:
        with self._lock:
            (count,) = self._conn.execute(
                "SELECT COUNT(*) FROM results"
            ).fetchone()
        return int(count)

    def stats(self) -> dict[str, int]:
        """This instance's counters (the aggregate lives in
        :func:`store_cache_stats`)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "rows": len(self),
        }

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ResultStore({str(self.path)!r})"


class CachedBackend(ExecutorBackend):
    """Wrap any inner backend with the persistent result store.

    Hit cells return their stored rows without materialising anything —
    a fully warm run performs zero emissions, folds, routes and sims
    (asserted via the cache counters in the test suite).  Miss cells run
    on the inner backend exactly as they would have, and their rows are
    stored on the way out.
    """

    name = "cached"

    def __init__(
        self,
        store: ResultStore | str | os.PathLike,
        inner: ExecutorBackend | str = "serial",
    ) -> None:
        self.store = store if isinstance(store, ResultStore) else ResultStore(store)
        self.inner = inner if isinstance(inner, ExecutorBackend) else by_executor(inner)

    def run(
        self,
        runtime: Any,
        *,
        max_workers: int | None = None,
        indices: Any = None,
    ) -> tuple[list[tuple], dict]:
        if indices is None:
            indices = range(len(runtime.cells))
        indices = list(indices)
        custom_machines = runtime.plan.machines is not None
        keys: dict[int, str] = {}
        for i in indices:
            cell = runtime.cells[i]
            if custom_machines and cell.machine is not None:
                continue  # a builder mapping has no declarative identity
            key = cell_key(cell, check=runtime.check)
            if key is not None:
                keys[i] = key
        cached = self.store.get_many(sorted(set(keys.values())))
        rows: dict[int, tuple] = {}
        missing: list[int] = []
        hits: list[int] = []
        for i in indices:
            key = keys.get(i)
            if key is not None and key in cached:
                rows[i] = cached[key]
                hits.append(i)
            else:
                missing.append(i)
        if hits and sanitize.enabled():
            # REPRO_SANITIZE: sampled hit rows are recomputed end to end
            # (emission, fold, route, sim) and must match the stored row
            # — the runtime counterpart of the cell-purity contract the
            # whole store rests on.
            for i in hits:
                if not sanitize.should_spotcheck():
                    continue
                runtime.prepare([i])
                sanitize.check_row_parity(
                    rows[i], runtime.eval_cell(i), f"store hit cell {i}"
                )
        meta: dict = {}
        if missing:
            inner_rows, meta = self.inner.run(
                runtime, max_workers=max_workers, indices=missing
            )
            puts: dict[str, tuple] = {}
            for i, row in zip(missing, inner_rows):
                rows[i] = row
                key = keys.get(i)
                if key is not None:
                    puts[key] = row
            self.store.put_many(puts)
        else:
            meta = {"executor_effective": self.inner.name}
        meta = dict(meta)
        meta.update(
            store=str(self.store.path),
            store_hits=len(indices) - len(missing),
            store_misses=len(missing),
        )
        return [rows[i] for i in indices], meta

    def substrate(
        self, runtime: Any, indices: list[int], max_workers: int | None
    ) -> Substrate:
        return self.inner.substrate(runtime, indices, max_workers)


register_executor("cached", CachedBackend)
