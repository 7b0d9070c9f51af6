"""Content-addressed, on-disk result cache for the OWL pipeline.

The pipeline is deliberately re-entrant — adhoc-sync annotation re-runs the
detector (§5.1), and the verifiers re-execute schedules (§5.2, §6.2) — so
most of a repeated ``owl`` invocation repeats byte-identical
sub-computations.  This module makes each of those sub-computations a cache
entry:

- one **detector seed** (``detect``): the per-seed report payloads and
  :class:`repro.runtime.metrics.RunStats` counts (no wall time),
- the **adhoc-sync classification** of a report set (``adhoc``): the
  annotation payload plus which report uids were tagged,
- one **race verification** (``race_verify``): verified flag, security
  hints, runs used,
- one **Algorithm-1 propagation** (``vuln_analysis``): the vulnerable-site
  payloads found from one report,
- one **vulnerability verification** (``vuln_verify``): site-reached /
  attack-realized outcome.

Keys are a SHA-256 over a canonical JSON rendering of *everything the
result depends on*: the program's printed IR (:func:`module_digest`), the
stage name and its configuration (seed, inputs, annotations, step budgets,
analysis options), and a **code version** — a digest over the source text
of the whole ``repro`` package (:func:`code_version`), so any code change
invalidates every entry rather than risking stale results.  Values are the
same plain payloads :mod:`repro.owl.batch` ships across process
boundaries, so a cache hit rehydrates through exactly the code path a
fresh result does — which is what makes cached and uncached runs produce
bit-identical :meth:`StageCounters.parity_dict` and provenance
dispositions.  Values hold results only, never timings, so two cold runs
of one configuration write byte-identical entries.

Entries live under ``<root>/<stage>/<key[:2]>/<key>.json`` (default root
``benchmarks/out/cache``) wrapped in an envelope carrying the schema
version, stage and key.  :meth:`ResultCache.get` rejects — and deletes —
entries that fail to parse, declare a different schema, or do not match
the stage/key they are filed under; corruption therefore degrades to a
counted cache miss (``corrupt``), never to a wrong result.  Writes go
through a same-directory temporary file and ``os.replace`` so a crash
mid-write cannot leave a half-written entry behind; a value JSON cannot
encode is a counted store error, never an entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import weakref
from typing import Dict, Optional

#: Envelope version of on-disk entries; bump on incompatible layout changes.
CACHE_SCHEMA = 1

#: Default cache root, next to the benchmark outputs.
DEFAULT_CACHE_DIR = os.path.join("benchmarks", "out", "cache")

_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Digest of the ``repro`` package's source text, computed once.

    Part of every cache key: any change to the detectors, the runtime, the
    verifiers — or anything else under ``repro`` — invalidates the whole
    cache.  That is deliberately coarse; correctness beats reuse.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        digest = hashlib.sha256()
        root = os.path.dirname(os.path.abspath(repro.__file__))
        for directory, _dirs, files in sorted(os.walk(root)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def _canonical(value):
    """A JSON-safe, order-stable rendering of arbitrary config values.

    Tuples and lists collapse to the same form, dict entries are sorted
    (keys of any hashable type), bytes become hex, and anything else falls
    back to ``repr`` — so the same value always hashes the same way
    regardless of which process computed it.

    Entries are in the order of ``repr`` of the whole canonical entry.
    Sorting by ``repr`` of the canonical key alone gives that order
    without rendering the (often nested) values: the entry's ``repr`` is
    ``[`` + the key's + ``, `` + the value's, and reprs of distinct
    strings, lists and wrapped values are prefix-free, while where one
    number's repr prefixes another's (``1``, ``10``, ``1.5``, ``1e+16``)
    the next character sorts after that ``,``.  Keys that render alike
    fall back to the whole entry.
    """
    if isinstance(value, dict):
        entries = [[_canonical(key), _canonical(item)]
                   for key, item in value.items()]
        by_key = {repr(entry[0]): entry for entry in entries}
        if len(by_key) == len(entries):
            return ["dict", [by_key[key] for key in sorted(by_key)]]
        entries.sort(key=repr)
        return ["dict", entries]
    if isinstance(value, (list, tuple)):
        return ["list", [_canonical(item) for item in value]]
    if isinstance(value, bytes):
        return ["bytes", value.hex()]
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, (str, int, float)):
        return value
    return ["repr", repr(value)]


def stable_hash(value) -> str:
    """SHA-256 over the canonical JSON rendering of ``value``."""
    rendered = json.dumps(_canonical(value), sort_keys=True,
                          separators=(",", ":"))
    return hashlib.sha256(rendered.encode()).hexdigest()


def module_digest(module) -> str:
    """Digest of a module's printed IR (uids, locations and all)."""
    from repro.ir.printer import print_module

    return hashlib.sha256(print_module(module).encode()).hexdigest()[:16]


class ResultCache:
    """Content-addressed stage-result store with hit/miss accounting.

    One instance serves a whole pipeline run (or many); per-stage hit,
    miss and store counters accumulate for the metrics JSON
    (``"cache"`` block).
    """

    def __init__(self, root: str = DEFAULT_CACHE_DIR,
                 version: Optional[str] = None):
        from repro.runtime.telemetry import MetricsRegistry

        self.root = root
        self.version = version if version is not None else code_version()
        #: Hit/miss/store counters live in a telemetry registry
        #: (``cache.<stage>.<what>`` names), so snapshots carry them for
        #: free.
        self.registry = MetricsRegistry()
        self._stages: set = set()
        #: Keyed by the module object, weakly: an ``id`` key would hand a
        #: collected module's digest to the next module at its address.
        self._module_digests = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------------
    # keys

    def module_key(self, module) -> str:
        """Memoized :func:`module_digest` (printing a module is not free)."""
        digest = self._module_digests.get(module)
        if digest is None:
            digest = module_digest(module)
            self._module_digests[module] = digest
        return digest

    def key(self, stage: str, module=None, **parts) -> str:
        """The content address of one unit of stage work."""
        payload = {
            "stage": stage,
            "code": self.version,
            "parts": parts,
        }
        if module is not None:
            payload["module"] = self.module_key(module)
        return stable_hash(payload)

    # ------------------------------------------------------------------
    # storage

    def _path(self, stage: str, key: str) -> str:
        return os.path.join(self.root, stage, key[:2], key + ".json")

    def get(self, stage: str, key: str):
        """The stored value, or None (counted as a miss).

        Unreadable, truncated, schema-mismatched or mis-filed entries are
        deleted and treated as misses, and also counted as ``corrupt`` —
        a corrupted cache can cost time, never correctness.
        """
        path = self._path(stage, key)
        try:
            with open(path) as handle:
                envelope = json.load(handle)
        except FileNotFoundError:
            self._count(stage, "misses")
            return None
        except (json.JSONDecodeError, OSError, UnicodeDecodeError):
            envelope = None
        if (
            not isinstance(envelope, dict)
            or envelope.get("schema") != CACHE_SCHEMA
            or envelope.get("stage") != stage
            or envelope.get("key") != key
            or "value" not in envelope
        ):
            self._discard(path)
            self._count(stage, "corrupt")
            self._count(stage, "misses")
            return None
        self._count(stage, "hits")
        return envelope["value"]

    def put(self, stage: str, key: str, value) -> Optional[str]:
        """Persist one result atomically; returns the path written.

        A cache is an accelerator, never a correctness dependency: an
        ordinary store failure (disk full, permissions yanked mid-run, a
        value JSON cannot encode) discards the partial temp file, counts
        a ``store_errors``, and returns ``None`` — the caller keeps its
        in-memory result and the run proceeds as if caching were off.
        ``KeyboardInterrupt`` and ``SystemExit`` are re-raised after the
        temp file is discarded: Ctrl-C mid-store must stop the run, not
        vanish into a silently degraded miss.
        """
        path = self._path(stage, key)
        directory = os.path.dirname(path)
        envelope = {
            "schema": CACHE_SCHEMA,
            "stage": stage,
            "key": key,
            "code": self.version,
            "value": value,
        }
        try:
            os.makedirs(directory, exist_ok=True)
            fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        except (KeyboardInterrupt, SystemExit):
            raise
        except Exception:
            self._count(stage, "store_errors")
            return None
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(envelope, handle)
            os.replace(temp_path, path)
        except (KeyboardInterrupt, SystemExit):
            self._discard(temp_path)
            raise
        except Exception:
            self._discard(temp_path)
            self._count(stage, "store_errors")
            return None
        self._count(stage, "stores")
        return path

    @staticmethod
    def _discard(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # ------------------------------------------------------------------
    # accounting

    def _count(self, stage: str, what: str) -> None:
        self._stages.add(stage)
        self.registry.counter("cache.%s.%s" % (stage, what)).inc()

    def _stage_value(self, stage: str, what: str) -> int:
        return self.registry.counter("cache.%s.%s" % (stage, what)).value

    @property
    def hits(self) -> int:
        return sum(self._stage_value(stage, "hits")
                   for stage in self._stages)

    @property
    def misses(self) -> int:
        return sum(self._stage_value(stage, "misses")
                   for stage in self._stages)

    @property
    def stores(self) -> int:
        return sum(self._stage_value(stage, "stores")
                   for stage in self._stages)

    @property
    def store_errors(self) -> int:
        return sum(self._stage_value(stage, "store_errors")
                   for stage in self._stages)

    @property
    def corrupt(self) -> int:
        return sum(self._stage_value(stage, "corrupt")
                   for stage in self._stages)

    def stage_counters(self, stage: str) -> Dict[str, int]:
        """A copy of one stage's counters (zeros if the stage never ran)."""
        return {what: self._stage_value(stage, what)
                for what in ("hits", "misses", "stores", "store_errors",
                             "corrupt")}

    def counters(self) -> Dict:
        """The metrics-JSON ``"cache"`` block."""
        return {
            "root": self.root,
            "code_version": self.version,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "store_errors": self.store_errors,
            "corrupt": self.corrupt,
            "stages": {
                stage: self.stage_counters(stage)
                for stage in sorted(self._stages)
            },
        }

    def describe(self) -> str:
        misses = "%d misses" % self.misses
        if self.corrupt:
            misses += " (%d corrupt)" % self.corrupt
        return "cache: %d hits, %s, %d stored (%s)" % (
            self.hits, misses, self.stores, self.root,
        )

    def __repr__(self) -> str:
        return "<ResultCache %s hits=%d misses=%d>" % (
            self.root, self.hits, self.misses,
        )
