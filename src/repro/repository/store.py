"""The persistent similarity store: content-addressed cross-process reuse.

COMA's headline idea beyond matcher combination is the *reuse of previous
match results* (Section 5): similarity cubes live in a repository so later
match tasks start from work already done.  The in-process session caches
(PR 2) realise that within one process; this module extends it across process
restarts.  A :class:`SimilarityStore` is a small SQLite database holding

* **similarity cubes** -- the matcher-specific ``k x m x n`` layers of a match
  execution, stored under an explicit **layer-dtype contract**: ``float64``
  (the default) keeps a reloaded cube bit-identical to the computed one
  (mappings derived from it are therefore byte-identical to the uncached
  path), while ``float32`` and quantized ``uint16`` (similarities live in
  ``[0, 1]``; scale :data:`UINT16_SCALE`, maximum absolute round-trip error
  :data:`UINT16_MAX_ERROR`) trade that byte-identity for 2x / 4x smaller
  blobs.  Every blob carries a versioned header recording its dtype, and the
  dtype is part of each cube's content address, so cubes of different dtypes
  share one store file without ever being served in place of each other;
* **token artifacts** -- the name -> token-list memo feeding
  :class:`~repro.engine.profiles.PathSetProfile`, so a fresh process skips
  re-tokenizing names it has seen in any earlier run.

Stacks at or above the store's ``mmap_threshold`` move out of SQLite into a
side file next to the database (``<path>.blobs/<key>.cube``) and are read
back through ``np.memmap`` in copy-on-write mode: pages fault in lazily, and
the mapped array is writable without touching the file.  Inline blobs are
copied into a writable buffer at the load boundary, so every loaded cube --
whatever its tier -- can be mutated in place by downstream code.

Everything is **content-addressed**: cube keys are SHA-256 digests of
``(source schema content, target schema content, matcher usage, linguistic
configuration, storage dtype)`` and token rows are keyed by the tokenizer
configuration digest.  There is no invalidation protocol -- changing a schema, the matcher
usage, the synonym dictionary, the abbreviation table or the
type-compatibility table changes the digest, and the store simply misses.
Stale reads are impossible by construction.

Writes go through a background writer thread (:meth:`SimilarityStore.flush`
drains it), so a match request never waits on the disk; reads happen inline
on the caller thread under the store's lock.  One store may be shared by many
sessions and threads (the service attaches one store to every pool shard).
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import queue
import sqlite3
import struct
import threading
import zlib
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

import numpy as np

from repro import faults

from repro.auxiliary.synonyms import SynonymDictionary, TermRelationship
from repro.combination.cube import SimilarityCube
from repro.combination.matrix import SimilarityMatrix
from repro.exceptions import RepositoryError
from repro.linguistic.tokenizer import NameTokenizer
from repro.model.datatypes import TypeCompatibilityTable
from repro.model.schema import Schema
from repro.repository.serialization import schema_to_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.matchers.registry import MatcherLibrary
    from repro.model.path import SchemaPath

#: Bump when the stored representation changes; part of every digest, so old
#: stores age out instead of being misread.  Version 2 introduced the
#: per-blob dtype header and the external (mmap) blob tier.
STORE_FORMAT_VERSION = 2

#: The cube storage dtypes a store accepts, smallest-loss first.
CUBE_DTYPES = ("float64", "float32", "uint16")

#: Quantization scale of the ``uint16`` tier (similarities live in [0, 1]).
UINT16_SCALE = 65535

#: Maximum absolute error of a ``uint16`` round trip: half a quantization
#: step, ``1 / 131070`` (~7.63e-6) -- comfortably inside the 1e-4 tolerance
#: the compact tiers are tested against.
UINT16_MAX_ERROR = 1.0 / (2 * UINT16_SCALE)

#: Inline blobs at or above this many payload bytes move to the mmap-backed
#: side-file tier (1 MiB by default).
DEFAULT_MMAP_THRESHOLD = 1 << 20

#: Versioned per-blob header: magic, dtype code, storage flag, 2 spare bytes,
#: crc32 of the payload (the inline bytes after the header, or the side
#: file's full contents).  ``CBH3`` added the checksum; legacy ``CBH2`` blobs
#: remain readable -- they simply skip verification.
_BLOB_HEADER = struct.Struct(">4sBB2xI")
_BLOB_MAGIC = b"CBH3"
_LEGACY_HEADER = struct.Struct(">4sBB2x")
_LEGACY_MAGIC = b"CBH2"
_DTYPE_CODES = {"float64": 0, "float32": 1, "uint16": 2}
_CODE_DTYPES = {code: name for name, code in _DTYPE_CODES.items()}
_NUMPY_DTYPES = {
    "float64": np.dtype(np.float64),
    "float32": np.dtype(np.float32),
    "uint16": np.dtype(np.uint16),
}
_STORAGE_INLINE = 0
_STORAGE_EXTERNAL = 1


class _CorruptBlob(Exception):
    """Internal: one stored blob failed integrity checks.

    Distinguishes *corruption* (checksum mismatch, truncated payload, bad
    header, vanished side file -- evidence of a torn write or bit rot, so the
    row is quarantined and counted) from the ordinary miss path (key absent,
    database briefly unavailable).  Never escapes :class:`SimilarityStore`.
    """

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason

_STORE_DDL = """
CREATE TABLE IF NOT EXISTS cubes (
    key            TEXT PRIMARY KEY,
    source_digest  TEXT NOT NULL,
    target_digest  TEXT NOT NULL,
    matchers       TEXT NOT NULL,
    config_digest  TEXT NOT NULL,
    matcher_names  TEXT NOT NULL,
    shape          TEXT NOT NULL,
    data           BLOB NOT NULL,
    dtype          TEXT NOT NULL DEFAULT 'float64',
    payload_bytes  INTEGER NOT NULL DEFAULT 0,
    external       INTEGER NOT NULL DEFAULT 0,
    created_at     REAL NOT NULL DEFAULT (julianday('now'))
);
CREATE TABLE IF NOT EXISTS tokens (
    config_digest  TEXT NOT NULL,
    name           TEXT NOT NULL,
    tokens         TEXT NOT NULL,
    PRIMARY KEY (config_digest, name)
);
CREATE TABLE IF NOT EXISTS counters (
    name   TEXT PRIMARY KEY,
    value  INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS subtrees (
    schema_digest   TEXT PRIMARY KEY,
    digest_version  INTEGER NOT NULL,
    signatures      TEXT NOT NULL,
    created_at      REAL NOT NULL DEFAULT (julianday('now'))
);
"""

def encode_stack(stack: np.ndarray, dtype: str) -> bytes:
    """Encode a float64 cube stack into the given storage dtype's payload.

    ``float64`` is a raw byte copy (bit-identical round trip); ``float32``
    rounds to single precision; ``uint16`` quantizes ``[0, 1]`` similarities
    to ``round(value * UINT16_SCALE)`` (values are clipped into the unit
    interval first, so out-of-range cells saturate instead of wrapping).
    """
    array = np.ascontiguousarray(stack, dtype=np.float64)
    if dtype == "float64":
        return array.tobytes()
    if dtype == "float32":
        return array.astype(np.float32).tobytes()
    if dtype == "uint16":
        clipped = np.clip(array, 0.0, 1.0)
        return np.round(clipped * UINT16_SCALE).astype(np.uint16).tobytes()
    raise RepositoryError(f"unknown cube dtype {dtype!r}, expected one of {CUBE_DTYPES}")


def decode_stack(payload, dtype: str, shape: Tuple[int, ...]) -> np.ndarray:
    """Decode a stored payload back into a *writable* float64 stack.

    The compact dtypes decode through ``astype`` (which copies), and the
    ``float64`` path copies the payload into a ``bytearray`` first -- either
    way the result is safely mutable, never a read-only view into the blob.

    >>> stack = np.array([[[0.25, 1.0]]])
    >>> decoded = decode_stack(encode_stack(stack, "uint16"), "uint16", (1, 1, 2))
    >>> bool(np.max(np.abs(decoded - stack)) <= UINT16_MAX_ERROR)
    True
    """
    if dtype == "float64":
        return np.frombuffer(bytearray(payload), dtype=np.float64).reshape(shape)
    if dtype == "float32":
        raw = np.frombuffer(payload, dtype=np.float32)
        return raw.astype(np.float64).reshape(shape)
    if dtype == "uint16":
        raw = np.frombuffer(payload, dtype=np.uint16)
        return (raw.astype(np.float64) / UINT16_SCALE).reshape(shape)
    raise RepositoryError(f"unknown cube dtype {dtype!r}, expected one of {CUBE_DTYPES}")


def _sha256(document: object) -> str:
    """The SHA-256 hex digest of a canonical-JSON-serialisable document."""
    text = json.dumps(document, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def schema_content_digest(schema: Schema) -> str:
    """A stable digest of a schema's *content* (names, types, links).

    Two schemas with identical content -- e.g. the same file imported in two
    different processes -- digest identically, which is what lets a restarted
    service hit cubes stored by its predecessor.  The digest is recomputed
    from the current graph on every call (schemas are mutable); callers on a
    hot path memoise it with a lifetime they control -- the session keeps a
    per-instance cache dropped by ``clear_caches()``, so the documented
    remedy after in-place mutation re-addresses schemas too.
    """
    return _sha256([STORE_FORMAT_VERSION, schema_to_json(schema)])


def tokenizer_digest(tokenizer: NameTokenizer) -> str:
    """A stable digest of a tokenizer's configuration (flags + abbreviations)."""
    abbreviations = sorted(
        (key, list(expansion)) for key, expansion in tokenizer.abbreviations.items()
    )
    return _sha256(
        [
            STORE_FORMAT_VERSION,
            bool(tokenizer.expands_abbreviations),
            bool(tokenizer.drops_digits),
            abbreviations,
        ]
    )


def library_digest(library: "MatcherLibrary") -> str:
    """A digest of a matcher library's registrations (names, kinds, factories).

    Factories are identified by their ``module.qualname``: re-registering a
    name with a different factory (including any locally defined function or
    lambda) changes the digest, so two processes whose libraries resolve the
    same matcher names differently do not share store entries.  Factory
    *closure state* is invisible to this digest -- which is why sessions on
    custom libraries additionally bypass the store altogether and only the
    (unmutated) default library is fully content-addressed.
    """
    entries = sorted(
        (
            info.name.lower(),
            info.kind,
            f"{getattr(info.factory, '__module__', '?')}."
            f"{getattr(info.factory, '__qualname__', repr(info.factory))}",
        )
        for info in library.entries()
    )
    return _sha256(entries)


def match_config_digest(
    tokenizer: NameTokenizer,
    synonyms: SynonymDictionary,
    type_compatibility: TypeCompatibilityTable,
    library: Optional["MatcherLibrary"] = None,
) -> str:
    """A stable digest of every linguistic/auxiliary input a cube depends on.

    Cached cube values are a pure function of (schema contents, matcher
    usage, this configuration); any change here -- a new synonym pair, an
    adjusted relationship similarity, an abbreviation entry, a type
    compatibility override, a re-registered library matcher -- changes the
    digest and therefore invalidates all previously stored cubes for the new
    configuration.
    """
    synonym_pairs = sorted(
        (pair[0], pair[1], relationship.value) for pair, relationship in synonyms.items()
    )
    relationship_values = [
        (relationship.value, synonyms.relationship_similarity(relationship))
        for relationship in TermRelationship
    ]
    type_rows = sorted(
        (a.value, b.value, value) for a, b, value in type_compatibility.items()
    )
    return _sha256(
        [
            tokenizer_digest(tokenizer),
            synonym_pairs,
            relationship_values,
            type_rows,
            library_digest(library) if library is not None else None,
        ]
    )


def cube_store_key(
    source_digest: str,
    target_digest: str,
    matcher_usage: Sequence[str],
    config_digest: str,
    dtype: str,
) -> str:
    """The content address of one (schema pair, matcher usage, config, dtype) cube.

    The storage dtype is part of the address, so a lossy (``float32`` /
    ``uint16``) cube and a lossless ``float64`` cube of the same match never
    alias: a float64 reader of a shared store file can only be served the
    bit-exact cube.

    Examples
    --------
    >>> exact = cube_store_key("s", "t", ["Name"], "config", "float64")
    >>> exact == cube_store_key("s", "t", ["Name"], "config", "uint16")
    False
    """
    return _sha256(
        [source_digest, target_digest, [str(name) for name in matcher_usage],
         config_digest, dtype]
    )


class SimilarityStore:
    """A content-addressed SQLite store for similarity cubes and token artifacts.

    Parameters
    ----------
    path:
        The database file (``":memory:"`` works for tests, though an
        in-memory store obviously does not survive a restart).
    writer:
        Run the background writer thread (default).  With ``False`` every
        ``store_*_async`` call writes inline -- useful for deterministic
        tests.
    dtype:
        The storage dtype for cubes **written** by this store: ``"float64"``
        (default, bit-identical round trips), ``"float32"`` or quantized
        ``"uint16"`` (max round-trip error :data:`UINT16_MAX_ERROR`).  Reads
        decode the dtype recorded in each blob's header.  Sessions key the
        dtype into every cube's content address (:func:`cube_store_key`),
        so one store file may hold cubes of several dtypes, and a
        ``float64`` session is only ever served ``float64`` cubes: its warm
        restarts stay byte-identical whatever other writers used the file.
    mmap_threshold:
        Payloads of at least this many bytes are written to an mmap-backed
        side file (``<path>.blobs/<key>.cube``) instead of an inline SQLite
        blob, and read back lazily through ``np.memmap`` in copy-on-write
        mode.  ``None`` disables the tier (in-memory stores always inline).
    readonly:
        Open for inspection only (``coma stats --store``): the file is
        opened ``mode=ro`` (a missing path fails instead of creating an
        empty database), no DDL or migrations run, and the open validates
        that the file actually contains the store tables -- pointing the
        flag at some *other* SQLite database raises
        :class:`~repro.exceptions.RepositoryError` instead of mutating it or
        reporting zeros.  Implies ``writer=False``.

    Thread safety: one internal lock serialises database access; reads run on
    the caller thread, writes on the writer thread.  The store may be shared
    by any number of sessions.

    Examples
    --------
    >>> store = SimilarityStore(":memory:")
    >>> store.cube_count()
    0
    >>> store.close()
    """

    #: How long a connection waits on another process's write lock before
    #: giving up.  30s comfortably covers a slow checkpoint; the store's read
    #: paths additionally degrade lock errors to cache misses, so this bound
    #: is a latency ceiling, not a correctness knob.
    BUSY_TIMEOUT_SECONDS = 30.0

    def __init__(
        self,
        path: str,
        writer: bool = True,
        dtype: str = "float64",
        mmap_threshold: Optional[int] = DEFAULT_MMAP_THRESHOLD,
        readonly: bool = False,
    ):
        if dtype not in CUBE_DTYPES:
            raise RepositoryError(
                f"unknown cube dtype {dtype!r}, expected one of {CUBE_DTYPES}"
            )
        if readonly and path == ":memory:":
            raise RepositoryError(
                "a read-only store needs an existing database file, "
                "not ':memory:'"
            )
        self._path = path
        self._dtype = dtype
        self._mmap_threshold = mmap_threshold
        self._readonly = bool(readonly)
        self._lock = threading.RLock()
        try:
            if readonly:
                # An inspection-only open (`coma stats --store`) must neither
                # create a database out of a typo'd path nor run DDL against
                # a file that is *some other* SQLite database -- mode=ro
                # fails on a missing file and guarantees zero mutation.
                self._connection = sqlite3.connect(
                    f"file:{path}?mode=ro",
                    uri=True,
                    check_same_thread=False,
                    timeout=self.BUSY_TIMEOUT_SECONDS,
                )
            else:
                self._connection = sqlite3.connect(
                    path, check_same_thread=False, timeout=self.BUSY_TIMEOUT_SECONDS
                )
            # One store file is routinely shared by many *processes* (every
            # worker of `coma serve --backend process` opens its own
            # connection).  WAL lets those readers proceed while a writer
            # commits -- the rollback-journal default would instead escalate
            # concurrent access into SQLITE_BUSY storms (and its
            # writer-vs-reader lock upgrade can deadlock outright, which a
            # busy timeout only converts into a 30s stall).  The busy timeout
            # then serialises concurrent writers.  synchronous=NORMAL is the
            # documented WAL pairing: commits stop waiting on fsync, and a
            # power-cut loses at most the final commits of a *cache*.
            self._connection.execute(
                f"PRAGMA busy_timeout = {int(self.BUSY_TIMEOUT_SECONDS * 1000)}"
            )
            if readonly:
                # No DDL, no migrations: verify the file actually is a
                # similarity store instead of silently reporting zeros over
                # (or worse, later mutating) an unrelated database.
                present = {
                    row[0]
                    for row in self._connection.execute(
                        "SELECT name FROM sqlite_master WHERE type = 'table'"
                    )
                }
                missing = {"cubes", "tokens", "counters"} - present
                if missing:
                    self._connection.close()
                    raise RepositoryError(
                        f"{path!r} is not a similarity store (missing "
                        f"table(s): {', '.join(sorted(missing))})"
                    )
            else:
                if path != ":memory:":
                    try:
                        self._connection.execute("PRAGMA journal_mode = WAL")
                        self._connection.execute("PRAGMA synchronous = NORMAL")
                    except sqlite3.Error:
                        # Some filesystems cannot memory-map the WAL side files;
                        # the store still works, just with coarser locking.
                        pass
                self._connection.executescript(_STORE_DDL)
                # Files created before the dtype contract lack the newer columns
                # (their rows are unreachable anyway -- the format version is in
                # every digest -- but the occupancy queries still touch them).
                for migration in (
                    "ALTER TABLE cubes ADD COLUMN dtype TEXT NOT NULL DEFAULT 'float64'",
                    "ALTER TABLE cubes ADD COLUMN payload_bytes INTEGER NOT NULL DEFAULT 0",
                    "ALTER TABLE cubes ADD COLUMN external INTEGER NOT NULL DEFAULT 0",
                ):
                    with contextlib.suppress(sqlite3.OperationalError):
                        self._connection.execute(migration)
                self._connection.commit()
        except sqlite3.Error as error:
            # A corrupt file, a non-SQLite file passed by mistake, or an
            # unwritable path must surface as a clean library error, not a
            # raw sqlite traceback.
            raise RepositoryError(
                f"cannot open similarity store {path!r}: {error}"
            ) from error
        self._hits = 0
        self._misses = 0
        self._writes = 0
        self._corrupt = 0
        self._quarantined = 0
        self._closed = False
        self._queue: "queue.Queue[Optional[Tuple]]" = queue.Queue()
        self._writer: Optional[threading.Thread] = None
        if writer and not readonly:
            self._writer = threading.Thread(
                target=self._drain_writes, name="similarity-store-writer", daemon=True
            )
            self._writer.start()

    # -- lifecycle -------------------------------------------------------------

    @property
    def path(self) -> str:
        """The database path."""
        return self._path

    @property
    def dtype(self) -> str:
        """The storage dtype new cubes are written with."""
        return self._dtype

    def _side_path(self, key: str) -> str:
        """The side file of one external (mmap-tier) cube payload."""
        return os.path.join(f"{self._path}.blobs", f"{key}.cube")

    def flush(self) -> None:
        """Block until every queued asynchronous write has reached the database."""
        with self._lock:
            if self._closed:
                return
        if self._writer is not None:
            self._queue.join()

    def close(self) -> None:
        """Flush pending writes, persist counters and close the database."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if self._writer is not None:
            self._queue.join()
            self._queue.put(None)
            self._writer.join()
        self._persist_counters()
        with self._lock:
            self._connection.close()

    def __enter__(self) -> "SimilarityStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- cubes -----------------------------------------------------------------

    def load_cube(
        self,
        key: str,
        source_paths: Sequence["SchemaPath"],
        target_paths: Sequence["SchemaPath"],
    ) -> Optional[SimilarityCube]:
        """The stored cube under ``key``, rebuilt over the caller's path axes.

        The caller's path sets come from a schema whose *content* digest is
        part of ``key``, so their order and cardinality match the arrays that
        were stored; any unusable row -- a shape mismatch, a truncated blob,
        a missing or short side file, an unknown header, a corrupt or
        concurrently closed database -- is treated as a miss rather than an
        error (persistence is an optimisation; a failed read must degrade to
        recomputation, never fail the match).  Returns ``None`` when nothing
        (usable) is stored.

        Blobs written under the ``CBH3`` header additionally verify a crc32
        checksum over the payload (inline bytes or side-file contents); a
        mismatch -- bit rot, a torn write, a tampered file -- quarantines the
        row (deleted, side file unlinked) and counts it in
        ``info()["corrupt"]`` / ``["quarantined"]`` before degrading to the
        same miss-and-recompute path.  Legacy ``CBH2`` blobs stay readable
        without verification.

        The returned stack is decoded to float64 per the blob header's dtype
        and is always *writable*: inline payloads are copied out of the blob,
        external payloads are mapped copy-on-write.
        """
        try:
            faults.fault_point("store.load", key=key)
            with self._lock:
                row = self._connection.execute(
                    "SELECT matcher_names, shape, data FROM cubes WHERE key = ?", (key,)
                ).fetchone()
            if row is not None:
                matcher_names: List[str] = json.loads(row[0])
                shape = tuple(json.loads(row[1]))
                expected = (len(matcher_names), len(source_paths), len(target_paths))
                if shape != expected:
                    row = None
                else:
                    stack = self._decode_blob(key, row[2], shape)
                    if stack is None:
                        row = None
        except _CorruptBlob as corrupt:
            self._quarantine(key, corrupt.reason)
            row = None
        except (sqlite3.Error, OSError, ValueError, TypeError, json.JSONDecodeError):
            row = None
        if row is None:
            with self._lock:
                self._misses += 1
            return None
        layers = [
            (name, SimilarityMatrix(source_paths, target_paths, stack[index]))
            for index, name in enumerate(matcher_names)
        ]
        with self._lock:
            self._hits += 1
        return SimilarityCube.from_layers(source_paths, target_paths, layers)

    def _decode_blob(
        self, key: str, blob: bytes, shape: Tuple[int, ...]
    ) -> Optional[np.ndarray]:
        """Decode one cube blob (header + inline payload, or side-file ref).

        Raises :class:`_CorruptBlob` on integrity evidence -- a short or
        unrecognised header, a crc32 mismatch, a missing / short / oversized
        side file, a payload whose byte count cannot hold the recorded shape.
        """
        blob = faults.fault_bytes("store.blob.read", bytes(blob), key=key)
        crc: Optional[int] = None
        if len(blob) >= _BLOB_HEADER.size:
            magic, dtype_code, storage, crc = _BLOB_HEADER.unpack_from(blob)
            header_size = _BLOB_HEADER.size
            if magic != _BLOB_MAGIC:
                crc = None
        if crc is None:
            # Not a CBH3 blob: either a legacy CBH2 row (readable, no
            # checksum) or garbage (quarantined).
            if len(blob) < _LEGACY_HEADER.size:
                raise _CorruptBlob("blob shorter than any known header")
            magic, dtype_code, storage = _LEGACY_HEADER.unpack_from(blob)
            header_size = _LEGACY_HEADER.size
            if magic != _LEGACY_MAGIC:
                raise _CorruptBlob(f"unknown blob magic {bytes(magic)!r}")
        if dtype_code not in _CODE_DTYPES:
            raise _CorruptBlob(f"unknown blob dtype code {dtype_code}")
        dtype = _CODE_DTYPES[dtype_code]
        if storage == _STORAGE_INLINE:
            payload = blob[header_size:]
            if crc is not None and zlib.crc32(payload) != crc:
                raise _CorruptBlob("inline payload crc32 mismatch")
            try:
                return decode_stack(payload, dtype, shape)
            except ValueError as error:
                raise _CorruptBlob(f"inline payload undecodable: {error}") from error
        numpy_dtype = _NUMPY_DTYPES[dtype]
        side_path = self._side_path(key)
        expected_bytes = int(np.prod(shape)) * numpy_dtype.itemsize
        try:
            actual_bytes = os.path.getsize(side_path)
        except OSError as error:
            raise _CorruptBlob(f"side file unreadable: {error}") from error
        if actual_bytes != expected_bytes:
            raise _CorruptBlob(
                f"side file holds {actual_bytes} bytes, expected {expected_bytes}"
            )
        # mode="c" (copy-on-write): pages fault in lazily and writes land in
        # private memory, so the mapped stack is writable like any other.
        mapped = np.memmap(side_path, dtype=numpy_dtype, mode="c")
        if crc is not None:
            # Verification necessarily pages the whole file in -- the
            # integrity guarantee costs the mmap tier its laziness on first
            # read (documented trade-off; pages stay resident for the reuse
            # that follows).  The armed-plan branch materialises bytes only
            # for injection; the production path checksums the mapping
            # buffer directly, copy-free.
            if faults.active_plan() is not None:
                verified = faults.fault_bytes(
                    "store.side.read", mapped.tobytes(), key=key
                )
            else:
                verified = mapped
            if zlib.crc32(verified) != crc:
                raise _CorruptBlob("side file crc32 mismatch")
        if dtype == "float64":
            return mapped.reshape(shape)
        return decode_stack(mapped, dtype, shape)

    def _quarantine(self, key: str, reason: str) -> None:
        """Remove one corrupt cube row (and side file) and count the event.

        Read-only stores only count -- the evidence stays on disk for the
        operator.  Quarantine failures (a locked database) are swallowed: the
        corrupt row will simply be re-detected and re-quarantined on the next
        read.
        """
        with self._lock:
            self._corrupt += 1
        if self._readonly:
            return
        removed = False
        with contextlib.suppress(sqlite3.Error):
            with self._lock:
                self._connection.execute("DELETE FROM cubes WHERE key = ?", (key,))
                self._connection.commit()
                removed = True
        with contextlib.suppress(OSError):
            os.remove(self._side_path(key))
        if removed:
            with self._lock:
                self._quarantined += 1

    def store_cube(
        self,
        key: str,
        cube: SimilarityCube,
        source_digest: str,
        target_digest: str,
        matcher_usage: Sequence[str],
        config_digest: str,
    ) -> None:
        """Persist a cube under its content address (synchronously).

        The stack is encoded with the store's configured dtype; payloads at
        or above the mmap threshold land in a side file (written atomically
        via a temporary name), with only the header kept in the blob column.
        The header records the payload's crc32 *before* the bytes travel to
        disk, so anything that mangles them en route or at rest -- including
        the ``store.blob.write`` fault seam -- is caught on the next read.
        """
        faults.fault_point("store.write", key=key)
        stack = cube.as_array()  # k x m x n float64, C-order
        payload = encode_stack(stack, self._dtype)
        external = (
            self._path != ":memory:"
            and self._mmap_threshold is not None
            and len(payload) >= self._mmap_threshold
        )
        header = _BLOB_HEADER.pack(
            _BLOB_MAGIC,
            _DTYPE_CODES[self._dtype],
            _STORAGE_EXTERNAL if external else _STORAGE_INLINE,
            zlib.crc32(payload),
        )
        payload = faults.fault_bytes("store.blob.write", payload, key=key)
        side_path = self._side_path(key)
        if external:
            os.makedirs(os.path.dirname(side_path), exist_ok=True)
            temporary = f"{side_path}.tmp.{os.getpid()}.{threading.get_ident()}"
            with open(temporary, "wb") as handle:
                handle.write(payload)
            os.replace(temporary, side_path)
            blob = header
        else:
            blob = header + payload
        record = (
            key,
            source_digest,
            target_digest,
            json.dumps(list(matcher_usage)),
            config_digest,
            json.dumps(list(cube.matcher_names)),
            json.dumps(list(stack.shape)),
            blob,
            self._dtype,
            len(payload),
            int(external),
        )
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO cubes (key, source_digest, target_digest, "
                "matchers, config_digest, matcher_names, shape, data, dtype, "
                "payload_bytes, external) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                record,
            )
            self._connection.commit()
            self._writes += 1
        if not external:
            # An earlier write of this key may have used the external tier;
            # drop its now-orphaned side file.
            with contextlib.suppress(OSError):
                os.remove(side_path)

    def store_cube_async(self, *args, **kwargs) -> None:
        """Queue :meth:`store_cube` onto the writer thread (inline without one)."""
        self._submit(("cube", args, kwargs))

    def cube_count(self) -> int:
        """The number of stored cubes."""
        with self._lock:
            row = self._connection.execute("SELECT COUNT(*) FROM cubes").fetchone()
        return int(row[0])

    def prune_cubes(self, max_cubes: int) -> int:
        """Drop the oldest cubes beyond ``max_cubes``; returns the number removed.

        Content-addressed entries never go stale, so eviction is purely a
        disk-budget decision; oldest-first matches the session caches'
        insertion-order policy.  Pruning reclaims disk for real: external
        side files of the dropped cubes are unlinked and the database is
        ``VACUUM``-ed (SQLite's ``DELETE`` alone only marks pages free), so
        the file size genuinely shrinks.
        """
        if max_cubes < 0:
            raise RepositoryError(f"max_cubes must be >= 0, got {max_cubes}")
        with self._lock:
            doomed = self._connection.execute(
                "SELECT key, external FROM cubes WHERE key NOT IN ("
                "SELECT key FROM cubes ORDER BY created_at DESC, key LIMIT ?)",
                (max_cubes,),
            ).fetchall()
            cursor = self._connection.execute(
                "DELETE FROM cubes WHERE key NOT IN ("
                "SELECT key FROM cubes ORDER BY created_at DESC, key LIMIT ?)",
                (max_cubes,),
            )
            self._connection.commit()
            if cursor.rowcount:
                # VACUUM rewrites the main database file without the freed
                # pages; the checkpoint then truncates the WAL side file.
                # Both are best-effort -- a locked or exotic filesystem only
                # costs the reclamation, never the prune itself.
                with contextlib.suppress(sqlite3.Error):
                    self._connection.execute("VACUUM")
                    self._connection.execute("PRAGMA wal_checkpoint(TRUNCATE)")
        for key, external in doomed:
            if external:
                with contextlib.suppress(OSError):
                    os.remove(self._side_path(key))
        return cursor.rowcount

    # -- token artifacts -------------------------------------------------------

    def load_tokens(
        self, config_digest: str, limit: Optional[int] = 200_000
    ) -> Dict[str, Tuple[str, ...]]:
        """The stored name -> token-tuple memo of one tokenizer configuration.

        ``limit`` bounds the rows loaded into memory (a long-lived store can
        accumulate more names than one session wants to hold).
        """
        statement = "SELECT name, tokens FROM tokens WHERE config_digest = ?"
        parameters: Tuple = (config_digest,)
        if limit is not None:
            statement += " LIMIT ?"
            parameters = (config_digest, int(limit))
        with self._lock:
            rows = self._connection.execute(statement, parameters).fetchall()
        return {name: tuple(json.loads(tokens)) for name, tokens in rows}

    def store_tokens(
        self, config_digest: str, items: Sequence[Tuple[str, Sequence[str]]]
    ) -> None:
        """Persist name -> token-list pairs for one tokenizer configuration."""
        if not items:
            return
        rows = [
            (config_digest, name, json.dumps(list(tokens))) for name, tokens in items
        ]
        with self._lock:
            self._connection.executemany(
                "INSERT OR REPLACE INTO tokens (config_digest, name, tokens) "
                "VALUES (?, ?, ?)",
                rows,
            )
            self._connection.commit()
            self._writes += 1

    def store_tokens_async(self, *args, **kwargs) -> None:
        """Queue :meth:`store_tokens` onto the writer thread (inline without one)."""
        self._submit(("tokens", args, kwargs))

    def token_count(self) -> int:
        """The number of stored token rows (over all configurations)."""
        with self._lock:
            row = self._connection.execute("SELECT COUNT(*) FROM tokens").fetchone()
        return int(row[0])

    # -- subtree digest artifacts ----------------------------------------------

    def load_path_signatures(self, schema_digest: str) -> Optional[Tuple[str, ...]]:
        """The persisted per-path row signatures of one schema version.

        Row signatures (see :mod:`repro.model.digests`) are stored alongside
        the whole-schema digest that addresses the cubes, so a fresh process
        can verify that the schema object it is asked to splice against is
        the same version whose cube sits in the store.  Returns ``None`` for
        unknown digests, signature vectors written by a different digest
        format version, and stores created before the ``subtrees`` table
        existed (older read-only files stay fully readable).
        """
        from repro.model.digests import DIGEST_VERSION

        with self._lock:
            try:
                row = self._connection.execute(
                    "SELECT signatures FROM subtrees "
                    "WHERE schema_digest = ? AND digest_version = ?",
                    (schema_digest, DIGEST_VERSION),
                ).fetchone()
            except sqlite3.OperationalError:
                return None  # pre-subtrees store opened read-only
        if row is None:
            return None
        try:
            signatures = json.loads(row[0])
        except (TypeError, ValueError):
            return None
        if not isinstance(signatures, list):
            return None
        return tuple(str(signature) for signature in signatures)

    def store_path_signatures(
        self, schema_digest: str, signatures: Sequence[str]
    ) -> None:
        """Persist the row signatures of one schema version (idempotent)."""
        from repro.model.digests import DIGEST_VERSION

        payload = json.dumps(list(signatures))
        with self._lock:
            self._connection.execute(
                "INSERT OR REPLACE INTO subtrees "
                "(schema_digest, digest_version, signatures) VALUES (?, ?, ?)",
                (schema_digest, DIGEST_VERSION, payload),
            )
            self._connection.commit()
            self._writes += 1

    def store_path_signatures_async(self, *args, **kwargs) -> None:
        """Queue :meth:`store_path_signatures` onto the writer thread."""
        self._submit(("subtrees", args, kwargs))

    def subtree_count(self) -> int:
        """The number of stored schema-version signature vectors."""
        with self._lock:
            try:
                row = self._connection.execute(
                    "SELECT COUNT(*) FROM subtrees"
                ).fetchone()
            except sqlite3.OperationalError:
                return 0  # pre-subtrees store opened read-only
        return int(row[0])

    # -- counters and statistics -----------------------------------------------

    def info(self) -> Dict[str, object]:
        """Occupancy, size and reuse counters (process-local and lifetime).

        ``hits`` / ``misses`` / ``writes`` cover this process;
        ``lifetime_hits`` / ``lifetime_misses`` accumulate across every
        process that called :meth:`close` (or :meth:`_persist_counters`) on
        this store file, so operators can judge reuse effectiveness from
        ``coma stats --store`` without instrumenting the service.
        """
        with self._lock:
            cube_rows = self._connection.execute(
                "SELECT COUNT(*), "
                "COALESCE(SUM(CASE WHEN payload_bytes > 0 THEN payload_bytes ELSE LENGTH(data) END), 0) FROM cubes"
            ).fetchone()
            dtype_rows = self._connection.execute(
                "SELECT dtype, COUNT(*), "
                "COALESCE(SUM(CASE WHEN payload_bytes > 0 THEN payload_bytes ELSE LENGTH(data) END), 0), "
                "COALESCE(SUM(external), 0) "
                "FROM cubes GROUP BY dtype ORDER BY dtype"
            ).fetchall()
            token_rows = self._connection.execute(
                "SELECT COUNT(*) FROM tokens"
            ).fetchone()
            try:
                subtree_rows = self._connection.execute(
                    "SELECT COUNT(*) FROM subtrees"
                ).fetchone()
            except sqlite3.OperationalError:
                subtree_rows = (0,)  # pre-subtrees store opened read-only
            persisted = dict(
                self._connection.execute("SELECT name, value FROM counters").fetchall()
            )
            hits, misses, writes = self._hits, self._misses, self._writes
            corrupt, quarantined = self._corrupt, self._quarantined
        return {
            "path": self._path,
            "dtype": self._dtype,
            "cubes": int(cube_rows[0]),
            "cube_bytes": int(cube_rows[1]),
            "cube_dtypes": {
                name: {
                    "cubes": int(count),
                    "bytes": int(total),
                    "external": int(external),
                }
                for name, count, total, external in dtype_rows
            },
            "tokens": int(token_rows[0]),
            "subtrees": int(subtree_rows[0]),
            "hits": hits,
            "misses": misses,
            "writes": writes,
            "corrupt": corrupt,
            "quarantined": quarantined,
            "lifetime_hits": int(persisted.get("hits", 0)) + hits,
            "lifetime_misses": int(persisted.get("misses", 0)) + misses,
            "lifetime_corrupt": int(persisted.get("corrupt", 0)) + corrupt,
            "lifetime_quarantined": int(persisted.get("quarantined", 0)) + quarantined,
        }

    def _persist_counters(self) -> None:
        """Fold the process-local counters into the persistent totals."""
        if self._readonly:
            return
        with self._lock:
            deltas = (
                ("hits", self._hits),
                ("misses", self._misses),
                ("corrupt", self._corrupt),
                ("quarantined", self._quarantined),
            )
            for name, value in deltas:
                if value:
                    self._connection.execute(
                        "INSERT INTO counters (name, value) VALUES (?, ?) "
                        "ON CONFLICT(name) DO UPDATE SET value = value + excluded.value",
                        (name, value),
                    )
            self._connection.commit()
            self._hits = 0
            self._misses = 0
            self._corrupt = 0
            self._quarantined = 0

    # -- background writer -----------------------------------------------------

    def _submit(self, item: Tuple) -> None:
        kind, args, kwargs = item
        with self._lock:
            if self._closed:
                # A write-back racing close() is dropped: the next process
                # simply recomputes (reuse lost, correctness kept).  Taking
                # the lock here also orders the check against close(), so an
                # accepted item always precedes the writer's shutdown
                # sentinel and a dropped item can never deadlock flush().
                return
            if self._writer is not None:
                self._queue.put(item)
                return
            # Writer-less mode writes inline -- still under the (reentrant)
            # lock, so a concurrent close() cannot slip between the closed
            # check and the write and leave us on a closed connection.
            self._apply_write(kind, args, kwargs)

    def _apply_write(self, kind: str, args: Tuple, kwargs: Dict) -> None:
        if kind == "cube":
            self.store_cube(*args, **kwargs)
        elif kind == "tokens":
            self.store_tokens(*args, **kwargs)
        elif kind == "subtrees":
            self.store_path_signatures(*args, **kwargs)
        else:  # pragma: no cover - internal invariant
            raise RepositoryError(f"unknown store write kind {kind!r}")

    def _drain_writes(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                self._queue.task_done()
                return
            kind, args, kwargs = item
            try:
                self._apply_write(kind, args, kwargs)
            except Exception:  # noqa: BLE001 - a failed write must not kill the writer
                # Persistence is an optimisation: losing one write degrades
                # reuse, never correctness, so the writer soldiers on.
                with contextlib.suppress(Exception):
                    self._connection.rollback()
            finally:
                self._queue.task_done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimilarityStore(path={self._path!r})"
