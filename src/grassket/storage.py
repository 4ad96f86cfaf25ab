"""Chunked on-disk matrix store with parallel column writes and merge.

A store is a directory holding a human-readable ``manifest.json`` plus raw
chunk files, each covering a contiguous range of columns.  Elements are
IEEE-754 binary64, little-endian, column-major inside every chunk, so a
column is one contiguous byte run and concurrent writers touching disjoint
column ranges never share bytes.  ``merge`` streams the chunks into a single
monolithic file (a one-line JSON header followed by one data segment) through
a bounded buffer; reads work transparently on either form and are bit-exact,
including signed zeros and subnormals.

Manifest schema (format_version 1)::

    {
      "format_version": 1,
      "rows": <int>, "cols": <int>,
      "dtype": "<f8", "layout": "column-major",
      "chunk_cols": <int>,
      "chunks": [{"file": "chunk-00000.bin", "col_start": 0, "col_stop": 8}, ...],
      "metadata": { ... caller supplied, unknown keys are ignored ... }
    }

The merged header holds the same fields minus ``chunks``, with ``chunk_cols``
renamed ``source_chunk_cols``.
"""

import json
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, IntegrityError

__all__ = [
    "ChunkedMatrixStore",
    "MergedMatrix",
    "ChunkSpec",
    "create_layout",
    "open_store",
    "open_merged",
    "open_any",
    "write_columns",
    "read_columns",
    "read_matrix",
    "merge",
    "verify_store",
    "fill_gaussian",
]

FORMAT_VERSION = 1
DTYPE = np.dtype("<f8")
MANIFEST_NAME = "manifest.json"
MERGED_MAGIC = b"GKMX1\n"
# keep stores well under typical open-file limits
MAX_CHUNKS = 1024


@dataclass(frozen=True)
class ChunkSpec:
    file: str
    col_start: int
    col_stop: int

    @property
    def width(self):
        return self.col_stop - self.col_start


@dataclass
class ChunkedMatrixStore:
    """Handle on a chunked store directory (see module docstring)."""

    path: Path
    rows: int
    cols: int
    chunk_cols: int
    chunks: list
    metadata: dict
    _inflight: set = field(default_factory=set, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def chunk_path(self, spec):
        return self.path / spec.file

    def manifest_dict(self):
        return {
            "format_version": FORMAT_VERSION,
            "rows": self.rows,
            "cols": self.cols,
            "dtype": DTYPE.str,
            "layout": "column-major",
            "chunk_cols": self.chunk_cols,
            "chunks": [
                {"file": c.file, "col_start": c.col_start, "col_stop": c.col_stop}
                for c in self.chunks
            ],
            "metadata": self.metadata,
        }


@dataclass
class MergedMatrix:
    """Handle on a merged monolithic file: header plus one data segment."""

    path: Path
    rows: int
    cols: int
    data_offset: int
    source_chunk_cols: int
    metadata: dict


def create_layout(path, rows, cols, chunk_cols, metadata=None, overwrite=False):
    """Allocate a write-ready chunked store for a rows-by-cols matrix.

    Chunk files are created at full size immediately (zero-filled, sparse
    where the filesystem allows), so concurrent writers only ever seek and
    write inside preexisting files.  The chunk count is capped at MAX_CHUNKS
    so downstream tools stay clear of open-file limits.
    """
    rows, cols, chunk_cols = int(rows), int(cols), int(chunk_cols)
    if min(rows, cols, chunk_cols) < 1:
        raise ValueError("rows, cols and chunk_cols must all be positive")
    n_chunks = -(-cols // chunk_cols)
    if n_chunks > MAX_CHUNKS:
        raise ValueError(
            f"{n_chunks} chunks exceed the {MAX_CHUNKS}-chunk limit; "
            "raise chunk_cols"
        )
    path = Path(path)
    if path.exists():
        if not overwrite:
            raise FileExistsError(f"{path} already exists (pass overwrite=True)")
        for old in sorted(path.glob("chunk-*.bin")):
            old.unlink()
    path.mkdir(parents=True, exist_ok=True)

    chunks = []
    for i, start in enumerate(range(0, cols, chunk_cols)):
        stop = min(start + chunk_cols, cols)
        chunks.append(ChunkSpec(f"chunk-{i:05d}.bin", start, stop))
    store = ChunkedMatrixStore(
        path=path, rows=rows, cols=cols, chunk_cols=chunk_cols,
        chunks=chunks, metadata=dict(metadata or {}),
    )
    for spec in chunks:
        with open(store.chunk_path(spec), "wb") as fh:
            fh.truncate(rows * spec.width * DTYPE.itemsize)
    _write_manifest(store)
    return store


def _write_manifest(store):
    text = json.dumps(store.manifest_dict(), indent=2, sort_keys=True)
    (store.path / MANIFEST_NAME).write_text(text + "\n", encoding="utf-8")


def _int_field(mapping, key):
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"field {key!r} is not an integer: {value!r}")
    return value


def _chunk_file_field(chunk):
    """The chunk's file name, which must name a file inside the store directory."""
    name = chunk["file"]
    if (not isinstance(name, str) or Path(name).name != name
            or name in ("", ".", "..", MANIFEST_NAME)):
        raise ValueError(f"chunk file {name!r} is not a bare file name")
    return name


def open_store(path):
    """Open an existing chunked store; a malformed manifest raises IntegrityError.

    Chunk files must be distinct bare names, so a manifest can neither steer
    reads and writes outside the store directory nor alias two chunks.
    """
    path = Path(path)
    try:
        manifest = json.loads((path / MANIFEST_NAME).read_bytes())
        version = _int_field(manifest, "format_version")
        chunks = [
            ChunkSpec(_chunk_file_field(c), _int_field(c, "col_start"),
                      _int_field(c, "col_stop"))
            for c in manifest["chunks"]
        ]
        store = ChunkedMatrixStore(
            path=path,
            rows=_int_field(manifest, "rows"),
            cols=_int_field(manifest, "cols"),
            chunk_cols=_int_field(manifest, "chunk_cols"),
            chunks=sorted(chunks, key=lambda c: c.col_start),
            metadata=dict(manifest.get("metadata", {})),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed manifest in {path}: {exc!r}") from exc
    if version > FORMAT_VERSION:
        raise IntegrityError(
            f"manifest format_version {version} is newer "
            f"than supported ({FORMAT_VERSION})"
        )
    files = [c.file for c in store.chunks]
    if len(set(files)) != len(files):
        raise IntegrityError(f"chunk files are not distinct: {files}")
    widths = [(c.col_start, c.col_stop) for c in store.chunks]
    cursor = 0
    for start, stop in widths:
        if start != cursor or stop <= start:
            raise IntegrityError(f"chunk ranges are not disjoint and contiguous: {widths}")
        cursor = stop
    if cursor != store.cols:
        raise IntegrityError("chunk widths do not sum to the column count")
    return store


def _claim_range(store, start, stop):
    with store._lock:
        for s, t in store._inflight:
            if start < t and s < stop:
                raise ContractViolation(
                    f"columns [{start}, {stop}) overlap an in-flight write [{s}, {t})"
                )
        store._inflight.add((start, stop))


def _release_range(store, start, stop):
    with store._lock:
        store._inflight.discard((start, stop))


def write_columns(store, col_start, block):
    """Persist a rows-by-w block at columns [col_start, col_start + w).

    Disjoint ranges may be written concurrently from multiple workers;
    overlapping in-flight ranges raise ContractViolation.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != store.rows:
        raise ValueError(f"block must be {store.rows}-by-w, got shape {block.shape}")
    col_start = int(col_start)
    width = block.shape[1]
    if width == 0:
        return
    if col_start < 0 or col_start + width > store.cols:
        raise ValueError(
            f"columns [{col_start}, {col_start + width}) outside [0, {store.cols})"
        )
    _claim_range(store, col_start, col_start + width)
    try:
        for spec in store.chunks:
            lo = max(col_start, spec.col_start)
            hi = min(col_start + width, spec.col_stop)
            if lo >= hi:
                continue
            piece = np.asfortranarray(block[:, lo - col_start:hi - col_start],
                                      dtype=DTYPE)
            with open(store.chunk_path(spec), "r+b") as fh:
                fh.seek((lo - spec.col_start) * store.rows * DTYPE.itemsize)
                fh.write(piece.tobytes(order="F"))
    finally:
        _release_range(store, col_start, col_start + width)


def _read_chunked(store, col_start, n_cols):
    out = np.empty((store.rows, n_cols), dtype=np.float64, order="F")
    for spec in store.chunks:
        lo = max(col_start, spec.col_start)
        hi = min(col_start + n_cols, spec.col_stop)
        if lo >= hi:
            continue
        chunk_file = store.chunk_path(spec)
        if not chunk_file.exists():
            raise IntegrityError(f"missing chunk file: {spec.file}")
        raw = np.fromfile(
            chunk_file, dtype=DTYPE, count=store.rows * (hi - lo),
            offset=(lo - spec.col_start) * store.rows * DTYPE.itemsize,
        )
        if raw.size != store.rows * (hi - lo):
            raise IntegrityError(f"truncated chunk file: {spec.file}")
        out[:, lo - col_start:hi - col_start] = raw.reshape(
            (store.rows, hi - lo), order="F"
        )
    return out


def _read_merged(merged, col_start, n_cols):
    raw = np.fromfile(
        merged.path, dtype=DTYPE, count=merged.rows * n_cols,
        offset=merged.data_offset + col_start * merged.rows * DTYPE.itemsize,
    )
    if raw.size != merged.rows * n_cols:
        raise IntegrityError(f"truncated data segment in {merged.path}")
    return raw.reshape((merged.rows, n_cols), order="F").astype(np.float64, copy=False)


def open_merged(path):
    """Open a merged file; a malformed header raises IntegrityError."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MERGED_MAGIC))
        if magic != MERGED_MAGIC:
            raise IntegrityError(f"{path} is not a merged matrix file")
        header = fh.readline()
        data_offset = fh.tell()
    try:
        manifest = json.loads(header)
        merged = MergedMatrix(
            path=path,
            rows=_int_field(manifest, "rows"),
            cols=_int_field(manifest, "cols"),
            data_offset=data_offset,
            source_chunk_cols=_int_field(manifest, "source_chunk_cols"),
            metadata=dict(manifest.get("metadata", {})),
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed header in {path}: {exc!r}") from exc
    if merged.source_chunk_cols < 1:
        raise IntegrityError(f"{path}: source_chunk_cols must be positive")
    return merged


def open_any(source):
    """Accept a store handle, merged handle, or a path to either form."""
    if isinstance(source, (ChunkedMatrixStore, MergedMatrix)):
        return source
    path = Path(source)
    if path.is_dir():
        return open_store(path)
    return open_merged(path)


def read_columns(source, col_start, n_cols):
    """Bit-exact read of columns [col_start, col_start + n_cols)."""
    handle = open_any(source)
    col_start, n_cols = int(col_start), int(n_cols)
    if n_cols == 0:
        return np.empty((handle.rows, 0))
    if n_cols < 0 or col_start < 0 or col_start + n_cols > handle.cols:
        raise ValueError(
            f"columns [{col_start}, {col_start + n_cols}) outside [0, {handle.cols})"
        )
    if isinstance(handle, ChunkedMatrixStore):
        return _read_chunked(handle, col_start, n_cols)
    return _read_merged(handle, col_start, n_cols)


def read_matrix(source):
    handle = open_any(source)
    return read_columns(handle, 0, handle.cols)


def _structural_issues(handle):
    """Missing or wrongly sized chunk files, or a wrongly sized data segment."""
    if isinstance(handle, MergedMatrix):
        expected = handle.rows * handle.cols * DTYPE.itemsize
        actual = handle.path.stat().st_size - handle.data_offset
        if actual != expected:
            return [f"data segment: {actual} bytes, expected {expected}"]
        return []
    issues = []
    for spec in handle.chunks:
        chunk_file = handle.chunk_path(spec)
        if not chunk_file.exists():
            issues.append(f"missing chunk file: {spec.file}")
            continue
        expected = handle.rows * spec.width * DTYPE.itemsize
        actual = chunk_file.stat().st_size
        if actual != expected:
            issues.append(f"chunk {spec.file}: {actual} bytes, expected {expected}")
    return issues


def merge(store, out_path, overwrite=False):
    """Stream a fully written store into one monolithic file.

    The header is byte-deterministic (sorted-key JSON, no timestamps), so
    merging the same store twice yields byte-identical files.  Each chunk is
    copied through ``shutil.copyfileobj``'s bounded buffer.
    """
    issues = _structural_issues(store)
    if issues:
        raise IntegrityError("; ".join(issues))
    out_path = Path(out_path)
    if out_path.exists() and not overwrite:
        raise FileExistsError(f"{out_path} already exists (pass overwrite=True)")
    manifest = store.manifest_dict()
    del manifest["chunks"]
    manifest["source_chunk_cols"] = manifest.pop("chunk_cols")
    header = json.dumps(manifest, sort_keys=True).encode("utf-8") + b"\n"
    with open(out_path, "wb") as out:
        out.write(MERGED_MAGIC)
        out.write(header)
        for spec in store.chunks:
            with open(store.chunk_path(spec), "rb") as fh:
                shutil.copyfileobj(fh, out)
    return open_merged(out_path)


def verify_store(source):
    """Integrity check of either store form; returns a list of problem descriptions.

    Past the structural checks, a store whose metadata records a seeded
    Gaussian fill is regenerated chunk by chunk and compared bit for bit.
    """
    try:
        handle = open_any(source)
        issues = _structural_issues(handle)
        seed = handle.metadata.get("fill_seed")
        if issues or handle.metadata.get("fill") != "gaussian" or seed is None:
            return issues
        rng = np.random.default_rng(int(seed))
        for start, width, label in _fill_chunks(handle):
            expected = rng.standard_normal((handle.rows, width))
            if not np.array_equal(read_columns(handle, start, width), expected):
                issues.append(f"content mismatch in {label}")
    except (OSError, IntegrityError) as exc:
        return [f"unreadable: {exc}"]
    return issues


def _fill_chunks(handle):
    """(col_start, width, label) per chunk, in the order ``fill_gaussian`` draws."""
    if isinstance(handle, ChunkedMatrixStore):
        return [(spec.col_start, spec.width, spec.file) for spec in handle.chunks]
    # a merged file keeps the chunk width of the store it was merged from
    step = handle.source_chunk_cols
    return [(start, min(step, handle.cols - start),
             f"columns [{start}, {min(start + step, handle.cols)})")
            for start in range(0, handle.cols, step)]


def fill_gaussian(store, seed):
    """Fill a store with standard Gaussian data, one chunk at a time.

    The draw order is chunk order; ``verify_store`` regenerates the data in
    the same order to detect corruption.
    """
    rng = np.random.default_rng(seed)
    for start, width, _ in _fill_chunks(store):
        write_columns(store, start, rng.standard_normal((store.rows, width)))
    store.metadata["fill"] = "gaussian"
    store.metadata["fill_seed"] = int(seed)
    _write_manifest(store)
    return store
