"""Chunked on-disk matrix store with parallel column writes and merge.

A store is a directory holding a human-readable ``manifest.json`` plus raw
chunk files, each covering a contiguous range of columns.  Elements are
IEEE-754 binary64, little-endian, column-major inside every chunk, so a
column is one contiguous byte run and concurrent writers touching disjoint
column ranges never share bytes.  ``merge`` streams the chunks into a single
monolithic file (a one-line JSON header followed by one data segment) through
a bounded buffer.

Both forms open as one ``MatrixStore`` handle whose ``chunks`` are always the
``chunk_cols``-wide column grid: in a directory each chunk is its own file,
in a merged file every chunk names that file at the byte offset of its first
column.  Reads, writes and integrity checks walk that one chunk list, and
reads are bit-exact on either form, including signed zeros and subnormals.

Manifest schema (format_version 1)::

    {
      "format_version": 1,
      "rows": <int>, "cols": <int>,
      "dtype": "<f8", "layout": "column-major",
      "chunk_cols": <int>,
      "chunks": [{"file": "chunk-00000.bin", "col_start": 0, "col_stop": 8}, ...],
      "metadata": { ... caller supplied, unknown keys are ignored ... }
    }

The chunk list must be exactly the grid that ``rows``, ``cols`` and
``chunk_cols`` define, and ``dtype`` and ``layout`` must be the two values
above.  The merged header holds the same fields minus
``chunks``, with ``chunk_cols`` renamed ``source_chunk_cols``.
"""

import json
import os
import shutil
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractViolation, IntegrityError

__all__ = [
    "MatrixStore",
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
LAYOUT = "column-major"
MANIFEST_NAME = "manifest.json"
MERGED_MAGIC = b"GKMX1\n"
# bounds the chunk list that a manifest or merged header can make a reader
# build; no code holds more than one chunk file open at a time
MAX_CHUNKS = 1024
_COPY_TILE = 128  # tile width of write_columns' column-major copy


@dataclass(frozen=True)
class ChunkSpec:
    """Columns [col_start, col_stop), stored in ``file`` from byte ``offset`` on."""

    file: str
    col_start: int
    col_stop: int
    offset: int = 0

    @property
    def width(self):
        return self.col_stop - self.col_start


@dataclass
class MatrixStore:
    """Handle on a chunked store directory or a merged file (see module docstring)."""

    path: Path
    rows: int
    cols: int
    chunk_cols: int
    chunks: list
    metadata: dict
    merged: bool = False
    _inflight: set = field(default_factory=set, repr=False)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    @property
    def data_offset(self):
        """Byte offset of column 0: a merged file's header length, 0 in a directory."""
        return self.chunks[0].offset

    def chunk_path(self, spec):
        return self.path if self.merged else self.path / spec.file

    def chunk_end(self, spec):
        """Byte position in its file where a chunk's data ends."""
        return spec.offset + self.rows * spec.width * DTYPE.itemsize

    def describe(self, spec):
        """A chunk as problem reports name it: its file, or a merged column range."""
        if self.merged:
            return f"columns [{spec.col_start}, {spec.col_stop})"
        return spec.file

    def manifest_dict(self):
        return {
            "format_version": FORMAT_VERSION,
            "rows": self.rows,
            "cols": self.cols,
            "dtype": DTYPE.str,
            "layout": LAYOUT,
            "chunk_cols": self.chunk_cols,
            "chunks": [
                {"file": c.file, "col_start": c.col_start, "col_stop": c.col_stop}
                for c in self.chunks
            ],
            "metadata": self.metadata,
        }


def _chunk_grid(rows, cols, chunk_cols, merged_file=None, data_offset=0):
    """The chunk list of a rows-by-cols matrix cut into chunk_cols-wide columns.

    Chunks are ``chunk-{i:05d}.bin`` files, or with ``merged_file`` that one
    file at the byte offset of each chunk's first column.
    """
    if min(rows, cols, chunk_cols) < 1:
        raise ValueError("rows, cols and chunk_cols must all be positive")
    n_chunks = -(-cols // chunk_cols)
    if n_chunks > MAX_CHUNKS:
        raise ValueError(
            f"{n_chunks} chunks exceed the {MAX_CHUNKS}-chunk limit; "
            "raise chunk_cols"
        )
    if merged_file is None:
        return [ChunkSpec(f"chunk-{i:05d}.bin", start, min(start + chunk_cols, cols))
                for i, start in enumerate(range(0, cols, chunk_cols))]
    return [ChunkSpec(merged_file, start, min(start + chunk_cols, cols),
                      data_offset + start * rows * DTYPE.itemsize)
            for start in range(0, cols, chunk_cols)]


def create_layout(path, rows, cols, chunk_cols, metadata=None, overwrite=False):
    """Allocate a write-ready chunked store for a rows-by-cols matrix.

    Chunk files are created at full size immediately (zero-filled, sparse
    where the filesystem allows), so concurrent writers only ever seek and
    write inside preexisting files.  The chunk count is capped at
    MAX_CHUNKS, the most chunks any store may list.
    """
    rows, cols, chunk_cols = int(rows), int(cols), int(chunk_cols)
    chunks = _chunk_grid(rows, cols, chunk_cols)
    path = Path(path)
    if path.exists():
        if not overwrite:
            raise FileExistsError(f"{path} already exists (pass overwrite=True)")
        for old in sorted(path.glob("chunk-*.bin")):
            old.unlink()
    path.mkdir(parents=True, exist_ok=True)

    store = MatrixStore(path=path, rows=rows, cols=cols, chunk_cols=chunk_cols,
                        chunks=chunks, metadata=dict(metadata or {}))
    for spec in chunks:
        with open(store.chunk_path(spec), "wb") as fh:
            fh.truncate(rows * spec.width * DTYPE.itemsize)
    _write_manifest(store)
    return store


def _write_manifest(store):
    """Write the manifest to a temp file in the store and move it into place,
    so a crash mid-write leaves the previous manifest whole."""
    text = json.dumps(store.manifest_dict(), indent=2, sort_keys=True)
    temp = store.path / (MANIFEST_NAME + ".tmp")
    temp.write_text(text + "\n", encoding="utf-8")
    try:
        os.replace(temp, store.path / MANIFEST_NAME)
    except OSError:
        temp.unlink(missing_ok=True)
        raise


def _int_field(mapping, key):
    value = mapping[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"field {key!r} is not an integer: {value!r}")
    return value


def _open_header(path, header, data_offset=None):
    """(parsed JSON, handle) of a manifest, or with ``data_offset`` a merged header.

    Both forms need integer ``format_version``, ``rows``, ``cols`` and chunk
    width (``source_chunk_cols`` when merged), a version no newer than
    FORMAT_VERSION and the one supported ``dtype`` and ``layout``; anything
    else raises IntegrityError.
    """
    merged = data_offset is not None
    try:
        manifest = json.loads(header)
        version, rows, cols, chunk_cols = (
            _int_field(manifest, key) for key in
            ("format_version", "rows", "cols", "source_chunk_cols" if merged else "chunk_cols"))
        store = MatrixStore(
            path=path, rows=rows, cols=cols, chunk_cols=chunk_cols,
            chunks=_chunk_grid(rows, cols, chunk_cols, path.name if merged else None,
                               data_offset or 0),
            metadata=dict(manifest.get("metadata", {})), merged=merged,
        )
    except (ValueError, KeyError, TypeError) as exc:
        raise IntegrityError(f"malformed header in {path}: {exc!r}") from exc
    if version > FORMAT_VERSION:
        raise IntegrityError(
            f"{path}: format_version {version} is newer than supported ({FORMAT_VERSION})"
        )
    found = (manifest.get("dtype"), manifest.get("layout"))
    if found != (DTYPE.str, LAYOUT):
        raise IntegrityError(
            f"{path} holds dtype {found[0]!r} in layout {found[1]!r}; "
            f"only {DTYPE.str!r} in {LAYOUT!r} is supported"
        )
    return manifest, store


def open_store(path):
    """Open an existing chunked store; a malformed manifest raises IntegrityError.

    The manifest's chunk list must be the ``chunk_cols`` grid itself, so a
    manifest can neither steer reads and writes outside the store directory
    nor alias, reorder or reshape chunks.
    """
    path = Path(path)
    manifest, store = _open_header(path, (path / MANIFEST_NAME).read_bytes())
    listed = manifest.get("chunks")
    if listed != store.manifest_dict()["chunks"]:
        raise IntegrityError(
            f"chunk list in {path} is not the {store.chunk_cols}-column grid: {listed}"
        )
    return store


def open_merged(path):
    """Open a merged file; a malformed header raises IntegrityError."""
    path = Path(path)
    with open(path, "rb") as fh:
        magic = fh.read(len(MERGED_MAGIC))
        if magic != MERGED_MAGIC:
            raise IntegrityError(f"{path} is not a merged matrix file")
        header = fh.readline()
        data_offset = fh.tell()
    return _open_header(path, header, data_offset)[1]


def open_any(source):
    """Accept a store handle, or a path to either store form."""
    if isinstance(source, MatrixStore):
        return source
    path = Path(source)
    if path.is_dir():
        return open_store(path)
    return open_merged(path)


def _pieces(handle, col_start, n_cols):
    """(chunk, lo, hi, byte position of column lo) for every chunk holding some
    of columns [col_start, col_start + n_cols); a range outside the matrix is a
    ValueError at any width."""
    col_stop = col_start + n_cols
    if n_cols < 0 or col_start < 0 or col_stop > handle.cols:
        raise ValueError(f"columns [{col_start}, {col_stop}) outside [0, {handle.cols})")
    column_bytes = handle.rows * DTYPE.itemsize
    pieces = []
    for spec in handle.chunks:
        lo, hi = max(col_start, spec.col_start), min(col_stop, spec.col_stop)
        if lo < hi:
            pieces.append((spec, lo, hi, spec.offset + (lo - spec.col_start) * column_bytes))
    return pieces


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


def _column_rows(piece):
    """The piece's columns as the rows of a C-contiguous w-by-rows array.

    Its buffer is the piece's column-major bytes.  An F-contiguous piece is
    only viewed.  Any other is transposed in tiles of at most
    ``_COPY_TILE ** 2`` elements, so that both sides of the copy stay in
    cache; a whole-piece copy reads one side with a stride of a full row.
    """
    if piece.flags.f_contiguous and piece.dtype == DTYPE:
        return piece.T
    rows, width = piece.shape
    cols = min(width, _COPY_TILE)
    band = _COPY_TILE * _COPY_TILE // cols
    out = np.empty((width, rows), dtype=DTYPE)
    for j in range(0, width, cols):
        for i in range(0, rows, band):
            out[j:j + cols, i:i + band] = piece[i:i + band, j:j + cols].T
    return out


def write_columns(store, col_start, block):
    """Persist a rows-by-w block at columns [col_start, col_start + w).

    Each chunk's piece is written from one column-major buffer: the block's
    own memory when it is F-contiguous float64, else one tiled copy.
    Disjoint ranges may be written concurrently from multiple workers;
    overlapping in-flight ranges raise ContractViolation.
    """
    block = np.asarray(block, dtype=np.float64)
    if block.ndim != 2 or block.shape[0] != store.rows:
        raise ValueError(f"block must be {store.rows}-by-w, got shape {block.shape}")
    col_start, width = int(col_start), block.shape[1]
    pieces = _pieces(store, col_start, width)
    _claim_range(store, col_start, col_start + width)
    try:
        for spec, lo, hi, position in pieces:
            columns = _column_rows(block[:, lo - col_start:hi - col_start])
            with open(store.chunk_path(spec), "r+b") as fh:
                fh.seek(position)
                fh.write(columns.data)
    finally:
        _release_range(store, col_start, col_start + width)


def read_columns(source, col_start, n_cols):
    """Bit-exact read of columns [col_start, col_start + n_cols)."""
    handle = open_any(source)
    col_start, n_cols = int(col_start), int(n_cols)
    pieces = _pieces(handle, col_start, n_cols)
    # the files read from must pass merge's and verify_store's size rule:
    # refuse before allocating, and check each read's length too, since a
    # file can shrink in between
    issues = _structural_issues(handle, [spec for spec, *_ in pieces])
    if issues:
        raise IntegrityError(f"{handle.path}: " + "; ".join(issues))
    out = np.empty((handle.rows, n_cols), dtype=DTYPE, order="F")
    flat = out.reshape(-1, order="F")  # a view: each column range is one byte run
    for spec, lo, hi, position in pieces:
        run = flat[(lo - col_start) * handle.rows:(hi - col_start) * handle.rows]
        with open(handle.chunk_path(spec), "rb") as fh:
            fh.seek(position)
            if fh.readinto(run) != run.nbytes:
                raise IntegrityError(f"{handle.path}: {handle.describe(spec)} is truncated")
    return out


def read_matrix(source):
    handle = open_any(source)
    return read_columns(handle, 0, handle.cols)


def _structural_issues(handle, chunks=None):
    """Missing files, or files that do not end where their last chunk ends.

    Only the files that hold ``chunks`` are checked, by default every file.
    """
    chunks = handle.chunks if chunks is None else chunks
    # a merged file holds every chunk, so it ends where the grid's last one does
    issues = []
    for spec in handle.chunks[-1:] if handle.merged else chunks:
        chunk_file = handle.chunk_path(spec)
        if not chunk_file.exists():
            issues.append(f"missing chunk file: {spec.file}")
            continue
        end = handle.chunk_end(spec)
        size = chunk_file.stat().st_size
        if size != end:
            # counted from column 0, so a merged file reports its data segment
            what = "data segment" if handle.merged else f"chunk {spec.file}"
            issues.append(f"{what} is {'truncated' if size < end else 'too long'}: "
                          f"{size - handle.data_offset} bytes, "
                          f"expected {end - handle.data_offset}")
    return issues


def merge(store, out_path, overwrite=False):
    """Stream a fully written store into one monolithic file.

    The header is byte-deterministic (sorted-key JSON, no timestamps), so
    merging the same store twice yields byte-identical files.  Each chunk is
    copied through ``shutil.copyfileobj``'s bounded buffer.
    """
    if store.merged:
        raise ValueError(f"{store.path} is already a merged file")
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
    Gaussian fill is regenerated chunk by chunk and compared bit for bit.  A
    recorded seed that is not a non-negative integer is one problem.
    """
    try:
        handle = open_any(source)
        issues = _structural_issues(handle)
        seed = handle.metadata.get("fill_seed")
        if issues or handle.metadata.get("fill") != "gaussian" or seed is None:
            return issues
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            return [f"metadata fill_seed {seed!r} is not a non-negative integer"]
        rng = np.random.default_rng(seed)
        for spec in handle.chunks:
            expected = rng.standard_normal((handle.rows, spec.width))
            if not np.array_equal(read_columns(handle, spec.col_start, spec.width), expected):
                issues.append(f"content mismatch in {handle.describe(spec)}")
    except (OSError, IntegrityError) as exc:
        return [f"unreadable: {exc}"]
    return issues


def fill_gaussian(store, seed):
    """Fill a store directory with standard Gaussian data, one chunk at a time.

    The draw order is chunk order; ``verify_store`` regenerates the data in
    the same order to detect corruption.
    """
    if store.merged:
        raise ValueError(f"{store.path} is a merged file; fill the store directory")
    rng = np.random.default_rng(seed)
    for spec in store.chunks:
        write_columns(store, spec.col_start, rng.standard_normal((store.rows, spec.width)))
    store.metadata["fill"] = "gaussian"
    store.metadata["fill_seed"] = int(seed)
    _write_manifest(store)
    return store
