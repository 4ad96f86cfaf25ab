import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from grassket import storage
from grassket.cli import main
from grassket.errors import ContractViolation, IntegrityError
from grassket.storage import (create_layout, fill_gaussian, merge, open_merged,
                              open_store, read_columns, read_matrix,
                              verify_store, write_columns)


def tricky_matrix(rng, rows, cols):
    """Random data spiked with the float64 corner cases."""
    data = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-6, 7)
    data.flat[rng.integers(0, data.size)] = -0.0
    data.flat[rng.integers(0, data.size)] = 5e-324       # smallest subnormal
    data.flat[rng.integers(0, data.size)] = -2.2e-308    # negative subnormal range
    data.flat[rng.integers(0, data.size)] = 1.7e308      # near overflow
    return data


def test_layout_arithmetic(tmp_path):
    store = create_layout(tmp_path / "a.store", 8, 5, chunk_cols=2)
    assert [(c.col_start, c.col_stop) for c in store.chunks] == [(0, 2), (2, 4), (4, 5)]
    single = create_layout(tmp_path / "b.store", 8, 5, chunk_cols=5)
    assert len(single.chunks) == 1


def test_layout_reopen_round_trip(tmp_path):
    created = create_layout(tmp_path / "s.store", 11, 7, chunk_cols=3,
                            metadata={"note": "probe"})
    reopened = open_store(tmp_path / "s.store")
    assert (reopened.rows, reopened.cols, reopened.chunk_cols) == (11, 7, 3)
    assert reopened.chunks == created.chunks
    assert reopened.metadata == {"note": "probe"}


def test_layout_refuses_existing_path(tmp_path):
    create_layout(tmp_path / "s.store", 4, 4, chunk_cols=2)
    with pytest.raises(FileExistsError):
        create_layout(tmp_path / "s.store", 4, 4, chunk_cols=2)
    create_layout(tmp_path / "s.store", 4, 4, chunk_cols=2, overwrite=True)


def test_round_trip_preserves_every_bit(tmp_path):
    rng = np.random.default_rng(0)
    data = tricky_matrix(rng, 16, 9)
    store = create_layout(tmp_path / "s.store", 16, 9, chunk_cols=4)
    write_columns(store, 0, data)
    back = read_columns(store, 0, 9)
    assert back.tobytes() == data.astype("<f8").tobytes()  # signed zeros included


@pytest.mark.parametrize("case", ["c-order", "f-order", "column-slice", "float32", "two-chunks"])
def test_written_bytes_are_the_column_major_block(tmp_path, case):
    # 300 rows and 100 or 200 columns leave ragged copy tiles on both axes
    wide = tricky_matrix(np.random.default_rng(8), 300, 200)
    block = {"c-order": np.ascontiguousarray(wide[:, :100]),
             "f-order": np.asfortranarray(wide[:, :100]),
             "column-slice": wide[:, 1::2],
             "float32": wide[:, :100].astype(np.float32),
             "two-chunks": wide}[case]
    expected = block.astype("<f8").tobytes("F")
    store = create_layout(tmp_path / "s.store", 300, block.shape[1], chunk_cols=128)
    assert len(store.chunks) == (2 if case == "two-chunks" else 1)
    write_columns(store, 0, block)
    on_disk = b"".join((store.path / spec.file).read_bytes() for spec in store.chunks)
    assert on_disk == expected
    merged = merge(store, tmp_path / "s.mx")
    assert merged.path.read_bytes()[merged.data_offset:] == expected
    for source in (store, merged):
        assert read_matrix(source).tobytes("F") == expected


def test_partial_writes_and_reads(tmp_path):
    rng = np.random.default_rng(1)
    data = rng.standard_normal((6, 10))
    store = create_layout(tmp_path / "s.store", 6, 10, chunk_cols=3)
    write_columns(store, 4, data[:, 4:7])   # spans two chunks
    write_columns(store, 0, data[:, 0:4])
    write_columns(store, 7, data[:, 7:10])
    assert np.array_equal(read_columns(store, 2, 5), data[:, 2:7])
    assert read_columns(store, 3, 0).shape == (6, 0)


def test_write_validation(tmp_path):
    store = create_layout(tmp_path / "s.store", 4, 6, chunk_cols=2)
    with pytest.raises(ValueError):
        write_columns(store, 5, np.zeros((4, 2)))  # past the last column
    with pytest.raises(ValueError):
        write_columns(store, 0, np.zeros((5, 2)))  # wrong row count
    with pytest.raises(ValueError):
        read_columns(store, 4, 3)
    # a zero-width range is checked like any other
    with pytest.raises(ValueError):
        read_columns(store, -5, 0)
    with pytest.raises(ValueError):
        read_columns(store, 7, 0)
    with pytest.raises(ValueError):
        write_columns(store, -5, np.zeros((4, 0)))
    with pytest.raises(ValueError):
        write_columns(store, 7, np.zeros((4, 0)))


def test_overlapping_inflight_writes_detected(tmp_path):
    store = create_layout(tmp_path / "s.store", 4, 8, chunk_cols=4)
    storage._claim_range(store, 0, 3)
    try:
        with pytest.raises(ContractViolation):
            write_columns(store, 2, np.zeros((4, 2)))
        write_columns(store, 3, np.zeros((4, 2)))  # disjoint: fine
    finally:
        storage._release_range(store, 0, 3)


def test_concurrent_disjoint_writes_match_sequential_oracle(tmp_path):
    rng = np.random.default_rng(2)
    rows, cols, width = 64, 64, 4
    data = tricky_matrix(rng, rows, cols)
    store = create_layout(tmp_path / "par.store", rows, cols, chunk_cols=8)
    with ThreadPoolExecutor(max_workers=8) as pool:
        jobs = [
            pool.submit(write_columns, store, start, data[:, start:start + width])
            for start in range(0, cols, width)
        ]
        for job in jobs:
            job.result()
    oracle = create_layout(tmp_path / "seq.store", rows, cols, chunk_cols=8)
    write_columns(oracle, 0, data)
    assert read_matrix(store).tobytes() == read_matrix(oracle).tobytes()


def test_merge_matches_chunked_read(tmp_path):
    rng = np.random.default_rng(3)
    data = rng.standard_normal((100, 37))
    store = create_layout(tmp_path / "s.store", 100, 37, chunk_cols=10)
    write_columns(store, 0, data)
    merged = merge(store, tmp_path / "s.mx")
    assert read_matrix(merged).tobytes() == read_matrix(store).tobytes()
    assert np.array_equal(read_columns(merged, 12, 9), data[:, 12:21])


def test_merge_single_chunk_data_segment_identical(tmp_path):
    rng = np.random.default_rng(4)
    data = rng.standard_normal((9, 5))
    store = create_layout(tmp_path / "s.store", 9, 5, chunk_cols=5)
    write_columns(store, 0, data)
    merged = merge(store, tmp_path / "s.mx")
    chunk_bytes = (store.path / store.chunks[0].file).read_bytes()
    merged_bytes = merged.path.read_bytes()[merged.data_offset:]
    assert merged_bytes == chunk_bytes


def test_merge_is_idempotent(tmp_path):
    rng = np.random.default_rng(5)
    store = create_layout(tmp_path / "s.store", 20, 11, chunk_cols=4,
                          metadata={"purpose": "idempotence probe"})
    write_columns(store, 0, rng.standard_normal((20, 11)))
    merge(store, tmp_path / "a.mx")
    merge(store, tmp_path / "b.mx")
    assert (tmp_path / "a.mx").read_bytes() == (tmp_path / "b.mx").read_bytes()


def test_merged_handle_is_not_merged_or_filled_again(tmp_path):
    store = create_layout(tmp_path / "s.store", 6, 5, chunk_cols=2)
    merged = merge(store, tmp_path / "s.mx")
    before = merged.path.read_bytes()
    with pytest.raises(ValueError, match="merged"):
        merge(merged, tmp_path / "again.mx")
    with pytest.raises(ValueError, match="merged"):
        fill_gaussian(merged, seed=1)
    assert not (tmp_path / "again.mx").exists()
    assert merged.path.read_bytes() == before


def test_merge_incomplete_store_fails_with_chunk_id(tmp_path):
    store = create_layout(tmp_path / "s.store", 8, 6, chunk_cols=2)
    write_columns(store, 0, np.ones((8, 6)))
    missing = store.chunks[1]
    (store.path / missing.file).unlink()
    with pytest.raises(IntegrityError, match=missing.file):
        merge(store, tmp_path / "s.mx")


def test_manifest_ignores_unknown_fields(tmp_path):
    store = create_layout(tmp_path / "s.store", 4, 4, chunk_cols=2)
    manifest_path = store.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["added_by_future_version"] = {"x": 1}
    manifest_path.write_text(json.dumps(manifest))
    reopened = open_store(store.path)
    assert (reopened.rows, reopened.cols) == (4, 4)


def test_manifest_is_replaced_whole(tmp_path, monkeypatch):
    store = create_layout(tmp_path / "s.store", 4, 4, chunk_cols=2,
                          metadata={"note": "first"})
    files = sorted(p.name for p in store.path.iterdir())

    def crash(src, dst):
        raise OSError("crashed before the rename")

    monkeypatch.setattr(storage.os, "replace", crash)
    with pytest.raises(OSError, match="crashed before the rename"):
        fill_gaussian(store, seed=5)
    assert open_store(store.path).metadata == {"note": "first"}
    monkeypatch.undo()
    fill_gaussian(store, seed=5)
    assert open_store(store.path).metadata["fill_seed"] == 5
    assert sorted(p.name for p in store.path.iterdir()) == files


def test_verify_store_reports_problems(tmp_path):
    store = create_layout(tmp_path / "s.store", 8, 6, chunk_cols=3)
    write_columns(store, 0, np.ones((8, 6)))
    assert verify_store(store.path) == []
    chunk = store.path / store.chunks[0].file
    chunk.write_bytes(chunk.read_bytes()[:-8])  # truncate one element
    issues = verify_store(store.path)
    assert len(issues) == 1 and store.chunks[0].file in issues[0]
    chunk.unlink()
    issues = verify_store(store.path)
    assert len(issues) == 1 and "missing" in issues[0]


def test_gaussian_fill_reproducible(tmp_path):
    store = create_layout(tmp_path / "s.store", 10, 9, chunk_cols=4)
    fill_gaussian(store, seed=123)
    reopened = open_store(store.path)
    assert reopened.metadata["fill_seed"] == 123
    rng = np.random.default_rng(123)
    expected = np.hstack([rng.standard_normal((10, w)) for w in (4, 4, 1)])
    assert np.array_equal(read_matrix(reopened), expected)


def test_verify_store_checks_merged_seeded_fill(tmp_path):
    store = create_layout(tmp_path / "s.store", 32, 10, chunk_cols=4)
    fill_gaussian(store, seed=7)
    merged = merge(store, tmp_path / "s.mx")
    assert merged.chunk_cols == 4
    assert verify_store(merged) == []
    raw = bytearray(merged.path.read_bytes())
    raw[merged.data_offset + 5 * 32 * 8] ^= 0x01  # column 5
    merged.path.write_bytes(bytes(raw))
    assert verify_store(merged) == ["content mismatch in columns [4, 8)"]


@pytest.mark.parametrize("seed", ["abc", -1, 1.5, True])
def test_verify_store_reports_bad_fill_seed(tmp_path, capsys, seed):
    store = create_layout(tmp_path / "s.store", 4, 4, chunk_cols=2)
    fill_gaussian(store, seed=1)
    manifest_path = store.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["metadata"]["fill_seed"] = seed
    manifest_path.write_text(json.dumps(manifest))
    issues = verify_store(store.path)
    assert len(issues) == 1 and "fill_seed" in issues[0]
    assert main(["store", "verify", "--path", str(store.path)]) == 1
    assert capsys.readouterr().out == f"[FAIL] {issues[0]}\n"


@pytest.mark.parametrize("corrupt", [
    lambda m: "{not json",
    lambda m: json.dumps({k: v for k, v in m.items() if k != "chunks"}),
    lambda m: json.dumps({**m, "rows": "8"}),
    lambda m: json.dumps({**m, "chunks": [{**c, "file": "chunk-00000.bin"}
                                          for c in m["chunks"]]}),
    lambda m: json.dumps({**m, "chunks": [{**m["chunks"][0], "file": "manifest.json"},
                                          *m["chunks"][1:]]}),
    lambda m: json.dumps({**m, "chunks": m["chunks"][::-1]}),
    lambda m: json.dumps({**m, "chunk_cols": 2}),  # widths 3+3 are not the 2-column grid
], ids=["bad_json", "missing_key", "non_integer", "duplicate_file", "manifest_file",
        "out_of_order", "off_grid"])
def test_malformed_manifest_raises_integrity_error(tmp_path, corrupt):
    store = create_layout(tmp_path / "s.store", 8, 6, chunk_cols=3)
    manifest_path = store.path / "manifest.json"
    manifest_path.write_text(corrupt(json.loads(manifest_path.read_text())))
    with pytest.raises(IntegrityError):
        open_store(store.path)
    assert verify_store(store.path)[0].startswith("unreadable")


@pytest.mark.parametrize("field, bad", [
    (b'"source_chunk_cols": 2', b'"source_chunk_cols": null'),
    (b'"rows": 4', b'"rows": -4'),
    (b'"cols": 4', b'"cols": 0'),
    (b'"cols": 4', b'"cols": 2050'),  # 1025 two-column chunks
], ids=["null_chunk_cols", "negative_rows", "zero_cols", "too_many_chunks"])
def test_malformed_merged_header_raises_integrity_error(tmp_path, field, bad):
    store = create_layout(tmp_path / "s.store", 4, 4, chunk_cols=2)
    merged = merge(store, tmp_path / "s.mx")
    raw = merged.path.read_bytes()
    assert raw.count(field) == 1
    merged.path.write_bytes(raw.replace(field, bad))
    with pytest.raises(IntegrityError):
        open_merged(merged.path)
    assert main(["decompose", "--output-dir", str(tmp_path / "out"),
                 "--dense-store", str(merged.path), "--n-outer", "3"]) == 3


@pytest.mark.parametrize("edit", [
    {"dtype": ">f4", "layout": "row-major"},
    {"dtype": "<f4"},
    {"layout": "row-major"},
    {"dtype": None},  # the key removed
], ids=["both", "dtype", "layout", "missing_dtype"])
def test_foreign_element_format_is_refused(tmp_path, capsys, edit):
    store = create_layout(tmp_path / "s.store", 4, 4, chunk_cols=2)
    write_columns(store, 0, np.eye(4))
    merged = merge(store, tmp_path / "s.mx")

    manifest_path = store.path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest.update(edit)
    manifest_path.write_text(json.dumps({k: v for k, v in manifest.items()
                                         if v is not None}))
    # the merged header is one sorted-key JSON line after the magic line
    magic, header, data = merged.path.read_bytes().split(b"\n", 2)
    fields = json.loads(header)
    fields.update(edit)
    header = json.dumps({k: v for k, v in fields.items() if v is not None},
                        sort_keys=True).encode()
    merged.path.write_bytes(magic + b"\n" + header + b"\n" + data)

    for path, opener in ((store.path, open_store), (merged.path, open_merged)):
        with pytest.raises(IntegrityError, match="only '<f8' in 'column-major'"):
            opener(path)
        assert verify_store(path)[0].startswith("unreadable")
        capsys.readouterr()
        assert main(["store", "verify", "--path", str(path)]) == 3
        assert "ERROR type=io" in capsys.readouterr().err


def test_merged_reader_rejects_other_files(tmp_path):
    path = tmp_path / "not-a-store.bin"
    path.write_bytes(b"garbage")
    with pytest.raises(IntegrityError):
        open_merged(path)
