import argparse
import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grassket import experiments
from grassket.cli import main
from grassket.errors import IntegrityError
from grassket.experiments import CurvePoint, OverlapCurve, run_baseline
from grassket.grassmann import MetricKind, overlap_variance
from grassket.masks import SparseMask
from grassket.operators import make_planted_operator
from grassket.sketch import (draw_measurements, load_sketched_eigh, save_sketched_eigh,
                             seigh)
from grassket.storage import open_merged, open_store, read_matrix, verify_store


def run(args):
    return main([str(a) for a in args])


def test_decompose_planted(tmp_path):
    out = tmp_path / "run"
    code = run(["decompose", "--output-dir", out, "--planted-dim", 1000,
                "--planted-rank", 50, "--n-outer", 60, "--seed", 3])
    assert code == 0
    assert (out / "config.json").exists()
    lines = (out / "eigvals.csv").read_text().splitlines()
    assert lines[1] == "index,eigval"
    values = np.array([float(line.split(",")[1]) for line in lines[2:]])
    # one row per direction of the sketch's numerical range, the planted rank
    assert "numerical_rank=50" in lines[0].split()
    assert len(values) == 50
    assert np.abs(values - np.arange(50, 0, -1)).max() <= 1e-6


def test_decompose_deterministic(tmp_path):
    args = ["decompose", "--planted-dim", 200, "--planted-rank", 10,
            "--n-outer", 15, "--seed", 9]
    run(args + ["--output-dir", tmp_path / "a"])
    run(args + ["--output-dir", tmp_path / "b"])
    assert (tmp_path / "a/eigvals.csv").read_bytes() == \
        (tmp_path / "b/eigvals.csv").read_bytes()


def test_decompose_records_numerical_rank(tmp_path):
    out = tmp_path / "dec"
    assert run(["decompose", "--output-dir", out, "--planted-dim", 200,
                "--planted-rank", 10, "--n-outer", 15, "--seed", 9]) == 0
    header = (out / "eigvals.csv").read_text().splitlines()[0]
    assert header == "# seed=9 n_outer=15 n_inner=31 numerical_rank=10"


def test_decompose_writes_a_loadable_decomposition(tmp_path):
    out = tmp_path / "dec"
    assert run(["decompose", "--output-dir", out, "--planted-dim", 200,
                "--planted-rank", 10, "--n-outer", 15, "--seed", 9]) == 0
    dec = load_sketched_eigh(out / "decomposition")
    lines = (out / "eigvals.csv").read_text().splitlines()
    assert dec.eigvals.tolist() == [float(line.split(",")[1]) for line in lines[2:]]
    assert f"numerical_rank={dec.rank}" in lines[0].split()
    assert dec.rank == 10
    assert np.abs(dec.vectors.T @ dec.vectors - np.eye(10)).max() <= 1e-10
    op = make_planted_operator(200, np.arange(10, 0, -1.0), SparseMask(200, np.arange(10)),
                               0.0, 0)
    assert np.array_equal(dec.vectors, seigh(op, draw_measurements(200, 31, 15, 9)).vectors)


def test_decompose_rejects_bad_measurement_counts(tmp_path):
    out = tmp_path / "bad"
    code = run(["decompose", "--output-dir", out, "--planted-dim", 100,
                "--planted-rank", 5, "--n-outer", 20, "--n-inner", 10])
    assert code == 1
    assert not list(out.glob("*.csv"))  # no partial outputs


def test_decompose_rejects_non_finite_eigvals(tmp_path, capsys):
    code = run(["decompose", "--output-dir", tmp_path / "nan", "--planted-dim", 50,
                "--eigvals", "nan,1", "--n-outer", 5])
    assert code == 1
    assert "planted eigenvalues must be finite, got [nan, 1.0]" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["decompose", "--planted-dim", 50, "--eigvals", "nan,1", "--n-outer", 5],
     "planted eigenvalues must be finite"),
    (["baseline", "--metrics", "bogus"], "'bogus' is not a valid MetricKind"),
    (["curve", "--planted-dim", 50, "--planted-rank", 5, "--n-outer", 60],
     "exceeds operator dimension 50"),
    (["curve", "--planted-dim", 100, "--planted-rank", 5, "--n-outer", 10,
      "--top-k", 8], "exceeds the planted rank 5"),
    (["baseline", "--dims", "64,0"], "dimension must be positive"),
    (["baseline", "--dims=-5"], "dimension must be positive"),
    (["baseline", "--metrics", "overlap,overlap"],
     "metric grid ['overlap', 'overlap'] repeats an entry"),
    (["verify", "--samples", 10], "need at least 30 samples"),
    (["verify", "--seed", -1], "expected non-negative integer"),
], ids=["decompose-nan-eigvals", "baseline-unknown-metric", "curve-n-outer-above-dim",
        "curve-top-k-above-rank", "baseline-zero-dim", "baseline-negative-dim",
        "baseline-duplicate-metric", "verify-too-few-samples", "verify-negative-seed"])
def test_refused_run_leaves_no_output_dir(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    assert run(args + ["--output-dir", out]) == 1
    err = capsys.readouterr().err
    assert "ERROR type=usage" in err and message in err
    assert not out.exists()


def _with_one_bad(good, bad):
    """Comma-separated lists of up to two values of ``good`` with one value of
    ``bad`` among them."""
    return st.tuples(st.lists(good, max_size=2), bad, st.integers(0, 2)).map(
        lambda t: ",".join(map(str, t[0][:t[2]] + [t[1]] + t[0][t[2]:])))


def _with_a_repeat(good):
    """Comma-separated lists of ``good`` values whose first value comes twice."""
    return st.lists(good, min_size=1, max_size=3).flatmap(
        lambda values: st.permutations(values + values[:1])).map(
        lambda values: ",".join(map(str, values)))


GOOD_BASELINE_VALUES = {
    "dims": st.integers(1, 24),
    "rhos": st.floats(0.0, 1.0, exclude_min=True),
    "modalities": st.sampled_from(experiments.MODALITIES),
    "metrics": st.sampled_from([kind.value for kind in MetricKind]),
}
_NAME = st.text("OMXovelapr_", min_size=1, max_size=8)
BAD_BASELINE_VALUES = {
    "samples-below-two": ("samples", st.integers(max_value=1)),
    "rho-outside-unit-interval": ("rhos", _with_one_bad(
        GOOD_BASELINE_VALUES["rhos"],
        st.floats(max_value=0.0) | st.floats(min_value=1.0, exclude_min=True)
        | st.just(float("nan")))),
    "dimension-below-one": ("dims", _with_one_bad(GOOD_BASELINE_VALUES["dims"],
                                                  st.integers(max_value=0))),
    "unknown-modality": ("modalities", _with_one_bad(
        GOOD_BASELINE_VALUES["modalities"],
        _NAME.filter(lambda name: name not in experiments.MODALITIES))),
    "unknown-metric": ("metrics", _with_one_bad(
        GOOD_BASELINE_VALUES["metrics"],
        _NAME.filter(lambda name: name not in {kind.value for kind in MetricKind}))),
    **{f"empty-{flag}": (flag, st.sampled_from(["", ",", " , "]))
       for flag in GOOD_BASELINE_VALUES},
    **{f"duplicate-{flag}": (flag, _with_a_repeat(good))
       for flag, good in GOOD_BASELINE_VALUES.items()},
}


@pytest.mark.parametrize("flag, values", BAD_BASELINE_VALUES.values(),
                         ids=BAD_BASELINE_VALUES.keys())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_any_bad_baseline_flag_value_is_a_usage_error(flag, values, data):
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(["baseline", "--output-dir", out, "--dims", 16, "--rhos", 0.25,
                        "--modalities", "OO,MM", "--samples", 3, f"--{flag}={value}"])
        assert code == 1
        assert "ERROR type=usage" in err.getvalue()
        assert not out.exists()


# good arguments of each command; the bad value comes last, so it takes effect
_PLANTED = ["--planted-dim", 40, "--eigvals", "3,2,1", "--n-outer", 5]
GOOD_ARGS = {
    "decompose": ["decompose", *_PLANTED],
    "curve": ["curve", *_PLANTED],
    "verify": ["verify", "--samples", 30],
    "store-create": ["store", "create", "--rows", 4, "--cols", 4, "--chunk-cols", 2,
                     "--fill-seed", 1],
}
_NEGATIVE = st.integers(max_value=-1)
_PLANTED_COMMANDS = ("decompose", "curve")
BAD_FLAG_VALUES = {
    "n-outer-below-one": (_PLANTED_COMMANDS, "n-outer", st.integers(max_value=0)),
    "n-inner-below-n-outer-or-above-dim": (
        _PLANTED_COMMANDS, "n-inner", st.integers(max_value=4) | st.integers(min_value=41)),
    "alignment-outside-unit-interval": (_PLANTED_COMMANDS, "planted-alignment", (
        st.floats(max_value=0.0, exclude_max=True)
        | st.floats(min_value=1.0, exclude_min=True) | st.just(float("nan")))),
    "non-finite-eigvals": (_PLANTED_COMMANDS, "eigvals", _with_one_bad(
        st.floats(1.0, 3.0), st.sampled_from([float("nan"), float("inf"), float("-inf")]))),
    "mask-index-out-of-range": (_PLANTED_COMMANDS, "mask-indices", _with_one_bad(
        st.integers(0, 39), _NEGATIVE | st.integers(min_value=40))),
    "repeated-mask-index": (_PLANTED_COMMANDS, "mask-indices",
                            _with_a_repeat(st.integers(0, 39))),
    "top-k-below-one-or-past-rank": (
        ("curve",), "top-k", st.integers(max_value=0) | st.integers(min_value=4)),
    "negative-seed": (("decompose", "curve", "verify"), "seed", _NEGATIVE),
    "negative-planted-seed": (_PLANTED_COMMANDS, "planted-seed", _NEGATIVE),
    "verify-samples-below-thirty": (("verify",), "samples", st.integers(max_value=29)),
    **{f"store-{flag}-below-one": (("store-create",), flag, st.integers(max_value=0))
       for flag in ("rows", "cols", "chunk-cols")},
    "negative-fill-seed": (("store-create",), "fill-seed", _NEGATIVE),
}


@pytest.mark.parametrize("commands, flag, values", BAD_FLAG_VALUES.values(),
                         ids=BAD_FLAG_VALUES.keys())
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_any_bad_flag_value_is_a_usage_error(commands, flag, values, data):
    command = data.draw(st.sampled_from(commands))
    value = data.draw(values)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        target = ["--path" if command == "store-create" else "--output-dir", out]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run(GOOD_ARGS[command] + target + [f"--{flag}={value}"])
        assert code == 1
        assert "ERROR type=usage" in err.getvalue()
        assert not out.exists()


@pytest.mark.parametrize("flag", ["modalities", "metrics"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_spaces_around_baseline_names_are_ignored(flag, data):
    names = data.draw(st.lists(GOOD_BASELINE_VALUES[flag], min_size=1, max_size=3,
                               unique=True))
    pads = st.text(" \t", max_size=2)
    value = ",".join(data.draw(pads) + name + data.draw(pads) for name in names)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert run(["baseline", "--output-dir", out, "--dims", 16, "--rhos", 0.25,
                    "--modalities", "OO,MM", "--samples", 3, f"--{flag}={value}"]) == 0
        assert (out / "baseline.csv").exists()


@pytest.mark.parametrize("args", [
    ["curve", "--planted-dim", 100, "--planted-rank", 5, "--eigvals", "3,2",
     "--n-outer", 6],
    ["decompose", "--planted-dim", 100, "--planted-rank", 5,
     "--dense-store", "m.store", "--n-outer", 6],
], ids=["planted-rank-and-eigvals", "dense-store-and-planted-dim"])
def test_flags_that_exclude_each_other_are_refused(tmp_path, capsys, args):
    # only one of each pair can take effect, so config.json could not record
    # what ran
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run(args + ["--output-dir", out])
    assert info.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("args, message", [
    (["curve", "--planted-rank", 5, "--n-outer", 10],
     "the following arguments are required: --planted-dim"),
    (["decompose", "--planted-rank", 5, "--n-outer", 10],
     "one of the arguments --planted-dim --dense-store is required"),
], ids=["curve-without-planted-dim", "decompose-without-source"])
def test_missing_source_is_refused_by_argparse(tmp_path, capsys, args, message):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run(args + ["--output-dir", out])
    assert info.value.code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def decompose_stored_matrix(tmp_path, matrix):
    from grassket.storage import create_layout, write_columns

    store = create_layout(tmp_path / "m.store", *matrix.shape, chunk_cols=3)
    write_columns(store, 0, matrix)
    out = tmp_path / "out"
    code = run(["decompose", "--output-dir", out, "--dense-store", store.path,
                "--n-outer", 3])
    return code, out


def test_decompose_dense_store_requires_symmetry(tmp_path, capsys):
    code, out = decompose_stored_matrix(tmp_path, np.triu(np.ones((5, 5))))
    assert code == 2  # numerical-contract failure
    assert "ERROR type=contract message=matrix is not symmetric" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_dense_store_refuses_non_square_matrix(tmp_path, capsys):
    code, out = decompose_stored_matrix(tmp_path, np.arange(24.0).reshape(6, 4))
    assert code == 2  # numerical-contract failure, not a usage error
    assert ("ERROR type=contract message=matrix of shape (6, 4) is not square"
            in capsys.readouterr().err)
    assert not out.exists()


def test_decompose_refuses_a_sketch_of_numerical_rank_zero(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["decompose", "--output-dir", out, "--planted-dim", 50, "--eigvals", "0,0",
                "--n-outer", 4]) == 2
    assert ("ERROR type=contract message=outer sketch has numerical rank 0"
            in capsys.readouterr().err)
    assert not out.exists()


def test_decompose_dense_store_refuses_non_finite_matrix(tmp_path):
    matrix = np.eye(12)
    matrix[4, 4] = np.inf
    code, out = decompose_stored_matrix(tmp_path, matrix)
    assert code == 2  # numerical-contract failure
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--planted-rank", 5), ("--eigvals", "3,2"), ("--planted-alignment", 0.0),
    ("--planted-seed", 0), ("--mask-indices", "0,1"),
])
def test_decompose_dense_store_refuses_planted_flags(tmp_path, capsys, flag, value):
    # a stored matrix ignores them, so config.json would record values that
    # never ran; an explicit default value is refused too
    from grassket.storage import create_layout, write_columns

    store = create_layout(tmp_path / "m.store", 6, 6, chunk_cols=3)
    write_columns(store, 0, np.eye(6))
    out = tmp_path / "out"
    assert run(["decompose", "--output-dir", out, "--dense-store", store.path,
                "--n-outer", 2, flag, value]) == 1
    assert (f"ERROR type=usage message=--dense-store does not take {flag}"
            in capsys.readouterr().err)
    assert not out.exists()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_decompose_dense_store_refuses_a_sketch_that_overflows(tmp_path, capsys):
    # finite entries near 1e306 overflow in the sketch's products: numpy's
    # LinAlgError is a ValueError, so without the check this exits 1
    half = np.random.default_rng(0).standard_normal((200, 200))
    code, out = decompose_stored_matrix(tmp_path, (half + half.T) * 1e306)
    assert code == 2  # numerical-contract failure, not a usage error
    assert "ERROR type=contract message=inner sketch is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_decompose_dense_store(tmp_path):
    from grassket.storage import create_layout, write_columns

    rng = np.random.default_rng(0)
    half = rng.standard_normal((40, 5))
    matrix = half @ half.T
    store = create_layout(tmp_path / "m.store", 40, 40, chunk_cols=8)
    write_columns(store, 0, matrix)
    out = tmp_path / "out"
    assert run(["decompose", "--output-dir", out, "--dense-store",
                tmp_path / "m.store", "--n-outer", 10, "--seed", 1]) == 0
    values = np.array([float(line.split(",")[1]) for line in
                       (out / "eigvals.csv").read_text().splitlines()[2:]])
    oracle = np.linalg.eigvalsh(matrix)[::-1]
    assert np.abs(values[:5] - oracle[:5]).max() <= 1e-6 * oracle[0]


def test_baseline_command(tmp_path):
    out = tmp_path / "base"
    code = run(["baseline", "--output-dir", out, "--dims", "64",
                "--rhos", "1.0,0.25", "--samples", 10, "--seed", 4])
    assert code == 0
    lines = (out / "baseline.csv").read_text().splitlines()
    header = lines[1].split(",")
    full = dict(zip(header, lines[2].split(",")))
    assert full["rho"] == "1.0"
    assert float(full["mean"]) == 1.0 and float(full["std"]) == 0.0
    rerun = tmp_path / "base2"
    run(["baseline", "--output-dir", rerun, "--dims", "64",
         "--rhos", "1.0,0.25", "--samples", 10, "--seed", 4])
    assert (out / "baseline.csv").read_bytes() == (rerun / "baseline.csv").read_bytes()


def test_baseline_csv_round_trip(tmp_path):
    out = tmp_path / "base"
    assert run(["baseline", "--output-dir", out, "--dims", 32, "--rhos", 0.25,
                "--modalities", "OO", "--metrics", "overlap", "--samples", 10,
                "--seed", 9]) == 0
    result = run_baseline([32], [0.25], ["OO"], [MetricKind.OVERLAP],
                          samples=10, seed=9)
    lines = (out / "baseline.csv").read_text().splitlines()
    assert lines[0] == "# seed=9"
    assert lines[1] == "modality,metric,D,k,rho,T,median,p5,p95,mean,std"
    fields = lines[2].split(",")
    assert fields[:6] == ["OO", "overlap", "32", "8", "0.25", "10"]
    assert float(fields[9]) == result.rows[0].mean


def curve_table(tmp_path, monkeypatch, curve):
    """Lines of the curve.csv that the curve command writes for ``curve``."""
    monkeypatch.setattr(experiments, "overlap_curve", lambda *args: curve)
    out = tmp_path / curve.exact_source
    assert run(["curve", "--output-dir", out, "--planted-dim", 20,
                "--planted-rank", 2, "--n-outer", 4]) == 0
    return (out / "curve.csv").read_text().splitlines()


def test_curve_csv_format(tmp_path, monkeypatch):
    points = [CurvePoint(k=1, exact=0.5, sketched=0.25, baseline=0.125),
              CurvePoint(k=2, exact=float("nan"), sketched=0.5, baseline=0.25)]
    curve = OverlapCurve(points=points, operator="probe", n_outer=4, n_inner=9,
                         seed=1, exact_source="skipped")
    lines = curve_table(tmp_path, monkeypatch, curve)
    assert lines[1] == "k,exact,sketched,baseline,ratio"
    assert lines[2] == "1,0.5,0.25,0.125,2.0"
    assert lines[3] == "2,,0.5,0.25,2.0"  # empty exact above the dense cap


def test_curve_csv_records_exact_source(tmp_path, monkeypatch):
    points = [CurvePoint(k=1, exact=0.5, sketched=0.25, baseline=0.125)]
    for source in ("dense", "planted"):
        curve = OverlapCurve(points=points, operator="probe", n_outer=4,
                             n_inner=9, seed=1, exact_source=source)
        assert curve_table(tmp_path, monkeypatch, curve)[0] == (
            f"# seed=1 n_outer=4 n_inner=9 operator=probe exact_source={source}")


def test_every_output_file_is_lf_terminated_ascii(tmp_path):
    runs = {
        "decompose": ["--planted-dim", 100, "--planted-rank", 5, "--n-outer", 8],
        "baseline": ["--dims", 32, "--rhos", "0.5,0.25", "--samples", 5],
        "curve": ["--planted-dim", 100, "--planted-rank", 5,
                  "--planted-alignment", 0.5, "--n-outer", 8],
        "verify": ["--samples", 60, "--seed", 6],
    }
    for command, args in runs.items():
        assert run([command, "--output-dir", tmp_path / command, *args]) == 0
    files = [p for p in tmp_path.rglob("*") if p.is_file()]
    # the decomposition's chunk files hold raw little-endian float64 columns
    chunks = [p for p in files if p.suffix == ".bin"]
    assert {p.parent.parent.name for p in chunks} == {"decomposition"}
    for path in set(files) - set(chunks):
        data = path.read_bytes()
        data.decode("ascii")
        assert b"\r" not in data and data.endswith(b"\n"), path


def test_curve_command(tmp_path):
    out = tmp_path / "curve"
    code = run(["curve", "--output-dir", out, "--planted-dim", 100,
                "--planted-rank", 5, "--planted-alignment", 1.0,
                "--n-outer", 10, "--seed", 5])
    assert code == 0
    lines = (out / "curve.csv").read_text().splitlines()
    assert lines[1] == "k,exact,sketched,baseline,ratio"
    last = lines[-1].split(",")
    assert int(last[0]) == 5
    assert float(last[1]) == pytest.approx(1.0, abs=1e-9)   # exact overlap
    assert float(last[4]) == pytest.approx(100 / 5, rel=1e-3)  # ratio D/k
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "curve.csv"]


def test_verify_command(tmp_path):
    code = run(["verify", "--output-dir", tmp_path / "verify",
                "--samples", 60, "--seed", 6])
    assert code == 0
    report = (tmp_path / "verify/verify_report.txt").read_text()
    assert "[FAIL]" not in report
    assert report.count("[PASS]") >= 7
    # each chance-level line ends with the mean's deviation from k/D in
    # closed-form standard errors
    for dim, k in ((128, 6), (512, 26), (2048, 102)):
        line = re.search(rf"^\[PASS\] chance-level overlap D={dim} k={k}: "
                         r"mean=(\S+) .* z=(\S+)$", report, re.MULTILINE)
        z = (float(line.group(1)) - k / dim) / np.sqrt(overlap_variance(dim, k) / 60)
        assert float(line.group(2)) == pytest.approx(z, abs=0.0051)
    # the store round trips ran in a temporary directory that is gone
    assert sorted(p.name for p in (tmp_path / "verify").iterdir()) == [
        "config.json", "verify_report.txt"]


def test_store_roundtrip_and_bitflip_detection(tmp_path):
    store_path = tmp_path / "data.store"
    assert run(["store", "create", "--path", store_path, "--rows", 32,
                "--cols", 10, "--chunk-cols", 4, "--fill-seed", 7]) == 0
    assert run(["store", "verify", "--path", store_path]) == 0

    merged = tmp_path / "data.mx"
    assert run(["store", "merge", "--path", store_path, "--out", merged]) == 0
    store = open_store(store_path)
    assert np.array_equal(read_matrix(merged), read_matrix(store))

    # flip one bit in the middle chunk and expect verify to name it
    victim = store.chunk_path(store.chunks[1])
    raw = bytearray(victim.read_bytes())
    raw[100] ^= 0x01
    victim.write_bytes(bytes(raw))
    code = run(["store", "verify", "--path", store_path])
    assert code == 1


def test_store_verify_names_corrupt_chunk(tmp_path, capsys):
    store_path = tmp_path / "data.store"
    run(["store", "create", "--path", store_path, "--rows", 16, "--cols", 9,
         "--chunk-cols", 3, "--fill-seed", 8])
    store = open_store(store_path)
    victim = store.chunk_path(store.chunks[2])
    raw = bytearray(victim.read_bytes())
    raw[-1] ^= 0x80
    victim.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run(["store", "verify", "--path", store_path]) == 1
    output = capsys.readouterr().out
    assert store.chunks[2].file in output


def test_store_verify_merged_fill_seed_store(tmp_path, capsys):
    store_path, merged = tmp_path / "data.store", tmp_path / "data.mx"
    run(["store", "create", "--path", store_path, "--rows", 32, "--cols", 10,
         "--chunk-cols", 4, "--fill-seed", 7])
    run(["store", "merge", "--path", store_path, "--out", merged])
    capsys.readouterr()
    assert run(["store", "verify", "--path", merged]) == 0

    # flip one bit in column 5, which the fill drew as part of columns [4, 8)
    handle = open_merged(merged)
    raw = bytearray(merged.read_bytes())
    raw[handle.data_offset + 5 * 32 * 8 + 3] ^= 0x01
    merged.write_bytes(bytes(raw))
    capsys.readouterr()
    assert run(["store", "verify", "--path", merged]) == 1
    assert "columns [4, 8)" in capsys.readouterr().out


@pytest.mark.parametrize("corrupt", ["bad_json", "missing_key"])
@pytest.mark.parametrize("command", ["merge", "decompose"])
def test_malformed_manifest_is_integrity_error(tmp_path, corrupt, command):
    from grassket.storage import create_layout, write_columns

    store = create_layout(tmp_path / "m.store", 6, 6, chunk_cols=3)
    write_columns(store, 0, np.eye(6))
    manifest_path = store.path / "manifest.json"
    if corrupt == "bad_json":
        manifest_path.write_text(manifest_path.read_text()[:-10])
    else:
        manifest = json.loads(manifest_path.read_text())
        del manifest["rows"]
        manifest_path.write_text(json.dumps(manifest))
    if command == "merge":
        args = ["store", "merge", "--path", store.path, "--out", tmp_path / "m.mx"]
    else:
        args = ["decompose", "--output-dir", tmp_path / "out",
                "--dense-store", store.path, "--n-outer", 3]
    assert run(args) == 3


# any JSON value: scalars, and lists and objects of them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8)

MANIFEST_KEYS = ("format_version", "rows", "cols", "dtype", "layout", "chunk_cols",
                 "chunks", "metadata")


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(MANIFEST_KEYS), value=JSON_VALUES)
def test_any_manifest_value_is_accepted_or_refused_by_class(key, value):
    # a stored matrix decomposes (0), breaks the operator contract (2) or
    # fails its integrity checks (3); no manifest value makes a usage error
    from grassket.storage import create_layout, write_columns

    with tempfile.TemporaryDirectory() as tmp:
        store = create_layout(Path(tmp) / "m.store", 6, 6, chunk_cols=2)
        write_columns(store, 0, np.eye(6) + np.ones((6, 6)))
        manifest_path = store.path / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest[key] = value
        manifest_path.write_text(json.dumps(manifest))
        assert run(["decompose", "--output-dir", Path(tmp) / "out", "--dense-store",
                    store.path, "--n-outer", 2]) in (0, 2, 3)


@settings(max_examples=60, deadline=None)
@given(key=st.sampled_from(["eigvals", "numerical_rank", "core_asymmetry"]),
       value=JSON_VALUES)
def test_any_saved_decomposition_value_loads_or_is_integrity_error(key, value):
    dec = seigh(make_planted_operator(12, [3.0, 2.0], None, 0.0, seed=0),
                draw_measurements(12, 9, 4, seed=1))
    with tempfile.TemporaryDirectory() as tmp:
        save_sketched_eigh(dec, Path(tmp) / "dec")
        manifest_path = Path(tmp) / "dec/vectors.store/manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["metadata"][key] = value
        manifest_path.write_text(json.dumps(manifest))
        try:
            load_sketched_eigh(Path(tmp) / "dec")
        except IntegrityError:
            pass


def test_store_manifest_cannot_reach_outside_files(tmp_path, capsys):
    store_path = tmp_path / "data.store"
    run(["store", "create", "--path", store_path, "--rows", 8, "--cols", 6,
         "--chunk-cols", 3, "--fill-seed", 2])
    # an outside file of the right size and content, named through the manifest
    outside = tmp_path / "outside.bin"
    outside.write_bytes((store_path / "chunk-00000.bin").read_bytes())
    before = outside.read_bytes()
    manifest_path = store_path / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["chunks"][0]["file"] = "../outside.bin"
    manifest_path.write_text(json.dumps(manifest))

    merged = tmp_path / "data.mx"
    assert run(["store", "merge", "--path", store_path, "--out", merged]) == 3
    assert not merged.exists()
    issues = verify_store(store_path)
    assert len(issues) == 1 and issues[0].startswith("unreadable")
    capsys.readouterr()
    # a store that does not open is an integrity error, not a count of problems
    assert run(["store", "verify", "--path", store_path]) == 3
    assert "ERROR type=io" in capsys.readouterr().err
    assert outside.read_bytes() == before


def test_decompose_config_records_resolved_n_inner(tmp_path):
    out = tmp_path / "run"
    assert run(["decompose", "--output-dir", out, "--planted-dim", 100,
                "--planted-rank", 5, "--n-outer", 10]) == 0
    config = json.loads((out / "config.json").read_text())
    assert config["n_inner"] == 21


def test_curve_config_records_resolved_defaults(tmp_path):
    out = tmp_path / "curve"
    assert run(["curve", "--output-dir", out, "--planted-dim", 100,
                "--planted-rank", 5, "--n-outer", 10]) == 0
    config = json.loads((out / "config.json").read_text())
    assert (config["n_inner"], config["top_k"]) == (21, 5)
    assert (config["planted_alignment"], config["planted_seed"]) == (0.0, 0)


@pytest.mark.parametrize("planted, top_k", [
    (["--eigvals", "3,2,0"], 2),
    (["--planted-rank", 3, "--mask-indices", "1,2,3,4,5"], 3),
], ids=["zero-eigval", "mask-past-rank"])
def test_curve_default_top_k_is_planted_rank(tmp_path, planted, top_k):
    # the default counts nonzero planted eigenvalues, as the refusal does
    out = tmp_path / "curve"
    assert run(["curve", "--output-dir", out, "--planted-dim", 100,
                "--n-outer", 10, *planted]) == 0
    rows = (out / "curve.csv").read_text().splitlines()[2:]
    assert [int(row.split(",")[0]) for row in rows] == list(range(1, top_k + 1))
    assert json.loads((out / "config.json").read_text())["top_k"] == top_k


def test_store_create_refuses_overwrite(tmp_path):
    store_path = tmp_path / "data.store"
    run(["store", "create", "--path", store_path, "--rows", 4, "--cols", 4,
         "--chunk-cols", 2])
    assert run(["store", "create", "--path", store_path, "--rows", 4,
                "--cols", 4, "--chunk-cols", 2]) == 3
    assert run(["store", "create", "--path", store_path, "--rows", 4,
                "--cols", 4, "--chunk-cols", 2, "--overwrite"]) == 0


@pytest.mark.parametrize("overwrite", [True, False], ids=["over-a-store", "new-path"])
def test_store_create_refuses_a_bad_fill_seed_before_touching_the_path(tmp_path, capsys,
                                                                        overwrite):
    store_path = tmp_path / "data.store"
    create = ["store", "create", "--path", store_path, "--rows", 4, "--cols", 4,
              "--chunk-cols", 2]
    if overwrite:
        assert run(create + ["--fill-seed", 3]) == 0
        before = {p.name: p.read_bytes() for p in store_path.glob("*")}
    capsys.readouterr()
    assert run(create + ["--fill-seed", -2] + ["--overwrite"] * overwrite) == 1
    assert "ERROR type=usage" in capsys.readouterr().err
    if overwrite:
        # the seeded store, manifest and chunk bytes alike, is left as it was
        assert {p.name: p.read_bytes() for p in store_path.glob("*")} == before
        assert run(["store", "verify", "--path", store_path]) == 0
    else:
        assert not store_path.exists()


def test_store_create_refuses_too_many_chunks(tmp_path):
    store_path = tmp_path / "many.store"
    assert run(["store", "create", "--path", store_path, "--rows", 2,
                "--cols", 2000, "--chunk-cols", 1]) == 1
    assert not store_path.exists()


def test_unknown_flag_is_hard_error():
    with pytest.raises(SystemExit) as info:
        main(["baseline", "--no-such-flag", "1"])
    assert info.value.code == 1


def test_help_documents_flags(capsys):
    for args, expected in [
        (["decompose", "--help"], ["--n-outer", "--n-inner", "--planted-dim",
                                   "--dense-store", "--output-dir", "--seed"]),
        (["baseline", "--help"], ["--dims", "--rhos", "--modalities",
                                  "--metrics", "--samples"]),
        (["curve", "--help"], ["--top-k", "--planted-alignment"]),
    ]:
        with pytest.raises(SystemExit) as info:
            main(args)
        assert info.value.code == 0
        text = capsys.readouterr().out
        for flag in expected:
            assert flag in text


@pytest.mark.parametrize("command", ["decompose", "curve"])
def test_help_describes_sketch_flags(capsys, command):
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo argparse's line wrapping
    assert "--n-outer N_OUTER number of outer measurements (recovered rank)" in text
    assert "--n-inner N_INNER number of inner measurements (default 2*n_outer + 1)" in text


# Every subcommand's option strings, help aside; adding or dropping a flag
# fails test_subcommand_option_strings_are_pinned until it is updated here.
OPTION_STRINGS = {
    "decompose": {"--output-dir", "--seed", "--planted-dim", "--planted-rank", "--eigvals",
                  "--planted-alignment", "--planted-seed", "--mask-indices",
                  "--dense-store", "--n-outer", "--n-inner"},
    "baseline": {"--output-dir", "--seed", "--dims", "--rhos", "--modalities", "--metrics",
                 "--samples"},
    "curve": {"--output-dir", "--seed", "--planted-dim", "--planted-rank", "--eigvals",
              "--planted-alignment", "--planted-seed", "--mask-indices", "--n-outer",
              "--n-inner", "--top-k"},
    "verify": {"--output-dir", "--seed", "--samples"},
    "store create": {"--path", "--rows", "--cols", "--chunk-cols", "--fill-seed",
                     "--overwrite"},
    "store merge": {"--path", "--out", "--overwrite"},
    "store verify": {"--path"},
}


def option_strings(parser, command=""):
    """{subcommand: its option strings} for every subcommand without subcommands."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(option_strings(sub, f"{command} {name}".strip()))
    if found:
        return found
    return {command: {option for action in parser._actions
                      if not isinstance(action, argparse._HelpAction)
                      for option in action.option_strings}}


def test_subcommand_option_strings_are_pinned():
    from grassket.cli import build_parser

    assert option_strings(build_parser()) == OPTION_STRINGS


def test_output_dir_env_default(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("GRASSKET_OUTPUT_DIR", str(tmp_path / "from-env"))
    from grassket.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(["verify"])
    assert args.output_dir == str(tmp_path / "from-env")
