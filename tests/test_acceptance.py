"""Acceptance suite.

Each test exercises one release criterion end to end, at its stated
tolerance, and prints one machine-greppable pass/fail line.  Run with
``pytest -s tests/test_acceptance.py`` to see every line.
"""

import re
import time
from pathlib import Path

import numpy as np

from grassket.cli import main as cli_main
from grassket.experiments import overlap_curve, ranked_theta, run_baseline
from grassket.grassmann import MetricKind, OrthonormalBasis, overlap
from grassket.masks import SparseMask
from grassket.operators import eigh_by_magnitude, make_planted_operator
from grassket.proxies import (QuadraticObjective,
                              masked_perturbation_expectation, psd_subtrace,
                              sam_feature, squared_hessian_diag)
from grassket.selftest import bijection_deviations, store_round_trips
from grassket.sketch import draw_measurements, residual_probe_norms, seigh


def _report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {status} {name}{suffix}")
    assert passed, f"criterion {number} failed: {name}{suffix}"


def test_01_chance_level_verifier(tmp_path):
    started = time.monotonic()
    exit_code = cli_main(["verify", "--output-dir", str(tmp_path),
                          "--samples", "200", "--seed", "1"])
    elapsed = time.monotonic() - started
    report = (tmp_path / "verify_report.txt").read_text()
    checks = {}
    for dim, k in ((128, 6), (512, 26), (2048, 102)):
        label = f"D={dim} k={k}"
        line = re.search(rf"^\[(PASS|FAIL)\] chance-level overlap {label}: "
                         r"mean=(\S+)", report, re.MULTILINE)
        checks[label] = (line.group(1) == "PASS", float(line.group(2)))
    all_pass = all(passed for passed, _ in checks.values()) and exit_code == 0
    detail = "; ".join(f"{label} mean={mean:.5f}" for label, (_, mean) in checks.items())
    _report(1, "chance-level overlap at three scales", all_pass,
            f"{detail}; verify runtime {elapsed:.1f}s")
    assert elapsed < 60.0


def test_02_reference_overlap_row():
    started = time.monotonic()
    result = run_baseline([2048], [0.05, 0.2, 0.4], ["OO"], [MetricKind.OVERLAP],
                          samples=50, seed=2)
    elapsed = time.monotonic() - started
    bounds = {0.05: (0.045, 0.055), 0.2: (0.19, 0.21), 0.4: (0.39, 0.41)}
    means = {rho: result.cell("OO", MetricKind.OVERLAP, 2048, rho).mean
             for rho in bounds}
    ok = all(lo <= means[rho] <= hi for rho, (lo, hi) in bounds.items())
    _report(2, "reference overlap means at D=2048", ok,
            ", ".join(f"rho={rho}: {means[rho]:.5f}" for rho in bounds)
            + f"; runtime {elapsed:.0f}s")
    assert elapsed < 300.0


def test_03_collapsing_dichotomy():
    kinds = [MetricKind.CHORDAL_2, MetricKind.PROJECTION_2, MetricKind.GEODESIC]
    result = run_baseline([2048], [0.05], ["OO"], kinds, samples=50, seed=3)
    chordal2 = result.cell("OO", MetricKind.CHORDAL_2, 2048, 0.05).mean
    proj2 = result.cell("OO", MetricKind.PROJECTION_2, 2048, 0.05).mean
    geodesic = result.cell("OO", MetricKind.GEODESIC, 2048, 0.05).mean
    ok = chordal2 <= 1e-3 and proj2 <= 1e-3 and 0.10 <= geodesic <= 0.14
    _report(3, "collapsing vs non-collapsing similarity", ok,
            f"chordal2={chordal2:.2e}, proj2={proj2:.2e}, geodesic={geodesic:.5f}")


def test_04_exact_rank_capture_at_scale():
    started = time.monotonic()
    dim, rank = 2000, 50
    eigvals = np.arange(rank, 0, -1, dtype=np.float64)
    failures = []
    for seed in range(20):
        op = make_planted_operator(dim, eigvals, None, 0.0, seed=seed)
        dec = seigh(op, draw_measurements(dim, 161, 80, seed=seed + 1000))
        oracle_vals, oracle_vecs = eigh_by_magnitude(op.materialize())
        rel_err = np.abs(dec.eigvals[:rank] - oracle_vals[:rank]) / oracle_vals[:rank]
        top = OrthonormalBasis(oracle_vecs[:, :rank], check=False)
        ov = overlap(dec.eigenbasis(rank), top)
        if rel_err.max() > 1e-6 or ov < 1 - 1e-8:
            failures.append((seed, float(rel_err.max()), float(ov)))
    elapsed = time.monotonic() - started
    _report(4, "exact-rank capture over 20 seeds", not failures,
            f"failures={failures!r}; runtime {elapsed:.0f}s")
    assert elapsed < 120.0


def test_05_decaying_spectrum_and_residual():
    dim = 2000
    eigvals = np.arange(1, 201, dtype=np.float64) ** -2.0
    op = make_planted_operator(dim, eigvals, None, 0.0, seed=7)
    dec = seigh(op, draw_measurements(dim, 201, 100, seed=8))
    oracle_vals, _ = eigh_by_magnitude(op.materialize())
    top_err = np.abs(dec.eigvals[:10] - oracle_vals[:10]) / oracle_vals[:10]

    estimates = []
    for n_outer in (50, 100, 200):
        run = seigh(op, draw_measurements(dim, 2 * n_outer + 1, n_outer, seed=9))
        norms = residual_probe_norms(op, run, n_probe=40, seed=10)
        estimate = float(np.sqrt(norms.mean()))
        stderr_sq = norms.std(ddof=1) / np.sqrt(len(norms))
        estimates.append((n_outer, estimate, stderr_sq / (2 * max(estimate, 1e-30))))
    monotone = all(
        estimates[i + 1][1] <= estimates[i][1]
        + 2 * np.hypot(estimates[i][2], estimates[i + 1][2])
        for i in range(len(estimates) - 1)
    )
    ok = top_err.max() <= 0.05 and monotone
    _report(5, "decaying spectrum recovery and residual decrease", ok,
            f"max top-10 rel err={top_err.max():.2e}, residuals="
            + ", ".join(f"n_o={n}: {e:.4f}" for n, e, _ in estimates))


def test_06_sketched_overlap_fidelity():
    dim, rank = 2000, 50
    eigvals = np.arange(rank, 0, -1, dtype=np.float64)  # trailing level is 0
    mask = SparseMask(dim, np.arange(0, 2 * rank, 2))
    worst = 0.0
    for alignment in (0.0, 0.5, 1.0):
        op = make_planted_operator(dim, eigvals, mask, alignment, seed=11)
        theta = ranked_theta(dim, mask.indices, seed=12)
        curve = overlap_curve(op, theta, n_outer=80, n_inner=161, k_max=rank,
                              seed=13)
        gap = max(abs(p.sketched - p.exact) for p in curve.points)
        worst = max(worst, gap)
    _report(6, "sketched overlap tracks exact overlap", worst <= 0.02,
            f"max |sketched - exact| = {worst:.4f}")


def test_07_bijection_suite():
    worst_mask, worst_basis = bijection_deviations(seed=14)
    ok = worst_mask <= 1e-12 and worst_basis <= 1e-10
    _report(7, "overlap bijections with IoU, bit flips and projection distance",
            ok, f"mask dev={worst_mask:.1e}, basis dev={worst_basis:.1e}")


def test_08_perturbation_verifier():
    obj = QuadraticObjective(np.diag([2.0, -2.0, 4.0]))
    theta = np.zeros(3)
    est_cancel, se_cancel = masked_perturbation_expectation(
        obj, theta, SparseMask(3, [0, 1]), n_samples=100_000, seed=15)
    est_single, se_single = masked_perturbation_expectation(
        obj, theta, SparseMask(3, [2]), n_samples=100_000, seed=16)
    ok = abs(est_cancel) <= 3 * se_cancel and abs(est_single - 2.0) <= 3 * se_single
    _report(8, "masked perturbation expectations", ok,
            f"cancel={est_cancel:.4f}+-{se_cancel:.4f}, "
            f"single={est_single:.4f}+-{se_single:.4f}")


def test_09_proxy_identities():
    rng = np.random.default_rng(17)
    dim = 20
    theta = rng.standard_normal(dim)
    diag = np.abs(rng.standard_normal(dim))
    subtrace_full = psd_subtrace(diag, theta, dim)
    identity_ok = all(psd_subtrace(np.ones(dim), theta, k) == k / dim
                      for k in range(1, dim + 1))
    half = rng.standard_normal((dim, dim))
    H = 0.5 * (half + half.T)
    obj = QuadraticObjective(H, g0=rng.standard_normal(dim))
    sam_full = [sam_feature(obj, theta, radius, dim) for radius in (0.01, 0.1, 1.0)]
    from grassket.operators import DenseOperator
    op = DenseOperator(H, hermitian=True)
    squared = H @ H
    diag_dev = max(abs(squared_hessian_diag(op, i) - squared[i, i])
                   for i in range(dim))
    ok = (subtrace_full == 1.0 and identity_ok
          and all(v == 1.0 for v in sam_full) and diag_dev <= 1e-10)
    _report(9, "proxy feature identities", ok,
            f"subtrace(D)={subtrace_full!r}, sam(D)={sam_full!r}, "
            f"squared-diag dev={diag_dev:.1e}")


def test_10_storage_bit_exactness(tmp_path):
    matrices, merges, writes = store_round_trips(tmp_path, seed=18)
    ok = all(written == chunked == merged for written, chunked, merged in matrices)
    idempotent = merges[0] == merges[1]
    concurrent_ok = writes[0] == writes[1]
    _report(10, "storage round trips are bit exact", ok and idempotent and concurrent_ok,
            f"50 matrices, idempotent={idempotent}, concurrent={concurrent_ok}")


def test_11_non_reproduction_notice():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    ok = "not reproduced" in readme.lower()
    _report(11, "trained-network results documented as out of scope", ok,
            "README carries the notice")
