"""The self-test behind ``grassket verify`` and acceptance criteria 1, 7 and 10.

It checks the facts the overlap analysis rests on: random subspaces overlap
at the chance level k/D, overlap is a bijection of IoU, bit flips and
projection distance, and the matrix store round-trips bit for bit.  Each
check function takes its seed and returns what it measured; ``run_checks``
judges the measurements for the CLI, while the acceptance suite applies its
own bounds to the same measurements.
"""

import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .experiments import verify_lemma
from .grassmann import MetricKind, metric, overlap, principal_angles, sample_stiefel
from .masks import hamming, iou, mask_basis, sample_mask
from .storage import create_layout, merge, read_matrix, write_columns


def bijection_deviations(seed):
    """Worst deviations (mask, basis) of overlap from its closed forms.

    Mask: against IoU and bit flips on 1000 mask pairs (D = 64 or 1024,
    k < 17).  Basis: against projection distance on 1000 Haar pairs (D = 48,
    k < 9).  All pairs come from one generator seeded with ``seed``.
    """
    rng = np.random.default_rng(seed)
    worst_mask = 0.0
    for trial in range(1000):
        dim = 64 if trial % 2 == 0 else 1024
        k = int(rng.integers(1, 17))
        m1 = sample_mask(dim, k, int(rng.integers(2**63)))
        m2 = sample_mask(dim, k, int(rng.integers(2**63)))
        ov = overlap(mask_basis(m1), mask_basis(m2))
        j = iou(m1, m2)
        worst_mask = max(worst_mask,
                         abs(ov - 2 * j / (1 + j)),
                         abs(ov - (1 - hamming(m1, m2) / (2 * k))))
    worst_basis = 0.0
    for trial in range(1000):
        k = int(rng.integers(1, 9))
        b1 = sample_stiefel(48, k, int(rng.integers(2**63)))
        b2 = sample_stiefel(48, k, int(rng.integers(2**63)))
        proj = metric(MetricKind.PROJECTION_F, principal_angles(b1, b2))
        worst_basis = max(worst_basis, abs(overlap(b1, b2) - (1 - proj**2 / k)))
    return worst_mask, worst_basis


def store_round_trips(workdir, seed):
    """Write, merge and read back stores under the empty directory ``workdir``.

    Returns bytes that are equal when the store is exact: (written, read
    chunked, read merged) for each of 50 random matrices spanning 600
    decades, each with a subnormal and a -0.0, in random chunk widths; the
    two files of one store merged twice; and one matrix written by six
    threads in disjoint column ranges next to the same matrix written at once.
    """
    workdir = Path(workdir)
    rng = np.random.default_rng(seed)
    matrices = []
    for trial in range(50):
        rows = int(rng.integers(3, 40))
        cols = int(rng.integers(1, 30))
        data = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300)
        data.flat[rng.integers(0, data.size)] = 5e-324
        data.flat[rng.integers(0, data.size)] = -0.0
        store = create_layout(workdir / f"t{trial}.store", rows, cols,
                              chunk_cols=int(rng.integers(1, cols + 1)))
        write_columns(store, 0, data)
        merged = merge(store, workdir / f"t{trial}.mx")
        matrices.append((data.astype("<f8").tobytes(), read_matrix(store).tobytes(),
                         read_matrix(merged).tobytes()))

    probe = create_layout(workdir / "idem.store", 24, 9, chunk_cols=4)
    write_columns(probe, 0, rng.standard_normal((24, 9)))
    merges = [merge(probe, workdir / name).path.read_bytes()
              for name in ("idem-a.mx", "idem-b.mx")]

    data = rng.standard_normal((48, 48))
    parallel = create_layout(workdir / "par.store", 48, 48, chunk_cols=6)
    with ThreadPoolExecutor(max_workers=6) as pool:
        for job in [pool.submit(write_columns, parallel, s, data[:, s:s + 4])
                    for s in range(0, 48, 4)]:
            job.result()
    sequential = create_layout(workdir / "serial.store", 48, 48, chunk_cols=6)
    write_columns(sequential, 0, data)
    writes = [read_matrix(parallel).tobytes(), read_matrix(sequential).tobytes()]
    return matrices, merges, writes


def run_checks(samples, seed, workdir):
    """Yield (name, passed, detail) per check, in report order.

    The store round trips run in a temporary directory inside ``workdir``
    that is removed before their checks are yielded.
    """
    for dim, k in ((128, 6), (512, 26), (2048, 102)):
        lemma = verify_lemma(dim, k, samples, seed)
        yield (f"chance-level overlap D={dim} k={k}", lemma.passed,
               f"mean={lemma.mean!r} expected={k / dim:.6f} stderr={lemma.stderr:.2e} "
               f"z={lemma.z:+.2f}")

    worst_mask, worst_basis = bijection_deviations(seed)
    yield ("mask metric bijections", worst_mask <= 1e-12,
           f"1000 pairs, max deviation {worst_mask:.2e}")
    yield ("overlap/projection bijection", worst_basis <= 1e-10,
           f"1000 pairs, max deviation {worst_basis:.2e}")

    with tempfile.TemporaryDirectory(dir=workdir) as scratch:
        matrices, merges, writes = store_round_trips(scratch, seed)
    yield ("store chunked round trip", all(w == c for w, c, _ in matrices),
           f"{len(matrices)} matrices")
    yield ("store merged round trip", all(w == m for w, _, m in matrices),
           f"{len(matrices)} matrices")
    yield "store merge idempotence", merges[0] == merges[1], ""
    yield "store concurrent disjoint writes", writes[0] == writes[1], ""
