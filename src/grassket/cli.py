"""Batch command-line interface.

Subcommands: ``decompose`` (sketched eigendecomposition of a planted or
stored operator), ``baseline`` (random-subspace similarity grids),
``curve`` (exact vs sketched overlap on a planted operator), ``verify``
(the self-test in :mod:`grassket.selftest`) and ``store create/merge/verify``
(matrix store management).  Every run is deterministic given its resolved
configuration, which is written as ``config.json`` next to the outputs;
nothing is written outside the chosen output directory.

Exit codes: 0 success, 1 usage error, 2 numerical-contract failure, 3 I/O or
integrity; ``verify`` exits with the number of failed checks, and so does
``store verify`` on a store that opens.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np

from . import experiments, selftest, sketch, storage
from .errors import ContractViolation, IntegrityError
from .grassmann import MetricKind
from .masks import SparseMask
from .operators import DenseOperator, make_planted_operator
from .sketch import draw_measurements, seigh

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONTRACT = 2
EXIT_IO = 3

OUTPUT_DIR_ENV = "GRASSKET_OUTPUT_DIR"

logger = logging.getLogger(__name__)


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the CLI contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write_config(args):
    """Create the output directory and write config.json into it.

    Called only once a run's inputs are accepted, so a refused run leaves no
    directory behind.
    """
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    resolved = {k: v for k, v in vars(args).items() if k != "func"}
    (out / "config.json").write_text(
        json.dumps(resolved, indent=2, sort_keys=True, default=str) + "\n",
        encoding="utf-8",
    )
    return out


def _write_table(path, header, rows, comment=None):
    """Write a table as ASCII CSV, every line ending in LF: an optional
    ``# key=value ...`` line from the ``comment`` dict, the header, then the
    rows.  Floats are written with ``repr`` and NaN as an empty cell."""
    def cell(value):
        if isinstance(value, float):
            return "" if np.isnan(value) else repr(float(value))  # np.float64 too
        return str(value)

    lines = [] if comment is None else [
        "# " + " ".join(f"{key}={value}" for key, value in comment.items())]
    lines.append(",".join(header))
    lines.extend(",".join(map(cell, row)) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="ascii", newline="\n")


# flags that shape a planted operator; decompose --dense-store refuses them
_PLANTED_ONLY = ("planted_rank", "eigvals", "planted_alignment", "planted_seed",
                 "mask_indices")


def _operator_from_args(args):
    """(operator, target mask) of a decompose or curve run: the stored matrix
    of ``--dense-store`` with no mask, or a planted operator and its mask."""
    # resolved in place so config.json records the values the run used
    if args.n_inner is None:
        args.n_inner = sketch.default_inner_count(args.n_outer)
    if getattr(args, "dense_store", None) is not None:  # curve has no such flag
        given = ", ".join("--" + name.replace("_", "-") for name in _PLANTED_ONLY
                          if getattr(args, name) is not None)
        if given:
            raise ValueError(f"--dense-store does not take {given}")
        return DenseOperator.from_store(args.dense_store), None
    if args.planted_alignment is None:
        args.planted_alignment = 0.0
    if args.planted_seed is None:
        args.planted_seed = 0
    if args.eigvals is not None:
        eigvals = np.asarray(_float_list(args.eigvals))
    elif args.planted_rank is not None:
        eigvals = np.arange(args.planted_rank, 0, -1, dtype=np.float64)
    else:
        raise ValueError("either --planted-rank or --eigvals is required")
    mask = SparseMask(args.planted_dim, np.arange(len(eigvals)) if args.mask_indices is None
                      else _int_list(args.mask_indices))
    op = make_planted_operator(args.planted_dim, eigvals, mask,
                               args.planted_alignment, args.planted_seed)
    return op, mask


def cmd_decompose(args):
    op, _ = _operator_from_args(args)
    decomposition = seigh(op, draw_measurements(op.dim, args.n_inner, args.n_outer, args.seed))
    out = _write_config(args)
    sketch.save_sketched_eigh(
        decomposition, out / "decomposition",
        metadata={"n_inner": args.n_inner, "n_outer": args.n_outer, "seed": args.seed},
    )
    _write_table(out / "eigvals.csv", ["index", "eigval"],
                 enumerate(decomposition.eigvals),
                 comment={"seed": args.seed, "n_outer": args.n_outer, "n_inner": args.n_inner,
                          "numerical_rank": decomposition.rank})
    logger.info("decomposition written to %s", out)
    return EXIT_OK


def cmd_baseline(args):
    metrics = [MetricKind(m.strip()) for m in args.metrics.split(",") if m.strip()]
    modalities = [m.strip() for m in args.modalities.split(",") if m.strip()]
    result = experiments.run_baseline(
        _int_list(args.dims), _float_list(args.rhos), modalities, metrics,
        samples=args.samples, seed=args.seed,
    )
    out = _write_config(args)
    _write_table(out / "baseline.csv",
                 ["modality", "metric", "D", "k", "rho", "T",
                  "median", "p5", "p95", "mean", "std"],
                 map(astuple, result.rows), comment={"seed": result.seed})
    logger.info("baseline grid written to %s", out / "baseline.csv")
    return EXIT_OK


def cmd_curve(args):
    op, mask = _operator_from_args(args)
    if args.top_k is None:
        args.top_k = min(args.n_outer, op.unique_rank)
    # the curve reads only theta's magnitude ranking, which no seed changes
    theta = experiments.ranked_theta(op.dim, mask.indices, seed=1)
    curve = experiments.overlap_curve(op, theta, args.n_outer, args.n_inner,
                                      args.top_k, args.seed)
    out = _write_config(args)
    _write_table(out / "curve.csv", ["k", "exact", "sketched", "baseline", "ratio"],
                 [(p.k, p.exact, p.sketched, p.baseline, p.sketched / p.baseline)
                  for p in curve.points],
                 comment={"seed": curve.seed, "n_outer": curve.n_outer,
                          "n_inner": curve.n_inner, "operator": curve.operator,
                          "exact_source": curve.exact_source})
    logger.info("overlap curve written to %s", out / "curve.csv")
    return EXIT_OK


def cmd_verify(args):
    # run_checks refuses bad --samples or --seed at the call, before the
    # output directory, where the store checks run, is created
    checks = selftest.run_checks(args.samples, args.seed, Path(args.output_dir))
    out = _write_config(args)
    report = []
    failures = 0
    for name, passed, detail in checks:
        line = f"[{'PASS' if passed else 'FAIL'}] {name}" + (f": {detail}" if detail else "")
        print(line)
        report.append(line)
        failures += not passed
    (out / "verify_report.txt").write_text("\n".join(report) + "\n", encoding="ascii")
    print(f"{len(report) - failures}/{len(report)} checks passed")
    return min(failures, 255)


def cmd_store_create(args):
    if args.fill_seed is not None:
        # a seed numpy refuses is refused before anything at --path is
        # created or truncated
        np.random.default_rng(args.fill_seed)
    store = storage.create_layout(args.path, args.rows, args.cols,
                                  args.chunk_cols, overwrite=args.overwrite)
    if args.fill_seed is not None:
        storage.fill_gaussian(store, args.fill_seed)
    logger.info("store created at %s (%d chunks)", args.path, len(store.chunks))
    return EXIT_OK


def cmd_store_merge(args):
    store = storage.open_store(args.path)
    storage.merge(store, args.out, overwrite=args.overwrite)
    logger.info("merged %s into %s", args.path, args.out)
    return EXIT_OK


def cmd_store_verify(args):
    # a store that does not open is an I/O or integrity error (exit 3), not a
    # count of problems
    issues = storage.verify_store(storage.open_any(args.path))
    for issue in issues:
        print(f"[FAIL] {issue}")
    if not issues:
        print("[PASS] store verified")
    return min(len(issues), 255)


def build_parser():
    parser = _Parser(prog="grassket",
                     description="Sketched eigendecompositions, subspace metrics "
                                 "and mask/eigenspace overlap studies.")
    sub = parser.add_subparsers(dest="command", required=True)
    default_out = os.environ.get(OUTPUT_DIR_ENV, "grassket-out")

    def add_common(p):
        p.add_argument("--output-dir", default=default_out,
                       help=f"output directory (default: ${OUTPUT_DIR_ENV} or grassket-out)")
        p.add_argument("--seed", type=int, default=0, help="run seed")

    def add_planted(p, source):
        # only one flag of each exclusive pair can take effect, so giving
        # both is a usage error (exit 1) rather than a silently ignored value;
        # source is decompose's required group of sources, or curve's parser
        source.add_argument("--planted-dim", type=int, default=None, required=source is p,
                            help="ambient dimension of the planted operator")
        spectrum = p.add_mutually_exclusive_group()
        spectrum.add_argument("--planted-rank", type=int, default=None,
                              help="planted rank (eigenvalues default to rank..1)")
        spectrum.add_argument("--eigvals", default=None,
                              help="comma-separated planted eigenvalues "
                                   "(instead of --planted-rank)")
        # None until resolved, so an explicit value can be told from the default
        p.add_argument("--planted-alignment", type=float, default=None,
                       help="mask/eigenspace alignment in [0, 1] (default 0)")
        p.add_argument("--planted-seed", type=int, default=None,
                       help="seed of the planted basis (default 0)")
        p.add_argument("--mask-indices", default=None,
                       help="comma-separated target mask (default: 0..rank-1)")

    def add_sketch(p):
        p.add_argument("--n-outer", type=int, required=True,
                       help="number of outer measurements (recovered rank)")
        p.add_argument("--n-inner", type=int, default=None,
                       help="number of inner measurements (default 2*n_outer + 1)")

    p = sub.add_parser("decompose", help="sketched eigendecomposition")
    add_common(p)
    source = p.add_mutually_exclusive_group(required=True)
    add_planted(p, source)
    source.add_argument("--dense-store", default=None,
                        help="path of a stored dense symmetric matrix to decompose "
                             "(instead of --planted-dim)")
    add_sketch(p)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("baseline", help="random-subspace similarity grid")
    add_common(p)
    p.add_argument("--dims", default="2048", help="comma-separated dimensions")
    p.add_argument("--rhos", default="0.4,0.2,0.05",
                   help="comma-separated sparsity ratios")
    p.add_argument("--modalities", default="OO",
                   help="comma-separated pair modalities (OO, OM, MM)")
    p.add_argument("--metrics", default="overlap",
                   help="comma-separated metric kinds "
                        "(overlap, geodesic, chordal2, chordalF, proj2, projF, fubini_study)")
    p.add_argument("--samples", type=int, default=50, help="pairs per cell")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("curve", help="exact vs sketched overlap curve")
    add_common(p)
    add_planted(p, p)
    add_sketch(p)
    p.add_argument("--top-k", type=int, default=None,
                   help="largest mask size (default min(n_outer, planted rank); "
                        "the planted rank counts nonzero eigenvalues)")
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("verify", help="run built-in self tests")
    add_common(p)
    p.add_argument("--samples", type=int, default=200,
                   help="Monte Carlo samples for the chance-level checks")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("store", help="matrix store management")
    store_sub = p.add_subparsers(dest="store_command", required=True)

    c = store_sub.add_parser("create", help="allocate (and optionally fill) a store")
    c.add_argument("--path", required=True)
    c.add_argument("--rows", type=int, required=True)
    c.add_argument("--cols", type=int, required=True)
    c.add_argument("--chunk-cols", type=int, required=True)
    c.add_argument("--fill-seed", type=int, default=None,
                   help="fill with reproducible Gaussian data from this seed")
    c.add_argument("--overwrite", action="store_true")
    c.set_defaults(func=cmd_store_create)

    c = store_sub.add_parser("merge", help="merge a store into one file")
    c.add_argument("--path", required=True)
    c.add_argument("--out", required=True)
    c.add_argument("--overwrite", action="store_true")
    c.set_defaults(func=cmd_store_merge)

    c = store_sub.add_parser("verify", help="check store integrity")
    c.add_argument("--path", required=True)
    c.set_defaults(func=cmd_store_verify)

    return parser


def main(argv=None):
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ContractViolation as exc:
        print(f"ERROR type=contract message={exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, TypeError, KeyError) as exc:
        print(f"ERROR type=usage message={exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, IntegrityError) as exc:
        print(f"ERROR type=io message={exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
