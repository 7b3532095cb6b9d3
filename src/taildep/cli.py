"""Command-line interface.

Subcommands: ingest, stats, estimate, measures, compare, envelope, simulate,
report.  Outputs are deterministic for a fixed command line, so reruns into a
fresh directory are byte-identical.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import re
import sys
from pathlib import Path

import numpy as np

from . import __version__
from . import measures as meas
from .envelope import linf_range_given_tdc, measure_range
from .errors import ConfigError, DataError, TailDepError
from .estimator import EstimatorConfig, rolling_estimate
from .order import compare
from .panel import LONG, WIDE, ReturnPanel, load_prices, log_returns, summary_stats
from .pipeline import DEFAULT_MEASURES, PipelineConfig, cross_section, run_pairs, write_run
from .pipeline import run_pair  # noqa: F401  (perfbench/tracing.py wraps it here)
from .simulate import CopulaSpec, sample
from .tdf import TailDependenceFunction, TDFKind


def _write_json(data, path: str | None) -> None:
    _write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", path)


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        Path(path).write_text(text, encoding="utf-8")


def _add_estimator_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--window", type=int, default=500, help="rolling window length")
    p.add_argument("--step", type=int, default=1, help="window start spacing")
    p.add_argument("--k", type=int, default=None, help="tail sample size (default floor(sqrt(window)))")
    p.add_argument("--grid", type=int, default=200, help="simplex grid size (even)")
    p.add_argument("--tail", choices=["lower", "upper"], default="lower")


def _add_normalization_flag(p: argparse.ArgumentParser, default: str) -> None:
    p.add_argument("--normalization", choices=["raw", "doubled"], default=default)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="taildep", description=__doc__)
    parser.add_argument("--version", action="version", version=f"taildep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="prices CSV -> log-returns CSV")
    p.add_argument("--prices", required=True)
    p.add_argument("--format", choices=[WIDE, LONG], default=WIDE)
    p.add_argument("--out", default="returns.csv")

    p = sub.add_parser("stats", help="summary statistics of a returns CSV")
    p.add_argument("--returns", required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("estimate", help="rolling tail dependence functions for one pair")
    p.add_argument("--returns", required=True)
    p.add_argument("--pair", required=True, help="comma-separated tickers, e.g. SPX,AAPL")
    _add_estimator_flags(p)
    p.add_argument("--out", default=None)

    p = sub.add_parser("measures", help="measure a serialized tail dependence function")
    p.add_argument("--tdf", required=True)
    p.add_argument("--measures", default=",".join(DEFAULT_MEASURES))
    _add_normalization_flag(p, "doubled")
    p.add_argument("--out", default=None)

    p = sub.add_parser("compare", help="pointwise order of two serialized functions")
    p.add_argument("--first", required=True)
    p.add_argument("--second", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out", default=None)

    p = sub.add_parser("envelope", help="feasible measure range given the coefficient")
    p.add_argument("--tdc", type=float, required=True)
    p.add_argument("--measure", default="linf",
                   help="linf (closed form), l1, or point:<s0> (both solved on the grid)")
    p.add_argument("--grid", type=int, default=200)
    _add_normalization_flag(p, "raw")
    p.add_argument("--out", default=None)

    p = sub.add_parser("simulate", help="draw pairs from a copula with known tail behavior")
    p.add_argument("--family", required=True,
                   choices=["clayton", "gumbel_survival", "gaussian", "comonotone", "independence"])
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("report", help="full pipeline: prices -> per-pair and cross-section files")
    p.add_argument("--prices", required=True)
    p.add_argument("--format", choices=[WIDE, LONG], default=WIDE)
    p.add_argument("--base", required=True, help="base ticker paired against all others")
    p.add_argument("--tickers", default=None,
                   help="comma-separated subset of the other tickers (default: all others); "
                        "a repeated ticker, the base, or a value naming no ticker is an error")
    _add_estimator_flags(p)
    _add_normalization_flag(p, "doubled")
    p.add_argument("--no-project", action="store_true", help="skip the concave projection")
    p.add_argument("--out-dir", required=True, help="run directory, new or empty")
    return parser


def _load_tdf(path: str) -> TailDependenceFunction:
    try:
        return TailDependenceFunction.from_json(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read curve file {path}: {exc.strerror}") from None
    except KeyError as exc:
        raise DataError(f"curve file {path}: missing key {exc}") from None
    except (TypeError, ValueError) as exc:
        raise DataError(f"curve file {path}: {exc}") from None


def _write_returns_csv(panel: ReturnPanel, path: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("date," + ",".join(panel.tickers) + "\n")
        # tolist() one row at a time: the whole panel's would double the memory.
        # Returns are finite or NaN, and no finite or infinite float's repr
        # holds "nan", so the replace blanks exactly the NaN cells.
        for d, row in zip(panel.dates, panel.values):
            fh.write(f"{d},{','.join(map(repr, row.tolist())).replace('nan', '')}\n")


def _cmd_ingest(args) -> None:
    panel = load_prices(args.prices, args.format)
    returns = log_returns(panel)
    _write_returns_csv(returns, args.out)
    print(f"wrote {args.out}: {len(returns.dates)} dates x {len(returns.tickers)} tickers")


def _cmd_stats(args) -> None:
    panel = load_prices(args.returns, WIDE)
    _write_json(summary_stats(panel), args.out)


def _cmd_estimate(args) -> None:
    panel = load_prices(args.returns, WIDE)
    first, _, second = args.pair.partition(",")
    if not second:
        raise TailDepError("--pair needs two comma-separated tickers")
    cfg = EstimatorConfig(k=args.k, grid_size=args.grid, tail=args.tail)
    rolling = rolling_estimate(panel.column(first), panel.column(second), args.window, args.step, cfg)
    # Each window's "tdf" is what TailDependenceFunction.to_json gives for its
    # row.  ``indent`` forces Python's slow encoder, so each run's text is
    # encoded once, shifted six spaces to the depth of a window's keys, and
    # spliced in wherever the payload holds its run index.
    runs = [json.dumps({"kind": TDFKind.EMPIRICAL.value, "m": args.grid, "values": row},
                       indent=2, sort_keys=True).replace("\n", "\n      ")
            for row in rolling.rows.tolist()]
    payload = {
        "pair": [first, second],
        "windows": [
            {"start": start, "end_date": panel.dates[start + args.window - 1], "tdf": run}
            for start, run in zip(rolling.starts.tolist(), rolling.index.tolist())
        ],
        "skipped": list(rolling.skipped),
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _write_text(re.sub(r'"tdf": (\d+)', lambda hit: '"tdf": ' + runs[int(hit[1])], text), args.out)


def _cmd_measures(args) -> None:
    tdf = _load_tdf(args.tdf)
    names = [n.strip() for n in args.measures.split(",") if n.strip()]
    values = meas.measure_rows(tdf.values[None, :], names, args.normalization)[0]
    payload = [{"name": name, "value": value} for name, value in zip(names, values.tolist())]
    _write_json(payload, args.out)


def _cmd_compare(args) -> None:
    result = compare(_load_tdf(args.first), _load_tdf(args.second), tol=args.tol)
    _write_json(result.to_dict(), args.out)


def _cmd_envelope(args) -> None:
    if not 0.0 <= args.tdc <= 1.0:
        raise TailDepError("--tdc must lie in [0, 1]")
    if args.measure == "linf":
        # exact band, no grid involved
        lo, hi = linf_range_given_tdc(args.tdc, normalization=args.normalization)
        _write_json({"measure": "linf", "tdc": args.tdc + 0.0,  # -0.0 reads as 0.0
                     "normalization": args.normalization,
                     "min": lo, "max": hi, "exact": True}, args.out)
        return
    pins = [(0.5, args.tdc / 2.0)]
    if args.measure.partition(":")[0] not in ("l1", "point"):
        raise TailDepError("--measure must be linf, l1, or point:<s0>")
    if args.grid < 2 or args.grid % 2:
        raise TailDepError("--grid must be an even integer >= 2: the coefficient pins s = 1/2")
    key, s0 = meas.parse_measure(args.measure)
    result = measure_range(pins, meas.MEASURES[key].name, grid_size=args.grid, s0=s0,
                           normalization=args.normalization)
    _write_json(result.to_dict(), args.out)


def _cmd_simulate(args) -> None:
    spec = CopulaSpec(args.family, n=args.n, seed=args.seed, theta=args.theta, rho=args.rho)
    pairs = sample(spec)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write("u,v\n")
        fh.writelines(f"{u!r},{v!r}\n" for u, v in pairs.tolist())
    print(f"wrote {args.out}: {args.n} pairs from {args.family}")


def _cmd_report(args) -> None:
    # A run directory holds one run: an earlier run's files would stay behind.
    if Path(args.out_dir).is_dir() and any(Path(args.out_dir).iterdir()):
        raise ConfigError(f"--out-dir {args.out_dir} is not empty; give a new or empty directory")
    panel = load_prices(args.prices, args.format)
    returns = log_returns(panel)
    if args.base not in returns.tickers:
        raise TailDepError(f"base ticker {args.base!r} not in panel")
    if args.tickers is not None:
        others = [t.strip() for t in args.tickers.split(",") if t.strip()]
        if not others:
            raise ConfigError(f"--tickers {args.tickers!r} names no ticker")
        unknown = [t for t in others if t not in returns.tickers]
        if unknown:
            raise TailDepError(f"unknown tickers: {unknown}")
    else:
        others = [t for t in returns.tickers if t != args.base]
    config = PipelineConfig(
        window=args.window,
        step=args.step,
        k=args.k,
        grid_size=args.grid,
        tail=args.tail,
        project=not args.no_project,
        normalization=args.normalization,
    )
    reports = run_pairs(returns, args.base, others, config)
    cross = cross_section(reports) if reports else None
    manifest = {
        "command": "report",
        "package_version": __version__,
        "prices": str(args.prices),
        "format": args.format,
        "base": args.base,
        "pairs": [[args.base, other] for other in others],
        "config": dataclasses.asdict(config),
        "windows_per_pair": {rep.other: len(rep.starts) for rep in reports},
        "skipped_windows": {rep.other: list(rep.skipped) for rep in reports},
    }
    # stats.json covers only the series the report uses, in panel order.
    used = [t for t in returns.tickers if t == args.base or t in others]
    if len(used) < len(returns.tickers):
        returns = ReturnPanel(returns.dates, tuple(used),
                              np.column_stack([returns.column(t) for t in used]))
    write_run(args.out_dir, returns.dates, reports, cross, manifest, stats=summary_stats(returns))
    print(f"wrote run directory {args.out_dir}: {len(reports)} pairs")


_COMMANDS = {
    "ingest": _cmd_ingest,
    "stats": _cmd_stats,
    "estimate": _cmd_estimate,
    "measures": _cmd_measures,
    "compare": _cmd_compare,
    "envelope": _cmd_envelope,
    "simulate": _cmd_simulate,
    "report": _cmd_report,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _COMMANDS[args.command](args)
    except TailDepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:  # an output path that cannot be written
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}",
              file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size and shape it refused
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
