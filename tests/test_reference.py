"""The oracle in ``reference.py`` stays independent of the kernels it checks."""

import ast
import re
from pathlib import Path

# Batch kernels, plus the one-curve functions (one-row calls of the kernels)
# and the batch entry points.
KERNEL = re.compile(r".*_rows|_window_estimates|_chunk_corners|_corner_.*")
KERNEL_CALLERS = {"empirical_tdf", "least_concave_majorant", "tdc", "point_eval",
                 "max_tail_dependence", "average_tail_dependence", "lp_norm", "spearman_ev",
                 "extremal_dependence", "summary_stats", "run_pair", "run_pairs",
                 "rolling_estimate", "cross_section"}


def kernel_uses(source: str) -> list[str]:
    """Kernel names that a module imports or looks up as an attribute."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [alias.name.rpartition(".")[2] for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names.append(node.attr)
    return [n for n in names if KERNEL.fullmatch(n) or n in KERNEL_CALLERS]


def test_reference_uses_no_kernel():
    source = (Path(__file__).parent / "reference.py").read_text(encoding="utf-8")
    assert kernel_uses(source) == []


def test_kernel_uses_are_found():
    source = ("from taildep.tdf import least_concave_majorant_rows as hull\n"
              "from taildep.panel import series_stats_rows, aggregate_rows\n"
              "import taildep.measures as meas\n"
              "from taildep import estimator\n"
              "meas.measure_rows\nestimator._window_estimates\nestimator._corner_counts\n"
              "meas.tdc\nfrom taildep.estimator import _chunk_corners\n"
              "from taildep.tdf import least_concave_majorant\n")
    assert kernel_uses(source) == [
        "least_concave_majorant_rows", "series_stats_rows", "aggregate_rows",
        "_chunk_corners", "least_concave_majorant",
        "measure_rows", "_window_estimates", "_corner_counts", "tdc"]
