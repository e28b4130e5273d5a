"""Flat-file export: plain-text meshes and human-readable reports.

A mesh file is one row per grid point (chart coordinates, ambient container
coordinates, per-point null residual) under '#' header lines that also carry
enough provenance to rebuild the producing entry. Reports are deterministic
for a fixed configuration except for the generated-at line.
"""

from __future__ import annotations

import datetime
import math
from typing import Optional

import numpy as np

from .core import GeometryError
from .verifier import MarginalityReport

__all__ = ["render_report", "write_mesh", "read_mesh", "IngestError"]

MESH_MAGIC = "marlift mesh v1"
REPORT_MAGIC = "marlift verification report v1"


class IngestError(GeometryError):
    pass


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float) and math.isnan(value):
        return "n/a"
    return f"{value:.12g}"


def _stat_line(name: str, stat: Optional[dict]) -> str:
    if stat is None:
        return f"{name}: n/a"
    return f"{name}: max={_fmt(stat['max'])} median={_fmt(stat['median'])}"


def render_report(report: MarginalityReport, config_echo: str = "",
                  entry: Optional[str] = None) -> str:
    """Structured text document for one verified lift."""
    timestamp = datetime.datetime.now().isoformat(timespec="seconds")
    lines = [
        REPORT_MAGIC,
        f"generated: {timestamp}",
        f"entry: {entry if entry is not None else report.name}",
        f"lift: {report.name}",
        f"ambient: {report.ambient}",
        f"convention: {report.convention}",
        f"config: {config_echo}",
        f"points: {report.total} excluded: {report.excluded_count} "
        f"spacelike_failures: {report.spacelike_failures} "
        f"cross_check_failures: {report.cross_check_failures}",
    ]
    lines += [_stat_line(key, stat) for key, stat in report.summary.items()]

    live, residual = report.live, report.null_residual
    if live.any():
        # the worst live point; ties go to the first
        i = np.flatnonzero(live)[np.argmax(residual[live])]
        min_eig, hvec_norm_sq = report.table[i, [0, 3]].tolist()
        coords = " ".join(_fmt(c) for c in report.x[i].tolist())
        lines.append(
            f"worst_point: x=({coords}) "
            f"null_residual={_fmt(float(residual[i]))} "
            f"min_eig_g={_fmt(min_eig)} "
            f"hvec_norm_sq={_fmt(hvec_norm_sq)}")
        lines.append(f"min_eig_g_min: {_fmt(float(np.min(report.table[live, 0])))}")
    else:
        lines.append("worst_point: n/a")
        lines.append("min_eig_g_min: n/a")
    lines.append(f"verdict: {report.verdict}")
    return "\n".join(lines) + "\n"


def write_mesh(path, metadata: dict, chart_points: np.ndarray,
               ambient_points: np.ndarray, residuals: np.ndarray) -> None:
    """One row per grid point; excluded points carry nan residuals."""
    chart_points = np.asarray(chart_points, dtype=float)
    ambient_points = np.asarray(ambient_points, dtype=float)
    residuals = np.asarray(residuals, dtype=float)
    n = chart_points.shape[1]
    m = ambient_points.shape[1]
    cols = [f"x{i}" for i in range(n)] + [f"X{i}" for i in range(m)] \
        + ["null_residual"]
    with open(path, "w") as fh:
        fh.write(f"# {MESH_MAGIC}\n")
        for key in sorted(metadata):
            fh.write(f"# {key}: {metadata[key]}\n")
        fh.write(f"# columns: {' '.join(cols)}\n")
        for xc, amb, res in zip(chart_points, ambient_points, residuals):
            row = list(xc) + list(amb) + [res]
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


def read_mesh(path):
    """Metadata dict plus (chart points, ambient points, residuals)."""
    metadata = {}
    rows = []
    columns = None
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# {MESH_MAGIC}":
            raise IngestError(f"{path} is not a mesh file (header {first!r})")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if ":" in body:
                    key, _, value = body.partition(":")
                    metadata[key.strip()] = value.strip()
                continue
            rows.append([float(tok) for tok in line.split()])
    if "columns" in metadata:
        columns = metadata["columns"].split()
    if not rows or columns is None:
        raise IngestError(f"{path} carries no data rows")
    data = np.array(rows)
    if data.shape[1] != len(columns):
        raise IngestError(f"{path}: row width {data.shape[1]} does not match "
                          f"columns header {len(columns)}")
    n = sum(1 for c in columns if c.startswith("x"))
    m = sum(1 for c in columns if c.startswith("X"))
    return metadata, data[:, :n], data[:, n:n + m], data[:, n + m]
