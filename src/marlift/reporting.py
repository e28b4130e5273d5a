"""Flat-file export: plain-text meshes and human-readable reports.

A mesh file is one row per grid point (chart coordinates, ambient container
coordinates, per-point null residual) under '#' header lines that also carry
enough provenance to rebuild the producing entry. Reports are deterministic
for a fixed configuration except for the generated-at line.
"""

from __future__ import annotations

import datetime
import itertools
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


def _fmt(value: float) -> str:
    return "n/a" if math.isnan(value) else f"{value:.12g}"


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
    n, m = np.shape(chart_points)[1], np.shape(ambient_points)[1]
    cols = [f"x{i}" for i in range(n)] + [f"X{i}" for i in range(m)] + ["null_residual"]
    header = [MESH_MAGIC, *(f"{key}: {metadata[key]}" for key in sorted(metadata)),
              f"columns: {' '.join(cols)}"]
    data = np.column_stack([chart_points, ambient_points, residuals])
    row = " ".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write("# " + "\n".join(header).replace("\n", "\n# ") + "\n")
        fh.write((row * len(data)) % tuple(data.ravel().tolist()))


def read_mesh(path):
    """Metadata dict plus (chart points, ambient points, residuals)."""
    metadata = {}
    with open(path) as fh:
        first = fh.readline().strip()
        if first != f"# {MESH_MAGIC}":
            raise IngestError(f"{path} is not a mesh file (header {first!r})")
        for line in fh:
            body = line.strip()
            if body and not body.startswith("#"):
                break
            key, colon, value = body[1:].partition(":")
            if colon:
                metadata[key.strip()] = value.strip()
        else:
            line = ""
        if not line or "columns" not in metadata:
            raise IngestError(f"{path} carries no data rows")
        try:
            data = np.loadtxt(itertools.chain([line], fh), ndmin=2)
        except ValueError as exc:
            raise IngestError(f"{path}: {exc}") from exc
    columns = metadata["columns"].split()
    if data.shape[1] != len(columns):
        raise IngestError(f"{path}: row width {data.shape[1]} does not match "
                          f"columns header {len(columns)}")
    n, m = (sum(c.startswith(prefix) for c in columns) for prefix in "xX")
    return metadata, data[:, :n], data[:, n:n + m], data[:, n + m]
