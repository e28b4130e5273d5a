"""Command line interface: construct | verify | catalog.

Exit statuses: 0 pass, 1 verification failure, 2 inconclusive verdict,
3 usage or configuration error, 4 numeric or pipeline error. Unknown flags
are errors. All configuration happens through flags; no environment
variables are consulted.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, NamedTuple, Optional

import numpy as np

from .catalog import CATALOG, ParameterError, UnknownEntryError, catalog_lookup
from .constructor import (
    AmbientKind,
    PatternChangeError,
    lift_palmer,
    product_lifts,
    space_form_lifts,
    thread_root_fields,
    SPACE_FORM_FAMILY,
)
from .core import DEFAULTS, GeometryError
from .reporting import IngestError, read_mesh, render_report, write_mesh
from .verifier import assemble_report

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_PIPELINE = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


class RunConfig(NamedTuple):
    entry: str = ""
    params: Mapping = MappingProxyType({})  # read-only, so configs can share it
    ambient: Optional[AmbientKind] = None
    grid: Optional[tuple] = None
    step: Optional[float] = None
    tol_marginal: Optional[float] = None
    out_dir: Path = Path(".")
    root_index: Optional[int] = None
    mesh: Optional[Path] = None

    def validate(self):
        if self.grid is not None and any(g < 3 for g in self.grid):
            raise UsageError("grid resolutions must be at least 3")
        if self.step is not None and not 0.0 < self.step < np.inf:
            raise UsageError("step must be positive and finite")
        if self.tol_marginal is not None and not 0.0 < self.tol_marginal < np.inf:
            raise UsageError("tolerances must be positive and finite")

    def check_grid(self, chart):
        """The grid, if given, has one resolution per chart axis; a config
        with a mesh has its grid from the mesh header, not from --grid."""
        if self.grid is not None and len(self.grid) != chart.dim:
            source = "--grid" if self.mesh is None else "grid"
            raise UsageError(f"{source} has {len(self.grid)} axes, entry {self.entry!r} "
                             f"has a {chart.dim}-dimensional chart")


def _parse_params(text: Optional[str]) -> dict:
    out = {}
    if not text:
        return out
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise UsageError(f"--params items must look like key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            out[key.strip()] = float(value)
        except ValueError:
            out[key.strip()] = value.strip()
    return out


def _parse_grid(text: Optional[str]) -> Optional[tuple]:
    if text is None:
        return None
    parts = text.lower().split("x")
    try:
        vals = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"grid expects NxM, got {text!r}")
    if len(vals) == 1:
        vals = (vals[0], vals[0])
    return vals


def _parse_ambient(text: Optional[str]) -> Optional[AmbientKind]:
    if text is None:
        return None
    try:
        return AmbientKind(text)
    except ValueError:
        names = ", ".join(k.value for k in AmbientKind)
        raise UsageError(f"unknown ambient {text!r}; choose from {names}")


def _config_echo(cfg: RunConfig, root_index=None) -> str:
    grid = "default" if cfg.grid is None else "x".join(str(g) for g in cfg.grid)
    parts = [
        f"grid={grid}",
        f"step={cfg.step if cfg.step is not None else DEFAULTS.step_h:g}",
        f"tol_marginal={cfg.tol_marginal if cfg.tol_marginal is not None else DEFAULTS.tol_marginal:g}",
    ]
    if cfg.ambient is not None:
        parts.append(f"ambient={cfg.ambient.value}")
    if root_index is not None:
        parts.append(f"root_index={root_index}")
    if cfg.params:
        items = ",".join(f"{k}={v}" for k, v in sorted(cfg.params.items()))
        parts.append(f"params={items}")
    return " ".join(parts)


def _report_exit(report, expected: Optional[str]) -> int:
    if report.verdict == "inconclusive":
        return EXIT_INCONCLUSIVE
    if expected is not None:
        return EXIT_PASS if report.verdict == expected else EXIT_FAIL
    return EXIT_PASS if report.verdict == "marginally_trapped" else EXIT_FAIL


def _stem(entry_name: str, lift, root_index) -> str:
    """Output file stem of a lift built from a catalog entry."""
    suffix = "" if root_index is None else f"-root{root_index}"
    return f"{entry_name}-{lift.ambient.kind.value}{suffix}"


def _write_report_file(cfg: RunConfig, report, root_index, entry_name, stem):
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    report_path = cfg.out_dir / f"{stem}.report.txt"
    echo = _config_echo(cfg, root_index)
    report_path.write_text(render_report(report, echo, entry=entry_name))
    return report_path


def _write_outputs(cfg: RunConfig, lift, report, root_index, entry_name):
    stem = _stem(entry_name, lift, root_index)
    report_path = _write_report_file(cfg, report, root_index, entry_name, stem)
    mesh_path = cfg.out_dir / f"{stem}.mesh.txt"
    metadata = {
        "entry": entry_name,
        "ambient": lift.ambient.kind.value,
        "params": ",".join(f"{k}={v}" for k, v in sorted(cfg.params.items())),
        "root_index": "" if root_index is None else str(root_index),
        "grid": "x".join(str(g) for g in cfg.grid or lift.chart.resolution),
        "step": f"{cfg.step if cfg.step is not None else DEFAULTS.step_h:g}",
        "verdict": report.verdict,
    }
    write_mesh(mesh_path, metadata, report.x, report.values, report.null_residual)
    return report_path, mesh_path


def _lifts_for(cfg: RunConfig, entry, built, verify: bool = False):
    """The (root index, lift) pairs of a catalog entry: a lifted entry as it
    is (for `verify` only), the support route of a support entry, and the
    root lifts of a hypersurface entry (for `construct`, or `verify` of a
    mesh), all of them or the one `cfg.root_index` names."""
    if entry.kind == "lift":
        if not verify:
            raise UsageError(
                f"entry {entry.name!r} is already a lift; use 'verify' instead")
        return [(None, built)]
    if entry.kind == "support":
        if cfg.ambient not in (None, AmbientKind.MINKOWSKI):
            raise UsageError("support entries lift into the flat Lorentzian space")
        return [(None, lift_palmer(built))]
    if verify and cfg.mesh is None:
        raise UsageError(
            f"entry {entry.name!r} is a hypersurface; 'verify' checks lifted "
            "entries (use 'construct' to build and check its lifts)")
    if cfg.ambient is None:
        raise UsageError("construct needs --ambient for hypersurface entries")
    # jump guard: the lifts' own per-point guard checks the multiplicity
    # pattern and root count, not jumps between neighbouring root values.
    # Its solve is the lifts' reference too.
    threads = thread_root_fields(
        built, cfg.ambient, resolution=tuple(min(9, r) for r in built.chart.resolution))
    if cfg.ambient in SPACE_FORM_FAMILY:
        lifts = space_form_lifts(built, cfg.ambient, threads)
    else:
        lifts = product_lifts(built, cfg.ambient, threads)
    if cfg.root_index is not None:
        if not 0 <= cfg.root_index < len(lifts):
            raise UsageError(
                f"--root-index {cfg.root_index} out of range, {len(lifts)} root(s)")
        return [(cfg.root_index, lifts[cfg.root_index])]
    return list(enumerate(lifts))


def cmd_construct(cfg: RunConfig) -> int:
    entry, built = catalog_lookup(cfg.entry, cfg.params)
    cfg.check_grid(built.chart)
    indexed = _lifts_for(cfg, entry, built)
    if not indexed:
        print(f"warning: entry {cfg.entry!r} admits no lifts in "
              f"{cfg.ambient.value} (umbilic or minimal spectrum)", file=sys.stderr)
        return EXIT_PASS
    status = EXIT_PASS
    for idx, lift in indexed:
        report = assemble_report(lift, resolution=cfg.grid, h=cfg.step,
                                 tol_marginal=cfg.tol_marginal)
        rpath, mpath = _write_outputs(cfg, lift, report, idx, cfg.entry)
        print(f"root {idx if idx is not None else 0}: verdict={report.verdict} "
              f"report={rpath} mesh={mpath}")
        status = max(status, _report_exit(report, None))
    return status


def _disagrees(rebuilt: np.ndarray, stored: np.ndarray):
    """The rows of stored columns (P, m) that are not NaN where the rebuilt
    ones are, or not within 1e-8 (1 + max |rebuilt row|) of them, and each
    row's largest gap."""
    nan = np.isnan(rebuilt)
    gap = np.max(np.where(nan & np.isnan(stored), 0.0, np.abs(rebuilt - stored)), axis=1)
    scale = 1.0 + np.max(np.abs(rebuilt), axis=1, initial=0.0, where=~nan)
    return ~(gap <= 1e-8 * scale), gap


def _check_rows(mesh_path, report, chart_pts, ambient_pts, residuals):
    """Ingest check of every stored row against the rebuilt lift's report:
    the chart points are its grid bit for bit (rows are written with 17
    digits), then the stored values and then the stored null residuals
    agree with the rebuilt rows' by `_disagrees`. The first row that does
    not raises IngestError."""
    if (chart_pts.shape != report.x.shape or ambient_pts.shape != report.values.shape
            or not np.array_equal(chart_pts, report.x)):
        raise IngestError(f"{mesh_path}: rows do not sample the grid its header names")
    bad, gap = _disagrees(report.values, ambient_pts)
    if bad.any():
        j = int(np.argmax(bad))
        at = f"mesh row at chart {tuple(chart_pts[j])}"
        if np.isnan(report.values[j]).any():
            raise IngestError(f"{at} did not rebuild: {report.reasons[j]}")
        raise IngestError(f"{at} disagrees with the rebuilt entry by {gap[j]:.3e}")
    rebuilt = report.null_residual
    bad, _ = _disagrees(rebuilt[:, None], residuals[:, None])
    if bad.any():
        j = int(np.argmax(bad))
        got = (f"excluded it: {report.reasons[j]}" if report.reasons[j]
               else f"has {rebuilt[j]:.3e}")
        raise IngestError(f"mesh row at chart {tuple(chart_pts[j])} stores null residual "
                          f"{residuals[j]:.3e}, the rebuilt entry {got}")


def _verify_mesh(cfg: RunConfig) -> int:
    mesh_path = cfg.mesh
    metadata, chart_pts, ambient_pts, residuals = read_mesh(mesh_path)
    name = metadata.get("entry", "")
    params = _parse_params(metadata.get("params", ""))
    entry, built = catalog_lookup(name, params)
    try:
        step = float(metadata["step"]) if metadata.get("step") else None
        root_index = int(metadata["root_index"]) if metadata.get("root_index") else None
        cfg = RunConfig(entry=name, params=params,
                        ambient=_parse_ambient(metadata.get("ambient") or None),
                        grid=_parse_grid(metadata.get("grid") or None), step=step,
                        tol_marginal=cfg.tol_marginal, out_dir=cfg.out_dir,
                        root_index=root_index, mesh=mesh_path)
        cfg.validate()
        cfg.check_grid(built.chart)
    except (ValueError, UsageError) as exc:
        raise IngestError(f"{mesh_path}: bad header value: {exc}") from None
    indexed = _lifts_for(cfg, entry, built, verify=True)
    if not indexed:
        raise IngestError("mesh names root 0 but the entry has none")
    lift = indexed[0][1]
    report = assemble_report(lift, resolution=cfg.grid, h=cfg.step,
                             tol_marginal=cfg.tol_marginal)
    _check_rows(mesh_path, report, chart_pts, ambient_pts, residuals)
    _write_report_file(cfg, report, cfg.root_index, name, f"{mesh_path.stem}.verify")
    print(f"verdict={report.verdict} (round-trip of {mesh_path})")
    return _report_exit(report, metadata.get("verdict") or entry.expected_verdict)


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.mesh is not None:
        return _verify_mesh(cfg)
    entry, built = catalog_lookup(cfg.entry, cfg.params)
    cfg.check_grid(built.chart)
    ((_, lift),) = _lifts_for(cfg, entry, built, verify=True)
    report = assemble_report(lift, resolution=cfg.grid, h=cfg.step,
                             tol_marginal=cfg.tol_marginal)
    rpath = _write_report_file(cfg, report, cfg.root_index, cfg.entry,
                               _stem(cfg.entry, lift, cfg.root_index))
    print(f"entry={cfg.entry} verdict={report.verdict} "
          f"expected={entry.expected_verdict or 'n/a'} report={rpath}")
    return _report_exit(report, entry.expected_verdict)


def cmd_catalog() -> int:
    width = max(len(n) for n in CATALOG) + 2
    for name, entry in CATALOG.items():
        params = entry.params_doc or "none"
        expected = entry.expected_verdict or "-"
        print(f"{name:<{width}} {entry.kind:<13} expected={expected}")
        print(f"{'':<{width}} params: {params}")
        print(f"{'':<{width}} {entry.citation}")
    return EXIT_PASS


def build_parser() -> _Parser:
    parser = _Parser(prog="marlift",
                     description="construct and verify marginally trapped lifts")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--entry", default="")
        p.add_argument("--params", default=None,
                       help="comma-separated key=value entry parameters")
        p.add_argument("--ambient", default=None,
                       help="minkowski | desitter | antidesitter | "
                            "sphere-product | hyperbolic-product")
        p.add_argument("--grid", default=None, help="sampling resolution NxM")
        p.add_argument("--step", type=float, default=None,
                       help="finite difference step")
        p.add_argument("--tol-marginal", type=float, default=None)
        p.add_argument("--out-dir", default=".")
        p.add_argument("--root-index", type=int, default=None)

    add_common(sub.add_parser("construct", help="build lifts and verify them"))
    pv = sub.add_parser("verify", help="verify a lifted entry or a mesh file")
    add_common(pv)
    pv.add_argument("--mesh", default=None, help="re-verify a constructed mesh")
    sub.add_parser("catalog", help="list the example catalog")
    return parser


def _config_from(args) -> RunConfig:
    cfg = RunConfig(
        entry=args.entry,
        params=_parse_params(args.params),
        ambient=_parse_ambient(args.ambient),
        grid=_parse_grid(args.grid),
        step=args.step,
        tol_marginal=args.tol_marginal,
        out_dir=Path(args.out_dir),
        root_index=args.root_index,
        mesh=Path(args.mesh) if getattr(args, "mesh", None) else None,
    )
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "catalog":
            return cmd_catalog()
        cfg = _config_from(args)
        if args.command == "construct":
            if not cfg.entry:
                raise UsageError("construct needs --entry")
            return cmd_construct(cfg)
        if not cfg.entry and cfg.mesh is None:
            raise UsageError("verify needs --entry or --mesh")
        return cmd_verify(cfg)
    except (UsageError, UnknownEntryError, ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IngestError as exc:
        print(f"ingest error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except PatternChangeError as exc:
        print(f"pipeline error (root threading): {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except GeometryError as exc:
        print(f"pipeline error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE


if __name__ == "__main__":
    sys.exit(main())
