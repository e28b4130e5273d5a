"""Per-layer spans for the traced run, recorded from the benchmark's side.

The tracer replaces the names one marlift module uses to call another (for
example `verifier.jet2_of`, the core jet as the verifier sees it) with
wrappers that count calls and time them. A span's self time is its duration
minus the time of the spans it caused. Spans are kept in memory as running
totals per layer metric; the program's files are not touched.

Only calls made while `recording()` is active count, so the benchmark's own
correctness checks stay out of the figures.
"""

from __future__ import annotations

import contextlib
import os
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)   # outermost spans of each kind only
        self.counts = Counter()
        self._stack = []
        self._depth = Counter()
        self._on = False

    @contextlib.contextmanager
    def recording(self):
        self._on = True
        try:
            yield
        finally:
            self._on = False

    def wrap(self, kind, fn):
        def traced(*args, **kwargs):
            if not self._on:
                return fn(*args, **kwargs)
            self._stack.append(0.0)
            self._depth[kind] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._depth[kind] -= 1
                self.calls[kind] += 1
                self.self_s[kind] += dt - self._stack.pop()
                if not self._depth[kind]:
                    self.total_s[kind] += dt
                if self._stack:
                    self._stack[-1] += dt

        return traced

    def patch(self, owner, name, kind):
        setattr(owner, name, self.wrap(kind, getattr(owner, name)))

    def install(self, marlift):
        """Wrap the calls between marlift's modules."""
        cli, constructor, hypersurface, verifier = (
            marlift.cli, marlift.constructor, marlift.hypersurface,
            marlift.verifier)
        patch = self.patch

        for mod in (verifier, hypersurface, constructor):
            patch(mod, "jet2_of", "core.jet2")
        jet2_in_verifier = verifier.jet2_of

        def verifier_jet2(fn, *args, **kwargs):
            # the verifier only differentiates lift evaluations
            return jet2_in_verifier(self.wrap("constructor.lift_eval", fn),
                                    *args, **kwargs)

        verifier.jet2_of = verifier_jet2
        patch(constructor.LiftedImmersion, "__call__", "constructor.lift_eval")
        patch(verifier, "sym_eigen", "core.eigen")
        patch(hypersurface, "generalized_shape_eigen", "core.eigen")

        plain_jet = hypersurface.HypersurfaceImmersion.jet
        analytic_jet = self.wrap("shapes.jet", plain_jet)

        def jet(imm, x, h=None):
            return (analytic_jet if imm.jets is not None else plain_jet)(imm, x, h)

        hypersurface.HypersurfaceImmersion.jet = jet

        patch(constructor, "frame_at", "hypersurface.frame")
        patch(constructor, "spectrum_at", "hypersurface.spectrum")
        patch(constructor, "mean_gauss_at", "hypersurface.spectrum")
        patch(constructor, "roots_at", "constructor.roots")
        patch(constructor, "curvature_polynomial", "constructor.poly")
        patch(constructor, "solve_roots", "constructor.solve")
        patch(constructor.SupportFunction, "gradient", "constructor.support")
        patch(constructor.SupportFunction, "laplacian", "constructor.support")
        for name in ("space_form_lift", "product_lift", "lift_palmer",
                     "support_route_lift"):
            patch(constructor, name, "constructor.build")
        for name in ("space_form_lifts", "product_lifts", "lift_palmer"):
            patch(cli, name, "constructor.build")
        patch(cli, "thread_root_fields", "constructor.thread")

        report = self.wrap("verifier.report", verifier.assemble_report)

        def counted_report(*args, **kwargs):
            out = report(*args, **kwargs)
            if self._on:
                self.counts["verifier.points"] += out.total
            return out

        verifier.assemble_report = cli.assemble_report = counted_report
        patch(verifier, "lorentz_frame_at", "verifier.frame")
        patch(verifier, "second_form_at", "verifier.second_form")
        patch(verifier, "mean_curvature_at", "verifier.mean_curvature")
        for name in ("check_metric_identity", "check_second_form_identity",
                     "check_mean_curvature_identity", "_legendrian_from_context"):
            patch(verifier, name, "verifier.cross_check")
        patch(constructor.LiftedImmersion, "context", "verifier.cross_check")

        for mod in (marlift.catalog, cli):
            patch(mod, "catalog_lookup", "catalog.build")

        write_mesh = self.wrap("reporting.mesh_write", cli.write_mesh)

        def counted_write_mesh(path, *args, **kwargs):
            write_mesh(path, *args, **kwargs)
            if self._on:
                self.counts["reporting.mesh_bytes"] += os.path.getsize(path)

        cli.write_mesh = counted_write_mesh
        patch(cli, "read_mesh", "reporting.mesh_read")
        patch(cli, "render_report", "reporting.render")
        patch(cli, "main", "cli.main")

    def per_layer(self, rounds):
        """Per-round figures of every layer metric."""
        c, own, tot = self.calls, self.self_s, self.total_s
        points = self.counts["verifier.points"]
        per_point = (lambda v: v / points) if points else (lambda v: 0.0)
        values = {
            "core.jet2_calls": (c["core.jet2"], "count"),
            "core.jet2_self_s": (own["core.jet2"], "s"),
            "core.eigen_calls": (c["core.eigen"], "count"),
            "core.eigen_s": (tot["core.eigen"], "s"),
            "shapes.jet_calls": (c["shapes.jet"], "count"),
            "shapes.jet_s": (tot["shapes.jet"], "s"),
            "hypersurface.frame_calls": (c["hypersurface.frame"], "count"),
            "hypersurface.frame_self_s": (own["hypersurface.frame"], "s"),
            "hypersurface.spectrum_s": (tot["hypersurface.spectrum"], "s"),
            "constructor.roots_calls": (c["constructor.roots"], "count"),
            "constructor.poly_s": (tot["constructor.poly"], "s"),
            "constructor.solve_s": (tot["constructor.solve"], "s"),
            "constructor.lift_evals": (c["constructor.lift_eval"], "count"),
            "constructor.lift_eval_s": (tot["constructor.lift_eval"], "s"),
            "constructor.support_calls": (c["constructor.support"], "count"),
            "constructor.support_s": (tot["constructor.support"], "s"),
            "constructor.build_s": (tot["constructor.build"], "s"),
            "constructor.thread_s": (tot["constructor.thread"], "s"),
            "verifier.points": (points, "count"),
            "verifier.frame_self_s": (own["verifier.frame"], "s"),
            "verifier.second_form_s": (tot["verifier.second_form"], "s"),
            "verifier.mean_curvature_s": (tot["verifier.mean_curvature"], "s"),
            "verifier.report_self_s": (own["verifier.report"], "s"),
            "verifier.cross_check_s": (tot["verifier.cross_check"], "s"),
            "catalog.build_s": (tot["catalog.build"], "s"),
            "reporting.mesh_write_s": (tot["reporting.mesh_write"], "s"),
            "reporting.mesh_bytes": (self.counts["reporting.mesh_bytes"], "bytes"),
            "reporting.render_s": (tot["reporting.render"], "s"),
            "reporting.mesh_read_s": (tot["reporting.mesh_read"], "s"),
            "cli.self_s": (own["cli.main"], "s"),
        }
        out = {k: (v / rounds, unit) for k, (v, unit) in values.items()}
        out["constructor.roots_per_point"] = (
            per_point(c["constructor.roots"]), "calls/point")
        out["constructor.lift_evals_per_point"] = (
            per_point(c["constructor.lift_eval"]), "calls/point")
        return out

    def dump(self):
        """Raw totals of every span kind, for the trace file."""
        kinds = sorted(set(self.calls) | set(self.counts))
        return {k: {"calls": self.calls[k], "self_s": self.self_s[k],
                    "total_s": self.total_s[k], "count": self.counts[k]}
                for k in kinds}
