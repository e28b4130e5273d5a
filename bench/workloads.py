"""The four workloads: fixed case sets with parameters drawn from the seed.

A round runs every case of a workload once. Each round draws fresh
parameters, inside ranges where every construction applies, so no round can
reuse a result of an earlier one. An operation is one `assemble_report` call
(with the catalog lookup and the lift construction that feed it) or one CLI
call; its checks always run to the end and any failure fails the operation.
"""

from __future__ import annotations

import contextlib
import io
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from marlift import catalog, cli, constructor, verifier

import checks

TRAPPED = "marginally_trapped"
NOT_MARGINAL = "not_marginal"


def _draw(rng, lo, hi):
    return round(rng.uniform(lo, hi), 6)


@dataclass
class Op:
    """One timed call: wall time of the user-visible calls, the part spent
    classifying chart points, the points classified, and failed checks."""

    name: str
    seconds: float = 0.0
    verify_s: float = 0.0
    points: int = 0
    failures: list = field(default_factory=list)
    known_fault: str = ""


def _guarded(op, fn):
    try:
        fn()
    except Exception as exc:  # an operation that raises has failed; go on
        op.failures.append(f"{type(exc).__name__}: {exc}")
    return op


class Workload:
    """Subclasses define `draw(rng)`, `build(case)` and `check(case, lift,
    report)`, which returns the failures of the workload's own checks."""

    name = ""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)

    def run(self, cases, tracer):
        return [self._verify(case, tracer) for case in cases]

    def _verify(self, case, tracer):
        """Catalog lookup, lift construction and one assemble_report call."""
        op = Op(case["label"], known_fault=case.get("known_fault", ""))

        def body():
            with tracer.recording():
                t0 = time.perf_counter()
                lift = self.build(case)
                t1 = time.perf_counter()
                report = verifier.assemble_report(lift, resolution=case["grid"])
                t2 = time.perf_counter()
            op.seconds, op.verify_s, op.points = t2 - t0, t2 - t1, report.total
            op.failures.extend(checks.check_verdict(report, case["expected"]))
            op.failures.extend(self.check(case, lift, report))

        return _guarded(op, body)


# ------------------------------------------------------------ shift lifts

class ShiftLifts(Workload):
    name = "shift-lifts"
    grid = (12, 12)

    def draw(self, rng):
        alpha = _draw(rng, 0.95, 1.15)
        cases = [
            ("torus", {"rad_major": _draw(rng, 1.8, 2.6),
                       "rad_minor": _draw(rng, 0.6, 1.0)}, "minkowski", 0),
            ("sphere-torus", {"alpha": alpha}, "desitter", 0),
            ("hyperbolic-tube", {"radius": _draw(rng, 0.6, 1.0)},
             "antidesitter", 0),
            ("sphere-torus", {"alpha": alpha}, "sphere-product", 0),
            ("sphere-torus", {"alpha": alpha}, "sphere-product", 1),
            ("equidistant", {"dist": _draw(rng, 0.6, 1.0)},
             "hyperbolic-product", 0),
        ]
        return [{"label": f"{e}->{a}[{r}]", "entry": e, "params": p,
                 "ambient": a, "root": r, "grid": self.grid,
                 "expected": TRAPPED} for e, p, a, r in cases]

    def build(self, case):
        _, imm = catalog.catalog_lookup(case["entry"], case["params"])
        lift_fn = getattr(constructor, "lift_" + case["ambient"].replace("-", "_"))
        return lift_fn(imm, root_index=case["root"])

    def check(self, case, lift, report):
        return checks.check_shift_values(
            case, [(r.x, r.position) for r in report.records if not r.excluded])


# ---------------------------------------------------------- explicit lifts

class ExplicitLifts(Workload):
    name = "explicit-lifts"
    grid = (24, 24)

    def draw(self, rng):
        a, b = _draw(rng, 0.6, 1.4), _draw(rng, -0.1, 0.1)
        pa, pb = _draw(rng, 0.6, 1.4), _draw(rng, -0.1, 0.1)
        cases = [
            ("chen-l1", {"f": f"{a}*x**2+{b}*x**3"}, TRAPPED),
            ("chen-l2", {}, TRAPPED),
            ("chen-l3", {"f": f"{_draw(rng, 1.6, 2.4)}+{_draw(rng, 0.6, 1.2)}"
                              f"*sin(x)"}, TRAPPED),
            ("chen-l4", {}, TRAPPED),
            ("l1-perturbed", {"f": f"{pa}*x**2+{pb}*x**3",
                              "eps": _draw(rng, 0.005, 0.02)}, NOT_MARGINAL),
            ("spacelike-graph", {"amplitude": _draw(rng, 0.05, 0.15)},
             NOT_MARGINAL),
        ]
        out = [{"label": e, "entry": e, "params": p, "grid": self.grid,
                "expected": v} for e, p, v in cases]
        # f'' of chen-l1 at sample points drawn inside the chart
        xs = [(_draw(rng, -0.9, 0.9), _draw(rng, -0.9, 0.9)) for _ in range(4)]
        out[0]["mean_curvature_samples"] = [(x, 2.0 * a + 6.0 * b * x[0])
                                            for x in xs]
        return out

    def build(self, case):
        return catalog.catalog_lookup(case["entry"], case["params"])[1]

    def check(self, case, lift, report):
        if "mean_curvature_samples" not in case:
            return []
        return checks.check_chen_l1_mean_curvature(
            [(verifier.mean_curvature_at(lift, x), fpp)
             for x, fpp in case["mean_curvature_samples"]])


# ---------------------------------------------------------- support routes

class SupportRoutes(Workload):
    name = "support-routes"
    grid = (9, 9)
    # lift_palmer's nested finite differences put the max null residual of
    # this field at 1.49e-5, over tol_marginal, on every run; a drawn expr
    # field fails the same way on some draws only, so the field is fixed
    expr_f = "1.06+0.136136*u3**2"
    expr_fault = ("lift_palmer not_marginal on expr preset: nested finite "
                  "differences (see CHANGES.md)")

    def draw(self, rng):
        presets = [
            ("quadric", {"preset": "quadric", "ax": _draw(rng, 1.2, 1.4),
                         "ay": _draw(rng, 0.9, 1.1), "az": _draw(rng, 0.7, 0.9)},
             ""),
            ("expr", {"preset": "expr", "f": self.expr_f}, self.expr_fault),
        ]
        # the two routes of one preset share `pair`, where the first leaves
        # its lift values for the second to compare against
        return [{"label": f"{route}:{name}", "entry": "palmer-sphere",
                 "params": p, "route": route, "pair": pair, "grid": self.grid,
                 "expected": TRAPPED,
                 "known_fault": fault if route == "palmer" else ""}
                for name, p, fault in presets for pair in [{}]
                for route in ("palmer", "route")]

    def build(self, case):
        _, sf = catalog.catalog_lookup(case["entry"], case["params"])
        if case["route"] == "palmer":
            return constructor.lift_palmer(sf)
        return constructor.support_route_lift(sf)

    def check(self, case, lift, report):
        values = [r.position for r in report.records]
        if case["route"] == "palmer":
            case["pair"]["palmer"] = values
            return []
        return checks.check_routes_agree(case["pair"].get("palmer", []), values)


# ------------------------------------------------------------ CLI round trip

class CliRoundtrip(Workload):
    name = "cli-roundtrip"
    grid = (17, 17)

    def draw(self, rng):
        return [{"label": "torus->minkowski", "entry": "torus",
                 "ambient": "minkowski", "root": 0, "grid": self.grid,
                 "params": {"rad_major": _draw(rng, 1.8, 2.6),
                            "rad_minor": _draw(rng, 0.6, 1.0)}}]

    def build(self, case):
        """What `construct` does before it verifies: the entry and its lifts."""
        _, imm = catalog.catalog_lookup(case["entry"], case["params"])
        return constructor.space_form_lifts(imm, constructor.AmbientKind(
            case["ambient"]))

    def _call(self, op, argv, tracer):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer.recording():
                t0 = time.perf_counter()
                code = cli.main(argv)
                op.seconds = op.verify_s = time.perf_counter() - t0
        text = out.getvalue() + err.getvalue()
        found = re.search(r"verdict=(\w+)", text)
        return code, found.group(1) if found else f"none ({text.strip()!r})"

    def _points(self, report_path):
        found = re.search(r"^points: (\d+)", report_path.read_text(), re.M)
        return int(found.group(1)) if found else 0

    def run(self, cases, tracer):
        (case,) = cases
        params = ",".join(f"{k}={v}" for k, v in sorted(case["params"].items()))
        grid = "x".join(map(str, case["grid"]))
        stem = f"{case['entry']}-{case['ambient']}-root{case['root']}"
        mesh = self.out_dir / f"{stem}.mesh.txt"
        for path in self.out_dir.glob(f"{stem}*"):
            path.unlink()
        construct, roundtrip = Op("construct"), Op("verify --mesh")
        state = {}

        def do_construct():
            code, verdict = self._call(construct, [
                "construct", "--entry", case["entry"], "--params", params,
                "--ambient", case["ambient"], "--grid", grid,
                "--out-dir", str(self.out_dir)], tracer)
            state["verdict"] = verdict
            construct.points = self._points(self.out_dir / f"{stem}.report.txt")
            construct.failures.extend(checks.check_cli_construct(
                case, code, verdict, construct.points, mesh.read_text()))

        def do_verify():
            code, verdict = self._call(roundtrip, [
                "verify", "--mesh", str(mesh), "--out-dir", str(self.out_dir)],
                tracer)
            roundtrip.points = self._points(
                self.out_dir / f"{stem}.mesh.verify.report.txt")
            roundtrip.failures.extend(checks.check_cli_roundtrip(
                case, code, verdict, roundtrip.points, state.get("verdict")))

        return [_guarded(construct, do_construct), _guarded(roundtrip, do_verify)]


WORKLOADS = {w.name: w for w in (ShiftLifts, ExplicitLifts, SupportRoutes,
                                  CliRoundtrip)}
