"""Shows that every correctness check of the benchmark can fail.

    python3 bench/selftest.py

Each check runs once on a good input, where it must pass, and once on a
known-bad input, where it must report a failure; the operations of every
workload are also run on bad cases to show that a failed check fails its
operation. Exits 0 when all of that holds. Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import random
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from marlift import catalog, cli, constructor, verifier  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

GRID = (5, 5)
results = []


def expect(name, failures, bad):
    ok = bool(failures) == bad
    results.append(ok)
    state = "fails" if failures else "passes"
    print(f"{'ok  ' if ok else 'FAIL'} {name}: {state}"
          + (f" ({failures[0]})" if failures else ""))


def report_of(lift):
    return verifier.assemble_report(lift, resolution=GRID)


def samples(report):
    return [(r.x, r.position) for r in report.records if not r.excluded]


def shift_case(entry, params, ambient, root=0):
    return {"entry": entry, "params": params, "ambient": ambient, "root": root,
            "grid": GRID}


def lookup(name, params=None):
    return catalog.catalog_lookup(name, params)[1]


def check_verdicts():
    torus = lookup("torus")
    good = report_of(constructor.lift_minkowski(torus))
    bad = report_of(constructor.lift_minkowski(torus, offset=0.1))
    expect("verdict, torus lift", checks.check_verdict(good, "marginally_trapped"), False)
    expect("verdict, torus lift offset 0.1",
           checks.check_verdict(bad, "marginally_trapped"), True)
    control = report_of(lookup("spacelike-graph"))
    expect("verdict, control", checks.check_verdict(control, "not_marginal"), False)
    expect("verdict, control taken for trapped",
           checks.check_verdict(control, "marginally_trapped"), True)


def check_shift_values():
    torus_case = shift_case("torus", {"rad_major": 2.0, "rad_minor": 1.0},
                            "minkowski")
    torus = lookup("torus")
    good = samples(report_of(constructor.lift_minkowski(torus)))
    expect("closed form, torus", checks.check_shift_values(torus_case, good), False)
    expect("closed form, torus lift offset 0.1", checks.check_shift_values(
        torus_case, samples(report_of(constructor.lift_minkowski(torus, offset=0.1)))),
        True)
    moved = [(x, (v[0] + 1e-6,) + tuple(v[1:])) for x, v in good]
    expect("torus normal shift, moved spatial part",
           checks.check_shift_values(torus_case, moved), True)

    for entry, params, ambient, key in [
            ("sphere-torus", {"alpha": 1.0}, "desitter", "alpha"),
            ("hyperbolic-tube", {"radius": 0.8}, "antidesitter", "radius"),
            ("equidistant", {"dist": 0.8}, "hyperbolic-product", "dist")]:
        case = shift_case(entry, params, ambient)
        lift_fn = getattr(constructor, "lift_" + ambient.replace("-", "_"))
        vals = samples(report_of(lift_fn(lookup(entry, params))))
        expect(f"closed form, {entry}->{ambient}",
               checks.check_shift_values(case, vals), False)
        wrong = shift_case(entry, {key: params[key] * 1.001}, ambient)
        expect(f"closed form, {entry}->{ambient} perturbed",
               checks.check_shift_values(wrong, vals), True)
        scaled = [(x, tuple(1.000001 * c for c in v[:-1]) + (v[-1],))
                  for x, v in vals]
        expect(f"constraint, {ambient} scaled point",
               checks.check_shift_values(case, scaled), True)

    torus_sp = lookup("sphere-torus", {"alpha": 1.0})
    for root in (0, 1):
        vals = samples(report_of(constructor.lift_sphere_product(torus_sp, root)))
        case = shift_case("sphere-torus", {"alpha": 1.0}, "sphere-product", root)
        expect(f"closed form, sphere-product root {root}",
               checks.check_shift_values(case, vals), False)
        other = dict(case, root=1 - root)
        expect(f"closed form, sphere-product root {root} against the other root",
               checks.check_shift_values(other, vals), True)
        scaled = [(x, tuple(1.000001 * c for c in v[:-1]) + (v[-1],))
                  for x, v in vals]
        expect("constraint, sphere-product scaled point",
               checks.check_shift_values(case, scaled), True)


def check_mean_curvature():
    xs = [(0.3, -0.2), (-0.5, 0.6)]
    good = lookup("chen-l1", {"f": "x**2"})
    hv = [(verifier.mean_curvature_at(good, x), 2.0) for x in xs]
    expect("chen-l1 mean curvature", checks.check_chen_l1_mean_curvature(hv), False)
    expect("chen-l1 mean curvature, f'' perturbed by 1%",
           checks.check_chen_l1_mean_curvature([(h, 2.02) for h, _ in hv]), True)
    bad = lookup("l1-perturbed", {"f": "x**2", "eps": 0.01})
    expect("chen-l1 mean curvature, perturbed lift",
           checks.check_chen_l1_mean_curvature(
               [(verifier.mean_curvature_at(bad, x), 2.0) for x in xs]), True)


def check_routes():
    sf = lookup("palmer-sphere")
    palmer = [r.position for r in report_of(constructor.lift_palmer(sf)).records]
    route = [r.position for r in report_of(constructor.support_route_lift(sf)).records]
    expect("support routes agree", checks.check_routes_agree(palmer, route), False)
    other = lookup("palmer-sphere", {"ax": 1.31})
    moved = [r.position for r in report_of(constructor.support_route_lift(other)).records]
    expect("support routes, other quadric", checks.check_routes_agree(palmer, moved),
           True)


def check_cli(out_dir):
    case = {"entry": "torus", "params": {"rad_major": 2.0, "rad_minor": 1.0},
            "ambient": "minkowski", "root": 0, "grid": GRID}
    mesh = out_dir / "torus-minkowski-root0.mesh.txt"
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        code = cli.main(["construct", "--entry", "torus", "--ambient", "minkowski",
                         "--grid", "5x5", "--out-dir", str(out_dir)])
    text = mesh.read_text()
    expect("cli construct", checks.check_cli_construct(
        case, code, "marginally_trapped", 25, text), False)
    expect("cli construct, exit 3", checks.check_cli_construct(
        case, 3, "marginally_trapped", 25, text), True)
    expect("cli construct, other torus", checks.check_cli_construct(
        dict(case, params={"rad_major": 2.1, "rad_minor": 1.0}), code,
        "marginally_trapped", 25, text), True)
    lines = text.splitlines()
    row = lines[-1].split()
    row[-2] = repr(float(row[-2]) + 1e-3)          # time coordinate
    tampered = "\n".join(lines[:-1] + [" ".join(row)]) + "\n"
    expect("cli construct, tampered mesh row", checks.check_cli_construct(
        case, code, "marginally_trapped", 25, tampered), True)
    expect("cli construct, dropped mesh row", checks.check_cli_construct(
        case, code, "marginally_trapped", 25, "\n".join(lines[:-1])), True)

    mesh.write_text(tampered)
    roundtrip = workloads.Op("verify --mesh")
    code, verdict = workloads.CliRoundtrip(out_dir)._call(
        roundtrip, ["verify", "--mesh", str(mesh), "--out-dir", str(out_dir)],
        tracing.Tracer())
    expect(f"cli round trip of a tampered mesh (exit {code})",
           checks.check_cli_roundtrip(case, code, verdict, 25, "marginally_trapped"),
           True)
    expect("cli round trip, verdicts differ", checks.check_cli_roundtrip(
        case, 0, "not_marginal", 25, "marginally_trapped"), True)
    expect("cli round trip", checks.check_cli_roundtrip(
        case, 0, "marginally_trapped", 25, "marginally_trapped"), False)


class OffsetShift(workloads.ShiftLifts):
    grid = GRID

    def build(self, case):
        lift = super().build(case)
        if case["ambient"] == "minkowski":
            return constructor.lift_minkowski(lookup("torus", case["params"]),
                                              offset=0.1)
        return lift


class PerturbedChen(workloads.ExplicitLifts):
    grid = GRID

    def build(self, case):
        if case["entry"] == "chen-l1":
            return lookup("l1-perturbed", {"f": case["params"]["f"], "eps": 0.01})
        return super().build(case)


class OtherRoute(workloads.SupportRoutes):
    grid = GRID

    def build(self, case):
        if case["route"] == "route" and case["params"]["preset"] == "quadric":
            case = dict(case, params=dict(case["params"], ax=case["params"]["ax"] + 0.01))
        return super().build(case)


class UnknownEntry(workloads.CliRoundtrip):
    grid = GRID

    def draw(self, rng):
        return [dict(case, entry="no-such-entry") for case in super().draw(rng)]


def check_operations(out_dir):
    """A failed check, or a raised error, fails exactly the operation it
    belongs to. Operations of a known program fault are left aside."""
    tracer = tracing.Tracer()
    for kind, bad in [(OffsetShift, {"torus->minkowski[0]"}),
                      (PerturbedChen, {"chen-l1"}),
                      (OtherRoute, {"route:quadric"}),
                      (UnknownEntry, {"construct", "verify --mesh"})]:
        workload = kind(out_dir)
        ops = workload.run(workload.draw(random.Random(5)), tracer)
        failed = {op.name for op in ops if op.failures and not op.known_fault}
        ok = failed == bad
        results.append(ok)
        print(f"{'ok  ' if ok else 'FAIL'} {workload.name} operations with a bad "
              f"case: failed {sorted(failed)}, expected {sorted(bad)}")


def main():
    out_dir = Path(tempfile.mkdtemp(prefix="selftest-", dir=HERE))
    try:
        check_verdicts()
        check_shift_values()
        check_mean_curvature()
        check_routes()
        check_cli(out_dir)
        check_operations(out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"{sum(results)}/{len(results)} as expected")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
