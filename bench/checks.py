"""Correctness checks of the benchmark, computed from closed forms and
properties the method must have, never from a stored copy of earlier output.

Every check returns a list of failure messages; an empty list is a pass.
The checks import nothing from marlift, so a fault in the program cannot
hide itself by also breaking its own check.
"""

from __future__ import annotations

import math

TOL_MARGINAL = 1e-5      # the verdict threshold marlift documents
TOL_CLOSED = 1e-8        # root solve to 1e-10 plus Newton polish
TOL_CONSTRAINT = 1e-9    # the lift formulas satisfy the constraints exactly
TOL_MEAN_CURVATURE = 1e-5  # central differences with h = 1e-4
TOL_ROUTES = 1e-5        # nested finite differences on the expr preset


def arccot(s):
    return 0.5 * math.pi - math.atan(s)


# ------------------------------------------------------------ closed forms

def torus_point(big, small, x):
    """The revolution torus of the catalog at chart point (u, v)."""
    cu, su = math.cos(x[0]), math.sin(x[0])
    w = big + small * cu
    return (w * math.cos(x[1]), w * math.sin(x[1]), small * su)


def closed_time(case, x):
    """Time coordinate of a shift lift, up to sign, from the entry's parameters."""
    p = case["params"]
    key = (case["entry"], case["ambient"])
    if key == ("torus", "minkowski"):
        big, small = p["rad_major"], p["rad_minor"]
        cu = math.cos(x[0])
        return 0.5 * (small + (big + small * cu) / cu)
    if key == ("sphere-torus", "desitter"):
        return 1.0 / math.tan(2.0 * p["alpha"])
    if key == ("sphere-torus", "sphere-product"):
        two = 2.0 * p["alpha"]
        ss = sorted((math.tan(two) + 1.0 / math.cos(two),
                     math.tan(two) - 1.0 / math.cos(two)))
        return arccot(ss[case["root"]])
    if key == ("hyperbolic-tube", "antidesitter"):
        return 1.0 / math.tanh(2.0 * p["radius"])
    if key == ("equidistant", "hyperbolic-product"):
        return p["dist"]
    raise KeyError(f"no closed form for {key}")


def constraint_residual(ambient, point):
    """|constraint| of one container point, written out per ambient."""
    sq = [c * c for c in point]
    if ambient == "desitter":          # <x,x> = 1, signature (4, 1)
        return abs(sum(sq[:4]) - sq[4] - 1.0)
    if ambient == "antidesitter":      # <x,x> = -1, signature (3, 2)
        return abs(sum(sq[:3]) - sq[3] - sq[4] + 1.0)
    if ambient == "sphere-product":    # |x_0..x_3| = 1, x_4 the time line
        return abs(sum(sq[:4]) - 1.0)
    if ambient == "hyperbolic-product":  # hyperboloid block, x_4 the time line
        return abs(sum(sq[:3]) - sq[3] + 1.0)
    raise KeyError(f"no constraint for {ambient}")


# ----------------------------------------------------------------- checks

def check_verdict(report, expected):
    """Predicted verdict; trapped lifts also need no exclusions and a
    residual within the threshold."""
    out = []
    if report.verdict != expected:
        out.append(f"verdict {report.verdict}, expected {expected}")
    if expected == "marginally_trapped":
        if report.excluded_count:
            out.append(f"{report.excluded_count} excluded points")
        stat = report.summary.get("null_residual")
        if stat is None or not stat["max"] <= TOL_MARGINAL:
            out.append(f"max null residual {stat and stat['max']} > {TOL_MARGINAL}")
    return out


def check_shift_values(case, samples):
    """samples: (chart point, lift value) pairs. The time coordinate matches
    the closed form and every value satisfies the ambient: the container
    constraint, or for the flat ambient a shift of the torus point along
    its unit normal by the time coordinate."""
    out = []
    worst_t = worst_c = 0.0
    for x, val in samples:
        c = closed_time(case, x)
        t = val[-1]
        worst_t = max(worst_t, min(abs(t - c), abs(t + c)) / (1.0 + abs(c)))
        scale = 1.0 + max(abs(v) for v in val)
        if case["ambient"] == "minkowski":
            phi = torus_point(case["params"]["rad_major"],
                              case["params"]["rad_minor"], x)
            shift = math.sqrt(sum((a - b) ** 2 for a, b in zip(val[:3], phi)))
            res = abs(shift - abs(t))
        else:
            res = constraint_residual(case["ambient"], val)
        worst_c = max(worst_c, res / scale)
    if not worst_t <= TOL_CLOSED:
        out.append(f"time coordinate off its closed form by {worst_t:.3e}")
    if not worst_c <= TOL_CONSTRAINT:
        out.append(f"ambient constraint violated by {worst_c:.3e}")
    if not samples:
        out.append("no lift values to check")
    return out


def check_chen_l1_mean_curvature(samples):
    """samples: (mean curvature vector, f'') pairs; the planar family has
    H = (0, 0, f''/2, f''/2)."""
    out = []
    worst = 0.0
    for hvec, fpp in samples:
        want = (0.0, 0.0, 0.5 * fpp, 0.5 * fpp)
        gap = max(abs(a - b) for a, b in zip(hvec, want))
        worst = max(worst, gap / (1.0 + abs(fpp)))
    if not worst <= TOL_MEAN_CURVATURE:
        out.append(f"chen-l1 mean curvature off (0,0,f''/2,f''/2) by {worst:.3e}")
    if not samples:
        out.append("no mean curvature samples")
    return out


def check_routes_agree(values_a, values_b):
    """Two support routes evaluated at the same chart points agree."""
    out = []
    if len(values_a) != len(values_b) or not values_a:
        return [f"route sample counts differ: {len(values_a)} vs {len(values_b)}"]
    if any(v is None for v in values_a + values_b):
        return ["a route excluded a sample point"]
    worst = max(max(abs(p - q) for p, q in zip(a, b)) / (1.0 + max(map(abs, a)))
                for a, b in zip(values_a, values_b))
    if not worst <= TOL_ROUTES:
        out.append(f"support routes disagree by {worst:.3e}")
    return out


def parse_mesh(text):
    """Header dict and numeric rows of a marlift mesh, parsed independently
    of marlift.reporting."""
    header, rows = {}, []
    for line in text.splitlines():
        if line.startswith("#"):
            key, sep, value = line[1:].partition(":")
            if sep:
                header[key.strip()] = value.strip()
        elif line.strip():
            rows.append([float(tok) for tok in line.split()])
    return header, rows


def check_cli_construct(case, code, verdict, points, mesh_text):
    """`marlift construct` passed, classified the whole grid and wrote a mesh
    whose rows are the lift: residuals within the threshold, the closed-form
    time coordinate and the shift along the torus normal."""
    out = []
    if code != 0:
        out.append(f"construct exited {code}")
    if verdict != "marginally_trapped":
        out.append(f"construct verdict {verdict}")
    want_rows = case["grid"][0] * case["grid"][1]
    if points != want_rows:
        out.append(f"construct classified {points} points, expected {want_rows}")
    header, rows = parse_mesh(mesh_text)
    if len(rows) != want_rows:
        out.append(f"mesh has {len(rows)} rows, expected {want_rows}")
    if header.get("verdict") != verdict:
        out.append(f"mesh header verdict {header.get('verdict')}, report {verdict}")
    worst_res = max((r[-1] for r in rows), default=math.inf)
    if not worst_res <= TOL_MARGINAL:
        out.append(f"mesh null residual {worst_res:.3e} > {TOL_MARGINAL}")
    out.extend(check_shift_values(case, [(r[:2], r[2:-1]) for r in rows]))
    return out


def check_cli_roundtrip(case, code, verdict, points, construct_verdict):
    """`marlift verify --mesh` passed and reproduced the construct verdict."""
    out = []
    if code != 0:
        out.append(f"verify --mesh exited {code}")
    if verdict != construct_verdict:
        out.append(f"round-trip verdict {verdict} != construct verdict "
                   f"{construct_verdict}")
    want = case["grid"][0] * case["grid"][1]
    if points != want:
        out.append(f"verify --mesh classified {points} points, expected {want}")
    return out
