import re

import numpy as np
import pytest

from marlift import cli, constructor, shapes, verifier
from marlift.cli import (
    EXIT_FAIL,
    EXIT_PASS,
    EXIT_PIPELINE,
    EXIT_USAGE,
    RunConfig,
    _write_outputs,
    main,
)
from marlift.constructor import AmbientKind, LiftedImmersion, LorentzAmbient, lift_minkowski
from marlift.core import DEFAULTS, Chart, GeometryError, Rows
from marlift.reporting import read_mesh, render_report, write_mesh


def run(argv, capsys=None):
    code = main(argv)
    return code


def test_catalog_listing(capsys):
    assert main(["catalog"]) == EXIT_PASS
    out = capsys.readouterr().out
    for name in ["chen-l1", "chen-l2", "chen-l3", "chen-l4", "torus",
                 "clifford-torus", "catenoid", "ellipsoid", "palmer-sphere"]:
        assert name in out


def test_unknown_flag_is_error():
    assert main(["catalog", "--frobnicate"]) == EXIT_USAGE


def test_unknown_entry_is_usage_error(capsys):
    assert main(["verify", "--entry", "nonexistent"]) == EXIT_USAGE


def test_bad_grid_is_usage_error():
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "2x2"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [["construct", "--entry", "torus", "--ambient", "minkowski"],
                                  ["verify", "--entry", "chen-l1"]], ids=["construct", "verify"])
def test_grid_with_the_wrong_axis_count_is_usage_error(argv, tmp_path, capsys):
    assert main(argv + ["--grid", "9x9x9", "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"error: --grid has 3 axes, entry {argv[2]!r} has a 2-dimensional chart\n")


@pytest.mark.parametrize("flag,value,what", [
    ("--step", "0", "step"), ("--step", "nan", "step"), ("--step", "inf", "step"),
    ("--tol-marginal", "0", "tolerances"), ("--tol-marginal", "nan", "tolerances"),
    ("--tol-marginal", "inf", "tolerances")])
def test_non_positive_or_non_finite_flag_is_usage_error(flag, value, what, tmp_path, capsys):
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski", "--grid", "5x5",
                 flag, value, "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {what} must be positive and finite\n"


def test_bad_ambient_is_usage_error():
    assert main(["construct", "--entry", "torus", "--ambient", "galilean"]) \
        == EXIT_USAGE


def test_construct_torus_minkowski(tmp_path, capsys):
    code = main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "6x6", "--out-dir", str(tmp_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "verdict=marginally_trapped" in out
    reports = list(tmp_path.glob("*.report.txt"))
    meshes = list(tmp_path.glob("*.mesh.txt"))
    assert len(reports) == 1 and len(meshes) == 1
    text = reports[0].read_text()
    for token in ["min_eig_g", "null_residual", "hvec_norm_sq", "eqH_residual",
                  "lemma_metric_residual", "verdict"]:
        assert token in text
    meta, chart_pts, ambient_pts, residuals = read_mesh(meshes[0])
    assert meta["entry"] == "torus"
    assert chart_pts.shape[0] == 36
    assert ambient_pts.shape[1] == 4
    assert np.nanmax(residuals) <= 1e-5


def test_construct_sphere_has_no_lifts(tmp_path, capsys):
    code = main(["construct", "--entry", "sphere", "--ambient", "minkowski",
                 "--grid", "5x5", "--out-dir", str(tmp_path)])
    assert code == EXIT_PASS
    err = capsys.readouterr().err
    assert "no lifts" in err


@pytest.mark.parametrize("entry,ambient", [
    ("equidistant", "minkowski"),
    ("torus", "hyperbolic-product"),
])
def test_construct_wrong_source_space(tmp_path, capsys, entry, ambient):
    code = main(["construct", "--entry", entry, "--ambient", ambient,
                 "--grid", "5x5", "--out-dir", str(tmp_path)])
    assert code == EXIT_PIPELINE
    assert f"{ambient} lifts need a" in capsys.readouterr().err


def test_construct_clifford_sphere_product(tmp_path, capsys):
    code = main(["construct", "--entry", "clifford-torus", "--ambient",
                 "sphere-product", "--grid", "5x5", "--out-dir", str(tmp_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert out.count("verdict=marginally_trapped") == 1


def test_verify_chen_entries(tmp_path, capsys):
    for name in ["chen-l2", "chen-l3"]:
        assert main(["verify", "--entry", name, "--grid", "6x6",
                     "--out-dir", str(tmp_path)]) == EXIT_PASS


def test_verify_negative_control_fails(tmp_path, capsys):
    assert main(["verify", "--entry", "l1-perturbed", "--grid", "6x6",
                 "--out-dir", str(tmp_path)]) \
        == EXIT_PASS  # matches its stated expected_verdict (not_marginal)
    out = capsys.readouterr().out
    assert "verdict=not_marginal" in out


def test_verify_hypersurface_entry_is_usage_error():
    assert main(["verify", "--entry", "torus"]) == EXIT_USAGE


@pytest.mark.parametrize("entry,params", [
    ("chen-l1", "f=log(x)"),
    ("chen-l3", "f=sqrt(x)"),
    ("palmer-sphere", "preset=expr,f=log(u3-0.5)"),
    # finite value, NaN exact slope
    ("palmer-sphere", "preset=expr,f=1+sqrt(u3-u3)"),
])
def test_expression_outside_its_domain_is_usage_error(tmp_path, capsys, entry, params):
    assert main(["verify", "--entry", entry, "--params", params, "--grid", "5x5",
                 "--out-dir", str(tmp_path)]) == EXIT_USAGE
    assert "needs f finite on its chart" in capsys.readouterr().err


def test_mesh_round_trip(tmp_path, capsys):
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "5x5", "--out-dir", str(tmp_path)]) == EXIT_PASS
    mesh = next(tmp_path.glob("*.mesh.txt"))
    first = capsys.readouterr().out
    assert main(["verify", "--mesh", str(mesh), "--out-dir", str(tmp_path)]) \
        == EXIT_PASS
    out = capsys.readouterr().out
    assert "verdict=marginally_trapped" in out


def test_step_reaches_verifier_and_round_trip(tmp_path, capsys):
    def null_residual(report):
        return next(ln for ln in report.read_text().splitlines()
                    if ln.startswith("null_residual:"))

    base = ["construct", "--entry", "torus", "--ambient", "minkowski",
            "--grid", "9x9"]
    assert main(base + ["--out-dir", str(tmp_path / "default")]) == EXIT_PASS
    out = tmp_path / "step"
    assert main(base + ["--step", "5e-5", "--out-dir", str(out)]) == EXIT_PASS
    mesh = next(out.glob("*.mesh.txt"))
    assert read_mesh(mesh)[0]["step"] == "5e-05"
    report = next(out.glob("*.report.txt"))
    assert "step=5e-05" in report.read_text()
    assert null_residual(report) != null_residual(
        next((tmp_path / "default").glob("*.report.txt")))
    assert main(["verify", "--mesh", str(mesh), "--out-dir", str(out)]) == EXIT_PASS
    assert "step=5e-05" in next(out.glob("*.verify.report.txt")).read_text()


def test_mesh_round_trip_detects_tampering(tmp_path, capsys):
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "5x5", "--out-dir", str(tmp_path)]) == EXIT_PASS
    mesh = next(tmp_path.glob("*.mesh.txt"))
    lines = mesh.read_text().splitlines()
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            cols = line.split()
            cols[3] = str(float(cols[3]) + 0.5)
            lines[i] = " ".join(cols)
            break
    mesh.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--mesh", str(mesh),
                 "--out-dir", str(tmp_path)]) == EXIT_PIPELINE


@pytest.fixture(scope="module")
def torus_mesh(tmp_path_factory):
    out = tmp_path_factory.mktemp("construct")
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "5x5", "--out-dir", str(out)]) == EXIT_PASS
    return next(out.glob("*.mesh.txt"))


def _short_row(lines):
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    lines[data[3]] = " ".join(lines[data[3]].split()[:-1])


def _bad_token(lines):
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    cols = lines[data[2]].split()
    lines[data[2]] = " ".join(cols[:1] + ["abc"] + cols[2:])


def _header(key, value):
    def edit(lines):
        k = next(i for i, line in enumerate(lines) if line.startswith(f"# {key}:"))
        lines[k] = f"# {key}: {value}"
    return edit


@pytest.mark.parametrize("edit,code,prefix", [
    (_short_row, EXIT_PIPELINE, "ingest error: "),
    (_bad_token, EXIT_PIPELINE, "ingest error: "),
    (_header("step", "abc"), EXIT_PIPELINE, "ingest error: "),
    (_header("root_index", "x"), EXIT_PIPELINE, "ingest error: "),
    (None, EXIT_USAGE, "error: [Errno 2] No such file or directory"),
], ids=["short-row", "bad-token", "bad-step", "bad-root-index", "missing-file"])
def test_malformed_mesh_is_classified(torus_mesh, tmp_path, capsys, edit, code, prefix):
    mesh = tmp_path / "edited.mesh.txt"
    if edit is not None:
        lines = torus_mesh.read_text().splitlines()
        edit(lines)
        mesh.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--mesh", str(mesh), "--out-dir", str(tmp_path)]) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err


def test_ingest_check_names_the_first_disagreeing_sample(torus_mesh, tmp_path, capsys):
    lines = torus_mesh.read_text().splitlines()
    data = [i for i, line in enumerate(lines) if not line.startswith("#")]
    for k in (12, 7):
        cols = lines[data[k]].split()
        cols[3] = repr(float(cols[3]) + 1e-3)
        lines[data[k]] = " ".join(cols)
    mesh = tmp_path / "tampered.mesh.txt"
    mesh.write_text("\n".join(lines) + "\n")
    assert main(["verify", "--mesh", str(mesh), "--out-dir", str(tmp_path)]) == EXIT_PIPELINE
    x = tuple(read_mesh(mesh)[1][7])
    assert capsys.readouterr().err == (f"ingest error: mesh row at chart {x} disagrees "
                                       "with the rebuilt entry by 1.000e-03\n")


@pytest.fixture(scope="module")
def torus_mesh_9x9(tmp_path_factory):
    out = tmp_path_factory.mktemp("construct9")
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "9x9", "--out-dir", str(out)]) == EXIT_PASS
    return next(out.glob("*.mesh.txt"))


def _edited(mesh, tmp_path, edit):
    """A copy of `mesh` after edit(rows), rows the data lines split into
    their columns (x0 x1 X0 X1 X2 X3 null_residual)."""
    lines = mesh.read_text().splitlines()
    header = [line for line in lines if line.startswith("#")]
    rows = [line.split() for line in lines if not line.startswith("#")]
    edit(rows)
    out = tmp_path / "edited.mesh.txt"
    out.write_text("\n".join(header + [" ".join(cols) for cols in rows]) + "\n")
    return out


def _verify_exits_4(mesh, tmp_path, capsys):
    """`verify --mesh` exits 4 before it writes a report; its one error line."""
    assert main(["verify", "--mesh", str(mesh), "--out-dir", str(tmp_path)]) == EXIT_PIPELINE
    assert not list(tmp_path.glob("*.report.txt"))
    err = capsys.readouterr().err
    assert err.startswith("ingest error: ") and err.count("\n") == 1
    return err


def test_ingest_check_reads_every_stored_row(torus_mesh_9x9, tmp_path, capsys):
    # row 1 of 81 is not among the rows a sample of every 16th row reads
    def move(rows):
        rows[1][2] = repr(float(rows[1][2]) + 1.0)
        rows[1][-1] = "0"

    mesh = _edited(torus_mesh_9x9, tmp_path, move)
    x = tuple(read_mesh(mesh)[1][1])
    assert _verify_exits_4(mesh, tmp_path, capsys) == (
        f"ingest error: mesh row at chart {x} disagrees with the rebuilt entry "
        "by 1.000e+00\n")


def test_ingest_check_reads_the_stored_residuals(torus_mesh_9x9, tmp_path, capsys):
    def zero(rows):
        for cols in rows:
            cols[-1] = "0"

    _, chart_pts, _, residuals = read_mesh(torus_mesh_9x9)
    # the first row whose rebuilt residual is not within 1e-8 (1 + itself) of 0
    j = int(np.argmax(residuals > 1e-8 * (1.0 + residuals)))
    assert residuals[j] > 1e-8
    mesh = _edited(torus_mesh_9x9, tmp_path, zero)
    assert _verify_exits_4(mesh, tmp_path, capsys) == (
        f"ingest error: mesh row at chart {tuple(chart_pts[j])} stores null residual "
        f"0.000e+00, the rebuilt entry has {residuals[j]:.3e}\n")


def test_stored_residual_of_an_excluded_row_fails(tmp_path, capsys):
    # the round preset's points are all spacelike: finite values, NaN residuals
    out = tmp_path / "round"
    main(["construct", "--entry", "palmer-sphere", "--params", "preset=round",
          "--grid", "5x5", "--out-dir", str(out)])
    def zero(rows):
        rows[0][-1] = "0"

    mesh = _edited(next(out.glob("*.mesh.txt")), tmp_path, zero)
    capsys.readouterr()
    err = _verify_exits_4(mesh, tmp_path, capsys)
    assert err.startswith(f"ingest error: mesh row at chart {tuple(read_mesh(mesh)[1][0])} "
                          "stores null residual 0.000e+00, the rebuilt entry excluded it: "
                          "spacelike violation: induced metric not positive definite")


def _nudge_chart(rows):
    rows[40][1] = repr(float(np.nextafter(float(rows[40][1]), np.inf)))


def _other_grid(rows):
    del rows[-9:]


@pytest.mark.parametrize("edit", [_nudge_chart, _other_grid], ids=["one-ulp", "8x9-rows"])
def test_chart_points_must_be_the_header_grid(torus_mesh_9x9, tmp_path, capsys, edit):
    mesh = _edited(torus_mesh_9x9, tmp_path, edit)
    assert "rows do not sample the grid its header names" in _verify_exits_4(
        mesh, tmp_path, capsys)


def test_stored_nan_row_with_a_finite_rebuild_fails(torus_mesh_9x9, tmp_path, capsys):
    def blank(rows):
        rows[30][2:] = ["nan"] * (len(rows[30]) - 2)

    mesh = _edited(torus_mesh_9x9, tmp_path, blank)
    x = tuple(read_mesh(mesh)[1][30])
    assert _verify_exits_4(mesh, tmp_path, capsys) == (
        f"ingest error: mesh row at chart {x} disagrees with the rebuilt entry by nan\n")


def test_stored_row_whose_rebuild_fails_names_its_reason(torus_mesh_9x9, tmp_path,
                                                         capsys, monkeypatch):
    # the rebuilt lifts fail past x0 = 0.3, where the mesh holds finite rows
    real = cli.space_form_lifts
    monkeypatch.setattr(cli, "space_form_lifts",
                        lambda *args: [_cut(lift) for lift in real(*args)])
    err = _verify_exits_4(torus_mesh_9x9, tmp_path, capsys)
    x = read_mesh(torus_mesh_9x9)[1]
    first = tuple(x[np.argmax(x[:, 0] > 0.3)])
    assert err == (f"ingest error: mesh row at chart {first} did not rebuild: "
                   f"GeometryError: cut at {first[0]}\n")


def test_construct_and_verify_mesh_solve_roots_twice(tmp_path, monkeypatch):
    # once on the threaded 9x9 grid, which is also the lifts' reference, and
    # once in the report's lift pass over the stencil of the 9x9 grid
    real, sizes = constructor._root_rows, []

    def counted(imm, kind, x):
        sizes.append(len(x))
        return real(imm, kind, x)

    monkeypatch.setattr(constructor, "_root_rows", counted)
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "9x9", "--out-dir", str(tmp_path)]) == EXIT_PASS
    assert sizes == [81, 9 * 81]
    sizes.clear()
    mesh = next(tmp_path.glob("*.mesh.txt"))
    assert main(["verify", "--mesh", str(mesh), "--out-dir", str(tmp_path)]) == EXIT_PASS
    assert sizes == [81, 9 * 81]


def _old_mesh_text(metadata, chart, ambient, residuals):
    """The mesh format written row by row: the reference for the array writer."""
    cols = [f"x{i}" for i in range(chart.shape[1])] \
        + [f"X{i}" for i in range(ambient.shape[1])] + ["null_residual"]
    lines = ["# marlift mesh v1"] + [f"# {k}: {metadata[k]}" for k in sorted(metadata)]
    lines.append(f"# columns: {' '.join(cols)}")
    for xc, amb, res in zip(chart, ambient, residuals):
        lines.append(" ".join(f"{v:.17g}" for v in list(xc) + list(amb) + [res]))
    return "\n".join(lines) + "\n"


def _same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def test_mesh_write_read_write_is_byte_identical(tmp_path):
    # an n = 3 mesh written directly, with NaN rows, signed zeros, extreme
    # magnitudes and values that need all 17 digits
    rng = np.random.default_rng(7)
    chart = rng.uniform(-1.0, 1.0, (40, 3))
    ambient = rng.normal(size=(40, 5)) * 10.0 ** rng.integers(-300, 300, (40, 5))
    ambient[[3, 17]] = np.nan
    ambient[5, 1], chart[6, 2] = -0.0, 0.1 + 0.2
    residuals = rng.uniform(0.0, 1e-6, 40)
    residuals[[3, 17, 20]] = np.nan
    metadata = {"entry": "n3", "params": "", "verdict": "inconclusive", "step": "0.0001"}
    first = tmp_path / "first.mesh.txt"
    write_mesh(first, metadata, chart, ambient, residuals)
    assert first.read_text() == _old_mesh_text(metadata, chart, ambient, residuals)
    meta, chart2, ambient2, residuals2 = read_mesh(first)
    assert meta.pop("columns") == "x0 x1 x2 X0 X1 X2 X3 X4 null_residual"
    assert meta == metadata
    for a, b in ((chart, chart2), (ambient, ambient2), (residuals, residuals2)):
        assert _same_bits(a, b)
    second = tmp_path / "second.mesh.txt"
    write_mesh(second, meta, chart2, ambient2, residuals2)
    assert second.read_bytes() == first.read_bytes()


def test_report_determinism_except_timestamp(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                     "--grid", "5x5", "--out-dir", str(out)]) == EXIT_PASS

    def strip_ts(path):
        return [ln for ln in path.read_text().splitlines()
                if not ln.startswith("generated:")]

    r1 = next(out1.glob("*.report.txt"))
    r2 = next(out2.glob("*.report.txt"))
    assert strip_ts(r1) == strip_ts(r2)
    assert (next(out1.glob("*.mesh.txt")).read_text()
            == next(out2.glob("*.mesh.txt")).read_text())


def test_construct_perturbed_entry_fails(tmp_path, capsys):
    code = main(["verify", "--entry", "spacelike-graph", "--grid", "5x5",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_PASS  # expected verdict is not_marginal and matches
    code2 = main(["verify", "--entry", "chen-l1", "--params", "f=x**2",
                  "--grid", "5x5", "--out-dir", str(tmp_path)])
    assert code2 == EXIT_PASS


def test_root_index_selection(tmp_path, capsys):
    code = main(["construct", "--entry", "sphere-torus", "--ambient",
                 "sphere-product", "--grid", "5x5", "--root-index", "1",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_PASS
    out = capsys.readouterr().out
    assert "root 1:" in out
    assert len(list(tmp_path.glob("*.report.txt"))) == 1


def test_root_index_out_of_range(tmp_path):
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "5x5", "--root-index", "3",
                 "--out-dir", str(tmp_path)]) == EXIT_USAGE


def test_verify_writes_report_file(tmp_path, capsys):
    assert main(["verify", "--entry", "chen-l2", "--grid", "5x5",
                 "--out-dir", str(tmp_path)]) == EXIT_PASS
    reports = list(tmp_path.glob("*.report.txt"))
    assert len(reports) == 1
    assert "verdict: marginally_trapped" in reports[0].read_text()


def test_inconclusive_exit_status(tmp_path, capsys):
    # the offset support field degenerates everywhere: inconclusive, exit 2
    from marlift.cli import EXIT_INCONCLUSIVE

    code = main(["verify", "--entry", "palmer-sphere", "--params",
                 "preset=offset", "--grid", "5x5", "--out-dir", str(tmp_path)])
    assert code == EXIT_INCONCLUSIVE


def test_construct_support_entry(tmp_path, capsys):
    code = main(["construct", "--entry", "palmer-sphere", "--grid", "5x5",
                 "--out-dir", str(tmp_path)])
    assert code == EXIT_PASS
    assert len(list(tmp_path.glob("*.mesh.txt"))) == 1


def test_reports_build_no_records_unless_read(tmp_path, monkeypatch):
    # the CLI and the report read the per-point table; PointRecords are a
    # view built only when `records` is read
    def no_record(*args, **kwargs):
        raise AssertionError("a PointRecord was built")

    monkeypatch.setattr(verifier, "PointRecord", no_record)
    assert main(["construct", "--entry", "torus", "--ambient", "minkowski",
                 "--grid", "9x9", "--out-dir", str(tmp_path)]) == EXIT_PASS
    assert main(["verify", "--entry", "chen-l1", "--out-dir", str(tmp_path)]) == EXIT_PASS
    mesh = next(tmp_path.glob("*.mesh.txt"))
    assert main(["verify", "--mesh", str(mesh), "--out-dir", str(tmp_path)]) == EXIT_PASS
    lift = _spacelike_in_part()
    report = verifier.assemble_report(lift, resolution=(9, 9))
    render_report(report)
    monkeypatch.undo()

    records = report.records
    assert records == verifier.assemble_report(lift, resolution=(9, 9)).records
    assert len(records) == report.total == 81
    assert report.excluded_count == report.spacelike_failures == 54
    for r, x, value, row, reason in zip(records, report.x, report.values,
                                        report.table, report.reasons):
        assert r.x == tuple(x) and r.excluded == bool(reason) and r.reason == reason
        if reason:
            assert r.position is None and np.isnan(r.null_residual)
        else:
            assert r.position == tuple(value)
            assert (r.min_eig_g, r.null_residual_primary, r.null_residual_opposite,
                    r.hvec_norm_sq) == tuple(row[:4])


def _spacelike_in_part():
    # (x, y, 0, 0.9 x^2) in flat space: timelike where |x| > 1/1.8
    chart = Chart(2, [-1.5, -1.0], [1.5, 1.0], (9, 9))
    return LiftedImmersion(LorentzAmbient.for_kind(AmbientKind.MINKOWSKI, 2), chart,
                           lambda x: np.stack([x[:, 0], x[:, 1], np.zeros(len(x)),
                                               0.9 * x[:, 0] ** 2], axis=1),
                           name="spacelike-in-part")


def _cut(lift, name=None):
    """The values of `lift` as an array map whose rows fail for x0 > 0.3."""
    def fn(x):
        rows = lift.evaluate(x, 0)
        bad = x[:, 0] > 0.3
        return Rows(np.where(bad[:, None], np.nan, rows.values),
                    [GeometryError(f"cut at {p[0]}") if b else e
                     for p, b, e in zip(x, bad, rows.errors)])

    return LiftedImmersion(lift.ambient, lift.chart, fn, name=name or lift.name)


def _cut_torus():
    return _cut(lift_minkowski(shapes.torus(2.0, 1.0)), "cut-torus")


@pytest.mark.parametrize("make", [_cut_torus, _spacelike_in_part],
                         ids=["row-errors", "spacelike"])
def test_mesh_rows_are_the_lifts_own_values(make, tmp_path):
    lift = make()
    report = verifier.assemble_report(lift, resolution=(9, 9))
    assert 0 < report.excluded_count < report.total
    _, mesh = _write_outputs(RunConfig(entry=lift.name, grid=(9, 9), out_dir=tmp_path),
                             lift, report, None, lift.name)
    _, chart_pts, ambient_pts, residuals = read_mesh(mesh)
    grid = lift.chart.with_resolution((9, 9)).grid(margin=4.0 * DEFAULTS.step_h)
    assert np.array_equal(chart_pts, grid)
    assert np.array_equal(ambient_pts, lift.evaluate(grid, 0).values,
                          equal_nan=True)
    excluded = np.array(report.reasons) != ""
    assert np.array_equal(np.isnan(residuals), excluded)
    # excluded points keep the values the lift has there
    assert not np.isnan(ambient_pts[excluded]).all()


@pytest.mark.parametrize("make", [lambda: lift_minkowski(shapes.torus(2.0, 1.0)),
                                  _cut_torus, _spacelike_in_part],
                         ids=["torus", "row-errors", "spacelike"])
def test_mesh_reads_back_the_report_columns_bit_for_bit(make, tmp_path):
    lift = make()
    report = verifier.assemble_report(lift, resolution=(9, 9))
    _, mesh = _write_outputs(RunConfig(entry=lift.name, grid=(9, 9), out_dir=tmp_path),
                             lift, report, None, lift.name)
    _, chart_pts, ambient_pts, residuals = read_mesh(mesh)
    assert _same_bits(chart_pts, report.x)
    assert _same_bits(ambient_pts, report.values)
    assert _same_bits(residuals, report.null_residual)
