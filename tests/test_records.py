"""The record contract: every record class is an immutable NamedTuple that
takes its fields by position or by keyword, and the three records that
check their fields still do."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import marlift
from marlift import shapes
from marlift.catalog import CATALOG, catalog_lookup
from marlift.cli import RunConfig
from marlift.constructor import (
    AmbientKind,
    curvature_polynomial,
    flat_slice,
    lift_minkowski,
    solve_roots,
    thread_root_fields,
)
from marlift.core import (
    DEFAULTS,
    Chart,
    DimensionMismatchError,
    OutOfDomainError,
    Signature,
)
from marlift.hypersurface import ShapeSpectrum, frame_rows, spectrum_at
from marlift.verifier import assemble_report, lorentz_frame_at


def _classes():
    for info in pkgutil.iter_modules(marlift.__path__):
        module = importlib.import_module(f"marlift.{info.name}")
        for value in vars(module).values():
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield value


def _samples():
    """One record of every class, as the pipeline builds it."""
    imm = shapes.torus(2.0, 1.0)
    points = imm.chart.grid(margin=0.1)[:3]
    frame = frame_rows(imm, points)
    spectrum = spectrum_at(frame.row(0))
    poly = curvature_polynomial(spectrum, AmbientKind.MINKOWSKI)
    lift = lift_minkowski(imm)
    report = assemble_report(lift, resolution=(3, 3))
    return [DEFAULTS, Signature(3, 1), imm.chart, imm.jet(points), imm.space, imm, frame,
            spectrum, poly, solve_roots(poly)[0], lift.ambient, lift.context(points[0]),
            lift, flat_slice(imm.chart), catalog_lookup("palmer-sphere")[1],
            thread_root_fields(imm, AmbientKind.MINKOWSKI, resolution=(3, 3)),
            lorentz_frame_at(lift, points[0]), report.records[0], report, CATALOG["torus"],
            RunConfig(entry="torus", grid=(5, 5))]


SAMPLES = _samples()


def test_no_class_is_a_dataclass():
    # each dataclass compiles its generated methods at every import
    assert [c.__name__ for c in _classes() if dataclasses.is_dataclass(c)] == []


def test_the_samples_cover_every_record_class():
    records = {c.__name__ for c in _classes()
               if issubclass(c, tuple) and not c.__name__.startswith("_")}
    assert records == {type(r).__name__ for r in SAMPLES}
    assert len(records) == 21


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_are_immutable(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("record", SAMPLES, ids=lambda r: type(r).__name__)
def test_records_take_their_fields_by_position_or_keyword(record):
    cls = type(record)
    for made in (cls(*record), cls(**record._asdict())):
        assert type(made) is cls
        assert all(a is b or a == b for a, b in zip(made, record))


def test_chart_normalizes_and_checks_its_fields():
    chart = Chart(dim=2, lower=[0, 0], upper=[1, 2], resolution=np.array([3, 4]))
    assert chart.lower.dtype == float and chart.resolution == (3, 4)
    assert type(chart.resolution[0]) is int
    for args, error in [((2, [0.0], [1.0], (3, 3)), DimensionMismatchError),
                        ((2, [0.0, 0.0], [1.0, 1.0], (3, 3, 3)), DimensionMismatchError),
                        ((2, [1.0, 0.0], [0.0, 1.0], (3, 3)), OutOfDomainError),
                        ((2, [0.0, 0.0], [1.0, 1.0], (2, 3)), OutOfDomainError)]:
        with pytest.raises(error):
            Chart(*args)


def test_signature_checks_its_counts():
    with pytest.raises(DimensionMismatchError):
        Signature(-1, 1)
    with pytest.raises(DimensionMismatchError):
        Signature(plus=2, minus=-1)
    assert np.array_equal(Signature(2, 1).signs, [1.0, 1.0, -1.0])


@pytest.mark.parametrize("kappas,mults,raw", [
    ((1.0,), (1, 1), (1.0, 1.0)),
    ((1.0,), (1,), (1.0, 1.0)),
    ((1.0, 2.0), (0, 2), (1.0, 2.0)),
], ids=["unaligned", "wrong-sum", "zero-multiplicity"])
def test_shape_spectrum_checks_its_multiplicities(kappas, mults, raw):
    with pytest.raises(DimensionMismatchError):
        ShapeSpectrum(kappas, mults, raw)
    with pytest.raises(DimensionMismatchError):
        ShapeSpectrum(kappas=kappas, mults=mults, raw=raw)


def test_report_records_are_built_once_and_reports_compare_by_identity():
    report = SAMPLES[-3]
    assert report.records is report.records
    twin = type(report)(*report)
    assert report == report and report != twin
    assert len({report, twin}) == 2


def test_the_default_run_config_params_cannot_be_changed():
    params = RunConfig().params
    assert params == {}
    with pytest.raises(TypeError):
        params["f"] = 1.0
