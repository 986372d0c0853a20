"""The benchmark's tracer and checks must still work on the program.

perfbench/tracer.py patches skeinlab from outside, at the attribute each
caller looks up (a class's own __dict__ for methods), and perfbench/checks.py
reads the program's outputs, such as Poly.terms keys as (var, power) pairs.
A refactor that moves a wrapped function or changes an output format would
otherwise only show up when `perfbench/run.py` is run.  These tests read
perfbench/ and change nothing there.
"""

import importlib
from pathlib import Path

import pytest

from skeinlab import exactpoly

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_installs_every_wrap_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    originals = {
        cls: (cls.__dict__["__mul__"], cls.__dict__["__rmul__"])
        for cls in (exactpoly.Poly, exactpoly.LaurentPoly)
    }
    t = tracer.Tracer()
    try:
        t.install()
        assert len(t._patched) == len(tracer.WRAPS)
        t1 = exactpoly.SubsetVar((1,))
        x = exactpoly.Poly.variable(t1)
        y = exactpoly.LaurentPoly(1, {(1,): 1})
        assert x * x == exactpoly.Poly({((t1, 2),): 1})
        assert 2 * x == x + x
        assert y * y == exactpoly.LaurentPoly(1, {(2,): 1})
        calls = t.summary()
        assert calls["exactpoly.Poly.mul.calls"] == 2
        assert calls["exactpoly.LaurentPoly.mul.calls"] == 1
    finally:
        t.restore()
    for cls, (mul, rmul) in originals.items():
        assert cls.__dict__["__mul__"] is mul and cls.__dict__["__rmul__"] is rmul


@pytest.mark.parametrize(
    "name", ["trace-reduce", "abelian-laurent", "harvest", "two-bridge"]
)
def test_one_seeded_round_of_each_workload_passes_its_checks(monkeypatch, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS[name]()
    workload.setup(1)
    _, failed = workload.run_round()
    assert failed == 0
    assert workload.check() == []


def test_tracer_sees_every_harvest_layer(monkeypatch):
    # The harvest's layer metrics read functions at the names the tracer
    # wraps; a refactor that routes around one would zero its metric.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    workloads = importlib.import_module("workloads")
    workload = workloads.WORKLOADS["harvest"]()
    t = tracer.Tracer()
    try:
        t.install()  # before set-up, as perfbench/worker.py does
        workload.setup(1)
        _, failed = workload.run_round()
    finally:
        t.restore()
    assert failed == 0
    calls = t.summary()
    for name in (
        "oracle.sample_representation",
        "charvar._monomial_matrix_mod_p",
        "charvar._certified_zero",
        "modlin.nullspace_mod_p",
        "modlin.primes_covering",
    ):
        assert calls.get(f"{name}.calls", 0) > 0, name
