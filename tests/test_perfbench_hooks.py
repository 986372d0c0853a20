"""The benchmark's tracer must still find every function it wraps.

perfbench/tracer.py patches skeinlab from outside, at the attribute each
caller looks up (a class's own __dict__ for methods).  A refactor that moves
one of them would otherwise only show up when `perfbench/run.py --trace 1`
is run.  This test reads perfbench/ and changes nothing there.
"""

import importlib
from pathlib import Path

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
        y = exactpoly.LaurentPoly.monomial(1, (1,))
        assert x * x == exactpoly.Poly({((t1, 2),): 1})
        assert 2 * x == x + x
        assert y * y == exactpoly.LaurentPoly.monomial(1, (2,))
        calls = t.summary()
        assert calls["exactpoly.Poly.mul.calls"] == 2
        assert calls["exactpoly.LaurentPoly.mul.calls"] == 1
    finally:
        t.restore()
    for cls, (mul, rmul) in originals.items():
        assert cls.__dict__["__mul__"] is mul and cls.__dict__["__rmul__"] is rmul
