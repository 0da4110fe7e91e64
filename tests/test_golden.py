"""Golden outputs of small seeded diagrams.

Each ``data/gNN.txt`` is a random diagram with n = NN (radii 0.2 to 2.5,
weights -2 to 2) in which some vertices and edges enter the complex only
as faces of higher simplices.  ``data/gNN.json`` holds its alpha simplices,
A, M, K and per-ball G as computed by commit 452ec6d, which decided vertex
and edge membership by projecting onto the power cells.  ``data/g60`` is
drawn at the benchmark's density instead (radii 0.7 to 1.3 in a cube of
side 1.1 n^(1/3), margin-filtered like perfbench/gen.py): a ball meets
about 16 others, so the neighbour-local candidate, arc-cover and volume
paths skip most balls.  Its outputs were computed by commit 1a50906,
which scanned every index tuple and every ball.  The ``G`` rows of g16,
g20 and g60 were rewritten when sphtri.darea_da and dcap_da came to read
the product of sines from the extended-precision ``_radicand`` instead of
plain double: G moved by at most 4.8e-13 (g16), 5.4e-13 (g20) and 1.5e-11
(g60) of max|G|, all in the corner term h, and now lies within 7.6e-15 of
max|G| of the gradient with those two kernels evaluated at 60 digits (the
old rows were up to 1.5e-11 off).  Their simplices, A, M and K are as
recorded.  A change that keeps the outputs must match them exactly
(simplices) or to rel 1e-12.
"""

import json
from pathlib import Path

import pytest

from ballmorph import evaluate
from ballmorph.serial import parse_diagram

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", ["g08", "g12", "g16", "g20", "g60"])
def test_golden_outputs(name):
    want = json.loads((DATA / f"{name}.json").read_text())
    ev = evaluate(parse_diagram(str(DATA / f"{name}.txt")))
    assert sorted(list(s) for s in ev.cx.alpha_simplices()) == want["simplices"]
    vols = ev.volumes
    assert [vols.area, vols.mean, vols.gauss] == pytest.approx(
        [want["A"], want["M"], want["K"]], rel=1e-12)
    g = ev.gradient.per_ball
    for row, want_row in zip(g.tolist(), want["G"], strict=True):
        assert row == pytest.approx(want_row, rel=1e-12)
