"""Byte-level golden outputs of the command-line interface.

``data/cli`` holds what commit 96a047f printed (and wrote with ``--json``)
for one run of each subcommand below, except that ``g20_compute.*`` and
``g20_grad.json`` were regenerated when V became exact (schema version 2):
only ``schema_version``, ``V`` and ``V_mc`` moved.  ``g20_grad.*``,
``g20_compute.*`` and ``g08_fdcheck.out`` were regenerated again when the
arcs came to be built from exposed corners and sigma_ij became the sum of
arc extents: arc order and that sum moved last bits, by at most 3.1e-15
relative in any gradient entry and 9.1e-16 in V, A, M and K, and the
fdcheck gap, a difference of two rounding-level values, in its 7th digit
(1.4e-6 relative).  ``g20_grad.*`` and ``g08_fdcheck.out`` were
regenerated once more when the patch term came to sum the arc-endpoint
tangents of gradient.arc_endpoint_data and the quadrangle derivatives
came to use darea_da: only gradient entries moved, by at most 3.5e-15 of
max|G|, and the fdcheck gap in its 6th digit (5.6e-6 relative).
``g20_grad.*``, ``g20_compute.*`` and ``g08_fdcheck.out`` were regenerated
again when sigma_i came to take each corner's turn from the normal
triangle (sphtri.vertex_angle) and the derivative kernels darea_da and
dcap_da came to read the extended-precision product of sines: V, A, M and
K moved by at most 5.4e-15 relative, the gradient by at most 5.4e-13 of
max|G| (term h only), and the fdcheck gap from 1.267e-9 to 1.190e-9.
``g20_grad.*``, ``g20_compute.json``, ``g08_fdcheck.out`` and
``t03_probe.out`` were regenerated when the corner formulas came to run on
arrays over one corner table per complex (numpy's arcsin and arctan2 round
some last bits unlike math's) and the patch term's arc swing became one
pair row per arc endpoint: V, A, M and K kept every byte, the corner part
of K moved by 5.8e-16 relative, the gradient entries by at most 1.1e-16
of max|G|, the probe's grad_norm column by at most 3.8e-16 relative, and
the fdcheck gap from 1.190e-9 to 1.101e-9.
``g20_grad.*``, ``g20_compute.*`` and ``g08_fdcheck.out`` were regenerated
when the radical centres came to be solved relative to each triple's first
centre: V, A and K moved by at most 2.2e-15 relative (M kept every byte),
the gradient entries by at most 1.5e-14 of max|G|, the degeneracy report's
min_residual by 6.8e-14 relative, and the fdcheck gap from 1.101e-9 to
7.70e-10.
``g20_grad.*``, ``g20_compute.*``, ``g08_fdcheck.out`` and ``t03_probe.out``
were regenerated when the code that kept the rounding of older scalar
code went: squares and cubes by numpy instead of Python's ``**``, the arc
angles by np.arctan2 instead of math.atan2, and each sphere's circuit
terms of sigma_i added in one bincount, whole circles first and then the
links in row order, instead of circuit by circuit.  The intrinsic sums,
one np.bincount per state instead of Python's sum, kept their bits on
Python 3.11 and no longer depend on the version.  V, A, M and K moved by
at most 1.8e-15 relative, the gradient entries by at most 2.2e-16 of
max|G|, and the probe's gauss and grad_norm columns by at most 2.6e-16
relative; min_residual and the fdcheck gap kept every byte, and the
fdcheck rel moved in its 12th digit.
``data/p20.txt`` is an n=20 diagram
with three planted external near-tangencies, written with
``perfbench/gen.make_input(7, 20, "random", <unbounded bands>, planted=3)``.
``t03_probe.out`` is what commit bbfe832 printed for a probe along
``data/t03_momentum.txt``, whose path crosses a circle tangency of
``data/t03.txt`` at tau = 0.5: one row is DEGENERATE and one line gives
the one-sided gradient limits there.
The golden tests in test_golden.py compare floats to rel 1e-12; these
require every byte to stay.  A change that means to move outputs
regenerates these files and says so.
"""

from pathlib import Path

import pytest

from ballmorph.cli import main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli"

CASES = {
    "g20_grad": (["grad", "--input", "g20.txt"], True),
    "g20_compute": (["compute", "--input", "g20.txt", "--mc-samples", "2000",
                     "--seed", "3"], True),
    "g08_fdcheck": (["fdcheck", "--input", "g08.txt"], False),
    "p20_degeneracy": (["degeneracy", "--input", "p20.txt"], False),
    "t03_probe": (["probe", "--input", "t03.txt", "--momentum", "t03_momentum.txt"],
                  False),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_bytes(name, tmp_path, capsysbinary):
    args, writes_json = CASES[name]
    args = [str(DATA / a) if a.endswith(".txt") else a for a in args]
    out_json = tmp_path / "out.json"
    if writes_json:
        args += ["--json", str(out_json)]
    assert main(args) == 0
    captured = capsysbinary.readouterr()
    assert captured.err == b""
    assert captured.out == (GOLDEN / f"{name}.out").read_bytes()
    if writes_json:
        assert out_json.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
