from pathlib import Path

import numpy as np
import pytest

from ballmorph import BallSet
from ballmorph.cli import main
from ballmorph.serial import parse_diagram, parse_diagram_text, parse_momentum, to_json
from ballmorph.errors import ParseError, ValidationError
from conftest import make_config, serialize_diagram

TWO = "# two unit balls\nn 2\n0 0 0 1 1\n1 0 0 1 1\n"


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_parse_diagram_basics(tmp_path):
    balls = parse_diagram(write(tmp_path, "two.txt", TWO))
    assert balls.n == 2
    assert np.allclose(balls.centers[1], [1, 0, 0])
    assert np.all(balls.weights == 1.0)


def test_parse_diagram_errors():
    with pytest.raises(ValidationError):
        parse_diagram_text("0 0 0 -1 1\n")
    with pytest.raises(ParseError) as err:
        parse_diagram_text("0 0 zero 1 1\n")
    assert err.value.line == 1
    # The column is the bad token's own, not that of an earlier substring.
    for text, column in (("1e5 e5 0 1 1\n", 5), ("n 1\n  0 0 zero 1 1\n", 7)):
        with pytest.raises(ParseError) as err:
            parse_diagram_text(text)
        assert (err.value.line, err.value.column) == (text.count("\n"), column)
    assert str(err.value) == "bad number 'zero' (line 2, column 7)"
    with pytest.raises(ValidationError):
        parse_diagram_text("n 3\n0 0 0 1 1\n")
    with pytest.raises(ParseError):
        parse_diagram_text("0 0 0 1\n")


def test_serialize_round_trip(rng):
    balls, _ = make_config(rng, 6, require_triangle=False, margin=None)
    again = parse_diagram_text(serialize_diagram(balls))
    assert np.array_equal(again.centers, balls.centers)
    assert np.array_equal(again.radii, balls.radii)
    assert np.array_equal(again.weights, balls.weights)


def test_to_json_formats_17_digits():
    s = to_json({"x": 1.0 / 3.0, "flag": True, "v": [1.5, None]})
    assert "0.33333333333333331" in s
    assert "true" in s and "null" in s


def test_compute_two_balls(tmp_path, capsys):
    path = write(tmp_path, "two.txt", TWO)
    code = main(["compute", "--input", path, "--measures", "k"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("K = 12.566370614")


def test_compute_all_measures(tmp_path, capsys):
    path = write(tmp_path, "two.txt", TWO)
    assert main(["compute", "--input", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out] == ["V", "A", "M", "K"]
    assert "+/-" not in out[0]
    # --mc-samples adds a Monte Carlo cross-check of the exact V.
    assert main(["compute", "--input", path, "--mc-samples", "20000"]) == 0
    out_mc = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in out_mc] == ["V", "V_mc", "A", "M", "K"]
    assert out_mc[0] == out[0] and "+/-" in out_mc[1]


def test_exit_codes(tmp_path, capsys):
    bad = write(tmp_path, "bad.txt", "0 0 zero 1 1\n")
    assert main(["compute", "--input", bad]) == 3
    assert main(["compute", "--input", str(tmp_path / "missing.txt")]) == 3
    neg = write(tmp_path, "neg.txt", "0 0 0 -1 1\n")
    assert main(["compute", "--input", neg]) == 1
    tangent = write(tmp_path, "tan.txt", "0 0 0 1 1\n2 0 0 1 1\n")
    assert main(["compute", "--input", tangent]) == 2
    capsys.readouterr()
    # Numeric options outside their domain: exit 1 with a one-line message.
    two = write(tmp_path, "two.txt", TWO)
    mom = write(tmp_path, "mom.txt", "0 0 0\n1 0 0\n")
    for argv in (["compute", "--mc-samples", "-5"], ["grad", "--mc-samples", "-1"],
                 ["compute", "--seed", "-1"], ["fdcheck", "--step", "0"],
                 ["probe", "--momentum", mom, "--steps", "1"],
                 ["degeneracy", "--tol", "nan"], ["degeneracy", "--tol", "-1"],
                 ["fdcheck", "--tol", "nan"], ["compute", "--measures", ""],
                 ["compute", "--measures", "v,v,k"]):
        assert main([*argv, "--input", two]) == 1, argv
        out = capsys.readouterr()
        assert out.out == "" and len(out.err.splitlines()) == 1, (argv, out)


def test_grad_single_ball(tmp_path, capsys):
    path = write(tmp_path, "one.txt", "0.25 0 0 1 2\n")
    code = main(["grad", "--input", path])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip() == "G[0] = 0 0 0"


def test_fdcheck_generic_and_strict_tol(tmp_path, capsys, rng):
    balls, _ = make_config(rng, 5)
    path = write(tmp_path, "five.txt", serialize_diagram(balls))
    assert main(["fdcheck", "--input", path, "--step", "1e-5", "--tol", "1e-5"]) == 0
    capsys.readouterr()
    # A tiny --tol is valid: the comparison runs and fails it.
    assert main(["fdcheck", "--input", path, "--tol", "1e-16"]) == 1
    out = capsys.readouterr()
    assert out.out.startswith("max abs gap") and out.err == ""


@pytest.mark.parametrize("shift", [1e4, 1e5])
def test_fdcheck_passes_far_from_the_origin(tmp_path, capsys, shift):
    # The radical centres are solved relative to a member centre, so the
    # analytic gradient keeps its agreement with FD (rel 1e-5) on g08 moved
    # far from the origin.
    balls = parse_diagram(str(Path(__file__).parent / "data" / "g08.txt"))
    moved = BallSet(balls.centers + shift * np.array([1.0, 0.7, 0.3]), balls.radii,
                    balls.weights)
    path = write(tmp_path, "g08_far.txt", serialize_diagram(moved))
    assert main(["fdcheck", "--input", path]) == 0
    assert capsys.readouterr().out.startswith("max abs gap")


def test_json_reproducibility(tmp_path, capsys, rng):
    balls, _ = make_config(rng, 5)
    path = write(tmp_path, "five.txt", serialize_diagram(balls))
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    assert main(["grad", "--input", path, "--json", out1,
                 "--mc-samples", "5000", "--seed", "42"]) == 0
    assert main(["grad", "--input", path, "--json", out2,
                 "--mc-samples", "5000", "--seed", "42"]) == 0
    capsys.readouterr()
    b1 = open(out1, "rb").read()
    b2 = open(out2, "rb").read()
    assert b1 == b2
    import json
    doc = json.loads(b1)
    assert doc["provenance"]["seed"] == 42
    assert len(doc["gradient"]["per_ball"]) == 5
    assert isinstance(doc["intrinsic_volumes"]["V"], float)
    assert set(doc["intrinsic_volumes"]["V_mc"]) == {"estimate", "std_error"}


def test_degeneracy_command(tmp_path, capsys):
    tangent = write(tmp_path, "tan.txt", "0 0 0 1 1\n2 0 0 1 1\n")
    code = main(["degeneracy", "--input", tangent, "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "condition II" in out
    assert "merge_split_components" in out


def test_probe_command(tmp_path, capsys):
    diagram = write(tmp_path, "pair.txt", "0 0 0 1 1\n2.5 0 0 1 1\n")
    momentum = write(tmp_path, "mom.txt", "0 0 0\n-1 0 0\n")
    code = main(["probe", "--input", diagram, "--momentum", momentum,
                 "--tau-min", "0", "--tau-max", "1", "--steps", "11"])
    out = capsys.readouterr().out
    assert code == 0
    assert "DEGENERATE" in out
    assert "one-sided limits" in out


def test_probe_flags_coincident_centers(tmp_path, capsys):
    # Ball 1 passes through the centre of ball 0 at tau = 0.5: that row is
    # undefined and has no one-sided limits, and the other rows still print.
    diagram = write(tmp_path, "three.txt", "0 0 0 1 1\n1.5 0 0 1 2\n0 1.5 0 1 0.5\n")
    momentum = write(tmp_path, "mom.txt", "0 0 0\n-3 0 0\n0 0 0\n")
    code = main(["probe", "--input", diagram, "--momentum", momentum, "--steps", "5"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == "tau gauss grad_norm defined"
    assert [line.split()[0] for line in lines[1:6]] == ["0", "0.25", "0.5", "0.75", "1"]
    assert lines[3] == "0.5 - - DEGENERATE (balls 0 and 1 have coincident centers)"
    assert not any(line.startswith("one-sided limits at tau=0.5:") for line in lines)


def test_parse_momentum(tmp_path):
    path = write(tmp_path, "mom.txt", "# momentum\n0 0 1\n0 1 0\n")
    t = parse_momentum(path, 2)
    assert t.shape == (2, 3)
    with pytest.raises(ValidationError):
        parse_momentum(path, 3)
