"""The benchmark's own output checks, run on the CLI in-process.

For two seeds of each workload in BENCHMARK.json, perfbench's generator
writes the input diagram, ``ballmorph.cli.main`` runs the workload's
command on it, and the exit code, standard output and JSON bytes go to the
check function of ``perfbench/run.py``, imported unchanged.  compute runs
twice, so the check also sees the byte identity it demands within a run.
The layer names that ``perfbench/trace_driver.py`` wraps must each be bound
to a function in a ``ballmorph`` module that the CLI loads, or the traced
runs lose that layer's spans; two runs under the trace driver, in a
subprocess of their own, check that the spans and the FD count appear.
"""

import json
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType, SimpleNamespace

import pytest

import run as perfbench
import trace_driver
import ballmorph
from ballmorph import build_alpha_complex
from ballmorph.cli import main
from ballmorph.serial import parse_diagram

CASES = [(name, seed) for name in ("grad-large", "fdcheck-small", "compute-volume")
         for seed in (1, 2)]


@pytest.mark.parametrize("name,seed", CASES)
def test_workload_passes_benchmark_check(name, seed, tmp_path, capsys):
    wl = perfbench.WORKLOADS[name]
    inp = perfbench.make_input(SimpleNamespace(seed=seed), wl, tmp_path)
    argv = [wl.command, "--input", str(inp.path)]
    out_json = tmp_path / "out.json"
    if wl.json_out:
        argv += ["--json", str(out_json)]
    state = {}
    for _ in range(2 if wl.json_out else 1):
        out_json.unlink(missing_ok=True)
        rc = main(argv)
        stdout = capsys.readouterr().out
        json_bytes = out_json.read_bytes() if out_json.exists() else None
        assert wl.check(inp, rc, stdout, json_bytes, state) is None


@pytest.mark.parametrize("name", ["grad-large", "fdcheck-small"])
def test_trace_counts_are_the_complex_arrays(name, tmp_path):
    # The benchmark's per-layer counts of alpha edges, triangles and
    # tetrahedra come from alpha_simplices(); they are the lengths of the
    # complex's key arrays.
    wl = perfbench.WORKLOADS[name]
    balls = parse_diagram(str(perfbench.make_input(SimpleNamespace(seed=1), wl, tmp_path).path))
    cx = build_alpha_complex(balls)
    attrs = {}
    trace_driver._note_complex(attrs, (balls,), {}, cx)
    assert attrs == {"edges": len(cx.edge_keys), "triangles": len(cx.triangle_table.ijk),
                     "tets": len(cx.tet_keys)}
    assert min(attrs.values()) > 0


def test_trace_driver_layer_functions_are_bound():
    bound = {name for mod_name, mod in list(sys.modules.items())
             if mod is not None and (mod_name == "ballmorph"
                                     or mod_name.startswith("ballmorph."))
             for name, obj in vars(mod).items() if isinstance(obj, FunctionType)}
    assert sorted(set(trace_driver.LAYER_FUNCTIONS) - bound) == []


def traced_run(tmp_path, *cli_args):
    """Spans document of one CLI run under perfbench/trace_driver.py."""
    env = dict(os.environ, PYTHONPATH=str(Path(ballmorph.__file__).parents[1]))
    spans = tmp_path / "spans.json"
    subprocess.run([sys.executable, trace_driver.__file__, str(spans), "0", "--", *cli_args],
                   env=env, cwd=tmp_path, capture_output=True, check=True)
    return json.loads(spans.read_text(encoding="utf-8"))


def test_trace_driver_finds_every_layer(tmp_path):
    # The trace wraps the layer functions by module-level name, so the
    # pipeline must keep calling them through those names.
    data = Path(__file__).parent / "data"
    fd = traced_run(tmp_path, "fdcheck", "--input", str(data / "g08.txt"))
    assert fd["missing"] == []
    # fd_gradient calls its objective once per ball, on a stack of six states.
    assert [s["attrs"]["evals"] for s in fd["spans"] if s["name"] == "fd_gradient"] == [8]

    grad = traced_run(tmp_path, "grad", "--input", str(data / "g20.txt"),
                      "--json", str(tmp_path / "out.json"))
    assert grad["missing"] == []
    names = {s["name"] for s in grad["spans"]}
    assert {"compute_measures", "weighted_gauss", "intrinsic_volumes", "term_d", "term_e",
            "term_f", "term_h", "general_position_check"} <= names
