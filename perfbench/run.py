"""ballmorph benchmark: seeded CLI workloads run as a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: the library is imported from
``src/``, and the benchmark exits with code 2 when that is absent.  One
client runs one ``python -m ballmorph.cli`` process at a time and waits
for it to exit, for S seconds, then checks every output.  The input
diagram is generated from the seed by ``gen.py``, which uses numpy only.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` untraced operations alternate
with operations run under ``trace_driver.py``, and the JSON object holds
the per-layer metrics.  The lines before it give every metric with its
unit, ``fail_frac``, ``op_tail_s`` where defined, and the provenance.
README.md in this directory explains the workloads and metrics.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import gen

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 10
OP_TIMEOUT_S = 120.0
TAIL_BEYOND = 10                # samples required beyond the tail percentile
TAIL_MIN_PERCENTILE = 50.0      # below the median it is not a tail
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
GRAD_LINE = re.compile(r"^G\[(\d+)\] = (\S+) (\S+) (\S+)$", re.M)
EVENT_LINE = re.compile(
    r"^condition II simplex \((\d+), (\d+)\) residual \S+ event (\S+)$", re.M)


@dataclass
class Input:
    path: Path
    centers: np.ndarray
    radii: np.ndarray
    plants: list
    cliques: tuple          # candidate pairs, triples, quads of the circle graph
    sha256: str


@dataclass
class Op:
    wall_s: float
    rss_mb: float
    traced: bool
    error: str = None       # None when the exit code and the output check pass
    layers: dict = field(default_factory=dict)


# -- output checks: each returns None or the reason the output is wrong ----

def check_grad(inp, rc, stdout, json_bytes, state):
    if rc != 0:
        return f"exit code {rc}"
    rows = {int(m[0]): [float(v) for v in m[1:]] for m in GRAD_LINE.findall(stdout)}
    n = inp.centers.shape[0]
    if sorted(rows) != list(range(n)):
        return f"expected {n} gradient rows, got {len(rows)}"
    g = np.array([rows[i] for i in range(n)])
    if not np.all(np.isfinite(g)):
        return "non-finite gradient"
    # K is invariant under rigid motions, so G is orthogonal to their
    # generators: the sum of G_i and the torque about the centroid vanish.
    rel = inp.centers - inp.centers.mean(axis=0)
    scale = float(np.max(np.linalg.norm(rel, axis=1) + inp.radii))
    limit = 1e-9 * float(np.abs(g).max()) * scale
    force = float(np.linalg.norm(g.sum(axis=0)))
    torque = float(np.linalg.norm(np.cross(rel, g).sum(axis=0)))
    if force > limit or torque > limit:
        return f"gradient not in the rigid-motion null space: " \
               f"|sum G| = {force:.3e}, |torque| = {torque:.3e}, limit {limit:.3e}"
    return None


def check_exit(inp, rc, stdout, json_bytes, state):
    return None if rc == 0 else f"exit code {rc}"


def check_compute(inp, rc, stdout, json_bytes, state):
    if rc != 0:
        return f"exit code {rc}"
    if json_bytes is None:
        return "no JSON document written"
    # Byte identity is checked within the run only, so a schema change
    # between commits is not a failure.
    first = state.setdefault("json", json_bytes)
    if json_bytes != first:
        return "JSON document differs from the first operation of the run"
    try:
        k = float(json.loads(json_bytes)["intrinsic_volumes"]["K"])
    except (ValueError, KeyError, TypeError) as exc:
        return f"unreadable JSON document: {exc!r}"
    # Gauss-Bonnet with unit weights: K = 2 pi chi and chi is even.
    half = k / (2.0 * math.pi) / 2.0
    if abs(half - round(half)) * 2.0 > 1e-9:
        return f"K / 2pi = {k / (2.0 * math.pi)!r} is not an even integer"
    return None


def check_degeneracy(inp, rc, stdout, json_bytes, state):
    if rc != 0:
        return f"exit code {rc}"
    events = {(int(i), int(j)): ev for i, j, ev in EVENT_LINE.findall(stdout)}
    for pair in inp.plants:
        if events.get(pair) != "merge_split_components":
            return f"planted pair {pair} reported as {events.get(pair)!r}"
    return None


@dataclass(frozen=True)
class Workload:
    command: str
    n: int
    weights: str
    bands: gen.Bands
    check: object
    planted: int = 0
    json_out: bool = False


# Each band is centred on the median of margin-filtered random draws of that
# size, so the cost of one operation varies little from seed to seed while
# the seed still moves every ball.  BENCHMARK.json leaves degeneracy-scan
# out so that runs of the other three can be longer; it runs by hand.
WORKLOADS = {
    "grad-large": Workload("grad", 96, "random",
                           gen.Bands((685, 715), (2000, 2200), (26, 26)), check_grad),
    "fdcheck-small": Workload("fdcheck", 12, "random",
                              gen.Bands((43, 45), (72, 80), (3, 3)), check_exit),
    "compute-volume": Workload("compute", 40, "ones",
                               gen.Bands((233, 243), (595, 635), (10, 11)), check_compute,
                               json_out=True),
    "degeneracy-scan": Workload("degeneracy", 40, "random",
                                gen.Bands((195, 202), (465, 495), (9, 9)), check_degeneracy,
                                planted=4),
}


# -- processes --------------------------------------------------------------

def run_process(argv, env, stdout_path, timeout):
    """(wall seconds, peak RSS in MB, exit code or None on timeout)."""
    timed_out = threading.Event()
    start = time.perf_counter()
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=env)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out.is_set() else proc.returncode
    return wall, usage.ru_maxrss / 1024.0, code


def measure_setup(env, work, count):
    """Wall times of fresh interpreters importing ballmorph.cli."""
    times = []
    for _ in range(count):
        wall, _, code = run_process([sys.executable, "-c", "import ballmorph.cli"],
                                    env, work / "setup.out", OP_TIMEOUT_S)
        if code != 0:
            raise RuntimeError("importing ballmorph.cli failed: "
                               + (work / "setup.out").read_text(errors="replace"))
        times.append(wall)
    return times


def run_op(op_id, wl, inp, env, work, state, traced):
    cli_args = [wl.command, "--input", str(inp.path)]
    json_path = work / "out.json"
    if wl.json_out:
        cli_args += ["--json", str(json_path)]
        json_path.unlink(missing_ok=True)
    spans_path = work / f"spans_{op_id}.json"
    if traced:
        argv = [sys.executable, str(HERE / "trace_driver.py"), str(spans_path),
                str(op_id), "--", *cli_args]
    else:
        argv = [sys.executable, "-m", "ballmorph.cli", *cli_args]
    stdout_path = work / "op.out"
    wall, rss, code = run_process(argv, env, stdout_path, OP_TIMEOUT_S)
    op = Op(wall_s=wall, rss_mb=rss, traced=traced)
    stdout = stdout_path.read_text(errors="replace")
    if code is None:
        op.error = f"timed out after {OP_TIMEOUT_S:.0f} s"
        return op
    json_bytes = json_path.read_bytes() if wl.json_out and json_path.exists() else None
    op.error = wl.check(inp, code, stdout, json_bytes, state)
    if op.error is not None:
        op.error += " :: " + stdout[-2000:]
    elif traced and not spans_path.exists():
        op.error = "the trace driver wrote no spans"
    elif traced:
        op.layers = layer_metrics(json.loads(spans_path.read_text()), wall, inp)
    return op


# -- per-layer metrics from the spans of one traced operation ---------------

# Layer functions each metric needs; a metric whose functions were not
# found by the trace driver is reported missing.
NEEDS = {
    "complexes.build_s": ("build_alpha_complex",),
    "complexes.build_calls": ("build_alpha_complex",),
    "complexes.alpha_edges": ("build_alpha_complex",),
    "complexes.alpha_triangles": ("build_alpha_complex",),
    "complexes.alpha_tets": ("build_alpha_complex",),
    "complexes.cand_pairs": (),
    "complexes.cand_triples": (),
    "complexes.cand_quads": (),
    "complexes.accept_ratio": ("build_alpha_complex",),
    "complexes.s_per_simplex": ("build_alpha_complex",),
    "measures.sigma_s": ("compute_measures", "nu_i_mc"),
    "measures.nu_mc_s": ("nu_i_mc",),
    "measures.mc_samples": ("nu_i_mc",),
    "measures.mc_samples_per_s": ("nu_i_mc",),
    "intrinsic.volumes_s": ("intrinsic_volumes", "weighted_gauss"),
    "gradient.term_d_s": ("term_d",),
    "gradient.term_e_s": ("term_e",),
    "gradient.term_f_s": ("term_f",),
    "gradient.term_h_s": ("term_h",),
    "diagnostics.gp_check_s": ("general_position_check",),
    "diagnostics.classify_s": ("classify_event", "build_alpha_complex", "betti_numbers"),
    "diagnostics.betti_s": ("betti_numbers",),
    "diagnostics.violations": ("general_position_check",),
    "oracles.fd_evals": ("fd_gradient",),
    "serial.parse_s": ("parse_diagram",),
    "serial.json_s": ("input_digest", "result_document", "to_json"),
    "cli.other_s": None,            # None: needs every layer function
    "trace.overhead_s": (),
}

PER_LAYER_UNITS = {name: "s" for name in NEEDS if name.endswith("_s")}
PER_LAYER_UNITS.update({
    "complexes.build_calls": "count", "complexes.alpha_edges": "count",
    "complexes.alpha_triangles": "count", "complexes.alpha_tets": "count",
    "complexes.cand_pairs": "count", "complexes.cand_triples": "count",
    "complexes.cand_quads": "count", "complexes.accept_ratio": "ratio",
    "complexes.s_per_simplex": "s/simplex", "measures.mc_samples": "count",
    "measures.mc_samples_per_s": "1/s", "diagnostics.violations": "count",
    "oracles.fd_evals": "count",
})


def layer_metrics(doc, wall, inp):
    """Per-layer numbers of one traced op; trace.overhead_s is added later."""
    spans = doc["spans"]
    self_s = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            self_s[s["parent"]] -= s["end"] - s["start"]

    def total(*names):
        return sum(t for s, t in zip(spans, self_s) if s["name"] in names)

    def attr_sum(name, key):
        return sum(s["attrs"].get(key, 0) for s in spans if s["name"] == name)

    builds = [(s, t) for s, t in zip(spans, self_s) if s["name"] == "build_alpha_complex"]
    out = {
        "complexes.build_s": total("build_alpha_complex"),
        "complexes.build_calls": len(builds),
        "complexes.cand_pairs": inp.cliques[0],
        "complexes.cand_triples": inp.cliques[1],
        "complexes.cand_quads": inp.cliques[2],
        "measures.sigma_s": total("compute_measures"),
        "measures.nu_mc_s": total("nu_i_mc"),
        "measures.mc_samples": attr_sum("nu_i_mc", "samples"),
        "intrinsic.volumes_s": total("intrinsic_volumes", "weighted_gauss"),
        "gradient.term_d_s": total("term_d"),
        "gradient.term_e_s": total("term_e"),
        "gradient.term_f_s": total("term_f"),
        "gradient.term_h_s": total("term_h"),
        "diagnostics.gp_check_s": total("general_position_check"),
        "diagnostics.classify_s": total("classify_event"),
        "diagnostics.betti_s": total("betti_numbers"),
        "diagnostics.violations": attr_sum("general_position_check", "violations"),
        "oracles.fd_evals": attr_sum("fd_gradient", "evals"),
        "serial.parse_s": total("parse_diagram"),
        "serial.json_s": total("input_digest", "result_document", "to_json"),
        "cli.other_s": wall - sum(self_s),
    }
    nu = out["measures.nu_mc_s"]
    out["measures.mc_samples_per_s"] = out["measures.mc_samples"] / nu if nu > 0 else 0.0
    # The primary complex is the first one the command builds.
    if builds and "edges" in builds[0][0]["attrs"]:
        first, first_self = builds[0]
        out["complexes.alpha_edges"] = first["attrs"]["edges"]
        out["complexes.alpha_triangles"] = first["attrs"]["triangles"]
        out["complexes.alpha_tets"] = first["attrs"]["tets"]
        simplices = sum(first["attrs"][k] for k in ("edges", "triangles", "tets"))
        out["complexes.accept_ratio"] = simplices / max(1, sum(inp.cliques))
        out["complexes.s_per_simplex"] = (out["complexes.build_s"] / len(builds)
                                          / max(1, simplices))
    missing = set(doc["missing"])
    for name, needs in NEEDS.items():
        if name in out and (missing if needs is None else missing.intersection(needs)):
            del out[name]
    return out


# -- reporting --------------------------------------------------------------

def tail(times):
    """(percentile, value): the highest percentile with TAIL_BEYOND samples
    beyond it, or None when that percentile would be below the median."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND
    if k < 1 or 100.0 * k / len(ordered) < TAIL_MIN_PERCENTILE:
        return None
    return 100.0 * k / len(ordered), ordered[k - 1]


def provenance(args, env, inp, ops, tail_pct):
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        cpu = models[0] if models else cpu
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*.py")):
        digest.update(str(path).encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": len(ops),
        "ops_traced": sum(op.traced for op in ops),
        "tail_percentile": tail_pct,
        "nproc": os.cpu_count(), "cpu": cpu,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas_env": {k: env.get(k) for k in BLAS_ENV},
        "git_commit": commit, "src_sha256": digest.hexdigest(),
        "input_sha256": inp.sha256, "input_cliques": list(inp.cliques),
        "loop": "closed, 1 client",
    }


def make_input(args, wl, work):
    text, plants, cliques = gen.make_input(args.seed, wl.n, wl.weights, wl.bands,
                                           wl.planted)
    path = work / "input.txt"
    path.write_text(text, encoding="utf-8")
    data = np.array([line.split() for line in text.splitlines()[1:]], dtype=float)
    return Input(path=path, centers=data[:, :3], radii=data[:, 3], plants=plants,
                 cliques=cliques, sha256=hashlib.sha256(text.encode()).hexdigest())


def closed_loop(args, wl, inp, env, work):
    """Ops back to back for args.seconds; with tracing every second op is
    traced, and the loop runs until it has one op of each kind."""
    ops = []
    state = {}
    start = time.perf_counter()
    while (time.perf_counter() - start < args.seconds
           or not ops or (args.trace and len(ops) < 2)):
        traced = bool(args.trace) and len(ops) % 2 == 1
        ops.append(run_op(len(ops), wl, inp, env, work, state, traced))
    return ops, time.perf_counter() - start


def end_to_end_metrics(ops, elapsed, setup):
    passed = [op for op in ops if op.error is None]
    return {
        "op_p50_s": (statistics.median(op.wall_s for op in ops), "s"),
        "ops_per_s": (len(passed) / elapsed, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(op.rss_mb for op in ops), "MB"),
    }


def per_layer_metrics(ops):
    traced = [op for op in ops if op.traced and op.error is None]
    plain = [op.wall_s for op in ops if not op.traced]
    out = {}
    for name in NEEDS:
        values = [op.layers[name] for op in traced if name in op.layers]
        if values:
            out[name] = (statistics.median(values), PER_LAYER_UNITS[name])
    if traced and plain:
        out["trace.overhead_s"] = (statistics.median(op.wall_s for op in traced)
                                   - statistics.median(plain), "s")
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    src = Path("src").resolve()
    if not (src / "ballmorph" / "cli.py").is_file():
        print("src/ballmorph/cli.py not found: run from the root of a ballmorph "
              "source checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    env = dict(os.environ)
    # One BLAS thread: the loop has one client on a small machine, and
    # threaded BLAS on tiny matrices adds noise without cutting op time.
    env.update({k: "1" for k in BLAS_ENV})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    work = Path(".perfbench_work") / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        inp = make_input(args, wl, work)
        # Half the set-up samples come before the loop and half after it,
        # so one slow spell on the machine moves their median less.
        setup = [] if args.trace else measure_setup(env, work, SETUP_SAMPLES // 2)
        ops, elapsed = closed_loop(args, wl, inp, env, work)
        if not args.trace:
            setup += measure_setup(env, work, SETUP_SAMPLES - len(setup))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass    # another run still uses it

    failed = [op for op in ops if op.error is not None]
    metrics = per_layer_metrics(ops) if args.trace else end_to_end_metrics(ops, elapsed, setup)
    times = [op.wall_s for op in ops if not op.traced]
    tail_at = tail(times)
    lines = [f"workload {args.workload}: ballmorph {wl.command}, n={wl.n}, "
             f"closed loop with 1 client, {len(ops)} ops in {elapsed:.1f} s",
             "  op times (s): " + " ".join(f"{op.wall_s:.3f}{'T' if op.traced else ''}"
                                           for op in ops)]
    lines += [f"FAILED op: {op.error}" for op in failed]
    lines += [f"  {name:28s} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    if args.trace:
        lines += [f"  {name:28s} missing" for name in NEEDS if name not in metrics]
    lines.append(f"  {'fail_frac':28s} {len(failed) / len(ops):.6g} "
                 f"({len(failed)} of {len(ops)} ops)")
    if tail_at is None:
        lines.append(f"  {'op_tail_s':28s} omitted: {len(times)} untraced ops leave no "
                     f"percentile >= p{TAIL_MIN_PERCENTILE:.0f} with {TAIL_BEYOND} "
                     f"samples beyond it")
    else:
        lines.append(f"  {'op_tail_s':28s} {tail_at[1]:.6g} s at p{tail_at[0]:.1f} "
                     f"({len(times)} samples)")
    prov = provenance(args, env, inp, ops, None if tail_at is None else tail_at[0])
    lines.append("provenance " + json.dumps(prov, sort_keys=True))
    print("\n".join(lines))
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": len(failed),
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
