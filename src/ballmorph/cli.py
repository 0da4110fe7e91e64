"""Command-line interface.

Exit codes: 0 success, 1 tolerance or validation failure, 2 degenerate
state, 3 I/O or parse error.
"""

import argparse
import math
import sys

import numpy as np

from .complexes import build_alpha_complex
from .diagnostics import classify_event, general_position_check, gradient_jump_probe
from .errors import DegenerateState, GeometryError, ParseError, Unclassifiable, \
    ValidationError
from .oracles import fd_gradient, mc_weighted_volume
from .pipeline import evaluate
from .serial import fmt, input_digest, parse_diagram, parse_momentum, \
    result_document, to_json

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_DEGENERATE = 2
EXIT_IO = 3


def _parser():
    p = argparse.ArgumentParser(
        prog="ballmorph",
        description="Weighted intrinsic volumes of a ball union and the "
                    "analytic gradient of its weighted Gaussian curvature.")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="print the weighted intrinsic volumes")
    c.add_argument("--input", required=True)
    c.add_argument("--measures", default="v,a,m,k",
                   help="comma list out of v,a,m,k (default all)")
    c.add_argument("--mc-samples", type=int, default=0,
                   help="Monte Carlo samples per ball for an estimate of V "
                        "beside the exact value (default 0: none)")
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--json", metavar="OUT", default=None)

    g = sub.add_parser("grad", help="print the Gaussian-curvature gradient")
    g.add_argument("--input", required=True)
    g.add_argument("--json", metavar="OUT", default=None)
    g.add_argument("--mc-samples", type=int, default=0)
    g.add_argument("--seed", type=int, default=0)

    f = sub.add_parser("fdcheck",
                       help="compare the analytic gradient against central differences")
    f.add_argument("--input", required=True)
    f.add_argument("--step", type=float, default=1e-5)
    f.add_argument("--tol", type=float, default=1e-5)

    d = sub.add_parser("degeneracy", help="report near-degenerate configurations")
    d.add_argument("--input", required=True)
    d.add_argument("--tol", type=float, default=1e-6)

    r = sub.add_parser("probe",
                       help="sample curvature and gradient along a motion path")
    r.add_argument("--input", required=True)
    r.add_argument("--momentum", required=True)
    r.add_argument("--tau-min", type=float, default=0.0)
    r.add_argument("--tau-max", type=float, default=1.0)
    r.add_argument("--steps", type=int, default=11)
    return p


# Domains of the numeric options, checked before any work: a value outside
# its domain exits with code 1 instead of failing deep inside the library.
_OPTION_DOMAINS = (
    ("mc_samples", "an integer >= 0", lambda v: v >= 0),
    ("seed", "an integer in [0, 2**64)", lambda v: 0 <= v < 2 ** 64),
    ("step", "a finite number > 0", lambda v: 0.0 < v < math.inf),
    ("tol", "a finite number > 0", lambda v: 0.0 < v < math.inf),
    ("steps", "an integer >= 2", lambda v: v >= 2),
    ("tau_min", "a finite number", math.isfinite),
    ("tau_max", "a finite number", math.isfinite),
)


def _check_options(args):
    for name, domain, ok in _OPTION_DOMAINS:
        value = getattr(args, name, None)
        if value is not None and not ok(value):
            raise ValidationError(f"--{name.replace('_', '-')} must be {domain}, "
                                  f"got {value}")


def _write_json(args, ev, volume_mc, mc_samples, grad=None):
    doc = result_document(ev.balls, ev.volumes, general_position_check(ev.balls, ev.cx),
                          input_digest(args.input), volume_mc=volume_mc, grad=grad,
                          seed=args.seed, mc_samples=mc_samples)
    with open(args.json, "w", encoding="utf-8") as fh:
        fh.write(to_json(doc) + "\n")


def cmd_compute(args):
    wanted = [s.strip().lower() for s in args.measures.split(",") if s.strip()]
    if (not wanted or len(set(wanted)) != len(wanted)
            or any(s not in ("v", "a", "m", "k") for s in wanted)):
        raise ValidationError("--measures must be a non-empty comma list of "
                              f"distinct names out of v,a,m,k, got {args.measures!r}")
    ev = evaluate(parse_diagram(args.input))
    vols = ev.volumes
    mc = args.mc_samples if "v" in wanted else 0
    vol_mc = mc_weighted_volume(ev.balls, mc, args.seed) if mc else None
    values = {"v": ("V", vols.volume), "a": ("A", vols.area),
              "m": ("M", vols.mean), "k": ("K", vols.gauss)}
    for key in wanted:
        name, value = values[key]
        print(f"{name} = {fmt(value)}")
        if key == "v" and vol_mc is not None:
            print(f"V_mc = {fmt(vol_mc[0])} +/- {fmt(vol_mc[1])}")
    if args.json:
        _write_json(args, ev, vol_mc, mc)
    return EXIT_OK


def cmd_grad(args):
    ev = evaluate(parse_diagram(args.input))
    for i, g in enumerate(ev.gradient.per_ball):
        print(f"G[{i}] = {fmt(g[0])} {fmt(g[1])} {fmt(g[2])}")
    if args.json:
        # Only the document carries the volumes, so only --json pays for them.
        mc = args.mc_samples
        vol_mc = mc_weighted_volume(ev.balls, mc, args.seed) if mc else None
        _write_json(args, ev, vol_mc, mc, grad=ev.gradient)
    return EXIT_OK


def cmd_fdcheck(args):
    balls = parse_diagram(args.input)
    grad = evaluate(balls).gradient
    fd = fd_gradient(lambda bs: evaluate(bs).gauss, balls, step=args.step)
    gap = np.abs(grad.flat - fd)
    rel = float(gap.max() / max(1.0, float(np.abs(fd).max())))
    print(f"max abs gap = {fmt(float(gap.max()))}, rel = {fmt(rel)}, tol = {fmt(args.tol)}")
    return EXIT_OK if rel <= args.tol else EXIT_TOLERANCE


def cmd_degeneracy(args):
    balls = parse_diagram(args.input)
    cx = build_alpha_complex(balls, strict=False)
    report = general_position_check(balls, cx, tol=args.tol)
    print(f"min_residual = {fmt(report.min_residual)}")
    if not report.violations:
        print("no violations")
        return EXIT_OK
    for v in report.violations:
        line = f"condition {v.condition} simplex {v.simplex} residual {fmt(v.residual)}"
        if v.condition == "II":
            try:
                line += f" event {classify_event(balls, cx, v)}"
            except Unclassifiable as exc:
                line += f" event unclassifiable ({exc})"
        print(line)
    return EXIT_OK


def cmd_probe(args):
    balls = parse_diagram(args.input)
    t = parse_momentum(args.momentum, balls.n)
    result = gradient_jump_probe(balls, t, (args.tau_min, args.tau_max), args.steps)
    print("tau gauss grad_norm defined")
    for row in result.rows:
        if row.defined:
            print(f"{fmt(row.tau)} {fmt(row.gauss)} {fmt(row.grad_norm)} yes")
        else:
            print(f"{fmt(row.tau)} - - DEGENERATE ({row.note})")
    for lim in result.limits:
        print(f"one-sided limits at tau={fmt(lim.tau)}: max gradient gap {fmt(lim.max_gap)}")
    return EXIT_OK


def main(argv=None):
    args = _parser().parse_args(argv)
    handlers = {
        "compute": cmd_compute,
        "grad": cmd_grad,
        "fdcheck": cmd_fdcheck,
        "degeneracy": cmd_degeneracy,
        "probe": cmd_probe,
    }
    try:
        _check_options(args)
        return handlers[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except DegenerateState as exc:
        print(f"degenerate state: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE
    except GeometryError as exc:
        print(f"geometry error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
