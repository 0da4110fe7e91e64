"""Diagram file ingestion and result serialization.

Diagram files are plain text with one "x y z r w" line per ball, '#'
comment lines, and an optional "n <count>" header.  Results are emitted as
JSON with every float printed at 17 significant digits, so identical
inputs produce byte-identical documents and parsing them back is lossless.
"""

import math

import numpy as np

from .errors import ParseError, ValidationError
from .geometry import BallSet, EPS_GEO
from . import __version__

SCHEMA_VERSION = 2


def _data_lines(text):
    header = None
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None and not rows and line.split()[0] == "n":
            parts = line.split()
            if len(parts) != 2:
                raise ParseError("header must be 'n <count>'", line=lineno)
            try:
                header = int(parts[1])
            except ValueError:
                raise ParseError(f"bad ball count {parts[1]!r}", line=lineno) from None
            continue
        rows.append((lineno, raw, line))
    return header, rows


def _parse_floats(lineno, raw, line, count):
    parts = line.split()
    if len(parts) != count:
        raise ParseError(f"expected {count} fields, got {len(parts)}", line=lineno)
    values = []
    pos = 0
    for tok in parts:
        # Only whitespace lies between the previous token and this one.
        pos = raw.index(tok, pos)
        try:
            values.append(float(tok))
        except ValueError:
            raise ParseError(f"bad number {tok!r}", line=lineno, column=pos + 1) from None
        pos += len(tok)
    if not all(math.isfinite(v) for v in values):
        raise ParseError("non-finite value", line=lineno)
    return values


def parse_diagram_text(text):
    """BallSet from diagram text; see parse_diagram for the file variant."""
    header, rows = _data_lines(text)
    centers, radii, weights = [], [], []
    for lineno, raw, line in rows:
        x, y, z, r, w = _parse_floats(lineno, raw, line, 5)
        if r <= 0.0:
            raise ValidationError(f"radius must be positive, got {r}", line=lineno)
        centers.append((x, y, z))
        radii.append(r)
        weights.append(w)
    if header is not None and header != len(rows):
        raise ValidationError(
            f"header says {header} balls, file has {len(rows)}")
    if not rows:
        raise ValidationError("diagram file contains no balls")
    return BallSet(np.array(centers), np.array(radii), np.array(weights))


def parse_diagram(path):
    """Read a BallSet from a diagram file, in input order."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_diagram_text(fh.read())


def parse_momentum(path, n):
    """Read a momentum file: one 'tx ty tz' line per ball."""
    with open(path, "r", encoding="utf-8") as fh:
        _, rows = _data_lines(fh.read())
    vecs = [_parse_floats(lineno, raw, line, 3) for lineno, raw, line in rows]
    if len(vecs) != n:
        raise ValidationError(f"momentum file has {len(vecs)} rows, diagram has {n} balls")
    return np.array(vecs)


def fmt(x):
    """Float at 17 significant digits (lossless round trip)."""
    return format(float(x), ".17g")


def to_json(obj, indent=0):
    """Deterministic JSON emitter with fixed float formatting."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x) or math.isinf(x):
            return "null"
        return fmt(x)
    if isinstance(obj, str):
        out = obj.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{out}"'
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f'{inner}"{k}": {to_json(v, indent + 1)}' for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        flat = all(isinstance(v, (int, float, np.integer, np.floating)) for v in obj)
        if flat:
            return "[" + ", ".join(to_json(v) for v in obj) + "]"
        items = [f"{inner}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def input_digest(path):
    import hashlib      # only the JSON provenance needs it; kept off start-up

    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def result_document(balls, volumes, report, input_sha256, grad=None, seed=0,
                    mc_samples=0, volume_mc=None):
    """Assemble the machine-readable result document.

    ``volume_mc`` is an optional (estimate, std_error) Monte Carlo
    cross-check of the exact volume, written as ``V_mc`` beside ``V``.
    """
    doc = {
        "schema_version": SCHEMA_VERSION,
        "provenance": {
            "version": __version__,
            "input_sha256": input_sha256,
            "seed": int(seed),
            "mc_samples": int(mc_samples),
            "tolerances": {
                "eps_geo": EPS_GEO,
                "fd_step": None,      # no result carries an FD step
            },
        },
        "n_balls": balls.n,
    }
    vols = {"V": volumes.volume}
    if volume_mc is not None:
        vols["V_mc"] = {"estimate": volume_mc[0], "std_error": volume_mc[1]}
    doc["intrinsic_volumes"] = {
        **vols,
        "A": volumes.area,
        "M": volumes.mean,
        "K": volumes.gauss,
        "K_breakdown": {
            "patch": volumes.gauss_patch,
            "arc": volumes.gauss_arc,
            "corner": volumes.gauss_corner,
        },
    }
    if grad is not None:
        doc["gradient"] = {
            "per_ball": grad.per_ball,
            "components": {
                "d": grad.d,
                "e": grad.e,
                "f": grad.f,
                "h": grad.h,
            },
        }
    doc["degeneracy"] = {
        "min_residual": report.min_residual,
        "violations": [
            {
                "condition": v.condition,
                "simplex": list(v.simplex),
                "residual": v.residual,
                "event_class": v.event_class,
            }
            for v in report.violations
        ],
    }
    return doc
