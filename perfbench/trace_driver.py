"""Run one ballmorph CLI operation with timing spans around its layers.

    python3 perfbench/trace_driver.py SPANS_OUT OP_ID -- CLI_ARGS...

Imports ``ballmorph.cli``, wraps each public layer function named in
LAYER_FUNCTIONS wherever that function object is bound in a loaded
``ballmorph`` module, calls ``ballmorph.cli.main(CLI_ARGS)`` and exits with
its return code.  Spans stay in memory until the operation ends and are
then written to SPANS_OUT as JSON, together with the names that were not
found (a later refactor may remove or rename one).
"""

import functools
import json
import sys
import time
import types

LAYER_FUNCTIONS = (
    "parse_diagram", "input_digest", "result_document", "to_json",
    "build_alpha_complex",
    "compute_measures", "nu_i_mc",
    "intrinsic_volumes", "weighted_gauss",
    "term_d", "term_e", "term_f", "term_h",
    "general_position_check", "classify_event", "betti_numbers",
    "fd_gradient",
)


def _note_complex(attrs, args, kwargs, cx):
    dims = [len(s) for s in cx.alpha_simplices()]
    attrs["edges"] = dims.count(2)
    attrs["triangles"] = dims.count(3)
    attrs["tets"] = dims.count(4)


def _note_samples(attrs, args, kwargs, result):
    attrs["samples"] = int(args[2] if len(args) > 2 else kwargs["samples"])


def _note_violations(attrs, args, kwargs, report):
    attrs["violations"] = len(report.violations)


# Counts recorded at the layer boundary, from the call and its result.
NOTES = {
    "build_alpha_complex": _note_complex,
    "nu_i_mc": _note_samples,
    "general_position_check": _note_violations,
}


class Tracer:
    """Spans of one operation: [name, start, end, parent index, attrs]."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.spans = []
        self.stack = []

    def wrap(self, name, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.stack and self.spans[self.stack[-1]][0] == name:
                # A recursive call (to_json) folds into the outer span.
                return fn(*args, **kwargs)
            span = [name, None, None, self.stack[-1] if self.stack else None, {}]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            if name == "fd_gradient" and args:
                args = (_count_calls(args[0], span[4]),) + args[1:]
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if note is not None:
                try:
                    note(span[4], args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError):
                    pass    # the count is reported missing, the op goes on
            return result

        return traced

    def install(self):
        """Wrap every binding of the layer functions; return names not found."""
        wrappers = {}
        found = set()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ballmorph"
                                   or mod_name.startswith("ballmorph.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if attr not in LAYER_FUNCTIONS or not isinstance(obj, types.FunctionType):
                    continue
                if obj not in wrappers:
                    wrappers[obj] = self.wrap(attr, obj)
                setattr(mod, attr, wrappers[obj])
                found.add(attr)
        return sorted(set(LAYER_FUNCTIONS) - found)

    def document(self, missing):
        return {
            "op": self.op_id,
            "missing": missing,
            "spans": [{"name": name, "start": start, "end": end, "parent": parent,
                       "op": self.op_id, "attrs": attrs}
                      for name, start, end, parent, attrs in self.spans],
        }


def _count_calls(fn, attrs):
    """fd_gradient's objective, counting evaluations into attrs["evals"]."""
    attrs["evals"] = 0

    def counted(*args, **kwargs):
        attrs["evals"] += 1
        return fn(*args, **kwargs)

    return counted


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: trace_driver.py SPANS_OUT OP_ID -- CLI_ARGS...", file=sys.stderr)
        return 2
    out_path, op_id, cli_args = argv[0], argv[1], argv[3:]
    import ballmorph.cli

    tracer = Tracer(op_id)
    missing = tracer.install()
    try:
        return ballmorph.cli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.document(missing), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
