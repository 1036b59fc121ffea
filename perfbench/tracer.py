"""Run one werner CLI invocation in-process, with a span around every public
function of each werner module.

    python3 tracer.py SPANS SUMMARY OP_ID T0 -- ARGV...

calls werner.cli.main(ARGV) in this process, so stdout and the exit code are
those of `python -m werner ARGV`. The wrappers live here, not in the program:
each one replaces the function in every werner module namespace that holds it,
because the modules import each other's functions by name.

Each span ends with its self time: its duration minus the time covered by its
child spans. Spans of at least WRITE_MIN_S are appended to SPANS as JSON lines
(name, start, end, parent id, op id; times in seconds since T0 on the
monotonic clock). Shorter spans are folded into one line per (nearest written
ancestor, name) with their call count and self time, and their durations into
the parent's `folded_child_s`, so self times can be recomputed from the file.
SUMMARY receives the per-layer totals the benchmark reports.
"""
from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
import time
import types
from collections import Counter, defaultdict

import numpy as np

LAYERS = ("cli", "model", "pauli", "partition", "decompose", "linalg", "verify", "serialize")
WRITE_MIN_S = 5e-4

# Metric group of a function's self time. A span without a group of its own is
# charged to its parent's group when the parent is in the same layer (gf_mul
# under build_partition counts as partition build), else to "<layer>.other".
GROUPS = {
    "decompose.reconstruct": "decompose.reconstruct",
    **{f"decompose.{n}": "decompose.construct" for n in (
        "decompose_auto", "per_string_decomposition", "class_decomposition",
        "per_string_component", "class_component", "component_spectrum",
        "per_string_range", "class_range")},
    "pauli.pauli_matrix": "pauli.matrix",
    **{f"linalg.{n}": "linalg.eig" for n in (
        "hermitian_eigensystem", "hermitian_eigenvalues", "min_eigenvalue",
        "is_positive_semidefinite")},
    "verify.refine_to_pure": "verify.refine",
    **{f"serialize.{n}": "serialize.emit" for n in (
        "dumps", "format_float", "matrix_doc", "spectrum_rows", "decomposition_doc",
        "verification_doc", "separability_doc", "csv_text")},
    # json.loads is the read side of the certificate format, called from cli
    "json.loads": "serialize.parse",
    "serialize.doc_decomposition": "serialize.parse",
    "serialize.doc_matrix": "serialize.parse",
    "partition.build_partition": "partition.build",
    "partition.validate_partition": "partition.validate",
    "model.werner_dense": "model.dense",
    **{f"model.{n}": "model.spectra" for n in (
        "spectrum_closed_form", "spectrum_via_transform", "pt_spectrum_closed_form",
        "spinor_coefficients", "ppt_check")},
    "model.random_unitary": "model.probe",
    "model.invariance_residual": "model.probe",
}


class Frame:
    __slots__ = ("id", "name", "layer", "group", "parent", "start", "child_s",
                 "folded_child_s", "folded", "extra", "factors")

    def __init__(self, span_id, name, layer, group, parent):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.group = group
        self.parent = parent
        self.start = 0.0
        self.child_s = 0.0
        self.folded_child_s = 0.0
        self.folded = None  # name -> [calls, self_s] of folded descendants
        self.extra = None
        self.factors = None


class Tracer:
    def __init__(self, op_id: int, t0: float):
        self.op = op_id
        self.t0 = t0
        self.root = Frame(0, "op", None, None, None)
        self.stack = [self.root]
        self.next_id = 1
        self.records = []
        self.calls = Counter()
        self.group_s = defaultdict(float)
        self.layer_s = defaultdict(float)
        self.counts = Counter()
        self.max_residual = 0.0

    def wrap(self, name: str, layer: str, fn):
        stack = self.stack
        clock = time.perf_counter
        observe = OBSERVERS.get(name)
        enter = ON_ENTRY.get(name)
        own_group = GROUPS.get(name)

        def traced(*args, **kwargs):
            parent = stack[-1]
            if own_group is not None:
                group = own_group
            elif parent.layer == layer:
                group = parent.group
            else:
                group = f"{layer}.other"
            frame = Frame(self.next_id, name, layer, group, parent)
            self.next_id += 1
            if enter is not None:
                enter(frame)
            stack.append(frame)
            frame.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                self._close(frame, clock())
                raise
            end = clock()
            stack.pop()
            if observe is not None:
                observe(self, frame, args, kwargs, result)
            self._close(frame, end)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: Frame, end: float) -> None:
        dur = end - frame.start
        self_s = dur - frame.child_s
        parent = frame.parent
        parent.child_s += dur
        self.calls[frame.name] += 1
        self.group_s[frame.group] += self_s
        self.layer_s[frame.layer] += self_s
        if dur >= WRITE_MIN_S:
            rec = {"op": self.op, "id": frame.id, "parent": parent.id, "name": frame.name,
                   "start": frame.start - self.t0, "end": end - self.t0,
                   "folded_child_s": frame.folded_child_s}
            if frame.extra:
                rec.update(frame.extra)
            self.records.append(rec)
            self._write_folded(frame)
            return
        parent.folded_child_s += dur
        if parent.folded is None:
            parent.folded = {}
        into = parent.folded
        for name, (calls, s) in (frame.folded or {}).items():
            acc = into.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += s
        acc = into.setdefault(frame.name, [0, 0.0])
        acc[0] += 1
        acc[1] += self_s

    def _write_folded(self, frame: Frame) -> None:
        for name, (calls, s) in (frame.folded or {}).items():
            self.records.append({"op": self.op, "under": frame.id, "name": name,
                                 "calls": calls, "self_s": s})

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "group_s": dict(self.group_s),
            "layer_s": dict(self.layer_s),
            "counts": dict(self.counts),
            "max_residual": self.max_residual,
        }


# ---------------------------------------------------------------------------
# counters taken at span boundaries
# ---------------------------------------------------------------------------


def _eigensystem(tracer, frame, args, kwargs, result):
    if kwargs.get("compute_vectors", args[3] if len(args) > 3 else False):
        tracer.counts["linalg.eigvec_calls"] += 1
    parent = frame.parent
    if parent.name == "verify.verify_decomposition":
        # a factor eigen-check; the verifier dedups factors by identity, this
        # counts the distinct contents among them
        data = np.ascontiguousarray(args[0], dtype=complex).tobytes()
        digest = hashlib.blake2b(data, digest_size=16).digest()
        parent.factors.add(digest)
        parent.extra["checks"] += 1


def _verify_entry(frame):
    frame.factors = set()
    frame.extra = {"checks": 0}


def _verify(tracer, frame, args, kwargs, result):
    checks = frame.extra["checks"]
    distinct = len(frame.factors)
    frame.extra.update(distinct=distinct, residual=result.reconstruction_residual)
    tracer.counts["verify.factor_checks"] += checks
    tracer.counts["verify.factor_distinct"] += distinct
    tracer.max_residual = max(tracer.max_residual, result.reconstruction_residual)


def _decomposition(tracer, frame, args, kwargs, result):
    tracer.counts["decompose.terms"] += result.n_terms


def _refine(tracer, frame, args, kwargs, result):
    tracer.counts["verify.refined_terms"] += result.n_terms


def _emitted(tracer, frame, args, kwargs, result):
    tracer.counts["serialize.bytes_out"] += len(result)


def _parsed(tracer, frame, args, kwargs, result):
    tracer.counts["serialize.bytes_in"] += len(args[0])


ON_ENTRY = {"verify.verify_decomposition": _verify_entry}

OBSERVERS = {
    "linalg.hermitian_eigensystem": _eigensystem,
    "verify.verify_decomposition": _verify,
    "decompose.per_string_decomposition": _decomposition,
    "decompose.class_decomposition": _decomposition,
    "verify.refine_to_pure": _refine,
    "serialize.dumps": _emitted,
    "serialize.csv_text": _emitted,
    "json.loads": _parsed,
}


def install(tracer: Tracer) -> None:
    """Bind a traced wrapper in place of every public werner function."""
    modules = {layer: importlib.import_module(f"werner.{layer}") for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items() if n == "werner" or n.startswith("werner.")]
    for layer, mod in modules.items():
        for attr in mod.__all__:
            fn = getattr(mod, attr)
            # a generator returns before its work is done, so a span would time nothing
            if not isinstance(fn, types.FunctionType) or inspect.isgeneratorfunction(fn):
                continue
            traced = tracer.wrap(f"{layer}.{attr}", layer, fn)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, traced)
    json.loads = tracer.wrap("json.loads", "serialize", json.loads)


def main() -> int:
    spans_path, summary_path, op_id, t0, sep, *argv = sys.argv[1:]
    if sep != "--":
        sys.exit("usage: tracer.py SPANS SUMMARY OP_ID T0 -- ARGV...")
    import werner.cli

    tracer = Tracer(int(op_id), float(t0))
    install(tracer)
    try:
        return werner.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracer._write_folded(tracer.root)
        with open(spans_path, "a") as fh:
            fh.writelines(json.dumps(rec) + "\n" for rec in tracer.records)
        with open(summary_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    raise SystemExit(main())
