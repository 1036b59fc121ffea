"""Workload generation and correctness gates for the werner CLI benchmark.

A workload is a list of CLI invocations (ops) generated from the benchmark
seed. Every op carries a gate that inspects the finished invocation and
returns a failure reason, or None when the output agrees with the closed-form
truth: a Werner state is separable iff f >= 0.
"""
from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable, List, Optional

TOL = 1e-9  # the CLI's default --tol; every reported residual must stay below it

SWEEP_HEADER = [
    "f", "min_eig_rho", "min_eig_pt", "ppt", "scheme", "n_terms",
    "min_component_eig", "reconstruction_residual", "verdict",
]
SWEEP_POINTS = 81  # rows per sweep: a fine grid over [-1, 1]


@dataclass
class Result:
    """What one finished invocation left behind, as the gates see it."""

    rc: int
    stdout: bytes
    stderr: str
    workdir: str
    notes: List[str] = field(default_factory=list)

    def doc(self):
        return json.loads(self.stdout)

    def file_doc(self, name):
        with open(f"{self.workdir}/{name}") as fh:
            return json.load(fh)


@dataclass
class Op:
    argv: List[str]
    gate: Callable[[Result], Optional[str]]
    outputs: List[str] = field(default_factory=list)  # files the op writes
    probe: bool = False  # the op the determinism probe re-runs

    @property
    def text(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------------------
# gates
# ---------------------------------------------------------------------------


def _diag_problem(res: Result, want_rc: int) -> Optional[str]:
    """An analysis failure exits 2 with one JSON diagnostic object on stderr."""
    if res.rc != want_rc:
        return f"exit {res.rc}, expected {want_rc}"
    try:
        diag = json.loads(res.stderr)
    except ValueError:
        return "stderr is not a single JSON diagnostic"
    if not isinstance(diag, dict) or "error" not in diag or "message" not in diag:
        return "diagnostic lacks error/message"
    if res.stderr.rstrip("\n").count("\n"):
        res.notes.append("multiline_diagnostic")
    return None


def _clean_exit(res: Result) -> Optional[str]:
    if res.rc != 0:
        return f"exit {res.rc}, expected 0"
    if res.stderr:
        return "unexpected stderr"
    return None


def _echo_problem(doc, p, f) -> Optional[str]:
    if doc["p"] != p or doc["f"] != f:
        return f"echoed (p, f) = ({doc['p']}, {doc['f']}), expected ({p}, {f})"
    return None


def _n_terms(p: int, scheme: str) -> int:
    d = 2**p
    return 2 * (d * d - 1) if scheme == "per_string" else (d + 1) * d


def gate_report(p: int, f: float, refine: bool):
    def gate(res: Result):
        doc = res.doc()
        bad = _echo_problem(doc, p, f)
        if bad:
            return bad
        if f < 0:
            if doc["verdict"] != "ENTANGLED":
                return f"verdict {doc['verdict']} for f < 0"
            return _diag_problem(res, 2)
        if doc["verdict"] != "SEPARABLE":
            return f"verdict {doc['verdict']} for f >= 0"
        bad = _clean_exit(res)
        if bad:
            return bad
        if doc["verification"]["reconstruction_residual"] >= TOL:
            return "reconstruction residual >= tol"
        if refine:
            refined = doc["refined"]
            if refined is None:
                return "no refinement reported"
            if refined["reconstruction_residual"] >= TOL:
                return "refined reconstruction residual >= tol"
            if refined["n_terms"] != doc["n_terms"] * 4**p:
                return f"{refined['n_terms']} refined terms, expected {doc['n_terms'] * 4**p}"
        return None

    return gate


def gate_ppt(p: int, f: float):
    def gate(res: Result):
        doc = res.doc()
        bad = _echo_problem(doc, p, f)
        if bad:
            return bad
        if f < 0:
            if doc["verdict"] != "NOT PPT":
                return f"verdict {doc['verdict']} for f < 0"
            return _diag_problem(res, 2)
        if doc["verdict"] != "PPT":
            return f"verdict {doc['verdict']} for f >= 0"
        return _clean_exit(res)

    return gate


def gate_spectrum(p: int, f: float):
    def gate(res: Result):
        bad = _clean_exit(res)
        if bad:
            return bad
        doc = res.doc()
        bad = _echo_problem(doc, p, f)
        if bad:
            return bad
        if doc["agree"] is not True:
            return "spectrum routes disagree"
        if doc["unit_trace_error"] >= TOL or doc["invariance_residual"] >= TOL:
            return "unit-trace error or invariance residual >= tol"
        return None

    return gate


def gate_partition(p: int):
    def gate(res: Result):
        bad = _clean_exit(res)
        if bad:
            return bad
        doc = res.doc()
        d = 2**p
        classes = doc["classes"]
        if not doc["valid"] or doc["n_classes"] != d + 1 or len(classes) != d + 1:
            return "partition is not d + 1 valid classes"
        labels = {label for cls in classes for label in cls}
        if any(len(cls) != d - 1 for cls in classes) or len(labels) != d * d - 1:
            return "classes do not cover the 4^p - 1 strings once each"
        return None

    return gate


def gate_sweep(start: float, step: float, n: int):
    def gate(res: Result):
        bad = _clean_exit(res)
        if bad:
            return bad
        rows = list(csv.reader(io.StringIO(res.stdout.decode())))
        if rows[0] != SWEEP_HEADER:
            return "sweep header differs"
        rows = rows[1:]
        if len(rows) != n:
            return f"{len(rows)} sweep rows, expected {n}"
        for k, row in enumerate(rows):
            f = float(row[0])
            if abs(f - min(start + k * step, 1.0)) > 1e-12:
                return f"row {k} has f = {row[0]}"
            want = "SEPARABLE" if f >= 0 else "ENTANGLED"
            if row[8] != want:
                return f"row {k}: verdict {row[8]} for f = {row[0]}"
            if row[7] and float(row[7]) >= TOL:
                return f"row {k}: reconstruction residual >= tol"
        return None

    return gate


def gate_decompose(p: int, f: float, scheme: str, path: str):
    def gate(res: Result):
        bad = _clean_exit(res)
        if bad:
            return bad
        if res.stdout:
            return "stdout not empty with --output"
        doc = res.file_doc(path)
        bad = _echo_problem(doc, p, f)
        if bad:
            return bad
        if doc["scheme"] != scheme or len(doc["terms"]) != _n_terms(p, scheme):
            return f"{path}: scheme {doc['scheme']} with {len(doc['terms'])} terms"
        return None

    return gate


def gate_refine(p: int, f: float, scheme: str, path: str):
    def gate(res: Result):
        bad = _clean_exit(res)
        if bad:
            return bad
        doc = res.file_doc(path)
        bad = _echo_problem(doc, p, f)
        if bad:
            return bad
        want = _n_terms(p, scheme) * 4**p
        if doc["scheme"] != scheme or len(doc["terms"]) != want:
            return f"{path}: {len(doc['terms'])} refined terms, expected {want}"
        return None

    return gate


def gate_verify(p: int, f: float, scheme: str):
    def gate(res: Result):
        bad = _clean_exit(res)
        if bad:
            return bad
        doc = res.doc()
        bad = _echo_problem(doc, p, f)
        if bad:
            return bad
        if doc["scheme"] != scheme or doc["verdict"] is not True:
            return f"verify of its own {scheme} certificate failed"
        if doc["reconstruction_residual"] >= TOL:
            return "reconstruction residual >= tol"
        return None

    return gate


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def _uniform(rng: random.Random, lo: float, hi: float) -> float:
    """A point of [lo, hi)."""
    return lo + (hi - lo) * rng.random()


def _probe(op: Op) -> Op:
    op.probe = True
    return op


def _report(p, f, refine=False) -> Op:
    argv = ["report", "--p", str(p), "--f", repr(f)] + (["--refine"] if refine else [])
    return Op(argv, gate_report(p, f, refine))


def certify(rng: random.Random) -> List[Op]:
    """Large-p reports: reconstruction, factor Jacobi and the p = 5 probe."""
    return [
        _report(5, _uniform(rng, 1 / 32, 1.0)),
        _probe(_report(5, _uniform(rng, -1.0, -1e-3))),
        _report(4, _uniform(rng, 0.0, 1 / 16)),
        _report(4, _uniform(rng, 1 / 16, 1.0)),
    ]


_SCHEMES = {"per_string": "per-string", "commuting_class": "class"}


def _scheme_range(p: int, scheme: str):
    return (0.0, 2.0 ** (1 - p)) if scheme == "per_string" else (2.0**-p, 1.0)


def roundtrip(rng: random.Random) -> List[Op]:
    """Certificate files written and read back, raw and refined."""
    ops = []
    for p in (3, 4):
        for scheme, flag in _SCHEMES.items():
            f = _uniform(rng, *_scheme_range(p, scheme))
            cert, refined = f"cert-p{p}-{flag}.json", f"refined-p{p}-{flag}.json"
            ops.append(Op(
                ["decompose", "--p", str(p), "--f", repr(f), "--scheme", flag, "--output", cert],
                gate_decompose(p, f, scheme, cert), [cert],
            ))
            ops.append(Op(["verify", "--input", cert], gate_verify(p, f, scheme),
                          probe=(p, scheme) == (3, "per_string")))
            if p == 3:
                ops.append(Op(
                    ["refine", "--input", cert, "--output", refined],
                    gate_refine(p, f, scheme, refined), [refined],
                ))
                ops.append(Op(["verify", "--input", refined], gate_verify(p, f, scheme)))
    return ops


def grid(rng: random.Random) -> List[Op]:
    """Many short invocations at small p: import, partitions, closed forms."""
    ops = []
    step = 2.0 / SWEEP_POINTS
    for p in (1, 2, 3):
        start = -1.0 + step * rng.random()
        end = start + (SWEEP_POINTS - 1) * step
        ops.append(Op(
            ["sweep", "--p", str(p), "--f-start", repr(start), "--f-end", repr(end),
             "--f-step", repr(step)],
            gate_sweep(start, step, SWEEP_POINTS),
        ))
    for p in (2, 3):
        ops.append(_report(p, _uniform(rng, 0.0, 2.0**-p), refine=True))
        ops.append(_report(p, _uniform(rng, 2.0**-p, 1.0), refine=True))
    for p in (1, 2, 3):
        f = _uniform(rng, -1.0, 1.0)
        ops.append(Op(["spectrum", "--p", str(p), "--f", repr(f), "--check-invariance"],
                      gate_spectrum(p, f), probe=p == 3))
        f = _uniform(rng, -1.0, 1.0)
        ops.append(Op(["ppt", "--p", str(p), "--f", repr(f)], gate_ppt(p, f)))
    for p in (1, 2, 3, 4, 5):
        ops.append(Op(["partition", "--p", str(p), "--format", "json"], gate_partition(p)))
    return ops


# The determinism probe re-runs one cheap op per workload whose stdout
# depends on the seeded invariance probe or on a parsed certificate.
WORKLOADS = {"certify": certify, "roundtrip": roundtrip, "grid": grid}


def generate(workload: str, seed: int):
    """(ops, WERNER_SEED) for a workload; the same seed gives the same inputs."""
    rng = random.Random(f"{workload}:{seed}")
    werner_seed = rng.randrange(2**31)
    return WORKLOADS[workload](rng), werner_seed
