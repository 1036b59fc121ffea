"""Command-line front end.

Exit codes: 0 on success (or a verified certificate), 1 on usage errors,
2 on verification failures and out-of-range parameters, with a
machine-readable JSON diagnostic on stderr. Output is byte-identical for
identical (argv, seed); the WERNER_SEED environment variable overrides
--seed wherever a seed is consumed (report and spectrum). Each handler
imports what it runs, so a call loads only its subcommand's modules.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import sys
from itertools import chain

from .errors import MalformedInput, WernerError

__all__ = ["main", "run"]

# "auto" and the flags of decompose.SCHEMES, spelled out so that building
# the parser imports no numpy; tests/test_cli.py holds them to the table
_SCHEME_FLAGS = ("auto", "class", "per-string")
_MAX_P = 5  # dense pair operators reach 1024x1024 here; plenty for a desk run
_JACOBI_CLI_MAX_P = 3  # full-state Jacobi in `spectrum` stays desk-fast up to here
# a refined p = 5 certificate has about a million terms and tens of GB of text
_REFINE_CLI_MAX_P = 4
_SWEEP_MAX_ROWS = 100_000  # sweep holds its rows in memory until the end


class _UsageError(Exception):
    """An input argparse accepts but the toolkit cannot use; exits 1."""


# Every negative value float() reads, so that "--f -1e-9" and "--f -inf" are
# values: argparse's own pattern has no exponent and no inf, and takes such a
# token for an option.
_NEGATIVE_NUMBER = re.compile(
    r"^-(\d+\.?\d*|\.\d+)(e[-+]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE
)


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # usage problems exit 1 with one JSON line, not argparse's usage text and 2
    def error(self, message):
        _diag("UsageError", f"{self.prog}: {message}")
        self.exit(1)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="werner",
        description=(
            "Construct Werner states on 2^p x 2^p systems, compute spectra "
            "and partial-transpose spectra, and build verified product-state "
            "decompositions."
        ),
    )
    sub = parser.add_subparsers(dest="cmd", parser_class=_Parser)

    def add_common(sp, *extra):  # extra: the "scheme", "seed", "tol" it reads
        sp.add_argument("--p", type=int, required=True, choices=range(1, _MAX_P + 1))
        sp.add_argument("--f", type=float, required=True)
        if "scheme" in extra:
            sp.add_argument("--scheme", choices=_SCHEME_FLAGS, default="auto")
        if "seed" in extra:
            sp.add_argument("--seed", type=int, default=42)
        if "tol" in extra:
            sp.add_argument("--tol", type=float, default=1e-9)
        sp.add_argument("--output", default=None, help="path, or stdout by default")

    sp = sub.add_parser("build", help="emit the dense state matrix")
    add_common(sp)

    sp = sub.add_parser("spectrum", help="eigenvalues by independent routes")
    add_common(sp, "seed")
    sp.add_argument(
        "--check-invariance",
        action="store_true",
        help="probe U(x)U invariance with one seeded random unitary",
    )

    sp = sub.add_parser("ppt", help="partial-transpose positivity test")
    add_common(sp, "tol")

    sp = sub.add_parser("partition", help="maximal commuting classes")
    sp.add_argument("--p", type=int, required=True, choices=range(1, _MAX_P + 1))
    sp.add_argument("--output", default=None)
    sp.add_argument("--format", choices=["text", "json"], default="text")

    sp = sub.add_parser("decompose", help="build a product-state decomposition")
    add_common(sp, "scheme")

    sp = sub.add_parser("verify", help="verify a decomposition document")
    sp.add_argument("--input", required=True, help="path to a decomposition JSON, or - for stdin")
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("refine", help="split mixed factors into pure ones")
    sp.add_argument("--input", default=None, help="decomposition JSON path, or - for stdin")
    sp.add_argument("--p", type=int, choices=range(1, _MAX_P + 1))
    sp.add_argument("--f", type=float)
    sp.add_argument("--scheme", choices=_SCHEME_FLAGS)  # None: auto, unless --input
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--output", default=None)

    sp = sub.add_parser("report", help="end-to-end separability report")
    add_common(sp, "seed", "tol")
    sp.add_argument("--refine", action="store_true")
    sp.add_argument("--format", choices=["json", "text"], default="json")

    sp = sub.add_parser("sweep", help="tabulate an f range as CSV")
    sp.add_argument("--p", type=int, required=True, choices=range(1, _MAX_P + 1))
    sp.add_argument("--f-start", type=float, required=True)
    sp.add_argument("--f-end", type=float, required=True)
    sp.add_argument("--f-step", type=float, required=True)
    sp.add_argument("--tol", type=float, default=1e-9)
    sp.add_argument("--output", default=None)

    return parser


def _check_args(args) -> None:
    """Reject values argparse accepts but the toolkit cannot use, and put the
    seed to consume (WERNER_SEED if set, else --seed) in args.seed."""
    for name in ("f", "f_start", "f_end", "f_step"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise _UsageError(f"--{name.replace('_', '-')} must be finite, got {value}")
    tol = getattr(args, "tol", 0.0)
    if not 0.0 <= tol < math.inf:
        raise _UsageError(f"--tol must be finite and nonnegative, got {tol}")
    if hasattr(args, "seed"):
        env = os.environ.get("WERNER_SEED")
        try:
            args.seed = args.seed if env is None else int(env)
        except ValueError:
            raise _UsageError(f"WERNER_SEED must be an integer, got {env!r}") from None
        if args.seed < 0:
            raise _UsageError(f"the seed must be nonnegative, got {args.seed}")


def _scheme(flag: str) -> str:
    """The decompose_auto scheme a --scheme value names: "auto", or the
    name of the scheme with that flag."""
    from .decompose import SCHEMES
    return next((s.name for s in SCHEMES.values() if s.flag == flag), flag)


def _check_refine_cap(p: int) -> None:
    if p > _REFINE_CLI_MAX_P:
        raise _UsageError(f"refinement is capped at p = {_REFINE_CLI_MAX_P}, got p = {p}")


def _write(args, text, end: str = "\n") -> None:
    """text (a str, or chunks to write in turn), then end, to --output or
    stdout; end is written on its own so that a large document is never
    copied to append it."""
    chunks = chain([text] if isinstance(text, str) else text, [end])
    path = getattr(args, "output", None)
    if path is None:
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(chunks)


def _diag(kind: str, message: str, **extra) -> None:
    doc = {"error": kind, "message": message}
    doc.update(extra)
    sys.stderr.write(json.dumps(doc) + "\n")


def _read_certificate(path: str, max_p: int = _MAX_P):
    """The decomposition in a certificate file (- for stdin). A document that
    is not one, from unparsable JSON to a missing key, raises MalformedInput,
    and so does one above max_p, before any of its factors is converted."""
    from .serialize import parse_decomposition
    try:
        if path == "-":  # JSON is UTF-8 (RFC 8259), whatever the locale
            stdin = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if stdin is None else stdin.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        return parse_decomposition(text, max_p)
    except MalformedInput:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise MalformedInput(f"malformed certificate: {type(exc).__name__}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_build(args) -> int:
    from .model import WernerParams, werner_dense
    from .serialize import dump_chunks, matrix_doc
    params = WernerParams(args.p, args.f)
    doc = {"p": params.p, "f": params.f, "state": matrix_doc(werner_dense(params))}
    _write(args, dump_chunks(doc))  # a row at a time: the text is never whole
    return 0


def _cmd_spectrum(args) -> int:
    from .linalg import hermitian_eigenvalues
    from .model import WernerParams, invariance_residual, random_unitary, werner_dense
    from .model import spectrum_closed_form, spectrum_via_transform
    from .serialize import dumps, spectrum_rows
    params = WernerParams(args.p, args.f).require_physical()
    closed = spectrum_closed_form(params)
    transform = spectrum_via_transform(params)
    routes = [closed, transform]
    jacobi = None
    if params.p <= _JACOBI_CLI_MAX_P:
        jacobi = hermitian_eigenvalues(werner_dense(params))
        routes.append(jacobi)
    agree = all(
        a.isclose(b, 1e-9) for i, a in enumerate(routes) for b in routes[i + 1 :]
    )
    unit_trace_error = max(abs(s.weighted_sum() - 1.0) for s in routes)
    doc = {
        "p": params.p,
        "f": params.f,
        "closed_form": spectrum_rows(closed),
        "transform": spectrum_rows(transform),
        "jacobi": spectrum_rows(jacobi) if jacobi is not None else None,
        "unit_trace_error": unit_trace_error,
        "agree": agree,
    }
    if args.check_invariance:
        doc["seed"] = args.seed
        doc["invariance_residual"] = invariance_residual(
            params, random_unitary(params.d, args.seed)
        )
    _write(args, dumps(doc))
    return 0


def _cmd_ppt(args) -> int:
    from .model import WernerParams, ppt_check, pt_spectrum_closed_form
    from .serialize import dumps, spectrum_rows
    params = WernerParams(args.p, args.f)
    ok = ppt_check(params, args.tol)  # raises on an unphysical f
    spec = pt_spectrum_closed_form(params)
    doc = {
        "p": params.p,
        "f": params.f,
        "verdict": "PPT" if ok else "NOT PPT",
        "ppt": ok,
        "min_pt_eigenvalue": spec.min(),
        "pt_spectrum": spectrum_rows(spec),
    }
    _write(args, dumps(doc))
    if not ok:
        _diag("NotPPT", f"minimum partial-transpose eigenvalue {spec.min():.6e} < 0",
              p=params.p, f=params.f, min_pt_eigenvalue=spec.min())
        return 2
    return 0


def _cmd_partition(args) -> int:
    from .partition import build_partition, validate_partition
    from .pauli import format_label
    from .serialize import dumps
    part = build_partition(args.p)
    result = validate_partition(part)
    if args.format == "json":
        doc = {
            "p": args.p,
            "n_classes": len(part.classes),
            "class_size": len(part.classes[0].members),
            "valid": result.ok,
            "classes": [list(cls.labels()) for cls in part.classes],
            "generators": [
                [format_label(g) for g in cls.generators] for cls in part.classes
            ],
        }
        _write(args, dumps(doc))
    else:
        lines = [" ".join(cls.labels()) for cls in part.classes]
        _write(args, "\n".join(lines))
    if not result.ok:
        _diag("InvalidPartition", "; ".join(result.problems[:5]), p=args.p)
        return 2
    return 0


def _cmd_decompose(args) -> int:
    from .decompose import _in_range
    from .model import WernerParams
    from .serialize import scheme_certificate_chunks
    params = WernerParams(args.p, args.f)
    _write(args, scheme_certificate_chunks(params, _in_range(params, _scheme(args.scheme))), end="")
    return 0


def _cmd_verify(args) -> int:
    from .model import werner_dense
    from .serialize import dumps, verification_doc
    from .verify import verify_decomposition
    dec = _read_certificate(args.input)
    target = werner_dense(dec.params)
    rep = verify_decomposition(target, dec, args.tol)
    out = {"p": dec.params.p, "f": dec.params.f, "scheme": dec.scheme}
    out.update(verification_doc(rep))
    _write(args, dumps(out))
    if not rep.verdict:
        _diag("VerificationFailed", "; ".join(rep.diagnostics) or "verdict false",
              p=dec.params.p, f=dec.params.f)
        return 2
    return 0


def _cmd_refine(args) -> int:
    from .decompose import decompose_auto
    from .model import WernerParams
    from .serialize import certificate_chunks
    from .verify import refine_to_pure
    if args.input is not None:
        if (args.p, args.f, args.scheme) != (None, None, None):
            raise _UsageError("refine takes --input or --p/--f/--scheme, not both")
        dec = _read_certificate(args.input, _REFINE_CLI_MAX_P)
    else:
        if args.p is None or args.f is None:
            _diag("MissingInput", "refine needs --input or both --p and --f")
            return 1
        _check_refine_cap(args.p)
        dec = decompose_auto(WernerParams(args.p, args.f), _scheme(args.scheme or "auto"))
    refined = refine_to_pure(dec, args.tol)
    _write(args, certificate_chunks(refined), end="")
    return 0


def _cmd_report(args) -> int:
    from .model import WernerParams
    from .serialize import dumps, separability_doc
    from .verify import separability_report
    if args.refine:
        _check_refine_cap(args.p)
    params = WernerParams(args.p, args.f)
    rep, refinement = separability_report(
        params, seed=args.seed, tol=args.tol, refine=args.refine
    )
    doc = separability_doc(rep, refinement)
    if args.format == "text":
        lines = [f"{k}: {dumps(v) if isinstance(v, dict) else v}" for k, v in doc.items()]
        _write(args, "\n".join(lines))
    else:
        _write(args, dumps(doc))
    if rep.verdict != "SEPARABLE":
        _diag(
            "NotSeparable" if rep.verdict == "ENTANGLED" else "VerificationFailed",
            f"verdict {rep.verdict}",
            p=params.p,
            f=params.f,
            witness=rep.witness,
        )
        return 2
    return 0


_SWEEP_HEADER = [
    "f",
    "min_eig_rho",
    "min_eig_pt",
    "ppt",
    "scheme",
    "n_terms",
    "min_component_eig",
    "reconstruction_residual",
    "verdict",
]


def _sweep_points(start: float, end: float, step: float) -> int:
    """How many f = start + k * step, k = 0, 1, ..., stay within end + 1e-12
    (f only grows with k), counted point by point up to one above
    _SWEEP_MAX_ROWS."""
    n, limit = 0, end + 1e-12
    while n <= _SWEEP_MAX_ROWS and start + n * step <= limit:
        n += 1
    return n


def _cmd_sweep(args) -> int:
    from .model import WernerParams, pt_spectrum_closed_form, spectrum_closed_form
    from .serialize import csv_text
    from .verify import _point
    if args.f_step <= 0:
        _diag("InvalidRange", "f-step must be positive")
        return 2
    if args.f_start > args.f_end or args.f_start < -1.0 or args.f_end > 1.0:
        _diag("InvalidRange", "sweep range must satisfy -1 <= start <= end <= 1")
        return 2
    n_points = _sweep_points(args.f_start, args.f_end, args.f_step)
    if n_points > _SWEEP_MAX_ROWS:
        _diag("InvalidRange", f"sweep grid has more than {_SWEEP_MAX_ROWS} points")
        return 2
    rows = []
    families = {}  # scheme -> its family at p, built by the first row that needs it
    for k in range(n_points):
        params = WernerParams(args.p, min(args.f_start + k * args.f_step, 1.0))
        row = [params.f, spectrum_closed_form(params).min(), pt_spectrum_closed_form(params).min()]
        verdict, ppt, family, ver = _point(params, args.tol, families)
        row += [ppt, None, 0, None, None] if family is None else [
            ppt, family.scheme, family.n_terms, ver.min_component_eigenvalue, ver.reconstruction_residual]
        rows.append(row + [verdict])
    _write(args, csv_text(_SWEEP_HEADER, rows), end="")
    return 0


_DISPATCH = {
    "build": _cmd_build,
    "spectrum": _cmd_spectrum,
    "ppt": _cmd_ppt,
    "partition": _cmd_partition,
    "decompose": _cmd_decompose,
    "verify": _cmd_verify,
    "refine": _cmd_refine,
    "report": _cmd_report,
    "sweep": _cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.cmd is None:
        _diag("UsageError", "werner: a subcommand is required (see --help)")
        return 1
    try:
        _check_args(args)
        return _DISPATCH[args.cmd](args)
    except _UsageError as exc:
        _diag("UsageError", str(exc))
        return 1
    except WernerError as exc:
        extra = {}
        if getattr(exc, "valid_range", None) is not None:
            extra["valid_range"] = list(exc.valid_range)
        if getattr(exc, "f", None) is not None:
            extra["f"] = exc.f
        _diag(type(exc).__name__, str(exc), **extra)
        return 2
    except OSError as exc:
        _diag("IOError", str(exc))
        return 1


def run() -> int:
    """The process entry: main with the cyclic collector off, then the heap
    frozen, so the interpreter's exit-time collections skip the objects the
    run left alive. A run is one short command whose cycles die with the
    process. In-process callers use main, which leaves the collector
    alone."""
    gc.disable()
    status = main()
    gc.freeze()
    return status
