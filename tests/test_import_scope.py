"""Each CLI call imports only the modules its subcommand runs, and `import
werner` imports no submodule and no numpy: the pinned sets are exact, so a
stray eager import anywhere fails here. No call loads `dataclasses` (the
value types are named tuples) or `numpy.ma` (which a bare np.unique
imports). `ppt`, `partition`, `decompose` and `sweep` run on Python ints
and floats alone: they import no numpy, and print and write the same bytes
where numpy cannot be imported at all. Neither does any name of `pauli`."""
import filecmp
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import werner
from werner.cli import main

_ARRAYS = {"cli", "errors", "serialize", "model", "linalg"}
_EVERY = _ARRAYS | {"decompose", "partition", "pauli", "verify"}
_NUMPY_FREE = {"ppt", "partition", "decompose", "sweep"}

SCOPES = {
    ("build", "--p", "1", "--f", "0.5"): _ARRAYS,
    ("spectrum", "--p", "1", "--f", "0.5"): _ARRAYS,
    ("ppt", "--p", "1", "--f", "0.5"): _ARRAYS,
    ("partition", "--p", "2"): {"cli", "errors", "serialize", "partition", "pauli"},
    ("decompose", "--p", "1", "--f", "0.5"): _EVERY - {"verify"},
    ("verify", "--input", "cert.json"): _EVERY,
    ("refine", "--p", "1", "--f", "0.5"): _EVERY,
    ("report", "--p", "1", "--f", "0.5"): _EVERY,
    ("sweep", "--p", "1", "--f-start", "0", "--f-end", "1", "--f-step", "0.5"): _EVERY,
}

# runs argv through the CLI, then prints the werner submodules it loaded,
# whether numpy is loaded, and which of two modules that no call needs are:
# each costs milliseconds of import
_PROBE = """\
import json, sys
from werner.cli import main
code = main(sys.argv[1:] + ["--output", "out.txt"])
loaded = sorted(m[7:] for m in sys.modules if m.startswith("werner."))
never = [m for m in ("dataclasses", "numpy.ma") if m in sys.modules]
print(json.dumps([code, loaded, "numpy" in sys.modules, never]))
"""

# runs each JSON-encoded argv through the CLI in one interpreter, then prints
# each call's exit code, stdout and stderr, and whether numpy is loaded;
# BLOCK makes numpy unimportable
_OUTPUTS = """\
import io, json, sys
if sys.argv[1] == "BLOCK":
    sys.modules["numpy"] = None  # import numpy now raises ImportError
from werner.cli import main
runs = []
for argv in json.loads(sys.argv[2]):
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    code = main(argv)
    runs.append([code, sys.stdout.getvalue(), sys.stderr.getvalue()])
sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__
print(json.dumps(runs + [sys.modules.get("numpy") is not None]))
"""


def _fresh(code, *argv, cwd):
    """The JSON that code prints, run with argv in a fresh interpreter that
    imports this werner."""
    env = dict(os.environ, PYTHONPATH=str(Path(werner.__file__).parents[1]))
    env.pop("WERNER_SEED", None)
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def _outputs(mode, argvs, cwd):
    """Each argv's [exit code, stdout, stderr] from one _OUTPUTS run of
    numpy-free calls, which leaves numpy unloaded even where it imports."""
    *runs, numpy_loaded = _fresh(_OUTPUTS, mode, json.dumps(argvs), cwd=cwd)
    assert not numpy_loaded
    return runs


@pytest.mark.parametrize("argv", list(SCOPES), ids=[argv[0] for argv in SCOPES])
def test_a_subcommand_imports_only_what_it_runs(tmp_path, argv):
    if argv[0] == "verify":
        main(["decompose", "--p", "1", "--f", "0.5", "--output", str(tmp_path / "cert.json")])
    code, loaded, numpy_loaded, never = _fresh(_PROBE, *argv, cwd=tmp_path)
    assert code == 0
    assert set(loaded) == SCOPES[argv]
    assert numpy_loaded == (argv[0] not in _NUMPY_FREE)
    assert never == []


def test_ppt_and_partition_print_the_same_bytes_without_numpy(tmp_path):
    argvs = [["ppt", "--p", str(p), "--f", f] for p in range(1, 6) for f in ("0.5", "-0.5")]
    argvs += [["partition", "--p", str(p), "--format", fmt]
              for p in range(1, 6) for fmt in ("json", "text")]
    normal = _outputs("RUN", argvs, tmp_path)
    blocked = _outputs("BLOCK", argvs, tmp_path)
    assert blocked == normal
    assert [code for code, _, _ in normal] == [0, 2] * 5 + [0] * 10
    # the guard holds: where numpy is needed, its absence is an ImportError
    with pytest.raises(subprocess.CalledProcessError, match="exit status 1"):
        _fresh(_OUTPUTS, "BLOCK", json.dumps([["build", "--p", "1", "--f", "0.5"]]), cwd=tmp_path)


def test_sweep_prints_the_same_bytes_without_numpy(tmp_path):
    # both families and the entangled rows at the default tol and at tol 0,
    # where some family points are INVALID, and a range that is all
    # entangled, which builds no family
    grid = ["--f-start", "-1", "--f-end", "1", "--f-step", "0.05"]
    argvs = [["sweep", "--p", str(p), *grid, *tol] for p in range(1, 6) for tol in ([], ["--tol", "0"])]
    argvs += [["sweep", "--p", str(p), "--f-start", "-1", "--f-end", "-0.1", "--f-step", "0.3"]
              for p in range(1, 6)]
    normal = _outputs("RUN", argvs, tmp_path)
    blocked = _outputs("BLOCK", argvs, tmp_path)
    assert blocked == normal
    assert [code for code, _, _ in normal] == [0] * 15
    rows = [out.splitlines()[1:] for _, out, _ in normal]
    assert [len(r) for r in rows] == [41] * 10 + [4] * 5
    verdicts = {"ENTANGLED", "SEPARABLE", "INVALID"}
    assert {row.rsplit(",", 1)[1] for r in rows[:10] for row in r} == verdicts
    assert {row.rsplit(",", 1)[1] for r in rows[10:] for row in r} == {"ENTANGLED"}


def test_decompose_prints_and_writes_the_same_bytes_without_numpy(tmp_path):
    # both schemes at p = 1..5: the scale-0 point f = 1/d, the flipped
    # per-string branch (f < 1/d), interior points with long texts up to
    # p = 4, and two refused f; at p = 5 the files are 15 and 30 MB
    points = {p: [("per-string", 0.0), ("class", 2.0**-p)] for p in range(1, 6)}
    for p in range(1, 5):
        points[p] += [("per-string", 2.0 ** (-p - 1)), ("per-string", 2.0**-p),
                      ("per-string", 2.0 ** (1 - p)), ("class", 0.6), ("class", 1.0)]
    argvs = [["decompose", "--p", str(p), "--f", repr(f), "--scheme", flag, "--output", f"{k}.json"]
             for k, (p, (flag, f)) in enumerate((p, point) for p in points for point in points[p])]
    argvs += [argv[:-2] for argv in argvs if int(argv[2]) <= 2]  # to stdout
    argvs += [["decompose", "--p", "2", "--f", "0.9", "--scheme", "per-string"],
              ["decompose", "--p", "3", "--f", "-0.1"]]
    runs = {}
    for mode in ("RUN", "BLOCK"):
        (tmp_path / mode).mkdir()
        runs[mode] = _outputs(mode, argvs, tmp_path / mode)
    assert runs["BLOCK"] == runs["RUN"]
    assert [code for code, _, _ in runs["RUN"]] == [0] * (len(argvs) - 2) + [2, 2]
    written = sorted(path.name for path in (tmp_path / "RUN").iterdir())
    assert written == sorted(f"{k}.json" for k in range(len(argvs)) if "--output" in argvs[k])
    for name in written:
        assert filecmp.cmp(tmp_path / "RUN" / name, tmp_path / "BLOCK" / name, shallow=False), name
        (tmp_path / "RUN" / name).unlink()
        (tmp_path / "BLOCK" / name).unlink()


def test_every_pauli_name_runs_without_numpy(tmp_path):
    # each name in pauli.__all__ is used once, where numpy cannot be imported
    probe = """\
import json, sys
sys.modules["numpy"] = None
from werner import pauli
runs = {
    "DIGIT_LETTERS": pauli.DIGIT_LETTERS,
    "all_strings": list(pauli.all_strings(1)),
    "check_digits": pauli.check_digits([1, 3]),
    "format_label": pauli.format_label((0, 2)),
    "masks": pauli.masks([(1, 2), (3, 0)]),
}
print(json.dumps([sorted(pauli.__all__), runs]))
"""
    names, runs = _fresh(probe, cwd=tmp_path)
    assert names == sorted(runs)
    assert runs == {"DIGIT_LETTERS": "IXYZ", "all_strings": [[0], [1], [2], [3]],
                    "check_digits": [1, 3], "format_label": "IY", "masks": [2, [3, 0], [1, 2]]}


def test_import_werner_loads_no_submodule_and_no_numpy(tmp_path):
    probe = "import json, sys, werner; print(json.dumps(sorted(sys.modules)))"
    loaded = _fresh(probe, cwd=tmp_path)
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("werner")] == ["werner"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        werner.no_such_name
