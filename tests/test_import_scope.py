"""Each CLI call imports only the modules its subcommand runs, and `import
werner` imports no submodule and no numpy: the pinned sets are exact, so a
stray eager import anywhere fails here. No call loads `dataclasses` (the
value types are named tuples) or `numpy.ma` (which a bare np.unique
imports). `ppt`, `partition` and `sweep` run on Python ints and floats
alone: they import no numpy, and print the same bytes where numpy cannot be
imported at all."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import werner
from werner.cli import main

_ARRAYS = {"cli", "errors", "serialize", "model", "linalg", "pauli"}
_EVERY = _ARRAYS | {"decompose", "partition", "verify"}
_NUMPY_FREE = {"ppt", "partition", "sweep"}

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
# each call's exit code, stdout and stderr; BLOCK makes numpy unimportable
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
print(json.dumps(runs))
"""


def _fresh(code, *argv, cwd):
    """The JSON that code prints, run with argv in a fresh interpreter that
    imports this werner."""
    env = dict(os.environ, PYTHONPATH=str(Path(werner.__file__).parents[1]))
    env.pop("WERNER_SEED", None)
    done = subprocess.run([sys.executable, "-c", code, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


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
    normal = _fresh(_OUTPUTS, "RUN", json.dumps(argvs), cwd=tmp_path)
    blocked = _fresh(_OUTPUTS, "BLOCK", json.dumps(argvs), cwd=tmp_path)
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
    normal = _fresh(_OUTPUTS, "RUN", json.dumps(argvs), cwd=tmp_path)
    blocked = _fresh(_OUTPUTS, "BLOCK", json.dumps(argvs), cwd=tmp_path)
    assert blocked == normal
    assert [code for code, _, _ in normal] == [0] * 15
    rows = [out.splitlines()[1:] for _, out, _ in normal]
    assert [len(r) for r in rows] == [41] * 10 + [4] * 5
    verdicts = {"ENTANGLED", "SEPARABLE", "INVALID"}
    assert {row.rsplit(",", 1)[1] for r in rows[:10] for row in r} == verdicts
    assert {row.rsplit(",", 1)[1] for r in rows[10:] for row in r} == {"ENTANGLED"}


def test_import_werner_loads_no_submodule_and_no_numpy(tmp_path):
    probe = "import json, sys, werner; print(json.dumps(sorted(sys.modules)))"
    loaded = _fresh(probe, cwd=tmp_path)
    assert "numpy" not in loaded
    assert [m for m in loaded if m.startswith("werner")] == ["werner"]


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        werner.no_such_name
