"""Every function defined in ``src/cycindex`` is entered by some run of the CLI.

A fixed set of in-process ``cli.main`` calls runs under ``sys.setprofile``:
every subcommand in text and JSON, every group and character grammar form, a
``--catalog`` file with tampered and malformed jobs, a job over Q(zeta_5)
(phi(m) = 4), and the usage and cap paths.  The profiler records the code
object of every Python frame entered.  The definitions are read off the
compiled source of each module: functions, methods, properties, dunders,
nested functions and lambdas all count (class bodies and comprehensions do
not).  A definition no run enters is code only the tests reach; such helpers
belong in ``tests/oracles.py``.  ``ALLOWED`` names the few kept for another
reader, and the last assertion keeps it from going stale.
"""

import json
import os
import sys
from inspect import CO_NEWLOCALS
from pathlib import Path
from types import CodeType

import pytest

import cycindex
from cycindex import cli, cyclo

SRC = Path(cycindex.__file__).resolve().parent

TRACER = "read by perfbench/tracer.py"
ELIMINATION = ("merges columns in rank_of_columns; on a genuine character every column "
               "set passed to it has distinct last rows, so only the broken tables of "
               "tests/test_projector.py reach it")

# "module.py:qualified name" of definitions no CLI run enters, each with its reason
ALLOWED = {
    "projector.py:random_gamma_family": "builds the paper's cocycle-twisted modules",
    "projector.py:MonomialModule.validate_cocycle": "runs only on a cocycle family",
    "polys.py:is_symmetric": "public check on a MonomialPoly, called by the tests",
    "projector.py:SparseMatrix.nnz": TRACER,
    "perms.py:PermGroup.__hash__": TRACER,
    "cyclo.py:Cyclotomic.__repr__": "debugging aid",
    "polys.py:_SparsePoly.__repr__": "debugging aid",
    "perms.py:PermGroup.__repr__": "debugging aid",
    "characters.py:LinearCharacter.__repr__": "debugging aid",
    "cyclo.py:CyclotomicIntegers.__init__.<locals>.mul": ELIMINATION,
    "cyclo.py:CyclotomicIntegers.__init__.<locals>.sub": ELIMINATION,
}

# the jobs of the catalog file: tampered jobs (one printing values in Q(zeta_3), one
# on a trivial group), a job without its n, a cap hit, and one job of each other kind
CATALOG_JOBS = [
    {"command": "verify", "group": "S(3)", "char": "sign", "n": 2, "tamper_character": True},
    {"command": "verify", "group": "C(3)", "char": "index:1", "n": 1, "tamper_character": True},
    {"command": "verify", "group": "C(1)", "n": 1, "tamper_character": True},
    {"command": "verify-basis", "group": "D(4)", "char": "index:1", "n": 1},
    {"command": "verify-product", "group": "S(2)", "group2": "C(3)", "char2": "index:2"},
    {"command": "verify-plethysm", "group": "C(3)", "char": "index:1", "group2": "S(2)"},
    {"command": "orbits", "group": "A(4)", "n": 1},
    {"command": "gn", "group": "S(3)"},
    {"command": "verify", "group": "S(4)", "n": 3},
]

# (argv, exit code); "{catalog}", "{malformed}" and "{missing}" name catalog files
CALLS = [
    (["characters", "--group", "S(3)"], 0),
    (["characters", "--group", "C(4)", "--format", "json"], 0),
    (["characters", "--group", "gen[2]{}"], 0),
    (["cycle-index", "--group", "C(3)", "--char", "index:1"], 0),
    (["cycle-index", "--group", "product(S(2),C(3))", "--char", "sign(x)index:1",
      "--format", "json"], 0),
    (["cycle-index", "--group", "wreath(S(2),S(2))", "--char", "sign(x)sign"], 0),
    (["orbits", "--group", "S(3)", "--char", "sign", "--n", "1"], 0),
    (["orbits", "--group", "D(4)", "--char", "index:2", "--n", "1", "--format", "json"], 0),
    (["gn", "--group", "A(4)", "--char", "index:1", "--n", "1"], 0),
    (["gn", "--group", "C(3)", "--char", "index:2", "--n", "1", "--format", "json"], 0),
    (["verify", "--group", "gen[4]{(1 2)(3 4),(1 3)(2 4)}",
      "--char", "vals{(1 2)(3 4):1,(1 3)(2 4):0}", "--n", "1"], 0),
    (["verify", "--group", "C(4)", "--char", "index:1", "--n", "2", "--format", "json"], 0),
    (["verify-product", "--group", "S(2)", "--char", "sign", "--group2", "C(3)",
      "--char2", "index:1", "--n", "1"], 0),
    (["verify-product", "--group", "C(3)", "--char", "index:1", "--group2", "C(3)",
      "--char2", "index:1", "--format", "json"], 0),
    (["verify-plethysm", "--group", "C(3)", "--char", "index:1", "--group2", "C(3)",
      "--char2", "index:2"], 0),
    (["verify-plethysm", "--group", "S(2)", "--char", "sign", "--group2", "S(2)",
      "--format", "json"], 0),
    (["verify-basis", "--group", "C(5)", "--char", "index:1", "--n", "1"], 0),
    (["verify-basis", "--group", "C(3)", "--char", "index:2", "--n", "1",
      "--format", "json"], 0),
    (["suite", "--catalog", "{catalog}"], 1),
    (["suite", "--catalog", "{catalog}", "--format", "json"], 1),
    (["suite", "--catalog", "{malformed}"], 2),
    (["suite", "--catalog", "{missing}"], 2),
    (["suite", "--cap", "10"], 3),
    (["verify", "--group", "S(4)", "--n", "3", "--cap", "10"], 3),
    (["verify", "--group", "S(3)", "--n", "-1"], 2),
    (["characters", "--group", "S(3)", "--cap", "-1"], 2),
    (["characters", "--group", "T(3)"], 2),
    (["cycle-index", "--group", "S(3)", "--char", "index:9"], 2),
]

# (environment, argv, exit code)
ENV_CALLS = [
    ({"CYCINDEX_WORK_CAP": "ten"}, ["characters", "--group", "S(3)"], 2),
    ({"CYCINDEX_TERM_CAP": "1"}, ["verify-product", "--group", "S(2)", "--group2", "S(2)"], 3),
]


def _definitions(path):
    """(qualified name, first line, name) of every function compiled from ``path``;
    two functions may share a qualified name, such as the branches of a nested def."""
    found = []

    def walk(code, prefix):
        for const in code.co_consts:
            if not isinstance(const, CodeType) or const.co_name in (
                    "<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>"):
                continue
            name = prefix + const.co_name
            if const.co_flags & CO_NEWLOCALS:  # a function, not a class body
                found.append((name, const.co_firstlineno, const.co_name))
                walk(const, name + ".<locals>.")
            else:
                walk(const, name + ".")

    walk(compile(path.read_text(encoding="utf-8"), str(path), "exec"), "")
    return found


def _run_cli_set(tmp_path, monkeypatch, capsys):
    """Run every call of ``CALLS`` and ``ENV_CALLS``, then ``cli.entry`` once, under
    the profiler; the code objects entered."""
    catalog = tmp_path / "catalog.json"
    catalog.write_text(json.dumps(CATALOG_JOBS), encoding="utf-8")
    malformed = tmp_path / "malformed.json"
    malformed.write_text(json.dumps([{"command": "verify", "n": "2"}]), encoding="utf-8")
    paths = {"{catalog}": str(catalog), "{malformed}": str(malformed),
             "{missing}": str(tmp_path / "missing.json")}
    calls = [({}, argv, code) for argv, code in CALLS] + ENV_CALLS
    # rings and polynomials cached by earlier tests would hide their constructors
    cyclo.cyclotomic_ring.cache_clear()
    cyclo.cyclotomic_polynomial.cache_clear()
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    codes = []
    sys.setprofile(profile)
    try:
        for env, argv, _ in calls:
            with monkeypatch.context() as patch:
                for name, value in env.items():
                    patch.setenv(name, value)
                codes.append(cli.main([paths.get(a, a) for a in argv]))
        monkeypatch.setattr(sys, "argv", ["cycindex", "gn", "--group", "S(2)", "--n", "1"])
        with pytest.raises(SystemExit) as stop:
            cli.entry()
    finally:
        sys.setprofile(None)
    capsys.readouterr()
    assert codes == [code for _, _, code in calls]
    assert stop.value.code == 0
    return entered


def test_every_function_in_src_is_entered_by_the_cli(tmp_path, monkeypatch, capsys):
    entered = _run_cli_set(tmp_path, monkeypatch, capsys)
    reached = {(os.path.realpath(code.co_filename), code.co_firstlineno, code.co_name)
               for code in entered}
    unreached = sorted(f"{path.name}:{qualname}"
                       for path in SRC.glob("*.py")
                       for qualname, line, name in _definitions(path)
                       if (os.path.realpath(path), line, name) not in reached)
    assert [key for key in unreached if key not in ALLOWED] == []
    # the allowlist names only definitions that exist and no CLI run enters
    assert sorted(set(ALLOWED) - set(unreached)) == []
