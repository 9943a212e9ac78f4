"""What ``import cycindex`` loads, checked in a fresh interpreter.

Each ``cycindex`` command and each benchmark setup probe re-imports the
package, so the import leaves out the standard-library modules that only some
paths use: ``dataclasses`` (and the ``inspect`` it pulls in) is not used at
all, ``argparse`` is loaded by ``cli.build_parser`` and ``json`` by the
functions that read or write JSON.  ``cycindex.projector`` is loaded at
import: ``perfbench/tracer.py`` looks it up in ``sys.modules``.
"""

import json
import subprocess
import sys
from pathlib import Path

import cycindex

SRC = Path(cycindex.__file__).resolve().parent.parent

DEFERRED = ("dataclasses", "inspect", "argparse", "json")

# -E -S: no PYTHONPATH and no site hooks, so only the interpreter's own start-up
# modules are loaded before the import
PROBE = """
import sys
before = set(sys.modules)
sys.path.insert(0, sys.argv[1])
import cycindex
added = sorted(set(sys.modules) - before)
import io, json
from cycindex import cli
out, sys.stdout = sys.stdout, io.StringIO()
code = cli.main(["characters", "--group", "S(3)"])
text, sys.stdout = sys.stdout.getvalue(), out
print(json.dumps({"added": added, "code": code, "text": text}))
"""


def test_import_leaves_out_the_modules_only_some_paths_use():
    done = subprocess.run([sys.executable, "-E", "-S", "-c", PROBE, str(SRC)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert [name for name in DEFERRED if name in result["added"]] == []
    assert "cycindex.projector" in result["added"]
    assert result["code"] == 0
    assert result["text"].startswith("group S(3): order 6, 2 linear character(s)")
