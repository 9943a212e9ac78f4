"""Print one pinned job for ``reference_outputs.json``.

    PYTHONPATH=src python tests/pin_output.py characters --group 'S(3)' --format json

runs ``cycindex.cli.main`` on ARGV with the ``CYCINDEX_*_CAP`` variables
removed, as ``test_pins.py`` does, and prints one
``{"argv", "exit", "stdout"}`` object in the layout of the ``jobs`` list.  It
never writes the reference file: paste the object in by hand, and only from a
commit whose output is known to be right.
"""

import contextlib
import io
import json
import os
import sys

from cycindex.cli import main

CAP_VARIABLES = ("CYCINDEX_GROUP_CAP", "CYCINDEX_WORK_CAP",
                 "CYCINDEX_DIM_CAP", "CYCINDEX_TERM_CAP")


def pin(argv: list[str]) -> dict:
    for name in CAP_VARIABLES:
        os.environ.pop(name, None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


if __name__ == "__main__":
    print(json.dumps(pin(sys.argv[1:]), indent=1))
