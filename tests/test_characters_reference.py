"""``characters`` output pinned against stored output.

``reference_outputs.json`` holds, under ``characters``, a list of groups and
the SHA-256 of the exit code and stdout of ``characters --group G`` in text
and then in JSON form for each of them, each job as ``f"{code}\\n{stdout}"``
in list order.  The list covers the ``groups`` benchmark workload, S(7), S(8)
and two groups whose exponent m = 12 needs both of their generators.
"""

import hashlib
import json
from pathlib import Path

from cycindex.cli import main

PIN = json.loads((Path(__file__).parent / "reference_outputs.json")
                 .read_text(encoding="utf-8"))["characters"]


def test_characters_outputs_are_unchanged(capsys, monkeypatch):
    for name in ("CYCINDEX_GROUP_CAP", "CYCINDEX_WORK_CAP",
                 "CYCINDEX_DIM_CAP", "CYCINDEX_TERM_CAP"):
        monkeypatch.delenv(name, raising=False)
    parts = []
    for expr in PIN["groups"]:
        for fmt in ("text", "json"):
            code = main(["characters", "--group", expr, "--format", fmt])
            parts.append(f"{code}\n{capsys.readouterr().out}")
    assert hashlib.sha256("".join(parts).encode("utf-8")).hexdigest() == PIN["sha256"]
