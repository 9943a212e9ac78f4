"""``Cyclotomic`` text pinned against stored output.

``reference_outputs.json`` holds, under ``cyclotomic_text``, the SHA-256 of
``str()`` and ``to_json()`` of, in this order:

- ``root_of_unity(m, k)`` for every m <= 24 and 0 <= k < m;
- the sum and the product of every ordered pair of roots with m <= 12;
- the running sums of ``RUNNING`` in list order and then in reverse order.

Each value contributes the line ``f"{str(v)}\\t{json.dumps(v.to_json())}\\n"``.
The two running sums end at different conductors, so the pin also holds the
rule that a sum stays at the conductor its summation order reached.
"""

import hashlib
import json
from pathlib import Path

from cycindex import Cyclotomic

PIN = json.loads((Path(__file__).parent / "reference_outputs.json")
                 .read_text(encoding="utf-8"))["cyclotomic_text"]

# z6 + z6^5 and z12 + z12^7 are rational, so the two orders demote at different steps
RUNNING = [(6, 1), (6, 5), (3, 1), (4, 1), (4, 3), (12, 1), (12, 7)]


def _line(value: Cyclotomic) -> str:
    return f"{value}\t{json.dumps(value.to_json())}\n"


def _running_sums(pairs):
    total = Cyclotomic.zero()
    sums = []
    for m, k in pairs:
        total = total + Cyclotomic.root_of_unity(m, k)
        sums.append(total)
    return sums


def test_running_sums_end_at_different_conductors():
    forward, backward = _running_sums(RUNNING), _running_sums(RUNNING[::-1])
    assert forward[-1] == backward[-1]
    assert forward[-1].conductor != backward[-1].conductor


def test_cyclotomic_text_is_unchanged():
    lines = [_line(Cyclotomic.root_of_unity(m, k)) for m in range(1, 25) for k in range(m)]
    roots = [Cyclotomic.root_of_unity(m, k) for m in range(1, 13) for k in range(m)]
    for a in roots:
        for b in roots:
            lines += [_line(a + b), _line(a * b)]
    lines += map(_line, _running_sums(RUNNING) + _running_sums(RUNNING[::-1]))
    assert hashlib.sha256("".join(lines).encode("utf-8")).hexdigest() == PIN["sha256"]
