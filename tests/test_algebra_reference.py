"""The algebra side's text on exponent tables that are not homomorphisms, pinned.

A table that is not a homomorphism gives a cycle index with non-rational
coefficients, and the conductor each one prints at depends on the order in
which its values were summed.  ``reference_outputs.json`` holds, under
``algebra_side``, the SHA-256 of ``cycle_index(G, chi).to_json()`` followed by
``specialize(Z, n).to_json()`` for n = 0, 1, 2, one JSON line each, for:

- ``TABLES`` random exponent tables (identity exponent 0) for every m in
  ``ORDERS`` on every group in ``GROUPS``, drawn from ``random.Random(SEED)``
  in that loop order;
- ``cli._tampered`` of the character of every distinct (group, char) pair of
  the default catalog's ``verify`` jobs on groups of order >= 2, in
  first-seen order.
"""

import hashlib
import json
import random
from pathlib import Path

from cycindex.catalog import default_catalog
from cycindex.characters import LinearCharacter
from cycindex.cli import _tampered
from cycindex.grammar import parse_character, parse_group
from cycindex.polys import cycle_index, specialize

PIN = json.loads((Path(__file__).parent / "reference_outputs.json")
                 .read_text(encoding="utf-8"))["algebra_side"]

GROUPS = ["C(6)", "C(12)", "D(6)", "S(4)", "product(C(3),C(4))"]
ORDERS = [3, 4, 5, 6, 8, 12]
TABLES = 3
SEED = 18


def characters():
    rng = random.Random(SEED)
    for expr in GROUPS:
        G = parse_group(expr).group
        for m in ORDERS:
            for _ in range(TABLES):
                exponents = (0,) + tuple(rng.randrange(m) for _ in range(G.order - 1))
                yield LinearCharacter(G, m, exponents, name="random")
    pairs = dict.fromkeys((job["group"], job["char"]) for job in default_catalog()
                          if job["command"] == "verify")
    for expr, sel in pairs:
        spec = parse_group(expr)
        if spec.group.order > 1:
            yield _tampered(parse_character(sel, spec))


def algebra_text() -> str:
    lines = []
    for chi in characters():
        Z = cycle_index(chi.group, chi)
        lines.append(json.dumps(Z.to_json()))
        lines.extend(json.dumps(specialize(Z, n).to_json()) for n in range(3))
    return "\n".join(lines) + "\n"


def test_algebra_side_text_is_unchanged():
    assert hashlib.sha256(algebra_text().encode("utf-8")).hexdigest() == PIN["sha256"]
