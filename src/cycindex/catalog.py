"""The default verification catalog driven by the CLI suite command.

A catalog is a flat JSON array of job objects, one per entry, no scripting.
Each job mirrors a CLI subcommand: verify, verify-product, verify-plethysm,
verify-basis, orbits.
"""

from __future__ import annotations

from .caps import Caps, DEFAULT_CAPS
from .characters import enumerate_linear_characters
from .grammar import parse_group

MAIN_GROUP_EXPRS = (
    ["C(%d)" % d for d in range(1, 7)]
    + ["D(%d)" % d for d in range(3, 7)]
    + ["S(%d)" % d for d in range(1, 6)]
    + ["A(%d)" % d for d in range(3, 6)]
    + ["gen[4]{(1 2)(3 4),(1 3)(2 4)}",        # V4
       "product(S(2),S(2))",
       "wreath(S(2),S(2))"]
)

PAIR_EXPRS = (("S(2)", "unit"), ("S(2)", "sign"),
              ("C(3)", "unit"), ("C(3)", "index:1"), ("C(3)", "index:2"),
              ("S(3)", "unit"), ("S(3)", "sign"))

MAIN_NS = (0, 1, 2, 3)
MAIN_POINT_CAP = 4096
BASIS_DIM_CAP = 1024


def default_catalog(caps: Caps = DEFAULT_CAPS) -> list[dict]:
    """The job list; each group expression is parsed once."""
    exprs = dict.fromkeys([*MAIN_GROUP_EXPRS, *(expr for expr, _ in PAIR_EXPRS)])
    groups = {expr: parse_group(expr, caps=caps).group for expr in exprs}
    jobs: list[dict] = []
    for expr in MAIN_GROUP_EXPRS:
        d = groups[expr].degree
        # one selector per linear character, in enumeration order
        for k in range(len(enumerate_linear_characters(groups[expr], caps=caps))):
            sel = f"index:{k}"
            for n in MAIN_NS:
                if (n + 1) ** d > MAIN_POINT_CAP:
                    continue
                jobs.append({"command": "verify", "group": expr, "char": sel, "n": n})
                if (n + 1) ** d <= BASIS_DIM_CAP:
                    jobs.append({"command": "verify-basis", "group": expr,
                                 "char": sel, "n": n})
    for w_expr, chi_sel in PAIR_EXPRS:
        for v_expr, theta_sel in PAIR_EXPRS:
            jobs.append({"command": "verify-product", "group": w_expr, "char": chi_sel,
                         "group2": v_expr, "char2": theta_sel, "n": 2})
            if groups[w_expr].degree * groups[v_expr].degree <= 8:
                jobs.append({"command": "verify-plethysm", "group": w_expr,
                             "char": chi_sel, "group2": v_expr, "char2": theta_sel})
    return jobs


def load_catalog(path: str) -> list[dict]:
    import json
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise ValueError("catalog is nested too deeply to read") from None
    if not isinstance(data, list) or not all(isinstance(j, dict) for j in data):
        raise ValueError("catalog must be a JSON array of job objects")
    return data
