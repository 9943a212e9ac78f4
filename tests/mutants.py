"""Mutants of ``src/cycindex`` that the tests must kill.

Each entry of ``MUTANTS`` names a module of ``src/cycindex``, an exact text
that occurs once in it, the text that replaces it, and the test file that must
fail once the replacement is made.  Run from anywhere:

    python tests/mutants.py [--only NAME]

It copies ``src/``, ``tests/`` and ``pyproject.toml`` to a temporary
directory, runs each named test file there once unmutated (it must pass), then
applies each mutant in turn to the copy and runs its test file.  It prints one
line per mutant and exits 1 if a mutant survives (its test file passes) or a
test file fails unmutated; the repository itself is never written.
``tests/test_mutants.py`` checks that every old text still occurs exactly once.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # file name under src/cycindex
    old: str
    new: str
    test: str  # test file, relative to the repository root, that must fail


MUTANTS = (
    Mutant("no-demotion", "cyclo.py",
           "        if conductor != 1 and not any(num[1:]):\n"
           "            conductor, num = 1, num[0]\n",
           "",
           "tests/test_cyclo.py"),
    Mutant("eq-without-denominators", "cyclo.py",
           "return scale(self._lift(M), other.den) == scale(other._lift(M), self.den)",
           "return self._lift(M) == other._lift(M)",
           "tests/test_cyclo.py"),
    Mutant("str-over-common-den", "cyclo.py",
           "            c = Fraction(c, self.den)\n",
           "            c = Fraction(c) if self.den == 1 else f\"{c}/{self.den}\"\n",
           "tests/test_cyclo.py"),
    Mutant("rank-without-unproven", "projector.py",
           "rank_of_columns(list(rep_cols.values()) + [A.column(i) for i in unproven], ring)",
           "rank_of_columns(list(rep_cols.values()), ring)",
           "tests/test_projector.py"),
    Mutant("homomorphism-first-row-only", "characters.py",
           "for k, row in enumerate(G.right):",
           "for k, row in enumerate(G.right[:1]):",
           "tests/test_characters.py"),
    Mutant("hermite-one-euclid-step", "characters.py",
           "        while v[i]:\n",
           "        if v[i]:\n",
           "tests/test_characters.py"),
    Mutant("trace-next-slot", "projector.py",
           "e = (P >> off) & emask",
           "e = (P >> (off + self.stride)) & emask",
           "tests/test_projector.py"),
    Mutant("cycle-string-keeps-fixed-points", "perms.py",
           "if len(cyc) > 1:",
           "if cyc:",
           "tests/test_perms.py"),
    Mutant("catalog-tamper-not-bool", "cli.py",
           "if type(tamper) is not bool:",
           "if tamper is None:",
           "tests/test_cli.py"),
    Mutant("census-tsv-flag-capitalised", "orbits.py",
           "str(rec.is_chi_orbit).lower(),",
           "str(rec.is_chi_orbit),",
           "tests/test_pins.py"),
    Mutant("caps-imports-dataclasses", "caps.py",
           "import os\n",
           "import os\nfrom dataclasses import dataclass\n",
           "tests/test_startup.py"),
)


def _passes(root: Path, test: str) -> bool:
    """Whether pytest passes on one test file of the copy at ``root``."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    result = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                             test], cwd=root, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    if result.returncode not in (0, 1):
        raise RuntimeError(f"pytest could not run {test} (exit {result.returncode})")
    return result.returncode == 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", choices=[m.name for m in MUTANTS],
                        help="run one mutant")
    args = parser.parse_args(argv)
    chosen = [m for m in MUTANTS if args.only in (None, m.name)]
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        shutil.copytree(ROOT / "src", copy / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "tests", copy / "tests",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        for test in dict.fromkeys(m.test for m in chosen):
            if not _passes(copy, test):
                print(f"unmutated {test} fails")
                return 1
        for mutant in chosen:
            path = copy / "src" / "cycindex" / mutant.module
            original = path.read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                raise RuntimeError(f"{mutant.name}: old text does not occur exactly once")
            path.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                killed = not _passes(copy, mutant.test)
            finally:
                path.write_text(original, encoding="utf-8")
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'}  {mutant.name}  ({mutant.test})")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
