"""Every entry of the mutation catalogue ``tests/mutants.py`` still applies.

Running the mutants takes one test-file run each, so Tier-1 checks only that
each old text occurs exactly once in its module and that its test file exists.
"""

import pytest

from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_old_text_occurs_once_and_the_test_file_exists(mutant):
    source = (ROOT / "src" / "cycindex" / mutant.module).read_text(encoding="utf-8")
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert (ROOT / mutant.test).is_file()


def test_names_are_distinct():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
