import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cycindex
from cycindex import named_group, group_closure, perm_from_cycles


def _limit_address_space():
    # a huge allocation then fails at once instead of paging the host
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.fixture(scope="session")
def run_cli():
    """Run ``python -m cycindex ARGV`` in a fresh interpreter with 1 GiB of address space."""
    env = dict(os.environ, PYTHONPATH=str(Path(cycindex.__file__).resolve().parent.parent))

    def run(argv, timeout=120, extra_env=None):
        return subprocess.run([sys.executable, "-m", "cycindex", *argv],
                              capture_output=True, text=True, env={**env, **(extra_env or {})},
                              timeout=timeout, preexec_fn=_limit_address_space)
    return run


@pytest.fixture(scope="session")
def S3():
    return named_group("symmetric", 3)


@pytest.fixture(scope="session")
def S4():
    return named_group("symmetric", 4)


@pytest.fixture(scope="session")
def A3():
    return named_group("alternating", 3)


@pytest.fixture(scope="session")
def A4():
    return named_group("alternating", 4)


@pytest.fixture(scope="session")
def C4():
    return named_group("cyclic", 4)


@pytest.fixture(scope="session")
def V4():
    return group_closure([perm_from_cycles("(1 2)(3 4)", 4),
                          perm_from_cycles("(1 3)(2 4)", 4)])
