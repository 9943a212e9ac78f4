"""Work-limit configuration shared by the enumeration and projector paths."""

from __future__ import annotations

import os
from typing import NamedTuple


class CapExceeded(RuntimeError):
    """A requested computation exceeds the configured work limits."""


class Caps(NamedTuple):
    group_order: int = 50_000
    orbit_work: int = 100_000_000
    projector_dim: int = 1024
    specialize_terms: int = 5_000_000


_ENV_NAMES = {
    "group_order": "CYCINDEX_GROUP_CAP",
    "orbit_work": "CYCINDEX_WORK_CAP",
    "projector_dim": "CYCINDEX_DIM_CAP",
    "specialize_terms": "CYCINDEX_TERM_CAP",
}


def caps_from_env() -> Caps:
    """Caps overridden by the CYCINDEX_*_CAP variables; ValueError if one is malformed."""
    overrides = {}
    for field_name, env_name in _ENV_NAMES.items():
        raw = os.environ.get(env_name)
        if raw is not None:
            if not raw.strip().isdecimal():
                raise ValueError(f"{env_name} must be a nonnegative integer, got {raw!r}")
            overrides[field_name] = int(raw)
    return Caps(**overrides)


DEFAULT_CAPS = Caps()
