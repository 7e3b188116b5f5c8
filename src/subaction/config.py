"""Capacity caps and determinism defaults.

Every cap can be overridden through an environment variable named
``SUBACTION_<CAP>``, which must hold a positive integer (any integer for
``DEFAULT_SEED``). ``cap()`` re-reads the environment on each call, so an
override set any time before the capped operation runs takes effect.
Inside ``with overrides(caps):`` the given values win over the
environment; the overlay lives in a context variable, so it touches no
process-global state and ends with the block.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar

from .errors import CapacityError, StructuralError

_DEFAULTS: dict[str, int] = {
    "MAX_GROUP_ORDER": 20160,
    "MAX_SUBGROUP_ENUM_ORDER": 1000,
    "MAX_EXHAUSTIVE_GROUND": 24,
    "MAX_SUBMODULAR_EXHAUSTIVE": 16,
    "MAX_ACT_TABLE_ENTRIES": 10_000_000,
    "MAX_MUL_TABLE_ENTRIES": 10_000_000,
    "FRAGMENT_LIST_CAP": 10_000,
    "SAMPLE_COUNT": 10_000,
    "DEFAULT_SEED": 0xD1CE,
    "MAX_SUBSPACE_COUNT": 100_000,
    "PETRIDIS_EXHAUSTIVE_MAX_ORDER": 14,
    "LINEAR_EXHAUSTIVE_MAX_ORDER": 16,
}


_OVERRIDES: ContextVar[dict[str, int]] = ContextVar("cap_overrides",
                                                    default={})


@contextmanager
def overrides(caps: dict[str, int]):
    """Cap values that win over the environment inside the block."""
    token = _OVERRIDES.set({**_OVERRIDES.get(), **caps})
    try:
        yield
    finally:
        _OVERRIDES.reset(token)


def allows(name: str, value: int) -> bool:
    """Whether `value` may stand for cap `name`: a positive integer, or
    any integer for DEFAULT_SEED."""
    return value >= 1 or name == "DEFAULT_SEED"


def rule(name: str) -> str:
    """What `allows` asks of a value for cap `name`, as refusals word it."""
    return ("expected an integer" if name == "DEFAULT_SEED"
            else "caps must be positive integers")


def cap(name: str) -> int:
    if name not in _DEFAULTS:
        raise KeyError(f"unknown cap {name!r}")
    if name in _OVERRIDES.get():
        return _OVERRIDES.get()[name]
    raw = os.environ.get(f"SUBACTION_{name}")
    if raw is None:
        return _DEFAULTS[name]
    try:
        value = int(raw)
    except ValueError:
        raise StructuralError(f"SUBACTION_{name}={raw!r} is not an "
                              f"integer") from None
    if not allows(name, value):
        raise StructuralError(f"SUBACTION_{name}={raw!r}: {rule(name)}")
    return value


def require(name: str, measured: int, hint: str = "") -> None:
    """Refuse an instance whose `measured` size passes cap `name`; the
    refusal names the cap this compared."""
    limit = cap(name)
    if measured > limit:
        raise CapacityError(name, limit, measured, hint)


def snapshot() -> dict[str, int]:
    """Current cap values, for reports."""
    return {name: cap(name) for name in sorted(_DEFAULTS)}
