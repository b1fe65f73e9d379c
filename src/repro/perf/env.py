"""Centralized parsing for every ``REPRO_*`` environment flag.

The perf and runtime layers used to read ``os.environ`` at scattered
import sites, each with its own ad-hoc truthiness rules and silent
``int()`` crashes. This module is the single place a ``REPRO_*`` value
is parsed: every knob has one typed accessor, every accessor validates,
and a bad value raises :class:`EnvError` naming the variable and the
expected form instead of an anonymous ``ValueError`` from deep inside a
sweep.

Accessors read the environment at *call* time, so tests can monkeypatch
``os.environ`` and callers (the lazy default executor, the artifact
cache) see the change without re-importing anything.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional, Sequence

#: Sweep executor modes, in the order the docs list them. ``parallel``
#: re-exports this as ``MODES``.
SWEEP_MODES = ("auto", "serial", "thread")

_TRUE = ("1", "true", "yes", "on")
_FALSE = ("0", "false", "no", "off", "")


class EnvError(ValueError):
    """A ``REPRO_*`` variable holds a value that cannot be parsed."""


def env_string(name: str, default: Optional[str] = None) -> Optional[str]:
    """The raw value, or ``default`` when unset/empty."""
    value = os.environ.get(name, "")
    return value if value else default


def env_choice(
    name: str, default: str, choices: Sequence[str]
) -> str:
    value = env_string(name, default)
    if value not in choices:
        raise EnvError(
            f"{name}={value!r} is not a valid choice; expected one of "
            f"{', '.join(choices)}"
        )
    return value


def env_int(
    name: str,
    default: Optional[int] = None,
    minimum: Optional[int] = None,
) -> Optional[int]:
    raw = env_string(name)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise EnvError(
            f"{name}={raw!r} is not an integer"
        ) from None
    if minimum is not None and value < minimum:
        raise EnvError(f"{name}={value} must be >= {minimum}")
    return value


def env_flag(name: str, default: bool) -> bool:
    """Boolean flags accept 1/0, true/false, yes/no, on/off."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    lowered = raw.strip().lower()
    if lowered in _TRUE:
        return True
    if lowered in _FALSE:
        return False
    raise EnvError(
        f"{name}={raw!r} is not a boolean; use one of "
        f"{', '.join(_TRUE)} / {', '.join(f or repr('') for f in _FALSE)}"
    )


# ---------------------------------------------------------------------------
# Sweep executor knobs
# ---------------------------------------------------------------------------


def sweep_mode() -> str:
    """``REPRO_SWEEP_MODE`` — executor mode the default executor uses."""
    return env_choice("REPRO_SWEEP_MODE", "auto", SWEEP_MODES)


# ---------------------------------------------------------------------------
# Artifact cache knobs
# ---------------------------------------------------------------------------


def cache_dir() -> Optional[Path]:
    """``REPRO_CACHE_DIR`` — disk tier location (None = memory only)."""
    raw = env_string("REPRO_CACHE_DIR")
    return Path(raw) if raw else None


def cache_enabled() -> bool:
    """``REPRO_CACHE_DISABLE`` inverted — caching on unless disabled."""
    return not env_flag("REPRO_CACHE_DISABLE", False)


def cache_max_bytes() -> Optional[int]:
    """``REPRO_CACHE_MAX_BYTES`` — LRU cap for the disk tier."""
    return env_int("REPRO_CACHE_MAX_BYTES", None, minimum=0)

