"""Path-naming errors and the one type check for JSON input.

Scenario documents and fault plans report a bad value by its path in the
document the user wrote (``processes[1].sleep_s``, ``disk.io_error_prob``).
"""

from __future__ import annotations

import math

_NAMES = {
    str: "a string",
    bool: "true/false",
    dict: "an object",
    list: "a list",
    int: "an integer",
    float: "a number",
}


class PathError(ValueError):
    """Bad input; ``path`` locates the value (empty: the whole document)
    and ``str()`` leads with it, so CLI and HTTP errors name it for free."""

    def __init__(self, problem: str, path: str = "") -> None:
        self.path = path
        self.problem = problem
        super().__init__(f"{path}: {problem}" if path else problem)


def reject_unknown(data: dict, known, path: str, error=PathError, what: str = "key(s)"):
    """``error(problem, path)`` if ``data`` has a key outside ``known``."""
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise error(
            f"unknown {what} {', '.join(map(repr, unknown))} (known: {', '.join(known)})",
            path,
        )


def expect(value, kind: type, path: str, error=PathError):
    """``value`` as written if it is a JSON ``kind``, else ``error(problem, path)``.

    ``float`` accepts any finite number, ``list`` any list or tuple, and
    ``bool`` is never an ``int`` or a ``float``.
    """
    accepted = {float: (int, float), list: (list, tuple)}.get(kind, kind)
    if (
        isinstance(value, bool) is not (kind is bool)
        or not isinstance(value, accepted)
        or (kind is float and not math.isfinite(value))
    ):
        raise error(f"expected {_NAMES[kind]}, got {value!r}", path)
    return value
