"""The unit of lint output: one finding at one source location.

A :class:`Finding` is what every rule yields and what the pragma layer
consumes.  Findings are plain frozen data so the engine
can sort, deduplicate, suppress, and serialize them without knowing
anything about the rule that produced them.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Finding:
    """One rule violation at one source location.

    Attributes:
        code: rule code, e.g. ``"DET001"``.
        path: path of the offending file, relative to the lint root,
            always with ``/`` separators.
        line: 1-based line of the offending node.
        col: 0-based column of the offending node.
        message: human-readable description of the violation, including
            the expected remedy.
        symbol: the nearest enclosing symbol (function or class name)
            when the rule knows it, else ``""``.
    """

    code: str
    path: str
    line: int
    col: int
    message: str
    symbol: str = ""

    def sort_key(self) -> tuple[str, int, int, str]:
        """Stable report order: by file, then location, then code."""
        return (self.path, self.line, self.col, self.code)

    def location(self) -> str:
        """``path:line`` — the clickable half of a report line."""
        return f"{self.path}:{self.line}"


__all__ = ["Finding"]
