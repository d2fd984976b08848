"""The rule modules; importing this package registers every rule."""

from repro.lint.rules import api, bitident, determinism, perf

__all__ = ["api", "bitident", "determinism", "perf"]
