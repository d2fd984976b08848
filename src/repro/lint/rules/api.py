"""API rules: export surface and seed-threading contracts.

API001 makes the manual ``__all__`` audits of PRs 5–6 mechanical: every
``__all__`` is a literal of names actually bound in the module, package
``__init__``s declare every public binding, and a re-exported name
(``traffic.py`` re-exporting ``BatchingPolicy`` from ``simkernel.py``)
is provably exported by its source module too.

API002 enforces the repo's determinism-injection convention: a public
``simulate_*``/``sweep_*`` entry point must take its randomness from
the caller — either a ``seed``/``rng`` parameter that the body actually
threads, or a pre-generated arrival/trace array (the shared-trace sweep
pattern).  Closed-form analytical models with no stochastic inputs are
waived with a justified pragma.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.lint.walker import ModuleInfo, Project

#: Parameter names that inject a seedable randomness source.
_SEED_PARAM_SUFFIXES = ("seed", "rng")

#: Parameter names that inject a pre-seeded event trace instead.
_TRACE_PARAM_MARKERS = ("arrival", "trace")


@register
class ExportAudit(Rule):
    code = "API001"
    title = "__all__ export audit"
    rationale = (
        "PR 5's manual export audit drifted the moment PR 6 added "
        "KERNEL_MODES/BatchTable; declared and actual export surfaces "
        "must be provably equal"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        if module.all_names is None:
            if not module.all_is_literal:
                yield Finding(
                    code=self.code,
                    path=module.relpath,
                    line=module.all_line,
                    col=0,
                    message=(
                        "`__all__` must be a literal list of string names "
                        "so the export surface is statically auditable"
                    ),
                )
            elif module.is_package_init and module.bindings:
                yield Finding(
                    code=self.code,
                    path=module.relpath,
                    line=1,
                    col=0,
                    message=(
                        "package __init__ defines no `__all__`; declare "
                        "the public export surface explicitly"
                    ),
                )
            return
        seen: set[str] = set()
        for name in module.all_names:
            if name in seen:
                yield Finding(
                    code=self.code,
                    path=module.relpath,
                    line=module.all_line,
                    col=0,
                    message=f"duplicate `__all__` entry {name!r}",
                )
                continue
            seen.add(name)
            if name not in module.bindings:
                yield Finding(
                    code=self.code,
                    path=module.relpath,
                    line=module.all_line,
                    col=0,
                    message=(
                        f"`__all__` exports {name!r} but the module never "
                        "binds it"
                    ),
                )
                continue
            yield from self._check_reexport(name, module, project)
        if module.is_package_init:
            for name, line in sorted(module.bindings.items()):
                if name.startswith("_") or name in seen:
                    continue
                yield Finding(
                    code=self.code,
                    path=module.relpath,
                    line=line,
                    col=0,
                    message=(
                        f"public name {name!r} is importable from the "
                        "package but missing from `__all__`"
                    ),
                )

    def _check_reexport(
        self, name: str, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        """A re-exported name must be exported by its source module."""
        if name not in module.import_map:
            return
        source_module, original = module.import_map[name]
        source = project.by_name.get(source_module)
        if source is None or source.parse_error is not None:
            return
        if source.all_names is not None:
            consistent = original in source.all_names
        else:
            consistent = original in source.bindings
        if not consistent:
            yield Finding(
                code=self.code,
                path=module.relpath,
                line=module.bindings[name],
                col=0,
                message=(
                    f"re-export {name!r} is not consistent with its source: "
                    f"`{source_module}` does not export {original!r}"
                ),
            )


def _parameter_names(node: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = node.args
    every = (
        list(args.posonlyargs)
        + list(args.args)
        + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    )
    return [arg.arg for arg in every]


def _is_seed_param(name: str) -> bool:
    lowered = name.lower()
    return any(
        lowered == suffix or lowered.endswith("_" + suffix)
        for suffix in _SEED_PARAM_SUFFIXES
    )


def _is_trace_param(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in _TRACE_PARAM_MARKERS)


def _threads_param(
    node: ast.FunctionDef | ast.AsyncFunctionDef, param: str
) -> bool:
    """Whether the body ever reads ``param``."""
    for statement in node.body:
        for child in ast.walk(statement):
            if (
                isinstance(child, ast.Name)
                and child.id == param
                and isinstance(child.ctx, ast.Load)
            ):
                return True
    return False


@register
class SeedThreading(Rule):
    code = "API002"
    title = "simulate_*/sweep_* seed threading"
    rationale = (
        "an entry point that makes its own randomness (or ignores the "
        "seed it accepts) cannot be replayed; determinism is injected "
        "by the caller, never manufactured inside"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        for node, owner in self._public_entry_points(module.tree):
            symbol = f"{owner}.{node.name}" if owner else node.name
            params = _parameter_names(node)
            seed_params = [p for p in params if _is_seed_param(p)]
            trace_params = [p for p in params if _is_trace_param(p)]
            if not seed_params and not trace_params:
                yield Finding(
                    code=self.code,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"public entry point `{symbol}` accepts neither a "
                        "`seed`/`rng` parameter nor a pre-seeded arrival/"
                        "trace input; its caller cannot control determinism"
                    ),
                    symbol=node.name,
                )
                continue
            for param in seed_params:
                if not _threads_param(node, param):
                    yield Finding(
                        code=self.code,
                        path=module.relpath,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"`{symbol}` accepts `{param}` but never "
                            "threads it; the parameter is decorative"
                        ),
                        symbol=node.name,
                    )

    @staticmethod
    def _public_entry_points(tree: ast.Module):
        """Public simulate_*/sweep_* defs: module level and methods."""
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith(("simulate_", "sweep_")):
                    yield node, ""
            elif isinstance(node, ast.ClassDef) and not node.name.startswith(
                "_"
            ):
                for member in node.body:
                    if isinstance(
                        member, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ) and member.name.startswith(("simulate_", "sweep_")):
                        yield member, node.name


__all__ = ["ExportAudit", "SeedThreading"]
