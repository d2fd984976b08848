"""PERF001: kernel hot-path classes must declare ``__slots__``.

Objects constructed per batch or per event inside the kernel loop
(millions of them in a 10M-request soak) pay for an instance
``__dict__`` they never use.  Modules declare their hot-path classes in
a module-level ``__hot_path__`` tuple; every listed class must carry
``__slots__`` — either an explicit class-body assignment or
``@dataclass(..., slots=True)``.  The registry below pins the classes
the kernel modules are required to declare, so the declaration cannot
be quietly dropped.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.lint.walker import ModuleInfo, Project

#: Hot-path classes each kernel module must declare in ``__hot_path__``.
REQUIRED_HOT_PATH = {
    "repro/core/simkernel.py": frozenset({"BatchRecord", "BatchTable"}),
    "repro/core/cluster.py": frozenset({"_TenantLane"}),
    "repro/core/faults.py": frozenset(
        {"CoreHealthState", "DriftSnapshotTable"}
    ),
}


def _declares_slots(node: ast.ClassDef) -> bool:
    for statement in node.body:
        targets = []
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        for target in targets:
            if isinstance(target, ast.Name) and target.id == "__slots__":
                return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "slots" and isinstance(
                    keyword.value, ast.Constant
                ):
                    if keyword.value.value is True:
                        return True
    return False


@register
class HotPathSlots(Rule):
    code = "PERF001"
    title = "hot-path class without __slots__"
    rationale = (
        "per-event objects with instance dicts dominate allocation in "
        "lane-loop soaks; __slots__ keeps the per-batch cost flat"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        required = frozenset()
        for suffix, names in sorted(REQUIRED_HOT_PATH.items()):
            if module.relpath.endswith(suffix):
                required = names
                break
        for name in sorted(required - set(module.hot_path)):
            yield Finding(
                code=self.code,
                path=module.relpath,
                line=1,
                col=0,
                message=(
                    f"hot-path class {name!r} must be declared in this "
                    "module's `__hot_path__` tuple (the declaration scopes "
                    "this rule and must not be removed)"
                ),
            )
        if not module.hot_path:
            return
        classes = {
            node.name: node
            for node in module.tree.body
            if isinstance(node, ast.ClassDef)
        }
        for name in module.hot_path:
            node = classes.get(name)
            if node is None:
                yield Finding(
                    code=self.code,
                    path=module.relpath,
                    line=1,
                    col=0,
                    message=(
                        f"`__hot_path__` names {name!r} but the module "
                        "defines no such class; the registry is stale"
                    ),
                )
                continue
            if not _declares_slots(node):
                yield Finding(
                    code=self.code,
                    path=module.relpath,
                    line=node.lineno,
                    col=node.col_offset,
                    message=(
                        f"hot-path class `{name}` does not declare "
                        "`__slots__` (use an explicit tuple or "
                        "`@dataclass(slots=True)`)"
                    ),
                    symbol=name,
                )


__all__ = ["HotPathSlots", "REQUIRED_HOT_PATH"]
