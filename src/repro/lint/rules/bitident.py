"""BIT001: order-sensitive float folds in bit-identity-pinned modules.

The vectorized kernel's exactness rests on every float accumulation
being a *strict sequential left fold* — ``np.sum`` uses pairwise
summation, which rounds differently and broke ``_maxplus_scan`` until
PR 6 replaced it with a segmented cumsum fold.  In modules whose
results are pinned bit-identical (golden fixtures, lane-loop oracle
equality, zero-magnitude fault differentials), every ``sum``-shaped
fold must therefore be individually justified with a pragma: either it
is a strict left fold over a fixed order, or it is computed by the
identical recipe on every path.

Membership is declared in the module itself (``__bit_identity__ =
True``) and pinned here: the modules in :data:`REQUIRED_BIT_IDENTITY`
must carry the declaration, so deleting the marker is itself a finding.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.lint.walker import (
    ModuleInfo,
    Project,
    dotted_call_name,
    enclosing_symbols,
)

#: Modules whose outputs carry bit-identity pins; each must declare
#: ``__bit_identity__ = True`` at module level.
REQUIRED_BIT_IDENTITY = (
    "repro/core/simkernel.py",
    "repro/core/traffic.py",
    "repro/core/faults.py",
    "repro/core/cluster.py",
    "repro/core/fleet.py",
    "repro/core/adaptive.py",
    "repro/photonics/drift.py",
    "repro/photonics/weight_bank.py",
)

#: Order-sensitive fold entry points (``math.fsum`` is exempt: it is
#: exactly rounded regardless of order).
_FOLD_FUNCTIONS = frozenset({"numpy.sum", "numpy.nansum"})
_FOLD_METHODS = frozenset({"sum", "nansum"})


@register
class OrderSensitiveFloatFold(Rule):
    code = "BIT001"
    title = "unjustified float fold in a bit-identity module"
    rationale = (
        "np.sum's pairwise summation rounds differently from a "
        "sequential fold; one unreviewed sum in a pinned module is how "
        "the PR 6 _maxplus_scan trap happens again"
    )

    def check(
        self, module: ModuleInfo, project: Project
    ) -> Iterator[Finding]:
        registered = any(
            module.relpath.endswith(suffix)
            for suffix in REQUIRED_BIT_IDENTITY
        )
        if registered and not module.bit_identity:
            yield Finding(
                code=self.code,
                path=module.relpath,
                line=1,
                col=0,
                message=(
                    "module carries bit-identity pins but does not declare "
                    "`__bit_identity__ = True`; the declaration scopes this "
                    "rule and must not be removed"
                ),
            )
            return
        if not module.bit_identity:
            return
        symbols = enclosing_symbols(module.tree)
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            described = None
            name = dotted_call_name(module, node.func)
            if name in _FOLD_FUNCTIONS:
                described = f"`{name}` (pairwise summation)"
            elif isinstance(node.func, ast.Name) and node.func.id == "sum":
                described = "builtin `sum`"
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _FOLD_METHODS
                and name is None
            ):
                described = f"`.{node.func.attr}()` (ndarray pairwise fold)"
            if described is None:
                continue
            yield Finding(
                code=self.code,
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"{described} in a bit-identity module; every fold here "
                    "must state its order contract — justify with "
                    "`# repro: allow[BIT001] <why the rounding is pinned>`"
                ),
                symbol=symbols.get(node.lineno, ""),
            )


__all__ = ["OrderSensitiveFloatFold", "REQUIRED_BIT_IDENTITY"]
