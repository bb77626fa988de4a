"""RPR004 — float-accumulation-order hazards in ``core``.

Floating-point addition is not associative: summing the same values in
two different orders yields two (slightly) different results, and the
repo's exactness contracts — sparse==dense ``toarray()`` equality,
bitwise-equal incremental rebuilds — require *identical* accumulation
order everywhere.  Accumulating over a hash-ordered ``set`` makes the
result a function of ``PYTHONHASHSEED``; seed-dependent test failures
from exactly this class are why the sparse query path replays the dense
accumulation order term by term.  The rule flags ``sum(...)`` over
set-typed iterables and ``+=`` accumulation inside loops over sets.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.inference import SetTracker, iter_scope_nodes, set_tracker_for
from repro.analysis.rules.base import ModuleContext, Rule

__all__ = ["FloatAccumulationOrderRule"]


class FloatAccumulationOrderRule(Rule):
    rule_id = "RPR004"
    title = "float-accumulation-order hazard"
    hint = (
        "accumulation order must not depend on the hash seed: sort the "
        "container first (sum over sorted(...)), or accumulate over an "
        "ordered container"
    )
    segments = ("core",)

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        for scope, _chain in ctx.scopes():
            tracker = set_tracker_for(scope)
            for node in iter_scope_nodes(scope):
                if isinstance(node, ast.Call):
                    if (
                        isinstance(node.func, ast.Name)
                        and node.func.id == "sum"
                        and node.args
                        and self._unordered(node.args[0], tracker)
                    ):
                        findings.append(
                            ctx.finding(
                                self,
                                node,
                                "sum() over an unordered container — the "
                                "result depends on hash order",
                            )
                        )
                elif isinstance(node, (ast.For, ast.AsyncFor)):
                    if tracker.is_set(node.iter):
                        for stmt in ast.walk(node):
                            if isinstance(stmt, ast.AugAssign) and isinstance(
                                stmt.op, ast.Add
                            ):
                                findings.append(
                                    ctx.finding(
                                        self,
                                        stmt,
                                        "+= accumulation inside a loop over "
                                        "a set — order depends on the hash "
                                        "seed",
                                    )
                                )
        return findings

    @staticmethod
    def _unordered(arg: ast.expr, tracker: SetTracker) -> bool:
        if tracker.is_set(arg):
            return True
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp)):
            return any(tracker.is_set(gen.iter) for gen in arg.generators)
        return False
