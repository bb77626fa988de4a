"""RPR001 — nondeterminism in the exactness-critical packages.

The repo's headline contract is determinism: the same build on the same
graph produces the same bytes regardless of ``PYTHONHASHSEED``, wall
clock, or process layout (bitwise-equal incremental rebuilds, replayable
``SimulatedClock`` schedules, bitwise-equal ``ProcessPoolBackend``
answers).  Three things break it silently:

- iterating a ``set`` (hash order) anywhere order can leak into output;
- map iteration at the process boundary (``exec/``), where registration
  order decides worker assignment and answer layout;
- wall-clock reads and unseeded randomness in library code.

PR 5's phantom-``dropped_keys`` crash — reproducible on only ~4% of
hash seeds — is the canonical instance of the first class.
"""

from __future__ import annotations

import ast

from repro.analysis.findings import Finding
from repro.analysis.inference import (
    dotted_name,
    iter_scope_nodes,
    iteration_sites,
    set_tracker_for,
)
from repro.analysis.rules.base import ModuleContext, Rule

__all__ = ["NondeterministicIterationRule"]

_CLOCK_CALLS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.now",
        "datetime.utcnow",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.date.today",
    }
)
_MAP_METHODS = frozenset({"keys", "values", "items"})


class NondeterministicIterationRule(Rule):
    rule_id = "RPR001"
    title = "nondeterminism in core paths"
    hint = (
        "iterate sorted(...) over sets; seed randomness "
        "(np.random.default_rng(seed)); avoid wall-clock reads outside "
        "bench/ — determinism is the repo's exactness contract"
    )
    segments = ("core", "distributed", "sharding", "exec")

    def check(self, ctx: ModuleContext) -> list[Finding]:
        findings: list[Finding] = []
        at_process_boundary = ctx.has_segment("exec")
        for scope, _chain in ctx.scopes():
            tracker = set_tracker_for(scope)
            for iterable, node in iteration_sites(scope):
                if tracker.is_set(iterable):
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            "iteration over a set is hash-order "
                            "nondeterministic",
                            hint="wrap the iterable in sorted(...) so the "
                            "order is independent of PYTHONHASHSEED",
                        )
                    )
                elif at_process_boundary and self._is_map_view(iterable):
                    findings.append(
                        ctx.finding(
                            self,
                            node,
                            "map iteration at the process boundary must be "
                            "explicitly ordered",
                            hint="iterate sorted(d) / sorted(d.items()) — "
                            "worker assignment and answer layout must be "
                            "bitwise-reproducible across runs",
                        )
                    )
            findings.extend(self._clock_and_random(ctx, scope))
        return findings

    @staticmethod
    def _is_map_view(node: ast.expr) -> bool:
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _MAP_METHODS
            and not node.args
            and not node.keywords
        )

    def _clock_and_random(
        self, ctx: ModuleContext, scope: ast.AST
    ) -> list[Finding]:
        findings: list[Finding] = []
        for node in iter_scope_nodes(scope):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            if name in _CLOCK_CALLS:
                findings.append(
                    ctx.finding(
                        self,
                        node,
                        f"wall-clock read ({name}) in a deterministic path",
                        hint="inject a SimulatedClock/SystemClock seam or use "
                        "time.perf_counter for pure wall measurements",
                    )
                )
            elif self._is_unseeded_random(name, node):
                findings.append(
                    ctx.finding(
                        self,
                        node,
                        f"unseeded randomness ({name})",
                        hint="thread an explicit seed: "
                        "np.random.default_rng(seed) / random.Random(seed)",
                    )
                )
        return findings

    @staticmethod
    def _is_unseeded_random(name: str, node: ast.Call) -> bool:
        parts = name.split(".")
        if parts[0] == "random" and len(parts) > 1:
            # random.Random(seed) is the sanctioned escape hatch.
            return not (parts[1] == "Random" and node.args)
        if len(parts) >= 2 and parts[0] in ("np", "numpy") and parts[1] == "random":
            if len(parts) >= 3 and parts[2] == "default_rng" and node.args:
                return False
            return True
        return False
