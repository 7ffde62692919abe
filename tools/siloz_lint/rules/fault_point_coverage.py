"""fault-point-coverage: resource operations outside the fault sweep.

The lifecycle conservation sweep (DESIGN.md §11) proves error paths
leak-free by failing each SILOZ_FAULT_POINT once. That proof is only as
strong as coverage: an allocation or release path with no fault point on it
is a path the sweep can never fail, so its rollback is untested.

Scope: files under the configured `fault_point_dirs` (the resource-owning
layers — hostmem, ept, the hypervisor). Within them, every function
definition whose name matches `fault_point_name_regex` (Allocate/Create/
Reserve/Free/Destroy/... shapes) must either contain SILOZ_FAULT_POINT
directly or call — transitively, within the scoped set — a function that
does. Transitivity is a fixpoint over the name-based call graph, so
`DestroyVm → FreeBackingBlocks → Free → SILOZ_FAULT_POINT` counts as
covered without demanding a redundant fault point per wrapper.
"""

from __future__ import annotations

import re
from typing import Dict, List

from cpp_util import called_names, iter_function_defs
from engine import FileContext, Finding, ProjectContext


def _in_scope(display_path: str, dirs) -> bool:
    return any(
        display_path == d or display_path.startswith(d + "/") for d in dirs
    )


class FaultPointCoverageRule:
    name = "fault-point-coverage"

    def collect(self, ctx: FileContext, project: ProjectContext) -> None:
        dirs = project.config["fault_point_dirs"]
        if not _in_scope(ctx.display_path, dirs):
            return
        state = project.rule_state(self.name)
        functions: Dict[str, dict] = state.setdefault("functions", {})
        defs = state.setdefault("defs", [])
        for fn in iter_function_defs(ctx.tokens):
            calls = called_names(ctx.tokens, fn.body_start, fn.body_end)
            has_fp = "SILOZ_FAULT_POINT" in calls
            entry = functions.setdefault(
                fn.name, {"has_fp": False, "calls": set()}
            )
            entry["has_fp"] = entry["has_fp"] or has_fp
            entry["calls"].update(calls)
            defs.append((ctx.display_path, fn.name, fn.name_token))

    def run(self, ctx: FileContext, project: ProjectContext) -> List[Finding]:
        dirs = project.config["fault_point_dirs"]
        if not _in_scope(ctx.display_path, dirs):
            return []
        state = project.rule_state(self.name)
        covered = state.get("covered")
        if covered is None:
            covered = self._fixpoint(state.get("functions", {}))
            state["covered"] = covered
        name_re = re.compile(project.config["fault_point_name_regex"])
        findings: List[Finding] = []
        seen = set()
        for path, fn_name, token in state.get("defs", []):
            if path != ctx.display_path:
                continue
            if not name_re.search(fn_name) or fn_name in covered:
                continue
            key = (path, token.line, fn_name)
            if key in seen:
                continue
            seen.add(key)
            findings.append(
                ctx.finding(
                    token,
                    self.name,
                    f"resource operation '{fn_name}' reaches no "
                    "SILOZ_FAULT_POINT; the lifecycle fault sweep cannot "
                    "exercise its error path",
                )
            )
        return findings

    @staticmethod
    def _fixpoint(functions: Dict[str, dict]) -> set:
        covered = {n for n, e in functions.items() if e["has_fp"]}
        changed = True
        while changed:
            changed = False
            for n, e in functions.items():
                if n not in covered and e["calls"] & covered:
                    covered.add(n)
                    changed = True
        return covered
