"""Rule engine for siloz-lint: file loading, config, suppressions, driving.

A rule is an object with:
    name: str                       stable kebab-case rule id
    collect(ctx, project) -> None   optional first pass over every file
    run(ctx, project) -> [Finding]  second pass, produces findings

The engine runs `collect` for every rule over every file, then `run`, then
drops findings covered by a suppression comment. Suppressions are written

    // siloz-lint: allow(rule-name): why this is a false positive

on the finding's own line or the line directly above it; `allow(all)`
suppresses every rule. The explanation after the second colon is mandatory
by convention (DESIGN.md §12) but not enforced mechanically.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, NamedTuple, Optional

from lexer import Token, tokenize


class Finding(NamedTuple):
    file: str
    line: int
    col: int
    rule: str
    message: str


class FileContext:
    """One parsed translation unit (or header) as the rules see it."""

    def __init__(self, path: str, display_path: str, text: str):
        self.path = path
        self.display_path = display_path
        self.text = text
        self.tokens, self.comments = tokenize(text)

    def finding(self, token: Token, rule: str, message: str) -> Finding:
        return Finding(self.display_path, token.line, token.col, rule, message)


class ProjectContext:
    """Cross-file state shared between the collect and run passes."""

    def __init__(self, config: "Config"):
        self.config = config
        # rule name -> arbitrary per-rule state dict
        self.state: Dict[str, Dict] = {}

    def rule_state(self, rule_name: str) -> Dict:
        return self.state.setdefault(rule_name, {})


_DEFAULT_CONFIG = {
    # Directories/files scanned when no explicit paths are given, relative
    # to the repo root (the directory holding the config file).
    "paths": ["src", "tools"],
    "exclude_paths": ["tools/siloz_lint"],
    # map-bracket-probe: member maps where a bare `m[k]` read silently
    # inserts a phantom entry (the PR 5 bug class). Extend per-project here.
    "bookkeeping_maps": ["vm_backing_", "vm_ept_pages_"],
    # nondet-iteration: callee names that emit into reports/metrics/traces.
    "emission_sinks": [
        "RecordSpan", "Observe", "Increment", "GetCounter", "GetGauge",
        "GetHistogram", "AppendRow", "AppendLine", "Emit", "WriteRow",
        "fprintf", "printf", "SILOZ_LOG",
    ],
    # fault-point-coverage: scoped directories and the resource-operation
    # name shapes that must carry (or transitively reach) SILOZ_FAULT_POINT.
    "fault_point_dirs": ["src/hostmem", "src/ept", "src/siloz"],
    "fault_point_name_regex":
        "^(Allocate|Alloc[A-Z_]|Create|Reserve|Acquire|Free|Release|Return|Destroy)",
    # raw-nondeterminism: paths allowed to touch raw entropy/clock sources.
    "rng_exempt_paths": ["src/base/rng"],
}


class Config:
    def __init__(self, data: Optional[dict] = None, root: str = "."):
        self.root = os.path.abspath(root)
        merged = dict(_DEFAULT_CONFIG)
        if data:
            unknown = set(data) - set(_DEFAULT_CONFIG)
            if unknown:
                raise ValueError(f"unknown config keys: {sorted(unknown)}")
            merged.update(data)
        self.data = merged

    @classmethod
    def load(cls, path: Optional[str], root: str) -> "Config":
        if path is None:
            candidate = os.path.join(root, ".siloz-lint.json")
            path = candidate if os.path.exists(candidate) else None
        if path is None:
            return cls(None, root)
        with open(path, "r", encoding="utf-8") as f:
            return cls(json.load(f), root)

    def __getitem__(self, key: str):
        return self.data[key]


_SOURCE_EXTS = (".h", ".hh", ".hpp", ".cc", ".cpp", ".cxx")

_ALLOW_RE = re.compile(r"siloz-lint:\s*allow\(\s*([A-Za-z0-9_,\s-]+?)\s*\)")


def discover_files(config: Config, explicit: List[str]) -> List[str]:
    """Resolves the file set to lint, repo-relative, sorted, deduplicated."""
    root = config.root
    roots = explicit if explicit else [os.path.join(root, p) for p in config["paths"]]
    excludes = [os.path.normpath(p) for p in config["exclude_paths"]]
    out = []
    for entry in roots:
        if os.path.isfile(entry):
            out.append(os.path.abspath(entry))
            continue
        for dirpath, dirnames, filenames in os.walk(entry):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(_SOURCE_EXTS):
                    out.append(os.path.abspath(os.path.join(dirpath, name)))
    result = []
    seen = set()
    for path in out:
        rel = os.path.relpath(path, root)
        if any(rel == ex or rel.startswith(ex + os.sep) for ex in excludes):
            continue
        if rel not in seen:
            seen.add(rel)
            result.append(path)
    result.sort(key=lambda p: os.path.relpath(p, root))
    return result


def suppressed_rules(ctx: FileContext, line: int) -> set:
    """Rule names allowed on `line` by a comment on it or the contiguous
    comment block ending on the line directly above it."""
    allowed = set()

    def absorb(comment: str) -> None:
        for match in _ALLOW_RE.finditer(comment):
            for name in match.group(1).split(","):
                allowed.add(name.strip())

    if line in ctx.comments:
        absorb(ctx.comments[line])
    probe = line - 1
    while probe >= 1 and probe in ctx.comments:
        absorb(ctx.comments[probe])
        probe -= 1
    return allowed


class Engine:
    def __init__(self, rules: List, config: Config):
        self.rules = rules
        self.config = config

    def run(self, paths: List[str]) -> List[Finding]:
        root = self.config.root
        contexts = []
        for path in paths:
            with open(path, "r", encoding="utf-8", errors="replace") as f:
                text = f.read()
            contexts.append(FileContext(path, os.path.relpath(path, root), text))

        project = ProjectContext(self.config)
        for rule in self.rules:
            collect = getattr(rule, "collect", None)
            if collect is not None:
                for ctx in contexts:
                    collect(ctx, project)

        findings: List[Finding] = []
        for ctx in contexts:
            for rule in self.rules:
                for finding in rule.run(ctx, project):
                    allowed = suppressed_rules(ctx, finding.line)
                    if finding.rule in allowed or "all" in allowed:
                        continue
                    findings.append(finding)
        findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule, f.message))
        return findings
