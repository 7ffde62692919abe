"""nondet-iteration: unordered-container iteration feeding deterministic
outputs.

The determinism contract (DESIGN.md §8/§9) promises bit-identical reports
and model-domain metrics at any `--threads N` — and on any standard library.
Iterating an `unordered_map`/`unordered_set` visits elements in a
hash-seed- and libstdc++-version-dependent order, so a loop whose body
*emits* (report rows, metric registration, trace spans, printf),
*accumulates floating point* (FP addition does not commute bitwise) or
*selects an element* (`best = it`: ties go to whichever element the order
visits first) leaks that order into contract-covered output.

Detection: pass 1 indexes every identifier declared with an unordered
container type (and every float/double variable) across the file set, so a
.cc iterating a member declared in its header still matches. Pass 2 flags
range-for loops over an indexed name — and iterator loops calling
`name.begin()` in their init — whose body reaches a configured emission
sink, a float accumulation, or an assignment of the loop's iterator or
element to a variable declared before the loop. Loops that only mutate the
container or feed an order-insensitive integer reduction (`m = std::max(m,
count)`) are untouched.
"""

from __future__ import annotations

from typing import List, Optional, Set

from engine import FileContext, Finding, ProjectContext
from lexer import Token, match_angle, match_brace, match_paren

_UNORDERED_TYPES = frozenset(
    {"unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset"}
)
_FLOAT_TYPES = frozenset({"float", "double"})
_DECL_FOLLOW = frozenset({";", "=", "{", ",", ")", ":"})


def _collect_typed_names(tokens: List[Token], type_names) -> Set[str]:
    """Identifiers declared as `Type<...> [&*] name` or `Type name`."""
    names: Set[str] = set()
    n = len(tokens)
    for i, tok in enumerate(tokens):
        if tok.kind != "id" or tok.text not in type_names:
            continue
        j = i + 1
        if j < n and tokens[j].text == "<":
            j = match_angle(tokens, j)
            if j < 0:
                continue
            j += 1
        while j < n and tokens[j].text in ("&", "*", "const"):
            j += 1
        if (
            j + 1 < n
            and tokens[j].kind == "id"
            and tokens[j + 1].text in _DECL_FOLLOW
        ):
            names.add(tokens[j].text)
    return names


class NondetIterationRule:
    name = "nondet-iteration"

    def collect(self, ctx: FileContext, project: ProjectContext) -> None:
        state = project.rule_state(self.name)
        state.setdefault("unordered_names", set()).update(
            _collect_typed_names(ctx.tokens, _UNORDERED_TYPES)
        )
        state.setdefault("float_names", set()).update(
            _collect_typed_names(ctx.tokens, _FLOAT_TYPES)
        )

    def run(self, ctx: FileContext, project: ProjectContext) -> List[Finding]:
        state = project.rule_state(self.name)
        unordered = state.get("unordered_names", set())
        floats = state.get("float_names", set())
        sinks = frozenset(project.config["emission_sinks"])
        tokens = ctx.tokens
        findings: List[Finding] = []

        for i, tok in enumerate(tokens[:-1]):
            if tok.kind != "id" or tok.text != "for":
                continue
            if tokens[i + 1].text != "(":
                continue
            close = match_paren(tokens, i + 1)
            if close < 0:
                continue
            container = self._iterated_container(tokens, i + 1, close, unordered)
            if container is None:
                continue
            body_start, body_end = self._body_range(tokens, close)
            loop_vars = self._loop_vars(tokens, i + 1, close)
            sink = self._body_sink(
                tokens, body_start, body_end, sinks, floats, loop_vars
            )
            if sink is None:
                continue
            findings.append(
                ctx.finding(
                    tok,
                    self.name,
                    f"iteration over unordered container '{container}' "
                    f"reaches {sink}; element order is not deterministic — "
                    "copy to a sorted container first",
                )
            )
        return findings

    @staticmethod
    def _iterated_container(
        tokens: List[Token], open_idx: int, close_idx: int, unordered: Set[str]
    ) -> Optional[str]:
        # Range-for: ':' at paren depth 1 (skipping '::' which lexes whole).
        depth = 0
        colon = -1
        for j in range(open_idx, close_idx):
            t = tokens[j]
            if t.text in ("(", "[", "{"):
                depth += 1
            elif t.text in (")", "]", "}"):
                depth -= 1
            elif t.text == ":" and depth == 1:
                colon = j
                break
            elif t.text == ";":
                break
        if colon > 0:
            last_id = None
            for j in range(colon + 1, close_idx):
                if tokens[j].kind == "id":
                    last_id = tokens[j].text
            return last_id if last_id in unordered else None
        # Iterator loop: `name.begin()` in the init clause.
        for j in range(open_idx, close_idx - 2):
            if (
                tokens[j].kind == "id"
                and tokens[j].text in unordered
                and tokens[j + 1].text in (".", "->")
                and tokens[j + 2].text in ("begin", "cbegin")
            ):
                return tokens[j].text
        return None

    @staticmethod
    def _loop_vars(tokens: List[Token], open_idx: int, close_idx: int) -> Set[str]:
        """Names the loop header declares: a range-for's element (or its
        structured bindings), or an iterator loop's `name = ...` init."""
        end = close_idx
        for j in range(open_idx + 1, close_idx):
            if tokens[j].text in (":", ";"):
                end = j
                break
        names: Set[str] = set()
        in_binding = False
        last_id = None
        for j in range(open_idx + 1, end):
            t = tokens[j]
            if t.text == "[":
                in_binding = True
            elif t.text == "]":
                in_binding = False
            elif t.text == "=":
                break
            elif t.kind == "id":
                last_id = t.text
                if in_binding:
                    names.add(t.text)
        if last_id is not None:
            names.add(last_id)
        return names

    @staticmethod
    def _body_range(tokens: List[Token], close_idx: int):
        j = close_idx + 1
        if j < len(tokens) and tokens[j].text == "{":
            end = match_brace(tokens, j)
            return j, (end if end > 0 else len(tokens))
        for k in range(j, len(tokens)):
            if tokens[k].text == ";":
                return j, k
        return j, len(tokens)

    @staticmethod
    def _body_sink(
        tokens: List[Token], start: int, end: int, sinks, floats, loop_vars
    ) -> Optional[str]:
        for j in range(start, min(end, len(tokens))):
            t = tokens[j]
            if t.kind == "id" and t.text in sinks:
                return f"emission sink '{t.text}'"
            # `best = it` at statement start: an outer variable keeps
            # whichever element the iteration order offers last.
            if (
                t.text == "="
                and j > start + 1
                and j + 1 < end
                and tokens[j - 1].kind == "id"
                and tokens[j - 1].text not in loop_vars
                and tokens[j - 2].text in (";", "{", "}", ")", "else")
                and tokens[j + 1].text in loop_vars
            ):
                return (
                    f"an order-dependent selection "
                    f"'{tokens[j - 1].text} = {tokens[j + 1].text}'"
                )
            if t.kind == "punct" and t.text in ("+=", "-="):
                prev_f = j > 0 and tokens[j - 1].text in floats
                nxt = tokens[j + 1] if j + 1 < len(tokens) else None
                next_f = nxt is not None and (
                    (nxt.kind == "num" and ("." in nxt.text or nxt.text[-1] in "fF"))
                    or (nxt.kind == "id" and nxt.text in floats)
                )
                if prev_f or next_f:
                    return "a floating-point accumulation"
        return None
