"""Pure-Python C++ tokenizer for siloz-lint.

This is deliberately not a full C++ lexer: it produces exactly the token
stream the rules in tools/siloz_lint/rules need — identifiers, numbers,
string/char literals, punctuation, and whole-line preprocessor directives —
while comments are diverted into a side table keyed by line number so the
suppression scanner can find `// siloz-lint: allow(...)` annotations without
the rules ever seeing comment text.

Guarantees the rules rely on:
  * Raw strings (R"delim(...)delim"), line continuations inside
    preprocessor directives, and multi-line /* */ comments never leak
    their contents into the token stream.
  * Multi-character operators are maximal-munch (">>=" is one token), so
    angle-bracket matching treats any all-'>' punct token as that many
    closing angles.
  * Every token carries the 1-based line and column of its first character.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple


class Token(NamedTuple):
    kind: str  # 'id' | 'num' | 'str' | 'chr' | 'punct' | 'pp'
    text: str
    line: int
    col: int


# Maximal-munch punctuation, longest first.
_PUNCT3 = ("<<=", ">>=", "...", "->*")
_PUNCT2 = (
    "::", "->", "++", "--", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", ".*", "##",
)

_ID_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_$")
_ID_CONT = _ID_START | frozenset("0123456789")
_DIGITS = frozenset("0123456789")


def tokenize(text: str) -> Tuple[List[Token], Dict[int, str]]:
    """Returns (tokens, comments) where comments maps line -> comment text.

    Multiple comments on one line are joined with a space; a block comment
    spanning lines is recorded on every line it covers (so a suppression
    inside it attaches to the finding's line as usual).
    """
    tokens: List[Token] = []
    comments: Dict[int, str] = {}
    i, n = 0, len(text)
    line, col = 1, 1

    def note_comment(start_line: int, body: str) -> None:
        for off, chunk in enumerate(body.split("\n")):
            key = start_line + off
            comments[key] = (comments[key] + " " + chunk) if key in comments else chunk

    def advance(span: str) -> None:
        nonlocal line, col
        newlines = span.count("\n")
        if newlines:
            line += newlines
            col = len(span) - span.rfind("\n")
        else:
            col += len(span)

    while i < n:
        c = text[i]

        if c in " \t\r\n":
            j = i
            while j < n and text[j] in " \t\r\n":
                j += 1
            advance(text[i:j])
            i = j
            continue

        if c == "/" and i + 1 < n and text[i + 1] == "/":
            j = text.find("\n", i)
            if j < 0:
                j = n
            note_comment(line, text[i:j])
            advance(text[i:j])
            i = j
            continue

        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            note_comment(line, text[i:j])
            advance(text[i:j])
            i = j
            continue

        if c == "#" and col == _line_indent_col(text, i):
            # Whole preprocessor directive, honoring backslash continuations.
            j = i
            while j < n:
                k = text.find("\n", j)
                if k < 0:
                    j = n
                    break
                # Count trailing backslashes before the newline (handles \r\n).
                m = k
                if m > j and text[m - 1] == "\r":
                    m -= 1
                if m > j and text[m - 1] == "\\":
                    j = k + 1
                    continue
                j = k
                break
            tokens.append(Token("pp", text[i:j], line, col))
            advance(text[i:j])
            i = j
            continue

        # Raw string literal: optional encoding prefix + R"delim( ... )delim".
        if c in "RuUL" or c == "u":
            j = i
            if text[j] in "uUL":
                if text[j] == "u" and j + 1 < n and text[j + 1] == "8":
                    j += 2
                else:
                    j += 1
            if j < n and text[j] == "R" and j + 1 < n and text[j + 1] == '"':
                dend = text.find("(", j + 2)
                if dend > 0:
                    delim = text[j + 2 : dend]
                    close = ")" + delim + '"'
                    k = text.find(close, dend + 1)
                    k = n if k < 0 else k + len(close)
                    tokens.append(Token("str", text[i:k], line, col))
                    advance(text[i:k])
                    i = k
                    continue

        if c == '"' or (c in "uUL" and i + 1 < n and text[i + 1] == '"'):
            j = i if c == '"' else i + 1
            k = _scan_quoted(text, j, '"')
            tokens.append(Token("str", text[i:k], line, col))
            advance(text[i:k])
            i = k
            continue

        if c == "'" or (c in "uUL" and i + 1 < n and text[i + 1] == "'"):
            j = i if c == "'" else i + 1
            k = _scan_quoted(text, j, "'")
            tokens.append(Token("chr", text[i:k], line, col))
            advance(text[i:k])
            i = k
            continue

        if c in _ID_START:
            j = i + 1
            while j < n and text[j] in _ID_CONT:
                j += 1
            tokens.append(Token("id", text[i:j], line, col))
            advance(text[i:j])
            i = j
            continue

        if c in _DIGITS or (c == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i + 1
            while j < n and (
                text[j] in _ID_CONT
                or text[j] == "."
                or (text[j] in "+-" and text[j - 1] in "eEpP")
            ):
                j += 1
            tokens.append(Token("num", text[i:j], line, col))
            advance(text[i:j])
            i = j
            continue

        matched = False
        for group in (_PUNCT3, _PUNCT2):
            for op in group:
                if text.startswith(op, i):
                    tokens.append(Token("punct", op, line, col))
                    advance(op)
                    i += len(op)
                    matched = True
                    break
            if matched:
                break
        if matched:
            continue

        tokens.append(Token("punct", c, line, col))
        advance(c)
        i += 1

    return tokens, comments


def _line_indent_col(text: str, i: int) -> int:
    """Column a '#' would need to start a directive: first non-ws on line."""
    start = text.rfind("\n", 0, i) + 1
    j = start
    while j < i and text[j] in " \t":
        j += 1
    return (j - start) + 1 if j == i else -1


def _scan_quoted(text: str, i: int, quote: str) -> int:
    """Index one past the closing quote of the literal opening at text[i]."""
    j = i + 1
    n = len(text)
    while j < n:
        if text[j] == "\\":
            j += 2
            continue
        if text[j] == quote or text[j] == "\n":
            return j + 1
        j += 1
    return n


def match_paren(tokens: List[Token], i: int) -> int:
    """Index of the ')' matching the '(' at tokens[i], or -1."""
    return _match(tokens, i, "(", ")")


def match_brace(tokens: List[Token], i: int) -> int:
    """Index of the '}' matching the '{' at tokens[i], or -1."""
    return _match(tokens, i, "{", "}")


def match_bracket(tokens: List[Token], i: int) -> int:
    """Index of the ']' matching the '[' at tokens[i], or -1."""
    return _match(tokens, i, "[", "]")


def _match(tokens: List[Token], i: int, open_: str, close: str) -> int:
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j]
        if t.kind != "punct":
            continue
        if t.text == open_:
            depth += 1
        elif t.text == close:
            depth -= 1
            if depth == 0:
                return j
    return -1


def match_angle(tokens: List[Token], i: int) -> int:
    """Index of the token holding the '>' matching the '<' at tokens[i].

    Treats an all-'>' punct token (">", ">>") as that many closing angles and
    bails out (-1) on tokens that rule out a template-argument context, so
    `a < b;` is not mistaken for an unterminated template list.
    """
    depth = 0
    for j in range(i, len(tokens)):
        t = tokens[j]
        if t.kind != "punct":
            continue
        if t.text == "<":
            depth += 1
        elif t.text and set(t.text) == {">"}:
            depth -= len(t.text)
            if depth <= 0:
                return j
        elif t.text in (";", "{", "}"):
            return -1
    return -1
