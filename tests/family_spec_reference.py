"""Reference parser for the parenthesized part of family specs, for tests only.

It keeps the hand-counted parenthesis scans that ``families`` once had:
the nesting check of ``parse_family_spec``, ``_split_coalesce`` and
``_parse_anchored``, each counting the depth on its own.  A spec whose head
is not ``coalesce:`` goes to the public ``parse_family_spec``: those heads
never scan parentheses, and their nesting is at most that of the whole
spec, which has passed the check here already.  The anchor vertex is read
by a copy of the package's integer rule, so no private package code runs.
"""

from __future__ import annotations

import re
from itertools import accumulate

from hermitia.families import (
    MAX_COALESCE_DEPTH,
    FamilySpec,
    FamilySpecError,
    parse_family_spec,
)


def reference_parse(text: str) -> FamilySpec:
    nesting = accumulate((ch == "(") - (ch == ")") for ch in text)
    if max(nesting, default=0) > MAX_COALESCE_DEPTH:
        raise FamilySpecError(f"coalesce specs nest at most {MAX_COALESCE_DEPTH} deep")
    return _parse_spec(text)


def _parse_spec(text: str) -> FamilySpec:
    head, sep, rest = text.strip().partition(":")
    if head != "coalesce" or not sep:
        return parse_family_spec(text)
    first, plus, second = _split_coalesce(rest)
    spec1, v1 = _parse_anchored(first)
    spec2, v2 = _parse_anchored(second)
    return FamilySpec("coalescence", sub=(spec1, v1, spec2, v2))


def _split_coalesce(rest: str) -> tuple[str, str, str]:
    depth = 0
    for i, ch in enumerate(rest):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "+" and depth == 0:
            return rest[:i], "+", rest[i + 1 :]
    raise FamilySpecError("coalesce spec needs '(A)@i+(B)@j'")


def _parse_anchored(piece: str) -> tuple[FamilySpec, int]:
    piece = piece.strip()
    if not piece.startswith("("):
        raise FamilySpecError(f"expected parenthesized sub-spec in {piece!r}")
    depth = 0
    for i, ch in enumerate(piece):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                inner = piece[1:i]
                tail = piece[i + 1 :]
                if not tail.startswith("@"):
                    raise FamilySpecError(f"missing '@vertex' in {piece!r}")
                return _parse_spec(inner), _int(tail[1:])
    raise FamilySpecError(f"unbalanced parentheses in {piece!r}")


def _int(token: str) -> int:
    token = token.strip()
    if not re.fullmatch(r"-?[0-9]+", token):
        raise FamilySpecError(f"expected an integer, got {token!r}")
    return int(token)
