"""Parsers for the group and character mini-languages used by the CLI.

Group expressions: ``S(d)``, ``A(d)``, ``C(d)``, ``D(d)``,
``gen[d]{(1 2 3),(1 2)}``, ``product(G1,G2)``, ``wreath(V,W)``.
Character selectors: ``unit``, ``sign``, ``index:k``, ``vals{(1 2):1,...}``.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .caps import Caps, CapExceeded, DEFAULT_CAPS
from .characters import (LinearCharacter, enumerate_linear_characters,
                         product_character, sign_character, unit_character,
                         wreath_character)
from .perms import (PermGroup, direct_product_embed, group_closure,
                    named_group, perm_from_cycles, wreath_embed)


class SpecError(ValueError):
    """Invalid group expression or character selector."""


class GroupSpec(NamedTuple):
    """A parsed group expression; keeps the source text for round-tripping."""

    text: str
    group: PermGroup
    parts: tuple[GroupSpec, ...] = ()
    kind: str = "atom"  # atom | product | wreath


def _split_top_level(body: str) -> list[str]:
    """Split on commas that are not nested inside parentheses or braces."""
    out, depth, start = [], 0, 0
    for i, ch in enumerate(body):
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        elif ch == "," and depth == 0:
            out.append(body[start:i])
            start = i + 1
    out.append(body[start:])
    return out


_NAMED_RE = re.compile(r"^([SACD])\((\d+)\)$")
_GEN_RE = re.compile(r"^gen\[(\d+)\]\{(.*)\}$", re.DOTALL)
_CALL_RE = re.compile(r"^(product|wreath)\((.*)\)$", re.DOTALL)

_KIND_NAMES = {"S": "symmetric", "A": "alternating", "C": "cyclic", "D": "dihedral"}


def _degree(digits: str, caps: Caps) -> int:
    """The degree of an expression, checked against the work cap before anything is built."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(caps.orbit_work)) or int(digits) > caps.orbit_work:
        raise CapExceeded(f"degree {digits} exceeds work cap {caps.orbit_work}")
    return int(digits)


def parse_group(text: str, caps: Caps = DEFAULT_CAPS) -> GroupSpec:
    try:
        return _parse_group(text, caps)
    except RecursionError:
        raise SpecError("group expression is nested too deeply to parse") from None


def _parse_group(text: str, caps: Caps) -> GroupSpec:
    src = text.strip()
    m = _NAMED_RE.match(src)
    if m:
        letter, d = m.group(1), _degree(m.group(2), caps)
        try:
            return GroupSpec(src, named_group(_KIND_NAMES[letter], d, caps=caps))
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    m = _GEN_RE.match(src)
    if m:
        d, body = _degree(m.group(1), caps), m.group(2).strip()
        try:
            gens = [perm_from_cycles(part.strip(), d)
                    for part in _split_top_level(body) if part.strip()]
            return GroupSpec(src, group_closure(gens, degree=d, caps=caps))
        except ValueError as exc:
            raise SpecError(str(exc)) from None
    m = _CALL_RE.match(src)
    if m:
        op, body = m.group(1), m.group(2)
        parts = _split_top_level(body)
        if len(parts) != 2:
            raise SpecError(f"{op}(...) takes exactly two group expressions: {src!r}")
        first = _parse_group(parts[0], caps)
        second = _parse_group(parts[1], caps)
        if op == "product":
            group = direct_product_embed(first.group, second.group, caps=caps)
        else:
            group = wreath_embed(first.group, second.group, caps=caps)
        return GroupSpec(src, group, parts=(first, second), kind=op)
    raise SpecError(f"cannot parse group expression {src!r}")


_INDEX_RE = re.compile(r"^index:(\d+)$")
_VALS_RE = re.compile(r"^vals\{(.*)\}$", re.DOTALL)


def parse_character(text: str, spec: GroupSpec,
                    caps: Caps = DEFAULT_CAPS) -> LinearCharacter:
    """Resolve a character selector against a parsed group.

    For product/wreath expressions, compound selectors ``sel1(x)sel2`` build
    the tensor-product character from per-factor selectors.
    """
    src = text.strip()
    if "(x)" in src and spec.kind in ("product", "wreath"):
        left_sel, right_sel = src.split("(x)", 1)
        left = parse_character(left_sel, spec.parts[0], caps=caps)
        right = parse_character(right_sel, spec.parts[1], caps=caps)
        if spec.kind == "product":
            return product_character(left, right, spec.group)
        return wreath_character(left, right, spec.group)
    G = spec.group
    if src == "unit":
        return unit_character(G)
    if src == "sign":
        return sign_character(G)
    m = _INDEX_RE.match(src)
    if m:
        chars = enumerate_linear_characters(G, caps=caps)
        k = int(m.group(1))
        if k >= len(chars):
            raise SpecError(f"index {k} out of range: the group has {len(chars)} characters")
        return chars[k]
    m = _VALS_RE.match(src)
    if m:
        return _character_from_vals(m.group(1), G, caps=caps)
    raise SpecError(f"cannot parse character selector {text!r}")


def _character_from_vals(body: str, G: PermGroup, caps: Caps) -> LinearCharacter:
    """Match explicit generator exponents against the enumerated characters.

    Exponents are read modulo m, the exponent of the abelianization.
    """
    pairs = []
    for part in _split_top_level(body):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise SpecError(f"expected 'cycles:exponent', got {part!r}")
        perm_text, _, exp_text = part.rpartition(":")
        try:
            perm = perm_from_cycles(perm_text.strip(), G.degree)
            exponent = int(exp_text)
        except ValueError as exc:
            raise SpecError(str(exc)) from None
        if perm not in G.image_index:
            raise SpecError(f"{perm_text.strip()!r} is not an element of the group")
        pairs.append((perm, exponent))
    if not pairs:
        raise SpecError("vals{...} needs at least one generator value")
    chars = enumerate_linear_characters(G, caps=caps)
    m = chars[0].order_m
    matches = [chi for chi in chars
               if all(chi.exponent(p) == e % m for p, e in pairs)]
    if not matches:
        raise SpecError("the given values do not extend to a character")
    if len(matches) > 1:
        raise SpecError(f"the given values match {len(matches)} characters; add more pairs")
    return matches[0]
