"""Plain-text polynomial system format.

First line: ``nvars npolys``.  Then one polynomial per ``;``-terminated
entry, written as a sum of terms like ``(-1.0+0.5*i)*x1^2*x3``.
Variables are x1..xN.  A coefficient written with shortest-repr
decimals parses back to the same double.
"""

from __future__ import annotations

import re

from .polynomials import PolySystem, make_poly

_VAR_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*)(?:\^(\d+))?$")
_NUM_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


class ParseError(ValueError):
    pass


def _split_terms(s: str) -> list[str]:
    """Split on top-level +/- signs, keeping the sign with the term."""
    terms = []
    depth = 0
    cur = ""
    prev = ""
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parentheses in {s!r}")
        if ch in "+-" and depth == 0 and cur.strip() and prev not in "eE*^+-":
            terms.append(cur)
            cur = ch
        else:
            cur += ch
        if not ch.isspace():
            prev = ch
    if depth != 0:
        raise ParseError(f"unbalanced parentheses in {s!r}")
    if cur.strip():
        terms.append(cur)
    return terms


def _parse_complex(s: str) -> complex:
    body = s.strip().replace(" ", "")
    body = body.replace("*i", "j").replace("i", "j")
    try:
        return complex(body)
    except ValueError as exc:
        raise ParseError(f"bad complex literal {s!r}") from exc


def _parse_term(term: str, nvars: int) -> tuple[tuple[int, ...], complex]:
    term = term.strip()
    sign = 1.0
    while term and term[0] in "+-":
        if term[0] == "-":
            sign = -sign
        term = term[1:].lstrip()
    if not term:
        raise ParseError("empty term")
    # split factors on top-level '*'
    factors = []
    depth = 0
    cur = ""
    for ch in term:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "*" and depth == 0:
            factors.append(cur)
            cur = ""
        else:
            cur += ch
    factors.append(cur)

    coef = complex(sign)
    expo = [0] * nvars
    for fac in factors:
        fac = fac.strip()
        if not fac:
            raise ParseError(f"empty factor in term {term!r}")
        if fac.startswith("("):
            if not fac.endswith(")"):
                raise ParseError(f"bad factor {fac!r}")
            coef *= _parse_complex(fac[1:-1])
        elif _NUM_RE.match(fac):
            coef *= float(fac)
        else:
            m = _VAR_RE.match(fac)
            if not m:
                raise ParseError(f"bad factor {fac!r}")
            name, power = m.group(1), int(m.group(2) or 1)
            vm = re.fullmatch(r"x(\d+)", name)
            if not vm:
                raise ParseError(f"unknown variable {name!r} (expected x1..x{nvars})")
            idx = int(vm.group(1)) - 1
            if not 0 <= idx < nvars:
                raise ParseError(f"variable {name!r} out of range for {nvars} variables")
            expo[idx] += power
    return tuple(expo), coef


def parse_system(text: str) -> PolySystem:
    lines = text.strip().splitlines()
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"first line must be 'nvars npolys', got {lines[0]!r}")
    try:
        nvars, npolys = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    if nvars < 1 or npolys < 0:
        raise ParseError("nvars must be >= 1 and npolys >= 0")
    body = "\n".join(lines[1:])
    chunks = [c for c in (chunk.strip() for chunk in body.split(";")) if c]
    if len(chunks) != npolys:
        raise ParseError(f"expected {npolys} polynomials, found {len(chunks)}")
    polys = []
    for chunk in chunks:
        terms = [_parse_term(t, nvars) for t in _split_terms(chunk)]
        polys.append(make_poly(nvars, terms))
    return PolySystem(nvars, tuple(polys))


def load_system(path) -> PolySystem:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_system(fh.read())

