"""Input texts of the benchmark workloads, written by the benchmark itself.

The solver receives only these strings, through ``polytext.parse_system``,
so a change to the program's own system constructors cannot change a workload.
This module imports nothing from ``nidpipe``: the set-up probe times the
package import separately from making the text.
"""

from __future__ import annotations

# (variable, root) factors of each equation of the demo system: its
# solution set is the 3-space x1=1, the plane x1=2, x2=1, twelve lines
# and four isolated points.
DEMO_FACTORS = (
    ((1, 1), (1, 2), (1, 3), (1, 4)),
    ((1, 1), (2, 1), (2, 2), (2, 3)),
    ((1, 1), (1, 2), (3, 1), (3, 2)),
    ((1, 1), (2, 1), (3, 1), (4, 1)),
)


def _expand(nvars: int, factors) -> dict[tuple[int, ...], int]:
    """Integer coefficients of the product of (x_var - root) factors."""
    poly = {(0,) * nvars: 1}
    for var, root in factors:
        out: dict[tuple[int, ...], int] = {}
        for expo, c in poly.items():
            up = list(expo)
            up[var - 1] += 1
            out[tuple(up)] = out.get(tuple(up), 0) + c
            out[expo] = out.get(expo, 0) - root * c
        poly = {e: c for e, c in out.items() if c}
    return poly


def _term(coef: int, expo: tuple[int, ...]) -> str:
    factors = [f"x{j + 1}" + (f"^{e}" if e > 1 else "") for j, e in enumerate(expo) if e]
    if abs(coef) != 1 or not factors:
        factors.insert(0, str(abs(coef)))
    return ("- " if coef < 0 else "+ ") + "*".join(factors)


def format_text(nvars: int, polys: list[dict[tuple[int, ...], int]]) -> str:
    lines = [f"{nvars} {len(polys)}"]
    for poly in polys:
        body = " ".join(_term(c, e) for e, c in sorted(poly.items(), reverse=True))
        lines.append(body.removeprefix("+ ") + ";")
    return "\n".join(lines) + "\n"


def demo_text() -> str:
    return format_text(4, [_expand(4, row) for row in DEMO_FACTORS])


def cyclic_text(n: int) -> str:
    """Equation j < n sums the n cyclic products of j consecutive
    variables; equation n is x1*...*xn - 1."""
    polys = []
    for j in range(1, n):
        poly: dict[tuple[int, ...], int] = {}
        for i in range(n):
            expo = [0] * n
            for l in range(j):
                expo[(i + l) % n] += 1
            poly[tuple(expo)] = poly.get(tuple(expo), 0) + 1
        polys.append(poly)
    polys.append({(1,) * n: 1, (0,) * n: -1})
    return format_text(n, polys)


WORKLOAD_TEXTS = {
    "demo-d3-t2": lambda: [demo_text()],
    "cyclic6-d0-t1": lambda: [cyclic_text(6)],
    "rootcount-cyclic": lambda: [cyclic_text(6), cyclic_text(7)],
}
