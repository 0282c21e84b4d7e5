"""Cell hashes of the standard mixed-cell searches of one checkout.

    python3 tools/cell_hashes.py <checkout>

Runs each standard search with the ``nidpipe`` in ``<checkout>/src``
and prints one line per search: its name, the seed, the sha1 of the
emitted cells in emission order, the cell count and the lifting attempt
that gave them.  A cell is hashed as ``repr`` of its pairs, the hex of
each float of its normal, its volume and the hex of each of its
t-exponents, so -0.0 and 0.0 differ.  The searches are cyclic(6)
embedded at dimension 1 and cyclic(7), the systems ``rootcount-cyclic``
enumerates, at seeds 7 and 3, then cyclic(5) embedded at dimension 1 and
the demo's start supports (demo embedded at dimension 3, origin added)
at seed 7.  Two checkouts whose lines are equal emit the same cells in
the same order.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

# (name, seed)
SEARCHES = [(name, seed) for name in ("cyclic-6@1", "cyclic-7") for seed in (7, 3)] + [
    ("cyclic-5@1", 7),
    ("demo start supports", 7),
]


def supports(name: str, seed: int):
    """The supports of the named search: "demo start supports",
    "cyclic-<n>" or "cyclic-<n>@<dimension>"."""
    from nidpipe.polyhedral import supports_of, with_origin
    from nidpipe.systems import cyclic, demo_system, embed

    if name == "demo start supports":
        return with_origin(supports_of(embed(demo_system(), 3, seed).system))
    n, _, dim = name[len("cyclic-"):].partition("@")
    system = cyclic(int(n))
    return supports_of(embed(system, int(dim), seed).system if dim else system)


def cell_bits(cell) -> tuple:
    """Everything a cell holds, exactly."""
    floats = lambda xs: tuple(float(x).hex() for x in xs)  # noqa: E731
    return cell.pairs, floats(cell.normal), cell.volume, tuple(floats(t) for t in cell.texps)


def search_hash(name: str, seed: int) -> tuple[str, int, int]:
    """The (sha1, cell count, lifting attempt) of one search."""
    from nidpipe.polyhedral import enumerate_cells, generic_lifting

    def search(lifted):
        digest, count = hashlib.sha1(), 0

        def emit(cell):
            nonlocal count
            digest.update(repr(cell_bits(cell)).encode())
            count += 1

        enumerate_cells(lifted, emit)
        return digest.hexdigest(), count

    (digest, count), attempt = generic_lifting(supports(name, seed), seed, search)
    return digest, count, attempt


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/cell_hashes.py <checkout>", file=sys.stderr)
        return 2
    sys.path.insert(0, str(Path(argv[0]).resolve() / "src"))
    for name, seed in SEARCHES:
        digest, count, attempt = search_hash(name, seed)
        print(f"{name} seed {seed} {digest} {count} cells attempt {attempt}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
