"""Decomposition reports: JSON serialization and human-readable tables.

The JSON payload is fully deterministic for a fixed seed and
configuration (points are canonically sorted, no timestamps), so equal
runs produce byte-identical files.  Timings live next to the report and
print as a table: start system, with the cell search's own time and the
time its first cell came out, continuation, top total, cascade, filter
and the grand total.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .cascade import CascadeLevel, TopStats
from .filtering import FilterStage, WitnessSet
from .tracker import Solution


@dataclass
class Timings:
    start_system: float = 0.0
    continuation: float = 0.0
    cascade: float = 0.0
    filtering: float = 0.0
    cell_search: float = 0.0  # within the start system
    first_cell: float | None = None  # from the start system's start; None when no cell came out

    @property
    def top_total(self) -> float:
        return self.start_system + self.continuation

    @property
    def grand_total(self) -> float:
        return self.top_total + self.cascade + self.filtering

    def table(self) -> str:
        rows = [
            ("start system", self.start_system),
            ("  cell search", self.cell_search),
            ("  first cell", self.first_cell),
            ("continuation", self.continuation),
            ("top total", self.top_total),
            ("cascade", self.cascade),
            ("filter", self.filtering),
            ("grand total", self.grand_total),
        ]
        width = max(len(name) for name, _ in rows)
        return "\n".join(
            f"{name:<{width}}  {sec:10.3f} s" if sec is not None else f"{name:<{width}}  {'-':>10}"
            for name, sec in rows
        )


@dataclass
class DecompositionReport:
    seed: int
    top_dimension: int
    tasks: int
    precision: str
    nvars: int
    names: tuple[str, ...]
    witness_sets: list[WitnessSet]
    isolated: list[Solution]
    suspects: list[Solution]
    cascade_counts: list[dict]
    filter_stages: list[FilterStage]
    top_stats: TopStats
    timings: Timings = field(default_factory=Timings)
    input_path: str | None = None
    warnings: list[str] = field(default_factory=list)

    @property
    def degrees(self) -> dict[int, int]:
        return {w.dimension: w.degree for w in self.witness_sets}


def jump_warnings(top: TopStats, levels: list[CascadeLevel], stages: list[FilterStage]) -> list[str]:
    """One warning per stage whose paths still end on one regular root
    after the cautious re-track of ``tracker.guard_jumps``."""
    named = [("start system", top.start_jumps), ("continuation", top.continuation_jumps)]
    named += [(f"cascade step to dimension {lv.dimension}", lv.jumps) for lv in levels[1:]]
    named += [
        (f"membership of dimension-{s.candidate_dimension} candidates in dimension {s.against_dimension}", s.jumps)
        for s in stages
    ]
    return [
        f"{stage}: {count} paths end on a regular root shared with another path after a "
        "cautious re-track; a path may have jumped and a point may be missing"
        for stage, count in named
        if count
    ]


def _point_jsonable(coords: np.ndarray) -> list[list[float]]:
    return [[float(c.real), float(c.imag)] for c in np.asarray(coords)]


def _sorted_points(points: list[np.ndarray]) -> list[np.ndarray]:
    return sorted(points, key=lambda c: tuple((round(v.real, 9), round(v.imag, 9)) for v in c))


def report_to_jsonable(rep: DecompositionReport) -> dict:
    n = rep.nvars
    wsets = {}
    for w in sorted(rep.witness_sets, key=lambda w: -w.dimension):
        pts = _sorted_points([s.coordinates[:n] for s in w.points])
        wsets[str(w.dimension)] = {
            "degree": w.degree,
            "points": [_point_jsonable(p) for p in pts],
        }
    isolated = [_point_jsonable(p) for p in _sorted_points([s.coordinates[:n] for s in rep.isolated])]
    suspects = [_point_jsonable(p) for p in _sorted_points([s.coordinates[:n] for s in rep.suspects])]
    return {
        "seed": rep.seed,
        "input": rep.input_path,
        "nvars": rep.nvars,
        "variables": list(rep.names),
        "top_dimension": rep.top_dimension,
        "tasks": rep.tasks,
        "precision": rep.precision,
        "witness_sets": wsets,
        "isolated": isolated,
        "suspects": suspects,
        "counts": {
            "mixed_volume": rep.top_stats.mixed_volume,
            "cells": rep.top_stats.cells,
            "start_paths": rep.top_stats.start_paths,
            "start_failures": rep.top_stats.start_failures,
            "continuation_paths": rep.top_stats.continuation_paths,
            "top_at_infinity": rep.top_stats.at_infinity,
            "top_finite": rep.top_stats.finite,
            "cascade_levels": rep.cascade_counts,
            "filter_stages": [
                {
                    "candidate_dimension": s.candidate_dimension,
                    "against_dimension": s.against_dimension,
                    "candidates": s.candidates,
                    "degree": s.degree,
                    "paths_tracked": s.paths_tracked,
                    "removed": s.removed,
                }
                for s in rep.filter_stages
            ],
        },
        "warnings": list(rep.warnings),
    }


def report_to_json(rep: DecompositionReport) -> str:
    return json.dumps(report_to_jsonable(rep), sort_keys=True, indent=2) + "\n"


def summary_text(rep: DecompositionReport) -> str:
    lines = []
    lines.append(f"seed {rep.seed}, top dimension {rep.top_dimension}, {rep.tasks} task(s), {rep.precision} precision")
    lines.append(
        f"mixed volume {rep.top_stats.mixed_volume} over {rep.top_stats.cells} cells "
        f"({rep.top_stats.start_failures} of {rep.top_stats.start_paths} start paths failed); "
        f"{rep.top_stats.continuation_paths} paths to the top system "
        f"({rep.top_stats.finite} finite, {rep.top_stats.at_infinity} at infinity, "
        f"{rep.top_stats.failures} failed)"
    )
    lines.append("")
    lines.append("cascade levels (starts / at infinity / zero slack / nonzero slack / failed):")
    for c in rep.cascade_counts:
        lines.append(
            f"  dim {c['dimension']}: {c['starts']:>4} / {c['at_infinity']:>3} / "
            f"{c['zero_slack']:>3} / {c['nonzero_slack']:>3} / {c['failures']:>3}"
        )
    if rep.filter_stages:
        lines.append("")
        lines.append("membership filters (candidates at dim -> tested against dim: paths, removed):")
        for s in rep.filter_stages:
            lines.append(
                f"  {s.candidates} at dim {s.candidate_dimension} -> dim {s.against_dimension}"
                f" (degree {s.degree}): {s.paths_tracked} paths, removed {s.removed}"
            )
    lines.append("")
    if rep.witness_sets:
        lines.append("witness sets: " + ", ".join(f"dimension {w.dimension} degree {w.degree}" for w in rep.witness_sets))
    else:
        lines.append("witness sets: none")
    lines.append(f"isolated solutions: {len(rep.isolated)}")
    if rep.suspects:
        lines.append(f"WARNING: {len(rep.suspects)} isolated-singular suspect(s) remain (deflation not available)")
    else:
        lines.append("no isolated singular suspects")
    for w in rep.warnings:
        lines.append(f"WARNING: {w}")
    lines.append("")
    lines.append("timings:")
    lines.append(rep.timings.table())
    return "\n".join(lines) + "\n"
