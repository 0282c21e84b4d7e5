"""Golden end-to-end cases: decompositions with known answers.

The fast cases run by default; the ones marked ``slow`` run with
``pytest -m slow``.
"""

import numpy as np
import pytest

from nidpipe import tracker
from nidpipe.blackbox import decompose
from nidpipe.cli import EXIT_OK, main
from nidpipe.polytext import parse_system
from nidpipe.report import report_to_json, report_to_jsonable
from nidpipe.systems import cyclic, demo_system

CIRCLE_AND_LINE = "2 2\nx1^2 + x2^2 - 1;\nx1 - x2;\n"
CIRCLE_TWICE = "2 2\nx1^2 + x2^2 - 1;\nx1^2 + x2^2 - 1;\n"


@pytest.fixture(scope="module")
def cyclic5_dim0():
    return decompose(cyclic(5), top_dimension=0, seed=7, tasks=1)


def test_cyclic5_dim0_has_70_isolated_points(cyclic5_dim0):
    assert cyclic5_dim0.degrees == {}
    assert len(cyclic5_dim0.isolated) == 70
    assert not cyclic5_dim0.suspects


def test_report_is_byte_identical_across_task_counts(cyclic5_dim0):
    two = decompose(cyclic(5), top_dimension=0, seed=7, tasks=2, mode="process")
    one_json = report_to_json(cyclic5_dim0)
    two_json = report_to_json(two)
    assert '"tasks": 1' in one_json and '"tasks": 2' in two_json
    assert two_json.replace('"tasks": 2', '"tasks": 1') == one_json


def test_a_zero_polynomial_is_a_zero_row():
    # the solution set is the line x1 + x2 = 1: one zero row leaves no
    # component below dimension 1
    system = parse_system("2 2\nx1 - x1;\nx1 + x2 - 1;\n")
    assert decompose(system, top_dimension=1, seed=1).degrees == {1: 1}
    with pytest.raises(ValueError, match=r"top dimension must be in 1\.\.1, got 0"):
        decompose(system, top_dimension=0, seed=1)


def test_double_double_precision_solves_circle_and_line():
    rep = decompose(parse_system(CIRCLE_AND_LINE), top_dimension=0, seed=1, precision="dd")
    assert rep.precision == "dd"
    points = sorted((s.coordinates for s in rep.isolated), key=lambda c: c[0].real)
    r = np.sqrt(0.5)
    assert len(points) == 2 and not rep.suspects
    assert np.allclose(points, [[-r, -r], [r, r]], atol=1e-12)


def test_cli_double_double_precision_exits_ok(tmp_path, capsys):
    path = tmp_path / "circle.txt"
    path.write_text(CIRCLE_AND_LINE)
    code = main(["solve", str(path), "--dim", "0", "--precision", "dd", "--seed", "1"])
    assert code == EXIT_OK
    assert "isolated solutions: 2" in capsys.readouterr().out


@pytest.mark.parametrize("text, dim, system_nvars", [(CIRCLE_AND_LINE, 0, 2), (CIRCLE_TWICE, 1, 3)])
@pytest.mark.parametrize("precision", ["double", "dd"])
def test_double_double_polishes_each_reported_point_once(monkeypatch, text, dim, system_nvars, precision):
    # isolated points are polished on the square system, witness points
    # on their level's embedded system; in double nothing here is
    polished = []
    refine_dd = tracker.refine_dd

    def counted(f, x, steps=3):
        polished.append(f.nvars)
        return refine_dd(f, x, steps)

    monkeypatch.setattr(tracker, "refine_dd", counted)
    rep = decompose(parse_system(text), top_dimension=dim, seed=1, precision=precision)
    reported = len(rep.isolated) + len(rep.suspects) + sum(rep.degrees.values())
    assert reported == 2
    assert polished == ([system_nvars] * reported if precision == "dd" else [])


def test_cyclic5_dim0_seed3_has_70_isolated_points():
    rep = decompose(cyclic(5), top_dimension=0, seed=3, tasks=1)
    assert rep.degrees == {}
    assert len(rep.isolated) == 70
    assert not rep.suspects


def test_cyclic4_dim1_is_one_curve_of_degree_4():
    rep = decompose(cyclic(4), top_dimension=1, seed=7, tasks=1)
    assert rep.degrees == {1: 4}
    assert not rep.isolated and not rep.suspects


@pytest.mark.slow
def test_demo_dim3_components():
    rep = decompose(demo_system(), top_dimension=3, seed=7, tasks=1)
    assert rep.degrees == {3: 1, 2: 1, 1: 12}
    assert len(rep.isolated) == 4
    assert not rep.suspects


@pytest.mark.slow
def test_cyclic6_dim0_has_156_isolated_points():
    rep = decompose(cyclic(6), top_dimension=0, seed=7, tasks=1)
    assert len(rep.isolated) == 156
    assert not rep.suspects


@pytest.mark.slow
def test_cyclic5_dim1_has_70_isolated_points_and_no_components():
    rep = decompose(cyclic(5), top_dimension=1, seed=7, tasks=1)
    assert rep.degrees == {}
    assert len(rep.isolated) == 70
    assert not rep.suspects


@pytest.mark.slow
@pytest.mark.parametrize("seed", [11, 19, 40])
def test_demo_dim3_components_where_a_polish_slid_a_point_along_a_line(seed):
    # the double-double polish of a dimension-0 candidate on a line once
    # moved it to |x| ~ 1e8..1e13, where no membership test matched it
    rep = decompose(demo_system(), top_dimension=3, seed=seed, tasks=1)
    assert rep.degrees == {3: 1, 2: 1, 1: 12}
    assert len(rep.isolated) == 4
    assert not rep.suspects


@pytest.mark.slow
@pytest.mark.parametrize("tasks", [1, 2])
def test_demo_dim3_components_at_seed_3011(tasks):
    # three top-continuation paths cross |x| = 1e8 near t = 0.5 and come
    # back; a mid-path cut-off once declared them at infinity and lost a line
    rep = decompose(demo_system(), top_dimension=3, seed=3011, tasks=tasks)
    assert rep.degrees == {3: 1, 2: 1, 1: 12}
    assert len(rep.isolated) == 4
    assert not rep.suspects


def test_two_roots_on_the_coordinate_axes():
    # x1*x2 = 0 and x1 + x2 = 1 meet at (1, 0) and (0, 1)
    rep = decompose(parse_system("2 2\nx1*x2;\nx1 + x2 - 1;\n"), top_dimension=0, seed=7)
    assert len(rep.isolated) == 2


def test_two_lines_one_of_them_a_coordinate_axis():
    # x1*(x2 - 1) = 0 is the lines x1 = 0 and x2 = 1
    rep = decompose(parse_system("2 2\nx1*x2 - x1;\nx1*x2 - x1;\n"), top_dimension=1, seed=7)
    assert rep.degrees == {1: 2}


def test_a_surface_given_by_one_equation():
    # the missing rows are zero rows, which the embedding turns into
    # slack rows: no hyperplane slices the surface into points
    rep = decompose(parse_system("3 1\nx1*x2*x3 - 1;\n"), top_dimension=2, seed=7)
    assert rep.degrees == {2: 3}
    assert not rep.isolated


def test_overdetermined_system_reports_only_its_root_in_its_own_variables():
    # randomizing the three rows to two adds a junk root at which the
    # input rows do not all vanish; no slack variable enters the report
    rep = decompose(parse_system("2 3\nx1^2 - 1;\nx1 - 1;\nx2 - 1;\n"), top_dimension=0, seed=7)
    assert rep.nvars == 2 and rep.names == ("x1", "x2")
    assert rep.degrees == {} and not rep.suspects
    (point,) = rep.isolated
    assert np.allclose(point.coordinates, [1, 1], atol=1e-10)


def test_two_lines_given_three_times():
    rep = decompose(
        parse_system("2 3\nx1*x2 - x1;\nx1*x2 - x1;\nx1*x2 - x1;\n"), top_dimension=1, seed=7
    )
    assert rep.degrees == {1: 2}
    assert [len(p) for p in report_to_jsonable(rep)["witness_sets"]["1"]["points"]] == [2, 2]
