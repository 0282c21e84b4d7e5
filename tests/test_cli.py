"""Command-line handling of input the solver cannot take."""

import pytest

from nidpipe import blackbox
from nidpipe.cli import EXIT_OK, EXIT_PARSE, main
from nidpipe.systems import cyclic

CIRCLE_AND_LINE = "2 2\nx1^2 + x2^2 - 1;\nx1 - x2;\n"


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("2 2\nx1 - x1;\nx1 + x2 - 1;\n", ["--dim", "0"], "--dim must be in 1..1, got 0"),
        (CIRCLE_AND_LINE, ["--dim", "5"], "--dim must be in 0..1, got 5"),
        (CIRCLE_AND_LINE, ["--dim", "-1"], "--dim must be in 0..1, got -1"),
        (CIRCLE_AND_LINE, ["--tasks", "0"], "--tasks must be at least 1, got 0"),
        (CIRCLE_AND_LINE, ["--tasks", "-1"], "--tasks must be at least 1, got -1"),
    ],
)
def test_bad_input_ends_with_a_message(tmp_path, capsys, text, flags, message):
    path = tmp_path / "system.txt"
    path.write_text(text)
    assert main(["solve", str(path), "--seed", "1", *flags]) == EXIT_PARSE
    out = capsys.readouterr()
    assert out.err == f"bad input: {message}\n"
    assert out.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["model", "paths", "--n", "0", "--p", "2"], "need n >= 1 paths and p >= 1 workers"),
        (["model", "pipeline", "--n", "4", "--F", "1", "--p", "1"], "pipeline speedup needs p >= 2"),
        (["bench", "cyclic", "--n", "4", "--max-cells", "0"], "--max-cells must be positive, got 0"),
        (["bench", "cyclic", "--n", "4", "--budget-seconds", "0"], "--budget-seconds must be positive, got 0.0"),
        (["bench", "cyclic", "--n", "4", "--tasks", "0"], "--tasks must be at least 1, got 0"),
    ],
)
def test_bad_flags_end_with_a_message(capsys, argv, message):
    assert main(argv) == EXIT_PARSE
    out = capsys.readouterr()
    assert out.err == f"bad input: {message}\n"
    assert out.out == ""


def test_decompose_rejects_no_workers_before_any_work(monkeypatch):
    def no_work(*args):
        raise AssertionError("the system was squared up")

    monkeypatch.setattr(blackbox, "square_up", no_work)
    with pytest.raises(ValueError, match="tasks must be at least 1, got 0"):
        blackbox.decompose(cyclic(3), 1, seed=1, tasks=0)


def test_bad_dim_ends_with_a_message_in_a_cell_budget_run(capsys):
    assert main(["bench", "cyclic", "--n", "4", "--dim", "7", "--max-cells", "1", "--seed", "1"]) == EXIT_PARSE
    assert capsys.readouterr().err == "bad input: --dim must be in 0..3, got 7\n"


@pytest.mark.parametrize("budget", [["--max-cells", "3"], ["--budget-seconds", "60"]])
def test_a_cell_budget_run_reports_its_rate_and_peak_memory(capsys, budget):
    assert main(["bench", "cyclic", "--n", "4", "--dim", "1", "--seed", "7", *budget]) == EXIT_OK
    line = capsys.readouterr().out.strip()
    head, rate, peak = line.split(", ")[-3:]
    assert head.endswith("cleanly)" if budget[0] == "--max-cells" else "complete)")
    assert rate.endswith(" cells/s") and float(rate.split()[0]) > 0
    assert peak.startswith("peak resident set ") and peak.endswith(" MB")
    assert float(peak.split()[-2]) > 1


def test_environment_variables_set_no_flag(tmp_path, monkeypatch):
    # flags are the only settings: a malformed value left in the
    # environment must not break the parser
    monkeypatch.setenv("NIDPIPE_TASKS", "two")
    path = tmp_path / "system.txt"
    path.write_text(CIRCLE_AND_LINE)
    assert main(["solve", str(path), "--seed", "1"]) == EXIT_OK
