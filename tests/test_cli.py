"""Command-line handling of input the solver cannot take."""

import pytest

from nidpipe.cli import EXIT_OK, EXIT_PARSE, main

CIRCLE_AND_LINE = "2 2\nx1^2 + x2^2 - 1;\nx1 - x2;\n"


@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("2 2\nx1 - x1;\nx1 + x2 - 1;\n", ["--dim", "0"], "--dim must be in 1..1, got 0"),
        (CIRCLE_AND_LINE, ["--dim", "5"], "--dim must be in 0..1, got 5"),
        (CIRCLE_AND_LINE, ["--dim", "-1"], "--dim must be in 0..1, got -1"),
    ],
)
def test_bad_input_ends_with_a_message(tmp_path, capsys, text, flags, message):
    path = tmp_path / "system.txt"
    path.write_text(text)
    assert main(["solve", str(path), "--seed", "1", *flags]) == EXIT_PARSE
    out = capsys.readouterr()
    assert out.err == f"bad input: {message}\n"
    assert out.out == ""


def test_bad_dim_ends_with_a_message_in_a_cell_budget_run(capsys):
    assert main(["bench", "cyclic", "--n", "4", "--dim", "7", "--max-cells", "1", "--seed", "1"]) == EXIT_PARSE
    assert capsys.readouterr().err == "bad input: --dim must be in 0..3, got 7\n"


def test_environment_variables_set_no_flag(tmp_path, monkeypatch):
    # flags are the only settings: a malformed value left in the
    # environment must not break the parser
    monkeypatch.setenv("NIDPIPE_TASKS", "two")
    path = tmp_path / "system.txt"
    path.write_text(CIRCLE_AND_LINE)
    assert main(["solve", str(path), "--seed", "1"]) == EXIT_OK
