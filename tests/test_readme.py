"""The README's two quick starts work as written."""

import re
from pathlib import Path

from clta.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading: str, language: str) -> str:
    """The first fenced block tagged ``language`` below ``heading``."""
    section = README.split(f"\n{heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_python_quick_start_runs(capsys):
    code = fenced_block("## Quick start (Python)", "python")
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("MetricsReport(")


def test_cli_quick_start_config_validates(tmp_path, capsys):
    text = fenced_block("## Quick start (CLI)", "")
    assert text.startswith("# demo.cfg\n")
    path = tmp_path / "demo.cfg"
    path.write_text(text)
    assert main(["validate", str(path)]) == 0
    assert "configuration ok: demo (5 seeds)" in capsys.readouterr().out
