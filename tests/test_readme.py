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


def test_cli_quick_start_runs_end_to_end(tmp_path, monkeypatch, capsys):
    """The commands below the demo config run as written: ``run`` writes
    into ``run.output``, relative to the working directory, where ``report``
    and ``plot`` find it, and its ``config.txt`` names that directory."""
    (tmp_path / "demo.cfg").write_text(fenced_block("## Quick start (CLI)", ""))
    monkeypatch.chdir(tmp_path)
    commands = [line.split("#")[0].split()
                for line in fenced_block("## Quick start (CLI)", "sh").splitlines()]
    assert [argv[:2] for argv in commands] == [["clta", verb]
                                               for verb in ("validate", "run", "report", "plot")]
    outputs = []
    for argv in commands:
        assert main(argv[1:]) == 0, argv
        outputs.append(capsys.readouterr().out)
    assert "experiment demo: 5/5 seeds finished" in outputs[2]
    run_dir = tmp_path / "runs" / "demo"
    assert "run.output = runs/demo\n" in (run_dir / "config.txt").read_text()
    svgs = sorted(run_dir.glob("*.svg"))
    assert svgs and [f"wrote {path.relative_to(tmp_path)}" for path in svgs] == sorted(
        outputs[3].splitlines())
    for path in svgs:
        assert path.read_text().rstrip().endswith("</svg>"), path
