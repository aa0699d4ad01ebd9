"""The checked-in tools outside the package."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_untested_lines_reports_each_statement_that_never_ran(tmp_path):
    """A statement is reported once, at its first line, even when it spans
    several; a docstring, which has no code of its own, never is."""
    path = tmp_path / "module.py"
    path.write_text('"""Doc."""\n\n\ndef f(x):\n    """Doc."""\n    if x:\n'
                    '        return 1\n    return (\n        2)\n')
    untested = load("untested_lines").untested
    # what importing the module and calling f(1) runs
    assert untested(str(path), {1, 4, 6, 7}) == [(8, "return (")]
    assert untested(str(path), {1, 4, 6, 7, 8}) == []
