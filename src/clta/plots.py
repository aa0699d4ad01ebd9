"""Small SVG line charts for run diagnostics, no plotting library needed.

Every chart is a single SVG string: two ``line`` elements for the axes
and one ``polyline`` per series.  Output is deterministic for the same
inputs, so charts can be compared byte for byte.
"""

from __future__ import annotations

import os
import sys

from .errors import DataError
from .experiment import load_run

PALETTE = ("#1b6ca8", "#d1495b", "#3a7d44", "#8d6a9f", "#c77b30", "#4f6d7a")

_WIDTH = 640
_HEIGHT = 420
_MARGIN_LEFT = 58
_MARGIN_RIGHT = 16
_MARGIN_TOP = 30
_MARGIN_BOTTOM = 46


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _span(values):
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    return lo, hi


def line_chart(series: list, title: str = "", xlabel: str = "", ylabel: str = "") -> str:
    """Render named (xs, ys) series as one polyline each.

    ``series`` is a list of (name, xs, ys) triples; all series share the
    axes.  A constant series renders as a horizontal polyline.
    """
    if not series:
        raise DataError("line_chart needs at least one series")
    for name, xs, ys in series:
        if len(xs) != len(ys):
            raise DataError(f"series '{name}' has {len(xs)} x values but {len(ys)} y values")
        if len(xs) == 0:
            raise DataError(f"series '{name}' is empty")

    x_lo, x_hi = _span([x for _, xs, _ in series for x in xs])
    y_lo, y_hi = _span([y for _, _, ys in series for y in ys])
    plot_w = _WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def px(x: float) -> float:
        return _MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_TOP + plot_h - (y - y_lo) / (y_hi - y_lo) * plot_h

    x_axis_y = _MARGIN_TOP + plot_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.2f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>',
        f'<line x1="{_MARGIN_LEFT}" y1="{x_axis_y}" x2="{_WIDTH - _MARGIN_RIGHT}" '
        f'y2="{x_axis_y}" stroke="black" stroke-width="1"/>',
        f'<line x1="{_MARGIN_LEFT}" y1="{_MARGIN_TOP}" x2="{_MARGIN_LEFT}" '
        f'y2="{x_axis_y}" stroke="black" stroke-width="1"/>',
    ]
    for value, anchor_x in ((x_lo, _MARGIN_LEFT), (x_hi, _WIDTH - _MARGIN_RIGHT)):
        parts.append(
            f'<text x="{anchor_x}" y="{x_axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{value:.4g}</text>'
        )
    for value, anchor_y in ((y_lo, x_axis_y), (y_hi, _MARGIN_TOP + 4)):
        parts.append(
            f'<text x="{_MARGIN_LEFT - 6}" y="{anchor_y}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">{value:.4g}</text>'
        )
    if xlabel:
        parts.append(
            f'<text x="{_WIDTH / 2:.2f}" y="{_HEIGHT - 8}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_escape(xlabel)}</text>'
        )
    if ylabel:
        parts.append(
            f'<text x="14" y="{_MARGIN_TOP - 10}" text-anchor="start" '
            f'font-family="sans-serif" font-size="12">{_escape(ylabel)}</text>'
        )
    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        parts.append(
            f'<text x="{_WIDTH - _MARGIN_RIGHT - 4}" y="{_MARGIN_TOP + 16 + 16 * i}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11" '
            f'fill="{color}">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def loss_curves_svg(trace: dict, task_index: int) -> str:
    """Cross-entropy and distillation loss per epoch for one task."""
    epochs = list(range(1, len(trace["ce"]) + 1))
    series = [("cross-entropy", epochs, list(trace["ce"]))]
    if any(v != 0.0 for v in trace.get("kd", [])):
        series.append(("distillation", epochs, list(trace["kd"])))
    return line_chart(series, title=f"task {task_index} training loss",
                      xlabel="epoch", ylabel="loss")


def accuracy_over_tasks_svg(a_k: list) -> str:
    tasks = list(range(1, len(a_k) + 1))
    return line_chart([("incremental accuracy", tasks, list(a_k))],
                      title="accuracy after each task", xlabel="task",
                      ylabel="accuracy")


def write_plots(run_dir) -> list:
    """Draw charts from a run directory's results.json into that directory;
    returns the written paths.

    Rows without traces are skipped with a warning on stderr instead of
    failing the whole call; a malformed results.json raises ``FormatError``
    (``experiment.load_run``).
    """
    doc = load_run(run_dir)
    written = []
    row = next((r for r in doc["rows"] if r["status"] == "ok"), None)
    if row is None:
        print("plots: no finished seed in results.json, nothing to draw", file=sys.stderr)
        return written
    if not row["traces"]:
        print(f"plots: seed {row['seed']} has no traces, skipping loss curves",
              file=sys.stderr)
    for t, trace in enumerate(row["traces"], start=1):
        if not trace["ce"]:
            print(f"plots: task {t} trace is empty, skipping", file=sys.stderr)
            continue
        path = os.path.join(run_dir, f"loss_task_{t}.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(loss_curves_svg(trace, t))
        written.append(path)
    if row["a_k"] and all(v is not None for v in row["a_k"]):
        path = os.path.join(run_dir, "accuracy_over_tasks.svg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(accuracy_over_tasks_svg(row["a_k"]))
        written.append(path)
    else:
        print("plots: accuracy row incomplete, skipping accuracy chart", file=sys.stderr)
    return written
