import re

import pytest

from clta.config import parse_config
from clta.errors import DataError
from clta.experiment import run_experiment, write_results
from clta.plots import accuracy_over_tasks_svg, line_chart, loss_curves_svg, write_plots


def polylines(svg):
    return re.findall(r'<polyline[^>]*points="([^"]*)"', svg)


def points_of(polyline_attr):
    return [tuple(float(v) for v in pair.split(","))
            for pair in polyline_attr.split()]


class TestLineChart:
    def test_axes_are_two_line_elements(self):
        svg = line_chart([("s", [0, 1], [0.0, 1.0])])
        assert svg.count("<line ") == 2
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")

    def test_one_polyline_per_series(self):
        svg = line_chart([("a", [0, 1], [0.0, 1.0]), ("b", [0, 1], [1.0, 0.0])])
        assert len(polylines(svg)) == 2

    def test_constant_series_renders_horizontally(self):
        svg = line_chart([("flat", [0, 1, 2, 3], [0.7, 0.7, 0.7, 0.7])])
        pts = points_of(polylines(svg)[0])
        assert len(pts) == 4
        ys = {y for _, y in pts}
        assert len(ys) == 1

    @pytest.mark.parametrize("value", [2.0 ** 52 + 2, 1e300])
    def test_a_constant_series_too_large_for_half_a_unit_renders(self, value):
        # lo - 0.5 and hi + 0.5 round back to the value here, which left an
        # empty axis range to divide by
        svg = line_chart([("flat", [0, 1], [value, value])])
        assert len({y for _, y in points_of(polylines(svg)[0])}) == 1

    def test_two_point_series_gives_two_coordinates(self):
        svg = line_chart([("pair", [1, 2], [0.3, 0.9])])
        pts = points_of(polylines(svg)[0])
        assert len(pts) == 2
        assert pts[0][0] < pts[1][0]
        assert pts[0][1] > pts[1][1]

    def test_output_is_deterministic(self):
        series = [("s", [0, 1, 2], [0.1, 0.5, 0.2])]
        assert line_chart(series) == line_chart(series)

    def test_titles_are_escaped(self):
        svg = line_chart([("s", [0, 1], [0, 1])], title='a < b & "c"')
        assert "a &lt; b &amp; &quot;c&quot;" in svg

    def test_empty_input_rejected(self):
        with pytest.raises(DataError):
            line_chart([])
        with pytest.raises(DataError):
            line_chart([("s", [], [])])
        with pytest.raises(DataError):
            line_chart([("s", [0, 1], [0.5])])


class TestChartHelpers:
    def test_accuracy_chart_one_point_per_task(self):
        svg = accuracy_over_tasks_svg([0.9, 0.7, 0.6])
        assert len(points_of(polylines(svg)[0])) == 3

    def test_loss_curves_include_kd_only_when_present(self):
        with_kd = loss_curves_svg({"ce": [1.0, 0.5], "kd": [0.2, 0.1]}, 2)
        without = loss_curves_svg({"ce": [1.0, 0.5], "kd": [0.0, 0.0]}, 1)
        assert len(polylines(with_kd)) == 2
        assert len(polylines(without)) == 1


class TestWritePlots:
    CONFIG = (
        "data.n_tasks = 2\n"
        "data.dim = 6\n"
        "data.samples_per_class = 15\n"
        "train.epochs = 3\n"
        "train.batch_size = 8\n"
        "train.decay_epochs = 2\n"
    )

    def test_charts_appear_next_to_results(self, tmp_path):
        result = run_experiment(parse_config(self.CONFIG))
        write_results(result, tmp_path)
        written = write_plots(tmp_path)
        names = sorted(p.split("/")[-1] for p in written)
        assert names == ["accuracy_over_tasks.svg", "loss_task_1.svg",
                         "loss_task_2.svg"]
        for path in written:
            with open(path) as fh:
                assert fh.read().startswith("<svg ")

    def test_failed_runs_warn_instead_of_crashing(self, tmp_path, capsys):
        result = run_experiment(parse_config(self.CONFIG + "train.base_lr = 1e300\n"))
        write_results(result, tmp_path)
        written = write_plots(tmp_path)
        assert written == []
        assert "nothing to draw" in capsys.readouterr().err
