"""Result writers: CSV round trip, JSON layout, SVG structure, staircases."""

import json
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cfarmismatch.report import (
    fmt_value,
    read_csv,
    step_curve,
    svg_plot,
    write_csv,
    write_json,
)

SVG_NS = "{http://www.w3.org/2000/svg}"


@pytest.mark.parametrize(
    ("val", "text"),
    [
        (None, ""),
        (True, "true"),
        (False, "false"),
        (np.bool_(True), "true"),
        (3, "3"),
        (np.int64(-7), "-7"),
        (0.5, "0.5"),
        (1e-3, "0.001"),
        ("kelly", "kelly"),
    ],
)
def test_fmt_value(val, text):
    assert fmt_value(val) == text


def test_fmt_value_float_round_trips():
    rng = np.random.default_rng(5)
    for x in rng.standard_normal(200) * 10.0 ** rng.integers(-8, 8, 200):
        assert float(fmt_value(float(x))) == x
    assert float(fmt_value(np.float64(1 / 3))) == 1 / 3


def test_csv_round_trip(tmp_path):
    path = tmp_path / "rows.csv"
    rows = [
        {"a": 1, "b": 0.125, "c": "x", "d": None},
        {"a": 2, "b": float(np.pi), "c": "", "d": True},
    ]
    meta = {"generator": "test v1", "n_rows": 2}
    write_csv(path, ["a", "b", "c", "d"], rows, meta)
    got_meta, got_rows = read_csv(path)
    assert got_meta == {"generator": "test v1", "n_rows": "2"}
    assert got_rows == [
        {"a": "1", "b": "0.125", "c": "x", "d": ""},
        {"a": "2", "b": repr(float(np.pi)), "c": "", "d": "true"},
    ]
    assert float(got_rows[1]["b"]) == float(np.pi)


def test_csv_is_byte_stable(tmp_path):
    rows = [{"a": 0.1 + 0.2, "b": "z"}]
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    write_csv(p1, ["a", "b"], rows, {"k": "v"})
    write_csv(p2, ["a", "b"], rows, {"k": "v"})
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_header_layout(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["x"], [{"x": 1}], {"alpha": 1, "beta": "two"})
    lines = path.read_text().splitlines()
    assert lines[0] == "# alpha: 1"
    assert lines[1] == "# beta: two"
    assert lines[2] == "x"
    assert lines[3] == "1"


def test_csv_missing_field_is_empty_cell(tmp_path):
    path = tmp_path / "rows.csv"
    write_csv(path, ["a", "b"], [{"a": 1}], {})
    _, rows = read_csv(path)
    assert rows == [{"a": "1", "b": ""}]


def test_write_json_meta_first(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"threshold": 0.5, "rows": [1, 2]}, {"tool": "t"})
    obj = json.loads(path.read_text())
    assert obj["meta"] == {"tool": "t"}
    assert obj["threshold"] == 0.5
    assert obj["rows"] == [1, 2]
    assert list(obj) == ["meta", "threshold", "rows"]


def _parse_svg(path):
    return ET.parse(path).getroot()


def test_svg_plot_is_valid_xml_with_series(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.linspace(0.0, 1.0, 20)
    series = [("one", x, x**2), ("two", x, 1.0 - x)]
    meta = {"seed": 11, "variant": "identity"}
    svg_plot(path, series, "title", "x", "y", meta)
    root = _parse_svg(path)
    assert root.tag == f"{SVG_NS}svg"
    polylines = root.findall(f"{SVG_NS}polyline")
    assert len(polylines) == len(series)
    desc = root.find(f"{SVG_NS}desc")
    assert json.loads(desc.text) == meta
    labels = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "one" in labels and "two" in labels and "title" in labels


def test_svg_scatter_uses_circles(tmp_path):
    path = tmp_path / "plot.svg"
    svg_plot(path, [("pts", [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])],
             "t", "x", "y", {}, scatter=True)
    root = _parse_svg(path)
    assert len(root.findall(f"{SVG_NS}circle")) == 3
    assert not root.findall(f"{SVG_NS}polyline")


def test_svg_logx_decade_labels(tmp_path):
    path = tmp_path / "plot.svg"
    x = np.logspace(-4, -1, 10)
    svg_plot(path, [("s", x, np.linspace(0, 1, 10))], "t", "pfa", "pd", {}, logx=True)
    root = _parse_svg(path)
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "0.0001" in texts
    assert "0.1" in texts


def test_svg_escapes_markup_in_labels(tmp_path):
    path = tmp_path / "plot.svg"
    svg_plot(path, [("a<b", [0, 1], [0, 1])], 't & "q"', "x<y", "y>z", {"k": "<&>"})
    root = _parse_svg(path)
    texts = [t.text for t in root.findall(f"{SVG_NS}text")]
    assert "a<b" in texts
    assert 't & "q"' in texts


def test_svg_escapes_only_ampersand_and_angle_brackets(tmp_path):
    # Quotes stay as they are, so the <desc> JSON and titles keep their bytes.
    path = tmp_path / "plot.svg"
    svg_plot(path, [("a<b", [0, 1], [0, 1])], 't & "q\'', "x<y", "y>z", {"k": "<&>"})
    text = path.read_text(encoding="utf-8")
    assert '<desc>{"k": "&lt;&amp;&gt;"}</desc>' in text
    assert '>t &amp; "q\'</text>' in text
    assert ">a&lt;b</text>" in text and ">x&lt;y</text>" in text and ">y&gt;z</text>" in text


def test_svg_rejects_empty_and_all_nan(tmp_path):
    with pytest.raises(ValueError, match="at least one series"):
        svg_plot(tmp_path / "a.svg", [], "t", "x", "y", {})
    with pytest.raises(ValueError, match="finite"):
        svg_plot(tmp_path / "b.svg", [("s", [np.nan], [np.nan])], "t", "x", "y", {})


def test_svg_constant_series_still_renders(tmp_path):
    path = tmp_path / "flat.svg"
    svg_plot(path, [("s", [1.0, 2.0], [0.5, 0.5])], "t", "x", "y", {})
    assert _parse_svg(path) is not None


def test_step_curve_staircase():
    x, y = step_curve([1.0, 2.0, 4.0], [0.25, 0.5, 1.0])
    assert x.tolist() == [1.0, 1.0, 2.0, 2.0, 4.0, 4.0]
    assert y.tolist() == [0.0, 0.25, 0.25, 0.5, 0.5, 1.0]


def test_step_curve_single_point():
    x, y = step_curve([3.0], [1.0])
    assert x.tolist() == [3.0, 3.0]
    assert y.tolist() == [0.0, 1.0]
