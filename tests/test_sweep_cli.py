import dataclasses
import io
import json
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trinu import (
    OscillationParams,
    SweepConfig,
    find_extremum,
    measures,
    report,
    run_sweep,
    triangle_record,
)
from trinu import sweep
from trinu.cli import _config_from_args, build_parser, load_preset, main
from trinu.sweep import (
    CSV_COLUMNS,
    SLOPE_COLUMNS,
    ConfigError,
    format_number,
    slope_table,
    summary_lines,
    triangle_text,
    write_csv,
    write_slopes,
)

from conftest import probs_at


def small_config(**kw):
    base = dict(initial="e", le_min=0.0, le_max=40.0, unit="km/MeV",
                points=201, scale="linear", path="closed-form")
    base.update(kw)
    return SweepConfig(**base).validate()


def written(writer, table):
    buf = io.StringIO()
    writer(table, buf)
    return buf.getvalue()


def csv_bytes(table):
    return written(write_csv, table).encode()


def swept(config):
    """The run summary and the emitted table of a sweep, joined from the rows its sink receives."""
    chunks = []
    summary = run_sweep(config, sink=lambda rows, window: chunks.append(rows))
    return summary, np.concatenate(chunks)


def generic_table(params, config):
    """The generic route's table over the configured grid, in one call."""
    return measures.table(params, config.initial, config.grid(), "generic")


def reference_number(x):
    """The one-value rule the table writers must reproduce."""
    if x == 0:
        return "0"
    return f"{x:.12g}"


def reference_text(header, table):
    """One line per row, one ``reference_number`` call per value."""
    lines = [",".join(header)]
    lines += [",".join(reference_number(v) for v in row) for row in table]
    return "\n".join(lines) + "\n"


def assert_same_text(text, expected):
    """``text == expected``, compared by lines: a failure names the first wrong
    line at once, where pytest's diff of two long texts takes minutes."""
    assert text.split("\n") == expected.split("\n")


#: Values at the edges of the 12-digit rule: signed zero, scientific
#: notation, extreme magnitudes, and exactly 12 and 13 significant digits.
EDGE_VALUES = (
    0.0, -0.0, 1.0, -1.0, 0.5, 1e-5, -3.25e-7, 1e-4, 9.99999999999e-5,
    1e300, -1e300, 5e-324, -5e-324, 1.7976931348623157e308,
    123456789012.0, 1234567890123.0, 0.123456789012, 0.1234567890125,
    -0.1234567890123, 999999999999.5, 1e12, 1e16,
)


#: Values a double's own draw rarely reaches: signed zeros, infinities, NaN,
#: subnormals and the largest magnitudes.
SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1e-310,
                  2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308)


def nearest(values, steps):
    """``values`` and their ``steps`` nearest doubles on each side."""
    out = [values]
    for direction in (math.inf, -math.inf):
        v = values
        for _ in range(steps):
            v = np.nextafter(v, direction)
            out.append(v)
    return np.concatenate(out)


def rounding_edge_table():
    """Values where a 12-digit mantissa is hardest to get right, both signs,
    as an 11-column table."""
    rng = np.random.default_rng(24)
    mantissa = rng.integers(10 ** 11, 10 ** 12, size=200).astype(float)
    k = np.arange(-16, 11)
    powers = np.array([float(f"1e{j}") for j in range(-20, 25)])
    values = np.concatenate([
        # half-way between two 12-digit decimals, and the doubles next to them
        nearest(((mantissa[:, None] + 0.5) * 10.0 ** (k - 11)).ravel(), 1),
        # powers of ten, and 3 ulps either side
        nearest(powers, 3),
        # just below a power of ten, where the mantissa rounds up to 10^12
        (powers[:, None] * (1 - 5e-13 + np.array([-1e-14, 0.0, 1e-14]))).ravel(),
        ((1e12 - 0.5 + np.array([-1e-3, 0.0, 1e-3]))[:, None] * powers).ravel(),
        # exponents -12 and 34, just outside the exact-power range, and -11
        # and 33, just inside
        nearest(np.array([1e-12, 5.5e-12, 9.99999999999e-12, 1e-11, 1e33, 9.99999999999e33,
                          1e34, 5.5e34, 9.99999999999e34]), 2),
        # three-digit exponents
        nearest(np.array([1e100, 2.5e-100, 1e-300, 1e300, 2.2250738585072014e-308]), 2),
        [1.7976931348623157e308],
    ])
    values = np.concatenate([values, -values])
    return np.resize(values, (-(-len(values) // len(CSV_COLUMNS)), len(CSV_COLUMNS)))


class TestConfig:
    @pytest.mark.parametrize("kw,field", [
        (dict(initial="x"), "initial"),
        (dict(unit="miles"), "unit"),
        (dict(scale="sqrt"), "scale"),
        (dict(path="quantum"), "path"),
        (dict(le_min=5.0, le_max=1.0), "le_min"),
        (dict(le_min=0.0, scale="log"), "le_min"),
        (dict(points=1), "points"),
        (dict(points=10 ** 7 + 1), "points"),
        (dict(points=1000.5), "points"),
        (dict(points=True), "points"),
        (dict(points="10"), "points"),
        (dict(le_min="a"), "le_min"),
        (dict(le_max=None), "le_max"),
        (dict(params_file=5), "params_file"),
        (dict(le_min=-5.0), "le_min"),
        (dict(le_min=-5.0, le_max=-1.0), "le_min"),
        (dict(le_max=1e306), "le_max"),
        (dict(le_min=1e306, le_max=1e307), "le_max"),
    ])
    def test_field_specific_errors(self, kw, field):
        with pytest.raises(ConfigError) as err:
            small_config(**kw)
        assert err.value.field_name == field

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", ["le_min", "le_max"])
    def test_non_finite_bound_names_its_field(self, capsys, field, value):
        with pytest.raises(ConfigError) as err:
            SweepConfig.from_dict({field: float(value)})
        assert err.value.field_name == field
        assert main(["sweep", "--points", "10", "--" + field.replace("_", "-"), value]) == 2
        assert capsys.readouterr().err == (
            f"error: {field}: sweep bounds must be finite, got {value}\n")

    def test_from_json_roundtrip(self, tmp_path):
        f = tmp_path / "cfg.json"
        f.write_text(json.dumps({"initial": "mu", "le_min": 10.0,
                                 "le_max": 1600.0, "unit": "km/GeV",
                                 "points": 50, "scale": "log"}))
        cfg = SweepConfig.from_json(f)
        assert cfg.initial == "mu"
        assert cfg.scale == "log"

    #: The documented fields of the two presets (README, CLI section).
    PRESET_FIELDS = {
        "electron": dict(initial="e", le_min=0.0, le_max=40.0, unit="km/MeV",
                         points=4001, scale="linear", path="closed-form"),
        "muon": dict(initial="mu", le_min=10.0, le_max=1600.0, unit="km/GeV",
                     points=4001, scale="log", path="closed-form"),
    }

    def test_presets_load_and_validate(self):
        for name, fields in self.PRESET_FIELDS.items():
            expected = SweepConfig(**fields, params_file=None, output=None)
            assert dataclasses.asdict(load_preset(name)) == dataclasses.asdict(expected)

    def test_preset_and_its_fields_as_config_write_the_same_csv(self, tmp_path):
        cfg = tmp_path / "muon.json"
        cfg.write_text(json.dumps(self.PRESET_FIELDS["muon"]))
        by_preset, by_config = tmp_path / "preset.csv", tmp_path / "config.csv"
        argv = ["sweep", "--points", "101", "--output"]
        assert main(argv + [str(by_preset), "--preset", "muon"]) == 0
        assert main(argv + [str(by_config), "--config", str(cfg)]) == 0
        assert by_preset.read_bytes() == by_config.read_bytes()


def table_cells():
    """A value for each cell of the writer's tables, both signs.

    Each decimal exponent -11…33 with each last nonzero digit 1…12, once
    after nonzero digits and once after zeros.  Exponents 0…10 put the point
    after each digit 1…11.
    """
    values = [float(f"{digits}e{e - last + 1}")
              for e in range(-11, 34) for last in range(1, 13)
              for digits in ("987654321987"[:last], "10000000000"[:last - 1] + "3")]
    return np.array(values + [-v for v in values])


class TestFormatting:
    @pytest.mark.parametrize("x,text", [
        (0.0, "0"),
        (-0.0, "0"),
        (1.0, "1"),
        (0.5, "0.5"),
        (1e-5, "1e-05"),
        (-3.25e-7, "-3.25e-07"),
        (0.123456789012345, "0.123456789012"),
    ])
    def test_twelve_significant_digits(self, x, text):
        assert format_number(x) == text

    def test_matches_reference_rule(self):
        for x in EDGE_VALUES:
            assert format_number(x) == reference_number(x)


class TestWriters:
    @pytest.mark.parametrize("chunk", [1, 3, 10 ** 6])
    @pytest.mark.parametrize("preset", [None, "electron"])
    def test_csv_and_slopes_match_reference(self, monkeypatch, params, preset, chunk):
        cfg = small_config() if preset is None else load_preset(preset)
        table = measures.table(params, cfg.initial, cfg.grid())
        csv_text = reference_text(CSV_COLUMNS, table)
        slopes_text = reference_text(SLOPE_COLUMNS, slope_table(table))
        assert_same_text(written(write_csv, table), csv_text)
        assert_same_text(written(write_slopes, table), slopes_text)
        # and as a sweep streams them, in chunks of ``chunk`` rows
        monkeypatch.setattr(sweep, "SWEEP_CHUNK", chunk)
        csv, slopes = io.StringIO(), io.StringIO()
        run_sweep(cfg, sink=sweep.csv_sink(csv, slopes))
        assert_same_text(csv.getvalue(), csv_text)
        assert_same_text(slopes.getvalue(), slopes_text)

    @pytest.mark.parametrize("chunk", [1, 3, 10 ** 6])
    def test_edge_values_match_reference(self, chunk):
        values = np.resize(np.array(EDGE_VALUES), 5 * len(CSV_COLUMNS))
        table = values.reshape(5, len(CSV_COLUMNS))
        text = written(write_csv, table)
        assert text == reference_text(CSV_COLUMNS, table)
        assert "-0" not in text.replace("\n", ",").split(",")
        # written in blocks of ``chunk`` rows, as a sweep streams them
        buf = io.StringIO()
        for start in range(0, len(table), chunk):
            write_csv(table[start:start + chunk], buf, header=start == 0)
        assert buf.getvalue() == text

    @pytest.mark.parametrize("chunk", [1, 3, 2 * sweep._BLOCK_ROWS + 1])
    def test_rounding_edges_match_reference(self, chunk):
        table = rounding_edge_table()
        assert len(table) > 2 * sweep._BLOCK_ROWS + 1
        buf = io.StringIO()
        for start in range(0, len(table), chunk):
            write_csv(table[start:start + chunk], buf, header=start == 0)
        assert_same_text(buf.getvalue(), reference_text(CSV_COLUMNS, table))

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("columns", [CSV_COLUMNS, SLOPE_COLUMNS], ids=["csv", "slopes"])
    def test_every_table_cell_matches_reference(self, columns, offset):
        # one block's rows, give or take one: 512 rows of the CSV, 1126 of the slopes
        rows = sweep._BLOCK_ROWS * len(CSV_COLUMNS) // len(columns) + offset
        values = table_cells()
        assert sweep._mantissas(values)[2].size == 0   # none takes the fallback
        table = np.resize(values, (rows, len(columns)))
        stream = io.StringIO()
        sweep._write_table(columns, table, stream, header=True)
        assert_same_text(stream.getvalue(), reference_text(columns, table))

    def test_fallback_margin_neighbours_match_reference(self):
        # mantissas s = |x|·10^(11-e) 1e-4 from a half-integer, and one ulp of
        # s either side: at e = 11, where x is s, those that round onto the
        # half-integer (above 2^39 an ulp is 1.2e-4) are exact ties and take
        # ``format_number``, the others the tables; then e = 0, -3, 20
        rng = np.random.default_rng(26)
        half = rng.integers(10 ** 11, 10 ** 12 - 1, size=100) + 0.5
        s = nearest((half[:, None] + [-1e-4, 1e-4]).ravel(), 1)
        ties = np.flatnonzero(s - np.floor(s) == 0.5)
        assert 0 < ties.size < s.size
        assert np.array_equal(sweep._mantissas(s)[2], ties)
        values = np.concatenate([s, s * 1e-11, s * 1e-14, s * 1e9])
        values = np.concatenate([values, -values])
        table = np.resize(values, (-(-len(values) // len(CSV_COLUMNS)), len(CSV_COLUMNS)))
        assert_same_text(written(write_csv, table), reference_text(CSV_COLUMNS, table))

    def test_near_ties_take_the_tables_and_equal_format_number(self):
        # s = x on [1e11, 5e11), where an ulp is at most 6.1e-5: one ulp and
        # a few offsets from a half-integer, within 1e-4 of it but not on it.
        # The tables write each value as ``format_number`` does; the
        # half-integers themselves, exact ties, take ``format_number``
        rng = np.random.default_rng(27)
        half = rng.integers(10 ** 11, 5 * 10 ** 11, size=100) + 0.5
        offsets = [-9e-5, -5e-5, -3.1e-5, 3.1e-5, 5e-5, 9e-5]
        near = np.concatenate([nearest(half, 1)[half.size:],
                               (half[:, None] + offsets).ravel()])
        distance = np.abs(near - np.floor(near) - 0.5)
        assert distance.min() > 0.0 and distance.max() <= 1e-4
        assert sweep._mantissas(near)[2].size == 0
        assert np.array_equal(sweep._mantissas(half)[2], np.arange(half.size))
        values = np.concatenate([near, -near])
        table = np.resize(values, (-(-len(values) // len(CSV_COLUMNS)), len(CSV_COLUMNS)))
        lines = [",".join(CSV_COLUMNS)]
        lines += [",".join(format_number(v) for v in row) for row in table.tolist()]
        assert_same_text(written(write_csv, table), "\n".join(lines) + "\n")

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_VALUES)),
                    min_size=len(CSV_COLUMNS), max_size=8 * len(CSV_COLUMNS)))
    def test_arbitrary_doubles_match_reference(self, values):
        table = np.array(values[:len(values) // len(CSV_COLUMNS) * len(CSV_COLUMNS)])
        table = table.reshape(-1, len(CSV_COLUMNS))
        assert written(write_csv, table) == reference_text(CSV_COLUMNS, table)

    def test_memory_peak_below_the_one_template_format(self, params):
        cfg = load_preset("electron")
        table = measures.table(params, cfg.initial, cfg.grid()[:sweep.SWEEP_CHUNK])

        def template(table, stream):
            # the writers' former rule: one ``%`` over a repeated line template
            line = ",".join([sweep.NUMBER_FORMAT] * table.shape[1]) + "\n"
            stream.write((line * len(table)) % tuple((table + 0.0).ravel().tolist()))

        def traced_peak(writer):
            stream = io.StringIO()
            tracemalloc.start()
            try:
                writer(table, stream)
                return tracemalloc.get_traced_memory()[1], stream.getvalue()
            finally:
                tracemalloc.stop()

        peak, text = traced_peak(lambda t, stream: write_csv(t, stream, header=False))
        template_peak, template_text = traced_peak(template)
        assert_same_text(text, template_text)
        assert peak <= template_peak

    def test_stdout_equals_file_output(self, tmp_path, capsys):
        argv = ["sweep", "--points", "201"]
        assert main(argv) == 0
        to_stdout = capsys.readouterr().out
        out = tmp_path / "sweep.csv"
        assert main(argv + ["--output", str(out)]) == 0
        assert out.read_text() == to_stdout
        assert to_stdout == csv_bytes(swept(small_config())[1]).decode()


class TestRunSweep:
    def test_row_count_and_monotone_le(self):
        _, table = swept(small_config())
        assert table.shape == (201, len(CSV_COLUMNS))
        assert np.all(np.diff(table[:, 0]) > 0)
        # the origin row has every measure and edge exactly 0
        assert np.all(table[0, 4:] == 0.0)

    def test_probability_rows_normalized(self):
        _, table = swept(small_config(points=401))
        sums = table[:, 1:4].sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-10)

    def test_unit_conversion_row_by_row(self):
        _, in_mev = swept(small_config())
        _, in_gev = swept(small_config(le_min=0.0, le_max=40000.0, unit="km/GeV"))
        assert np.allclose(in_mev, in_gev, rtol=1e-12, atol=1e-12)

    def test_deterministic_output(self):
        a = csv_bytes(swept(small_config())[1])
        b = csv_bytes(swept(small_config())[1])
        assert a == b

    def test_both_paths_agree_electron(self):
        summary = run_sweep(small_config(path="both"))
        assert {"closed-form", "generic"} <= set(summary["stage_s"])
        assert summary["max_path_discrepancy"] <= 1e-10

    def test_both_paths_agree_muon_log(self):
        summary = run_sweep(small_config(
            initial="mu", le_min=10.0, le_max=1600.0, unit="km/GeV",
            scale="log", path="both",
        ))
        assert summary["max_path_discrepancy"] <= 1e-10

    def test_generic_rows_equal_scalar_reports(self, params):
        _, table = swept(small_config(
            initial="mu", le_min=10.0, le_max=1600.0, unit="km/GeV",
            scale="log", points=37, path="generic",
        ))
        for row in table:
            rep = report(params, "mu", row[0], path="generic")
            assert tuple(row) == tuple(rep.values())

    @pytest.mark.parametrize("path", ["closed-form", "generic"])
    @pytest.mark.parametrize("preset", ["electron", "muon"])
    def test_reports_equal_sweep_rows_bit_for_bit(self, params, preset, path):
        cfg = load_preset(preset)
        cfg.path = path
        _, table = swept(cfg)
        reps = [report(params, cfg.initial, x, path=path) for x in table[:, 0]]
        rows = np.array([list(r.values()) for r in reps])
        differ = np.any(rows.view(np.uint64) != table.view(np.uint64), axis=1)
        assert not differ.any(), f"{differ.sum()} of {len(rows)} rows differ"

    @pytest.mark.parametrize("preset", ["electron", "muon"])
    def test_probabilities_equal_sweep_rows_bit_for_bit(self, params, preset):
        cfg = load_preset(preset)
        cfg.path = "both"
        _, emitted = swept(cfg)
        probs = np.array([probs_at(params, cfg.initial, x)
                          for x in emitted[:, 0]])
        for table in (emitted, generic_table(params, cfg)):
            differ = np.any(probs.view(np.uint64) != table[:, 1:4].view(np.uint64), axis=1)
            assert not differ.any(), f"{differ.sum()} of {len(probs)} rows differ"

    def test_summary_reports_discrepancy_per_column(self, params):
        cfg = small_config(
            initial="mu", le_min=10.0, le_max=1600.0, unit="km/GeV",
            scale="log", points=401, path="both",
        )
        summary, table = swept(cfg)
        diff = np.abs(table - generic_table(params, cfg))
        by_column = summary["path_discrepancy_by_column"]
        assert tuple(by_column) == CSV_COLUMNS[1:]
        for j, name in enumerate(CSV_COLUMNS[1:], start=1):
            i = int(diff[:, j].argmax())
            assert by_column[name] == {"max": diff[i, j], "le": table[i, 0]}
        assert summary["max_path_discrepancy"] == max(
            d["max"] for d in by_column.values())
        lines = summary_lines(summary)
        assert lines[-2] == (
            f"max |closed-form - generic|: {summary['max_path_discrepancy']:.3e}")
        worst = by_column["fill"]
        assert lines[-1].startswith("per column (L/E in km/GeV): p_e 0.000e+00, ")
        assert f"fill {worst['max']:.3e} at {worst['le']:.6g}" in lines[-1]

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_chunking_does_not_change_rows(self, monkeypatch, offset):
        chunk = 8
        cfg = small_config(initial="mu", le_min=10.0, le_max=1600.0,
                           unit="km/GeV", scale="log", points=chunk + offset,
                           path="generic")
        _, whole = swept(cfg)
        monkeypatch.setattr(measures, "GENERIC_CHUNK", chunk)
        _, chunked = swept(cfg)
        assert np.array_equal(chunked, whole)

    def test_summary_reports_fill_gmc_margin(self):
        summary, table = swept(small_config(
            initial="mu", le_min=10.0, le_max=1600.0, unit="km/GeV",
            scale="log", points=4001,
        ))
        column = {name: table[:, i] for i, name in enumerate(CSV_COLUMNS)}
        margin = column["fill"] - column["gmc"]
        assert summary["min_fill_minus_gmc"] == margin.min()
        assert summary["min_fill_minus_gmc"] == pytest.approx(-0.0314, abs=5e-4)
        assert summary["min_fill_minus_gmc_le"] == pytest.approx(457.0, abs=2.0)
        lines = summary_lines(summary)
        assert any(line.startswith("min fill - gmc: -0.0314") and "L/E 457" in line
                   for line in lines)

    @pytest.mark.parametrize("path,routes", [
        ("closed-form", ["closed-form"]), ("generic", ["generic"]),
        ("both", ["closed-form", "generic"]),
    ])
    def test_summary_times_each_stage(self, path, routes):
        stage_s = run_sweep(small_config(path=path))["stage_s"]
        assert list(stage_s) == ["grid", *routes, "summary"]
        assert all(t >= 0.0 for t in stage_s.values())

    def test_muon_kink_count(self):
        summary = run_sweep(small_config(
            initial="mu", le_min=10.0, le_max=1600.0, unit="km/GeV",
            scale="log", points=1000,
        ))
        assert summary["gmc_kinks"] == 6

    @pytest.mark.parametrize("preset,kinks", [("electron", 69), ("muon", 6)])
    def test_preset_kink_counts(self, preset, kinks):
        # the electron preset's tie of three zero edges at L/E = 0 is no kink
        assert run_sweep(load_preset(preset))["gmc_kinks"] == kinks

    def test_slope_table_shape(self):
        _, table = swept(small_config(points=101))
        slopes = slope_table(table)
        assert slopes.shape == (99, 5)


#: Grids small enough to run in chunks of one row, with gmc kinks and
#: grid-local gmc extrema on the first or last row of a 3-row chunk.
STREAM_GRID_POINTS = 61


def sweep_outputs(tmp_path, capsys, argv):
    """CSV (to a file and to stdout), slopes and stderr summary lines of a sweep."""
    csv, slopes = tmp_path / "sweep.csv", tmp_path / "slopes.csv"
    assert main(argv + ["--output", str(csv), "--slopes", str(slopes)]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("stage times (s): ")
    assert main(argv) == 0
    return csv.read_bytes(), capsys.readouterr().out.encode(), slopes.read_bytes(), err[:-1]


def route_tables(monkeypatch, config):
    """The run summary and each route's table of a sweep, joined from its table calls."""
    chunks = {path: [] for path in measures.PATHS}
    table = measures.table

    def recording_table(params, initial, le, path="closed-form"):
        chunks[path].append(table(params, initial, le, path))
        return chunks[path][-1]

    with monkeypatch.context() as patch:
        patch.setattr(measures, "table", recording_table)
        summary = run_sweep(config)
    return summary, {path: np.concatenate(c) for path, c in chunks.items() if c}


def gmc_extrema_rows(table):
    gmc = table[:, CSV_COLUMNS.index("gmc")]
    inner = gmc[1:-1]
    local = ((inner < gmc[:-2]) & (inner < gmc[2:])) | ((inner > gmc[:-2]) & (inner > gmc[2:]))
    return np.nonzero(local)[0] + 1


class TestStreaming:
    @pytest.mark.parametrize("chunk", [1, 3, STREAM_GRID_POINTS + 1])
    @pytest.mark.parametrize("path", sweep.PATHS)
    @pytest.mark.parametrize("preset", ["electron", "muon"])
    def test_chunk_size_changes_no_output(self, tmp_path, capsys, monkeypatch,
                                          preset, path, chunk):
        argv = ["sweep", "--preset", preset, "--path", path,
                "--points", str(STREAM_GRID_POINTS)]
        cfg = load_preset(preset)
        cfg.path, cfg.points = path, STREAM_GRID_POINTS
        assert sweep.SWEEP_CHUNK >= STREAM_GRID_POINTS
        whole, whole_tables = route_tables(monkeypatch, cfg)
        expected = sweep_outputs(tmp_path, capsys, argv)
        assert whole["gmc_kinks"] > 0
        emitted = "closed-form" if path == "both" else path
        assert any(i % 3 != 1 for i in gmc_extrema_rows(whole_tables[emitted]))

        monkeypatch.setattr(sweep, "SWEEP_CHUNK", chunk)
        chunked, chunked_tables = route_tables(monkeypatch, cfg)
        assert sweep_outputs(tmp_path, capsys, argv) == expected
        assert list(chunked_tables) == list(whole_tables)
        for route, table in whole_tables.items():
            assert np.array_equal(chunked_tables[route], table)
        del whole["stage_s"], chunked["stage_s"]
        assert chunked == whole

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_summary_ties_keep_the_first_row(self, chunk):
        # few distinct values, so minima, maxima and their ties span chunks
        rng = np.random.default_rng(0)
        n = 40
        table = rng.integers(0, 3, size=(n, len(CSV_COLUMNS))).astype(float)
        table[:, 0] = np.arange(n, dtype=float)
        generic = table + rng.integers(0, 2, size=table.shape)
        generic[:, 0] = table[:, 0]

        def folded(step):
            fold = sweep._SummaryFold(both=True)
            for i in range(0, n, step):
                fold.add(table[i:i + step], generic[i:i + step])
            return fold.summary(small_config(points=n, path="both"))

        summary = folded(chunk)
        assert summary == folded(n)
        column = {name: table[:, i] for i, name in enumerate(CSV_COLUMNS)}
        margin = column["fill"] - column["gmc"]
        assert summary["min_fill_minus_gmc_le"] == np.argmin(margin)
        diff = np.abs(table - generic)
        for j, name in enumerate(CSV_COLUMNS[1:], start=1):
            assert summary["path_discrepancy_by_column"][name]["le"] == np.argmax(diff[:, j])
        # a kink is a shortest-edge switch between rows whose gmc is > 0
        arg, kept = table[:, 8:].argmin(axis=1), column["gmc"] > 0.0
        assert summary["gmc_kinks"] == np.sum((arg[1:] != arg[:-1]) & kept[1:] & kept[:-1])

    def test_cli_table_calls_stay_within_a_chunk(self, tmp_path, monkeypatch):
        rows = []
        table = measures.table

        def counting_table(params, initial, le, *args, **kwargs):
            rows.append(len(le))
            return table(params, initial, le, *args, **kwargs)

        monkeypatch.setattr(measures, "table", counting_table)
        points = 2 * sweep.SWEEP_CHUNK + 5
        assert main(["sweep", "--preset", "electron", "--path", "both",
                     "--points", str(points), "--output", str(tmp_path / "s.csv"),
                     "--slopes", str(tmp_path / "slopes.csv")]) == 0
        assert max(rows) <= sweep.SWEEP_CHUNK
        assert sum(rows) == 2 * points

    def test_streamed_result_holds_no_table(self):
        summary = run_sweep(small_config(), sink=lambda rows, window: None)
        assert not any(isinstance(value, np.ndarray) for value in summary.values())
        assert list(summary["stage_s"]) == ["grid", "closed-form", "summary", "write"]

    def test_sink_windows_carry_two_rows(self, monkeypatch, params):
        whole = measures.table(params, "e", small_config(points=11).grid())
        monkeypatch.setattr(sweep, "SWEEP_CHUNK", 4)
        seen = []
        run_sweep(small_config(points=11), sink=lambda rows, window: seen.append((rows, window)))
        assert [len(rows) for rows, _ in seen] == [4, 4, 3]
        assert [len(window) for _, window in seen] == [4, 6, 5]
        assert np.array_equal(np.concatenate([rows for rows, _ in seen]), whole)
        assert np.array_equal(seen[1][1], whole[2:8])

    def test_failed_sweep_leaves_no_files(self, tmp_path, capsys, monkeypatch):
        calls = []
        table = measures.table

        def failing_table(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise ValueError("probability 1.5 outside [0, 1] beyond tolerance")
            return table(*args, **kwargs)

        monkeypatch.setattr(measures, "table", failing_table)
        monkeypatch.setattr(sweep, "SWEEP_CHUNK", 16)
        csv, slopes = tmp_path / "s.csv", tmp_path / "slopes.csv"
        assert main(["sweep", "--points", "51", "--output", str(csv),
                     "--slopes", str(slopes)]) == 2
        assert "probability 1.5" in capsys.readouterr().err
        assert len(calls) == 2
        assert not csv.exists() and not slopes.exists()

    def test_unwritable_slopes_leave_no_csv(self, tmp_path, capsys):
        csv = tmp_path / "s.csv"
        assert main(["sweep", "--points", "51", "--output", str(csv),
                     "--slopes", str(tmp_path / "no" / "slopes.csv")]) == 3
        assert not csv.exists()


class TestFindExtremum:
    def test_electron_fill_maximum(self):
        rec = find_extremum(small_config(points=401), "fill", "max", (8.0, 13.0))
        assert rec["value"] == pytest.approx(0.89, abs=0.01)
        assert rec["le_km_per_GeV"] / 1000.0 == pytest.approx(10.83, abs=0.05)
        assert not rec["boundary"]

    def test_electron_ggm_maximum(self):
        rec = find_extremum(small_config(points=401), "ggm", "max", (8.0, 13.0))
        assert rec["value"] == pytest.approx(0.32, abs=0.01)

    def test_muon_fill_first_dip_location(self):
        cfg = small_config(initial="mu", le_min=10.0, le_max=1600.0,
                           unit="km/GeV", scale="log")
        rec = find_extremum(cfg, "fill", "min", (400.0, 600.0))
        assert rec["le_km_per_GeV"] == pytest.approx(513.4, abs=2.0)

    def test_value_matches_direct_evaluation(self, params):
        rec = find_extremum(small_config(points=401), "gmc", "max", (8.0, 13.0))
        assert rec["value"] == pytest.approx(
            report(params, "e", rec["le_km_per_GeV"])["gmc"], abs=1e-12
        )

    @pytest.mark.parametrize("path", ["closed-form", "generic"])
    @pytest.mark.parametrize("measure", measures.MEASURE_NAMES)
    @pytest.mark.parametrize("initial,kind,window", [
        ("e", "max", (8.0, 13.0)), ("mu", "min", (420.0, 600.0)),
    ])
    def test_value_equals_report_bit_for_bit(self, params, initial, kind, window,
                                             measure, path):
        cfg = small_config(points=401, path=path)
        if initial == "mu":
            cfg = small_config(initial="mu", le_min=10.0, le_max=1600.0,
                               unit="km/GeV", scale="log", path=path)
        rec = find_extremum(cfg, measure, kind, window)
        assert not rec["boundary"]
        assert rec["value"] == report(params, initial, rec["le_km_per_GeV"], path)[measure]

    @pytest.mark.parametrize("path", ["closed-form", "generic"])
    def test_makes_no_report_call(self, monkeypatch, path):
        calls = []
        scalar_report = measures.report

        def counting_report(*args, **kwargs):
            calls.append(args)
            return scalar_report(*args, **kwargs)

        monkeypatch.setattr(measures, "report", counting_report)
        find_extremum(small_config(path=path), "fill", "max", (8.0, 13.0))
        find_extremum(small_config(path=path), "fill", "max", (0.0, 0.3))
        assert calls == []

    @staticmethod
    def count_tables(monkeypatch, limit=20):
        """Count ``measures.table`` calls; fail a query that makes more than ``limit``."""
        calls = []
        table = measures.table

        def counting_table(*args, **kwargs):
            calls.append(len(args[2]))
            assert len(calls) <= limit, "extremum query does not converge"
            return table(*args, **kwargs)

        monkeypatch.setattr(measures, "table", counting_table)
        return calls

    @staticmethod
    def window_config(initial, path="closed-form"):
        if initial == "mu":
            return small_config(initial="mu", le_min=10.0, le_max=1600.0,
                                unit="km/GeV", scale="log", path=path)
        return small_config(points=401, path=path)

    @pytest.mark.parametrize("path", ["closed-form", "generic"])
    @pytest.mark.parametrize("measure", ["ggm", "fill"])
    def test_ulp_wide_window_ends(self, monkeypatch, path, measure):
        calls = self.count_tables(monkeypatch)
        rec = find_extremum(small_config(path=path), measure, "max",
                            (10.83, 10.8300000000001))
        assert len(calls) <= 4
        assert rec["bracket"][0] <= rec["le_km_per_GeV"] <= rec["bracket"][1]

    @pytest.mark.parametrize("path", ["closed-form", "generic"])
    @pytest.mark.parametrize("initial,kind,window", [
        ("e", "max", (8.0, 13.0)), ("mu", "min", (420.0, 600.0)),
    ])
    def test_refined_query_makes_at_most_four_tables(self, monkeypatch, initial,
                                                      kind, window, path):
        calls = self.count_tables(monkeypatch)
        rec = find_extremum(self.window_config(initial, path), "fill", kind, window)
        assert not rec["boundary"]
        assert calls[0] == sweep.SCAN_POINTS
        assert calls[1:] == [sweep.ZOOM_POINTS] * (len(calls) - 1)
        assert len(calls) <= 4

    def test_boundary_query_makes_one_table(self, monkeypatch):
        calls = self.count_tables(monkeypatch)
        rec = find_extremum(small_config(), "fill", "max", (0.0, 0.3))
        assert rec["boundary"]
        assert calls == [sweep.SCAN_POINTS]

    @pytest.mark.parametrize("measure", ["ggm", "gmc"])
    def test_kink_peak_beats_dense_scan(self, params, measure):
        lo, hi = 8000.0, 13000.0
        rec = find_extremum(small_config(points=401), measure, "max", (8.0, 13.0))
        grid = np.linspace(lo, hi, 4097)
        scan = measures.table(params, "e", grid)[:, CSV_COLUMNS.index(measure)]
        slope = np.max(np.abs(np.diff(scan))) / (grid[1] - grid[0])
        assert rec["value"] >= scan.max() - slope * 1e-6 * (hi - lo)

    @pytest.mark.parametrize("measure", measures.MEASURE_NAMES)
    @pytest.mark.parametrize("initial,kind,window,factor", [
        ("e", "max", (8.0, 13.0), 1000.0), ("mu", "min", (420.0, 600.0), 1.0),
    ])
    def test_bracket_holds_location_within_tolerance(self, initial, kind, window,
                                                     factor, measure):
        rec = find_extremum(self.window_config(initial), measure, kind, window)
        a, b = rec["bracket"]
        assert a <= rec["le_km_per_GeV"] <= b
        assert b - a <= 1e-6 * (window[1] - window[0]) * factor

    @pytest.mark.parametrize("window", [(8.0, 13.0), (0.0, 0.3)])
    def test_record_is_what_the_cli_writes(self, capsys, window):
        argv = ["extremum", "--measure", "fill", "--kind", "max",
                "--window", *map(str, window)]
        assert main(argv) == 0
        written = json.loads(capsys.readouterr().out)
        rec = find_extremum(SweepConfig(), "fill", "max", window)
        assert written == json.loads(json.dumps(rec))
        assert list(written) == list(rec) == [
            "kind", "measure", "le_km_per_GeV", "value", "bracket", "boundary"]

    def test_boundary_extremum_flagged(self):
        # fill rises monotonically from the origin, so the max sits on the edge
        rec = find_extremum(small_config(), "fill", "max", (0.0, 0.3))
        assert rec["boundary"]
        assert rec["le_km_per_GeV"] == pytest.approx(300.0)

    def test_rejects_window_outside_range(self):
        with pytest.raises(ConfigError, match="window"):
            find_extremum(small_config(), "fill", "max", (30.0, 50.0))

    def test_rejects_unknown_measure(self):
        with pytest.raises(ConfigError, match="measure"):
            find_extremum(small_config(), "entropy", "max", (1.0, 2.0))

    def test_rejects_both_routes(self):
        # a query runs one route: measures.table names the one it cannot run
        with pytest.raises(ValueError, match="got 'both'"):
            find_extremum(small_config(path="both"), "fill", "max", (8.0, 13.0))


class TestTriangleRecord:
    def test_muon_points(self, params):
        rec = triangle_record(params, "mu", 262.2)
        assert rec["sqrt_area"] == pytest.approx(0.33, abs=0.02)
        assert rec["shortest_edge"] == pytest.approx(0.09, abs=0.02)
        rec = triangle_record(params, "mu", 1130.0)
        assert rec["sqrt_area"] == pytest.approx(0.13, abs=0.02)
        assert rec["shortest_edge"] == pytest.approx(0.08, abs=0.02)

    def test_record_is_what_the_cli_writes(self, params, capsys):
        assert main(["triangle", "--initial", "mu", "--le", "262.2", "--unit", "km/GeV",
                     "--json"]) == 0
        written = json.loads(capsys.readouterr().out)
        assert written == json.loads(json.dumps(triangle_record(params, "mu", 262.2)))

    def test_text_block_mentions_every_quantity(self, params):
        text = triangle_text(triangle_record(params, "e", 4610.0))
        for token in ("probabilities", "edges", "half-perimeter", "sqrt(area)",
                      "shortest edge", "fill - gmc"):
            assert token in text


class TestCli:
    def test_sweep_to_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--initial", "e", "--le-min", "0", "--le-max", "40",
                     "--unit", "km/MeV", "--points", "101", "--scale", "linear",
                     "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 102
        assert "rows: 101" in capsys.readouterr().err

    def test_sweep_prints_stage_times_last(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--points", "51", "--path", "both", "--output", str(out),
                     "--slopes", str(tmp_path / "slopes.csv")])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert err[:-1] == summary_lines(run_sweep(small_config(points=51, path="both")))
        assert re.fullmatch(r"stage times \(s\): grid \S+, closed-form \S+, "
                            r"generic \S+, summary \S+, write \S+", err[-1])

    def test_sweep_preset_with_overrides(self, tmp_path):
        out = tmp_path / "muon.csv"
        code = main(["sweep", "--preset", "muon", "--points", "51",
                     "--output", str(out)])
        assert code == 0
        assert len(out.read_text().splitlines()) == 52

    def test_sweep_writes_slopes(self, tmp_path):
        out = tmp_path / "s.csv"
        slopes = tmp_path / "slopes.csv"
        code = main(["sweep", "--points", "51", "--output", str(out),
                     "--slopes", str(slopes)])
        assert code == 0
        assert slopes.read_text().startswith("le_km_per_GeV,d_ggm")

    @staticmethod
    def params_file(tmp_path):
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps({"theta13": 0.0}))
        return pfile

    def test_sweep_params_override(self, tmp_path):
        pfile = self.params_file(tmp_path)
        out, default = tmp_path / "out.csv", tmp_path / "default.csv"
        argv = ["sweep", "--points", "51", "--output"]
        assert main(argv + [str(default)]) == 0
        code = main(argv + [str(out), "--params", str(pfile)])
        assert code == 0
        table = measures.table(OscillationParams.from_json(pfile), "e",
                               small_config(points=51).grid())
        assert out.read_text() == written(write_csv, table)
        assert out.read_text() != default.read_text()

    def test_extremum_params_override(self, tmp_path, capsys):
        pfile = self.params_file(tmp_path)
        argv = ["extremum", "--measure", "fill", "--kind", "max", "--window", "8", "13"]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--params", str(pfile)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload != default
        row = measures.table(OscillationParams.from_json(pfile), "e",
                             np.array([payload["le_km_per_GeV"]]))[0]
        assert payload["value"] == row[CSV_COLUMNS.index("fill")]

    def test_triangle_params_override(self, tmp_path, capsys):
        pfile = self.params_file(tmp_path)
        argv = ["triangle", "--le", "4.61", "--json"]
        assert main(argv) == 0
        default = json.loads(capsys.readouterr().out)
        assert main(argv + ["--params", str(pfile)]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record != default
        assert record == triangle_record(OscillationParams.from_json(pfile), "e", 4.61 * 1000.0)

    @pytest.mark.parametrize("override", [{"dm2_31": 2.5e-3}, {"dm2_32": 2.3820005e-3}])
    def test_params_splittings_agree_across_routes(self, tmp_path, capsys, override):
        # the probabilities and the amplitudes both take the (3, 2)
        # splitting as dm2_31 - dm2_21, whatever dm2_32 says
        pfile = tmp_path / "params.json"
        pfile.write_text(json.dumps(override))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # dm2_31 alone is inconsistent
            code = main(["sweep", "--path", "both", "--params", str(pfile),
                         "--output", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert code == 0, err
        prefix = "max |closed-form - generic|: "
        line = next(line for line in err.splitlines() if line.startswith(prefix))
        assert float(line[len(prefix):]) <= 1e-10

    #: Each SweepConfig field, the flag that sets it, a value for the flag
    #: and the value the field then holds.
    FLAGS = {
        "initial": ("--initial", "mu", "mu"),
        "unit": ("--unit", "km/GeV", "km/GeV"),
        "path": ("--path", "generic", "generic"),
        "params_file": ("--params", "p.json", "p.json"),
        "output": ("--output", "o.json", "o.json"),
        "le_min": ("--le-min", "2", 2.0),
        "le_max": ("--le-max", "30", 30.0),
        "points": ("--points", "7", 7),
        "scale": ("--scale", "log", "log"),
    }
    GRID_FIELDS = ("le_min", "le_max", "points", "scale")
    #: an extremum query scans its own grid inside the window
    EXTREMUM_OMITS = ("points", "scale")
    #: a single-point report takes neither the grid nor the route
    TRIANGLE_OMITS = (*GRID_FIELDS, "path")

    @pytest.mark.parametrize("argv", [
        ["sweep"],
        ["extremum", "--measure", "fill", "--kind", "max", "--window", "8", "13"],
        ["triangle", "--le", "4.61"],
    ], ids=lambda argv: argv[0])
    def test_each_flag_sets_the_field_of_its_name(self, argv):
        omits = {"extremum": self.EXTREMUM_OMITS, "triangle": self.TRIANGLE_OMITS}
        flags = {name: flag for name, flag in self.FLAGS.items()
                 if name not in omits.get(argv[0], ())}
        args = build_parser().parse_args(
            argv + [arg for flag, value, _ in flags.values() for arg in (flag, value)])
        expected = dataclasses.asdict(SweepConfig())
        expected.update({name: field_value for name, (_, _, field_value) in flags.items()})
        assert dataclasses.asdict(_config_from_args(args)) == expected

    @pytest.mark.parametrize("flag", [["--points", "7"], ["--scale", "log"]],
                             ids=lambda flag: flag[0][2:])
    @pytest.mark.parametrize("argv", [
        ["triangle", "--le", "4.61"],
        ["extremum", "--measure", "fill", "--kind", "max", "--window", "8", "13"],
    ], ids=lambda argv: argv[0])
    def test_takes_no_grid_flag(self, capsys, argv, flag):
        # a report reads one point and an extremum query scans its own grid,
        # so neither reads the sweep's grid
        with pytest.raises(SystemExit) as exit_:
            main(argv + flag)
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,error", [
        # the report is always closed-form, so a route flag would do nothing
        (["triangle", "--le", "4.61", "--json", "--path", "generic"],
         "unrecognized arguments: --path generic"),
        # an extremum query runs one route; both would write the closed-form record
        (["extremum", "--measure", "fill", "--kind", "max", "--window", "8", "13",
          "--path", "both"],
         "argument --path: invalid choice: 'both'"),
    ], ids=["triangle", "extremum"])
    def test_takes_only_the_routes_it_runs(self, capsys, argv, error):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert error in capsys.readouterr().err

    def test_triangle_names_an_overflowing_le(self, capsys):
        assert main(["triangle", "--le", "1e308"]) == 2
        assert capsys.readouterr().err == "error: le: 1e+308 km/MeV overflows in km/GeV\n"
        assert main(["triangle", "--le", "1e308", "--unit", "km/GeV"]) == 0

    @pytest.mark.parametrize("window", [("nan", "13"), ("8", "inf"), ("-inf", "13")])
    def test_extremum_names_a_non_finite_window(self, capsys, window):
        argv = ["extremum", "--measure", "fill", "--kind", "max", "--window", *window]
        assert main(argv) == 2
        shown = repr(tuple(float(w) for w in window))
        assert capsys.readouterr().err == (
            f"error: window: window bounds must be finite, got {shown}\n")

    def test_extremum_names_a_window_outside_the_range(self, capsys):
        # -1e5 is a value, not an option, for argparse too
        argv = ["extremum", "--measure", "fill", "--kind", "max", "--window", "-1e5", "13"]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            "error: window: window (-100000.0, 13.0) must lie inside the sweep range "
            "[0.0, 40.0] km/MeV\n")

    def test_sweep_names_a_negative_le_min_in_exponent_form(self, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert main(["sweep", "--le-min", "-1e-3", "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: le_min: L/E must be non-negative, got -0.001\n"
        assert not out.exists()

    def test_config_error_exit_code(self, capsys):
        assert main(["sweep", "--le-min", "10", "--le-max", "5"]) == 2
        assert "le_min" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        target = tmp_path / "no" / "such" / "dir" / "out.csv"
        assert main(["sweep", "--points", "51", "--output", str(target)]) == 3

    @pytest.mark.parametrize("error", [2e-10, math.nan], ids=["2e-10", "nan"])
    def test_failed_cross_check_exit_code(self, tmp_path, capsys, monkeypatch, error):
        # an error planted in the generic fill: the full CSV is still written,
        # and the last stderr line names the fill and its L/E
        argv = ["sweep", "--points", "51", "--path", "both", "--output"]
        assert main(argv + [str(tmp_path / "clean.csv")]) == 0
        capsys.readouterr()
        heron_fill = measures.heron_fill
        monkeypatch.setattr(measures, "heron_fill", lambda edges: heron_fill(edges) + error)
        assert main(argv + [str(tmp_path / "out.csv")]) == 4
        assert (tmp_path / "out.csv").read_bytes() == (tmp_path / "clean.csv").read_bytes()
        err = capsys.readouterr().err.splitlines()
        assert err[-2].startswith("stage times (s): ")
        fill = re.search(r"fill (\S+) at ([^,]+)", err[-3])
        assert float(fill[1]) > 1e-10 or math.isnan(float(fill[1]))
        assert err[-1] == (f"cross-check failed: fill differs between the routes by {fill[1]}"
                           f" at L/E {fill[2]} km/GeV, beyond 1e-10")

    def test_extremum_json_output(self, tmp_path):
        out = tmp_path / "ext.json"
        code = main(["extremum", "--measure", "fill", "--kind", "max",
                     "--window", "8", "13", "--output", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["value"] == pytest.approx(0.89, abs=0.01)

    def test_triangle_text_and_json(self, tmp_path, capsys):
        code = main(["triangle", "--initial", "mu", "--le", "262.2",
                     "--unit", "km/GeV"])
        assert code == 0
        assert "concurrence triangle" in capsys.readouterr().out
        out = tmp_path / "tri.json"
        code = main(["triangle", "--initial", "mu", "--le", "262.2",
                     "--unit", "km/GeV", "--json", "--output", str(out)])
        assert code == 0
        rec = json.loads(out.read_text())
        assert rec["shortest_edge"] == pytest.approx(0.09, abs=0.02)

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "-inf", "-1e-3"])
    def test_triangle_rejects_bad_le(self, capsys, value):
        assert main(["triangle", "--le", value]) == 2
        err = capsys.readouterr().err
        # named in km/GeV, 1000 times the km/MeV value given
        assert f"L/E must be finite and non-negative, got {float(value) * 1000.0} km/GeV" in err
        assert "triangle edge" not in err

    def test_nan_params_file_exit_code(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"dm2_21": NaN}')
        assert main(["triangle", "--le", "4.61", "--params", str(pfile)]) == 2
        assert "dm2_21 must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("field,value", [
        ("points", 1000.5), ("points", 1e3), ("points", "10"),
        ("le_min", "a"), ("le_max", None),
    ])
    def test_mistyped_config_field_exit_code(self, tmp_path, capsys, field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        out = tmp_path / "out.csv"
        assert main(["sweep", "--config", str(cfg), "--output", str(out)]) == 2
        assert f"error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    def test_config_and_preset_exclude_each_other(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        with pytest.raises(SystemExit) as exit_:
            main(["sweep", "--config", str(cfg), "--preset", "muon"])
        assert exit_.value.code == 2
        assert "argument --preset: not allowed with argument --config" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,message", [
        ("--config", "error: config: configuration file must hold a JSON object\n"),
        ("--params", "error: parameter file must contain a JSON object\n"),
    ])
    def test_json_array_file_exit_code(self, tmp_path, capsys, flag, message):
        f = tmp_path / "array.json"
        f.write_text("[1, 2]")
        out = tmp_path / "out.csv"
        assert main(["sweep", "--points", "51", flag, str(f), "--output", str(out)]) == 2
        assert capsys.readouterr().err == message
        assert not out.exists()

    @pytest.mark.parametrize("slopes", ["same", "respelled", "hard-link"])
    def test_slopes_naming_the_output_file_exit_code(self, tmp_path, capsys, slopes):
        # two handles on one file would each write it from offset 0
        out = tmp_path / "s.csv"
        out.write_text("kept\n")
        path = {"same": out, "respelled": tmp_path / "sub" / ".." / "s.csv",
                "hard-link": tmp_path / "link.csv"}[slopes]
        if slopes == "hard-link":
            os.link(out, path)
        assert main(["sweep", "--points", "5", "--output", str(out), "--slopes", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: slopes: --slopes names the --output file {path}\n")
        assert out.read_text() == "kept\n"

    def test_mistyped_params_field_exit_code(self, tmp_path, capsys):
        pfile = tmp_path / "params.json"
        pfile.write_text('{"theta12": null}')
        out = tmp_path / "out.csv"
        assert main(["sweep", "--points", "51", "--params", str(pfile),
                     "--output", str(out)]) == 2
        assert "theta12 must be a real number" in capsys.readouterr().err
        assert not out.exists()

    def test_parser_built_once(self):
        assert build_parser() is build_parser()

    def test_triangle_unit_conversion(self, capsys):
        assert main(["triangle", "--initial", "e", "--le", "4.61",
                     "--unit", "km/MeV", "--json"]) == 0
        rec = json.loads(capsys.readouterr().out)
        assert rec["le_km_per_GeV"] == pytest.approx(4610.0)
        assert rec["probabilities"]["p_e"] == pytest.approx(0.77, abs=0.01)
