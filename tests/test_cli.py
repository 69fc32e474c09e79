import configparser
import csv
import io
import json
import math
import random
import re
import subprocess
import sys

import pytest

import cvlab.cli as cli
from cvlab.cli import (
    CSV_HEADER,
    InputError,
    RunConfig,
    load_surface_config,
    main,
    report_to_csv,
    report_to_json_dict,
    resolve_surface,
)
from cvlab.jets import DomainError
from cvlab.model import AnalyticCore, PolarCap
from cvlab.sweep import SweepReport, TruncationSample

DIVERGENT_CONFIG = """\
[surface]
name = flared-end
genus = 0
ends = 1
core = analytic:6.283185307179586

[end1]
g = exp(t^2)
t_min = 0.0
"""

CUSP_CONFIG = """\
[surface]
name = my-cusp
genus = 0
ends = 1
chi = 1
core = analytic:12.566370614359172

[end1]
g = exp(-2*t)
t_min = 0.0
"""


class TestList:
    def test_human_listing(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 6
        assert any(line.startswith("flat-cylinder") and "chi=0" in line for line in out)

    def test_json_listing(self, capsys):
        assert main(["list", "--format", "json"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 6
        names = {r["name"] for r in records}
        assert "paraboloid" in names and "cusp-cap" in names
        flat = next(r for r in records if r["name"] == "flat-cylinder")
        assert flat["chi"] == 0 and flat["hypothesis_holds"] is True


class TestSweep:
    def test_flat_cylinder_all_pass_exit_zero(self, capsys):
        code = main(
            ["sweep", "--surface", "flat-cylinder", "--h-min", "1",
             "--h-max", "64", "--steps", "12", "--strict"]
        )
        assert code == 0

    def test_cusp_strict_exit_two(self):
        code = main(
            ["sweep", "--surface", "cusp-cap", "--h-min", "0.5",
             "--h-max", "32", "--steps", "10", "--strict", "--format", "json",
             "--out", "-"]
        )
        assert code == 2

    def test_cusp_non_strict_exit_zero(self, capsys):
        code = main(
            ["sweep", "--surface", "cusp-cap", "--h-min", "0.5",
             "--h-max", "32", "--steps", "10"]
        )
        assert code == 0

    def test_unknown_surface(self, capsys):
        assert main(["sweep", "--surface", "moebius"]) == 1
        assert "unknown surface" in capsys.readouterr().err

    def test_bad_range_rejected(self, capsys):
        assert main(["sweep", "--surface", "flat-cylinder", "--h-min", "5",
                     "--h-max", "2"]) == 1

    def test_csv_artifact(self, tmp_path):
        out = tmp_path / "report.csv"
        code = main(
            ["sweep", "--surface", "polar-plane", "--h-min", "1", "--h-max", "8",
             "--steps", "6", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0] == CSV_HEADER
        assert len(rows) - 1 == 6
        hs = [float(r[0]) for r in rows[1:]]
        assert hs == sorted(hs)
        mus = [float(r[1]) for r in rows[1:]]
        for h, m in zip(hs, mus):
            assert m == pytest.approx(2 * math.pi * h, abs=1e-8)

    def test_output_path_that_is_a_directory_exits_one(self, tmp_path, capsys):
        argv = ["sweep", "--surface", "flat-cylinder", "--out", str(tmp_path)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {tmp_path}: ")

    @pytest.mark.parametrize("kind", ["directory", "missing-parent"])
    def test_unwritable_output_fails_before_the_sweep(self, kind, tmp_path, capsys, monkeypatch):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        out = tmp_path if kind == "directory" else tmp_path / "missing" / "report.csv"
        assert main(["sweep", "--surface", "flat-cylinder", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")

    def test_existing_output_is_kept_when_the_sweep_fails(self, tmp_path, monkeypatch):
        # the early check opens the path for appending, which changes nothing
        def failing_sweep(*args, **kwargs):
            raise DomainError("the sweep failed")

        out = tmp_path / "report.csv"
        out.write_text("earlier report\n")
        monkeypatch.setattr(cli, "run_sweep", failing_sweep)
        assert main(["sweep", "--surface", "flat-cylinder", "--out", str(out)]) == 1
        assert out.read_text() == "earlier report\n"

    def test_numpy_schedule_csv_cells_are_numbers(self, zoo_reports):
        # the catenoid runs on an np.geomspace schedule
        rows = list(csv.reader(io.StringIO(report_to_csv(zoo_reports["catenoid"]))))
        assert rows[0] == CSV_HEADER
        for row in rows[1:]:
            for cell in row:
                float(cell)

    def test_csv_is_the_bytes_of_csv_writer(self):
        # report_to_csv joins the reprs; csv.writer would quote a field
        # holding a comma, a quote or a line break, which no float repr does
        edge = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]
        samples = tuple(TruncationSample(*edge[i:], *edge[:i]) for i in range(len(edge)))
        report = SweepReport("hand-built", 1, samples, None, None, None, None, "none", {})
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for s in samples:
            writer.writerow(
                [repr(s.h), repr(s.mu), repr(s.lam), repr(s.c_trunc),
                 repr(s.quad_error), repr(s.gb_residual)]
            )
        assert report_to_csv(report) == buffer.getvalue()
        header_only = report._replace(samples=())
        assert report_to_csv(header_only) == ",".join(CSV_HEADER) + "\n"

    def test_json_artifact_keys_and_round_trip(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            ["sweep", "--surface", "capped-cone", "--h-min", "1", "--h-max", "32",
             "--steps", "8", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        text = out.read_text()
        data = json.loads(text)
        assert list(data) == [
            "surface", "chi", "h1", "L", "L_error", "c_total", "samples", "verdicts",
        ]
        assert data["surface"] == "capped-cone"
        assert data["chi"] == 1
        assert len(data["samples"]) == 8
        assert set(data["samples"][0]) == {
            "h", "mu", "lambda", "c_trunc", "quad_error", "gb_residual",
        }
        assert list(data["verdicts"]) == [
            "gauss-bonnet-truncated", "lambda-mu-prime", "lambda-monotone", "L-nonneg",
            "c-total-consistency", "theorem", "corollary",
        ]
        # emitted floats survive a decode/encode/decode cycle bit-exactly
        again = json.loads(json.dumps(data))
        assert again == data

    def test_json_report_is_strict_json(self, capsys):
        # the polar plane's last mu, 2*pi*h at h = 1.8e308, is past double
        # range: the JSON report writes it as null, the CSV as inf
        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        args = ["sweep", "--surface", "polar-plane", "--h-max", "1.7976931348623157e308"]
        assert main([*args, "--format", "json", "--out", "-"]) == 0
        data = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert data["samples"][-1]["mu"] is None
        assert all(s["mu"] is not None for s in data["samples"][:-1])
        assert main([*args, "--format", "csv", "--out", "-"]) == 0
        assert capsys.readouterr().out.splitlines()[-1].split(",")[1] == "inf"


class TestVerify:
    def test_paraboloid_equality_margin(self, capsys):
        code = main(
            ["verify", "--surface", "paraboloid", "--h-min", "1",
             "--h-max", "1024", "--steps", "16"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "theorem" in out and "pass" in out

    def test_polar_plane_lemma_line(self, capsys):
        code = main(
            ["verify", "--surface", "polar-plane", "--h-min", "1",
             "--h-max", "64", "--steps", "10"]
        )
        out = capsys.readouterr().out
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("L-nonneg"))
        assert "pass" in line
        shown = float(line.split("L =")[1].strip())
        assert shown == pytest.approx(2 * math.pi, abs=1e-3)

    def test_unknown_surface_exit_one(self, capsys):
        assert main(["verify", "--surface", "nope"]) == 1

    @pytest.mark.parametrize("option", ["--h-min", "--h-max"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_height_exits_one(self, capsys, option, value):
        assert main(["verify", "--surface", "paraboloid", f"{option}={value}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {option[2:].replace('-', '_')} = {value} is not finite\n"

    @pytest.mark.parametrize(
        "heights",
        [
            ["--h-min", "0.5", "--h-max", "1e308"],  # h_max / h_min overflows
            ["--h-min", "1e-300", "--h-max", "1e300", "--strict"],
            ["--h-max", "1.7976931348623157e308"],  # the last power of the ratio overflows
        ],
    )
    def test_schedule_near_the_float_range_gives_a_report(self, capsys, heights):
        assert main(["verify", "--surface", "polar-plane", *heights]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "all checks pass or are not applicable" in captured.out

# K < 0 below t = -5, where the end has shrunk by a factor of 3: every
# height of --h-min -9 --h-max -1 lies below 0
NEGATIVE_END_CONFIG = """\
[surface]
genus = 0
ends = 1
core = analytic:6.28204438609089

[end1]
g = (2 + tanh(t + 5))^2
t_min = -10
"""


class TestConfigFiles:
    def test_probe_ceiling_below_zero_ends(self, tmp_path, capsys):
        # a resolution of h_max/4096 < 0 never stopped the h1 bisection
        path = tmp_path / "neg.cfg"
        path.write_text(NEGATIVE_END_CONFIG)
        assert main(["verify", "--config", str(path), "--h-min", "-9", "--h-max", "-1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "all checks pass or are not applicable" in captured.out
        assert re.search(r"^theorem +pass ", captured.out, re.M)
        args = ["sweep", "--config", str(path), "--h-min", "-9", "--h-max", "-1",
                "--format", "json", "--out", "-"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out)["h1"] == -5.0

    def test_cusp_config_loads(self, tmp_path):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG)
        model = load_surface_config(path)
        assert model.name == "my-cusp"
        assert model.chi == 1
        assert isinstance(model.core, AnalyticCore)
        assert model.core.total_curvature == pytest.approx(4 * math.pi)
        assert model.ends[0].g(1.0, 0.0) == pytest.approx(math.exp(-2.0))

    def test_unused_hypothesis_hint_key_still_loads(self, tmp_path):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG.replace("chi = 1\n", "chi = 1\nhypothesis_hint = 0.5\n"))
        assert load_surface_config(path).name == "my-cusp"

    def test_polar_cap_core(self, tmp_path):
        path = tmp_path / "plane.cfg"
        path.write_text(
            "[surface]\ngenus = 0\nends = 1\ncore = polar-cap\n\n[end1]\ng = t^2\n"
        )
        model = load_surface_config(path)
        assert isinstance(model.core, PolarCap)

    def test_chi_consistency_enforced(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "[surface]\ngenus = 0\nends = 1\nchi = 0\ncore = polar-cap\n\n[end1]\ng = t^2\n"
        )
        with pytest.raises(InputError):
            load_surface_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_analytic_core_exits_one(self, tmp_path, capsys, value):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG.replace("12.566370614359172", value))
        with pytest.raises(InputError, match="not finite"):
            load_surface_config(path)
        assert main(["sweep", "--config", str(path), "--format", "json", "--out", "-"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not finite" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_t_min_exits_one(self, tmp_path, capsys, value):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG.replace("t_min = 0.0", f"t_min = {value}"))
        with pytest.raises(InputError, match=rf"\[end1\] t_min {value} is not finite"):
            load_surface_config(path)
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "[end1] t_min" in captured.err

    @pytest.mark.parametrize(
        "old,new,where",
        [
            ("t_min = 0.0", "t_min = abc", "[end1] t_min 'abc'"),
            ("chi = 1", "chi = one", "[surface] chi 'one'"),
        ],
        ids=["t_min", "chi"],
    )
    def test_non_numeric_value_names_file_and_section(self, tmp_path, capsys, old, new, where):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG.replace(old, new))
        with pytest.raises(InputError, match=r"^config .*cusp\.cfg: \["):
            load_surface_config(path)
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: config {path}: {where} is not a valid" in captured.err

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf-8"])
    def test_unreadable_config_names_its_path(self, tmp_path, capsys, kind):
        path = tmp_path / "surface.cfg"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf-8":
            path.write_bytes(CUSP_CONFIG.encode("utf-16"))
        with pytest.raises(InputError, match="^cannot read config "):
            load_surface_config(path)
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read config {path}: ")

    def test_malformed_expression_exits_one(self, tmp_path, capsys):
        path = tmp_path / "broken.cfg"
        path.write_text(
            "[surface]\ngenus = 0\nends = 1\ncore = polar-cap\n\n[end1]\ng = 1 + * 2\n"
        )
        assert main(["sweep", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: config {path}: [end1] g: expected a value, got '*' (at byte offset 4)\n"
        )

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("g = exp(-2*t)", "g = t^2 % 3", "unexpected character '%'"),
            ("t_min = 0.0", "t_min = 0.0 %", "[end1] t_min '0.0 %' is not a valid float"),
        ],
        ids=["g", "t_min"],
    )
    def test_percent_is_read_verbatim(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG.replace(old, new))
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert message in captured.err
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "old,new,message",
        [
            ("ends = 1", "ends = 0", "a noncompact surface needs at least one end"),
            ("genus = 0", "genus = -1", "genus must be nonnegative"),
        ],
        ids=["no-ends", "negative-genus"],
    )
    def test_impossible_topology_exits_one(self, tmp_path, capsys, old, new, message):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG.replace(old, new).replace("chi = 1\n", ""))
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "genus,end,message",
        [
            (0, "g = t^2\nt_min = 1\n", "PolarCap requires the chart to start at t = 0"),
            (1, "g = t^2\n", "PolarCap core implies genus 0 (chi = 1)"),
            (0, "g = 4*t\n", "polar cap: sqrt(G) does not vanish linearly at the pole"),
            (0, "g = (t + 8000*t^2)^2\n", "polar cap: d/dt sqrt(G) at the pole is 1.016000"),
        ],
        ids=["t_min", "genus", "not-linear", "slope"],
    )
    def test_polar_cap_violation_exits_one(self, tmp_path, capsys, genus, end, message):
        path = tmp_path / "cap.cfg"
        path.write_text(f"[surface]\ngenus = {genus}\nends = 1\ncore = polar-cap\n\n[end1]\n{end}")
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "extra,where",
        [
            ("\n[end2]\ng = t^2\n", "unknown section 'end2'"),
            ("\n[edn3]\ng = 1\n", "unknown section 'edn3'"),
            ("t_mn = 0.5\n", "[end1] unknown key 't_mn'"),
            ("\n[surface ]\ng = 1\n", "unknown section 'surface '"),
        ],
        ids=["end-beyond-count", "misspelled-section", "misspelled-end-key", "near-miss-section"],
    )
    def test_stray_section_or_key_exits_one(self, tmp_path, capsys, extra, where):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG + extra)
        with pytest.raises(InputError):
            load_surface_config(path)
        assert main(["sweep", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config {path}: {where}\n"

    def test_section_name_with_a_line_separator_stays_on_one_line(self, tmp_path, capsys):
        # str.splitlines() breaks at U+2028; the name is written escaped
        path = tmp_path / "sep.cfg"
        path.write_text(CUSP_CONFIG + "\n[x\u2028y]\ng = 1\n", encoding="utf-8")
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err == f"error: config {path}: unknown section 'x\\u2028y'\n"

    def test_misspelled_surface_key_exits_one(self, tmp_path, capsys):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG.replace("name = my-cusp", "nmae = x"))
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config {path}: [surface] unknown key 'nmae'\n"

    @pytest.mark.parametrize("body", ["t_min = 0.5\n", ""], ids=["with-key", "empty"])
    def test_default_section_is_a_stray_section(self, tmp_path, capsys, body):
        # configparser would copy [DEFAULT] keys into every section; here
        # it is one more section that the format does not have
        path = tmp_path / "cusp.cfg"
        path.write_text(f"[DEFAULT]\n{body}\n" + CUSP_CONFIG)
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: config {path}: unknown section 'DEFAULT'\n"

    def test_keys_are_case_insensitive_sections_are_not(self, tmp_path):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG.replace("t_min", "T_MIN"))
        assert load_surface_config(path).ends[0].t_min == 0.0
        path.write_text(CUSP_CONFIG.replace("[end1]", "[End1]"))
        with pytest.raises(InputError, match=r"lacks section \[end1\]"):
            load_surface_config(path)

    @pytest.mark.parametrize(
        "text,line,reason",
        [
            ("genus = 0\n" + CUSP_CONFIG, 1, "'genus = 0' comes before the first [section] header"),
            (
                CUSP_CONFIG.replace("genus = 0", "genus 0"),
                3,
                "'genus 0' is neither a [section] header nor 'key = value'",
            ),
            (CUSP_CONFIG + "\n[end1]\nt_min = 1\n", 12, "section 'end1' appears twice"),
            (
                CUSP_CONFIG.replace("ends = 1\n", "ends = 1\nENDS = 1\n"),
                5,
                "key 'ends' appears twice in section 'surface'",
            ),
        ],
        ids=["no-header", "no-delimiter", "duplicate-section", "duplicate-key"],
    )
    def test_parse_error_is_one_line_naming_path_and_line(
        self, tmp_path, capsys, text, line, reason
    ):
        path = tmp_path / "cusp.cfg"
        path.write_text(text)
        assert main(["verify", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot parse config {path}: line {line}: {reason}\n"

    def test_byte_order_mark_is_dropped(self, tmp_path):
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(CUSP_CONFIG)
        marked.write_bytes(CUSP_CONFIG.encode("utf-8-sig"))
        a, b = load_surface_config(plain), load_surface_config(marked)
        assert (a.name, a.genus, a.core, a.chi) == (b.name, b.genus, b.core, b.chi)
        assert [e.t_min for e in a.ends] == [e.t_min for e in b.ends]
        for t in (0.0, 0.5, 3.0):
            assert a.ends[0].g(t, 0.0) == b.ends[0].g(t, 0.0)

    @pytest.mark.parametrize("genus", [0, 1])
    def test_corollary_not_certified_over_analytic_core(self, tmp_path, capsys, genus):
        # w = t + 0.5*log(1+t) has K >= 0 on the end, but the core value
        # 2*pi*chi - lambda(1) carries negative curvature that no probe sees
        chi = 1 - 2 * genus
        core = 2 * math.pi * chi - 2 * math.pi * 1.25
        path = tmp_path / "log-end.cfg"
        path.write_text(
            f"[surface]\ngenus = {genus}\nends = 1\ncore = analytic:{core!r}\n\n"
            "[end1]\ng = (t + 0.5*log(1+t))^2\nt_min = 1\n"
        )
        assert main(["verify", "--config", str(path), "--strict"]) == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("corollary")
        )
        assert line.split()[1] == "not-applicable"
        assert "analytic core is never sampled" in line

    def test_corollary_not_certified_over_negative_samples(self, tmp_path, capsys):
        # w = t + 0.5*t^3/(0.25 + t^2) closes smoothly at the pole, but
        # K < 0 on (0, 0.866), where the head band's nodes read it
        path = tmp_path / "cap.cfg"
        path.write_text(
            "[surface]\ngenus = 0\nends = 1\ncore = polar-cap\n\n"
            "[end1]\ng = (t + 0.5*t^3/(0.25 + t^2))^2\n"
        )
        assert main(["verify", "--config", str(path), "--strict"]) == 0
        line = next(
            l for l in capsys.readouterr().out.splitlines() if l.startswith("corollary")
        )
        assert line.split()[1] == "not-applicable"
        assert "not nonnegative" in line

    def test_far_chart_edge_gives_a_report(self, tmp_path, capsys):
        # the improper windows t_min + 2^k round back to t_min = 1e17
        path = tmp_path / "far.cfg"
        path.write_text(
            "[surface]\ngenus = 0\nends = 1\ncore = analytic:6.283185307179586\n\n"
            "[end1]\ng = 1\nt_min = 1e17\n"
        )
        assert main(["verify", "--config", str(path), "--h-min", "1e17", "--h-max", "4e17"]) == 0
        captured = capsys.readouterr()
        assert "Traceback" not in captured.err
        assert "theorem" in captured.out

    def test_infinite_span_exits_one(self, tmp_path, capsys):
        # h_max - t_min overflows to inf, a span the schedule check refuses
        path = tmp_path / "wide.cfg"
        path.write_text(
            "[surface]\ngenus = 0\nends = 1\ncore = analytic:6.283185307179586\n\n"
            "[end1]\ng = 1\nt_min = -1e308\n"
        )
        assert main(["verify", "--config", str(path), "--h-min", "1", "--h-max", "1e308"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert len(captured.err.splitlines()) == 1
        assert "not finite" in captured.err

    def test_divergent_end_reported_not_crashed(self, tmp_path, capsys):
        path = tmp_path / "flared.cfg"
        path.write_text(DIVERGENT_CONFIG)
        code = main(
            ["sweep", "--config", str(path), "--h-min", "0.5", "--h-max", "2",
             "--steps", "5", "--format", "json", "--out", "-"]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert "does not converge" in data["c_total"]
        assert "-inf" in data["c_total"]

    def test_resolve_surface_prefers_config(self, tmp_path):
        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG)
        model = resolve_surface(None, str(path))
        assert model.name == "my-cusp"
        with pytest.raises(InputError):
            resolve_surface(None, None)

    def test_user_config_reproduces_builtin_surface(self, tmp_path):
        # the DSL route must agree with the closed-form zoo charts
        from cvlab.sweep import run_sweep
        from cvlab.zoo import zoo_entry

        path = tmp_path / "cusp.cfg"
        path.write_text(CUSP_CONFIG)
        schedule = [0.5, 1.0, 2.0, 4.0, 8.0]
        user = run_sweep(load_surface_config(path), schedule)
        builtin = run_sweep(zoo_entry("cusp-cap").model, schedule)
        for a, b in zip(user.samples, builtin.samples):
            assert a.mu == pytest.approx(b.mu, rel=1e-10)
            assert a.lam == pytest.approx(b.lam, rel=1e-10)
            assert a.c_trunc == pytest.approx(b.c_trunc, rel=1e-9)
        assert user.c_total == pytest.approx(builtin.c_total, abs=1e-8)


def reference_parser() -> configparser.ConfigParser:
    return configparser.ConfigParser(
        inline_comment_prefixes=(";", "#"), interpolation=None, default_section=""
    )


def configparser_sections(text: str, parser=None) -> dict | None:
    """The reference reader: what the standard library's ConfigParser, set
    up as ``cli._read_sections`` documents, reads from ``text``, or None
    where it refuses the text.  A given ``parser`` is emptied first: reusing
    one saves building it, which costs more than reading a short text."""
    if parser is None:
        parser = reference_parser()
    for name in parser.sections():
        parser.remove_section(name)
    try:
        parser.read_string(text)
    except configparser.Error:
        return None
    return {name: dict(parser[name]) for name in parser.sections()}


def reader_sections(text: str) -> dict | None:
    try:
        return cli._read_sections(text, "drawn.cfg")
    except InputError:
        return None


_LINES = (
    "[s]", "[t]", "[ e2 ] junk", "[DEFAULT]", "[]", "[a]b]", "[a", "k = v", "K: 1;x",
    "k = xy#z #w ;v", "a = b", "b=", "=v", ": v", "k", "key = a ; c", "k=v#c",
    "; comment", "# comment", "x : y = z", "k = [s]", "a\x0cb = c", "k = a\u2028b",
)
_CHARS = "=:;#[] \t\n\x0c\u2028abK"


def _draw_config_text(rng: random.Random) -> str:
    """Whole lines from ``_LINES`` and strings over ``_CHARS``, indented at random."""
    lines = ["[s]"] if rng.random() < 0.7 else []
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            line = rng.choice(_LINES)
        else:
            line = "".join(rng.choices(_CHARS, k=rng.randint(0, 10)))
        lines.append(rng.choice(("", "", " ", "  ", "\t")) + line)
    return "\n".join(lines)


class TestConfigReader:
    """``cli._read_sections`` keeps the grammar of the standard library's
    ConfigParser on Python 3.10-3.12: one example per rule here, and a
    comparison on drawn texts where that ConfigParser is the reference."""

    @pytest.mark.parametrize(
        "text,sections",
        [
            # "=" or ":" splits at the first of either; the key is right-stripped
            # and lowercased, the value stripped
            (
                "[s]\nK: 1;x\nx : y = z\nA = b : c\n",
                {"s": {"k": "1;x", "x": "y = z", "a": "b : c"}},
            ),
            # full-line comments, indented or not
            ("[s]\n  ; a = b\n# c = d\nk = v\n", {"s": {"k": "v"}}),
            # an inline prefix counts at column 0 or after whitespace, found in
            # rounds: the first ";" counts before the second "#"
            (
                "[s]\nk = xy#z #w ;v\na = b ;c\nc = d;e#f\n",
                {"s": {"k": "xy#z #w", "a": "b", "c": "d;e#f"}},
            ),
            # deeper-indented lines continue a value; blank lines inside are kept,
            # trailing ones dropped, and a comment line adds nothing
            ("[s]\nc = a\n  b\n\n  d\n  ; e\n\n", {"s": {"c": "a\nb\n\nd"}}),
            # a header runs to the last "]"; section names keep their case and
            # spaces, and [DEFAULT] is an ordinary section
            (
                "[ e2 ] junk\nk = v\n[a]b]\n[DEFAULT]\n[S]\n",
                {" e2 ": {"k": "v"}, "a]b": {}, "DEFAULT": {}, "S": {}},
            ),
            # lines end at "\n" only
            ("[s]\nk = a\u2028b\nc = d\x0ce\x85\n", {"s": {"k": "a\u2028b", "c": "d\x0ce"}}),
            ("", {}),
        ],
        ids=["delimiters", "full-line-comments", "inline-comments", "continuation", "headers",
             "line-ends", "empty"],
    )
    def test_rule(self, text, sections):
        assert cli._read_sections(text, "rule.cfg") == sections
        if sys.version_info < (3, 13):
            assert configparser_sections(text) == sections

    @pytest.mark.parametrize(
        "text,line",
        [
            ("k = v\n[s]\n", 1),  # text before the first header
            ("[s]\nk = v\nk v\n", 3),  # neither a header nor key = value
            ("[s]\n  = v\n", 2),  # an empty key
            ("[]\n", 1),  # "[]" is no header
            ("[s]\n[t]\n[s]\n", 3),  # a duplicate section
            ("[s]\nk = 1\nK: 2\n", 3),  # a duplicate key
        ],
        ids=["before-header", "no-delimiter", "empty-key", "empty-header", "duplicate-section",
             "duplicate-key"],
    )
    def test_refused(self, text, line):
        with pytest.raises(InputError, match=rf"^cannot parse config refused\.cfg: line {line}: "):
            cli._read_sections(text, "refused.cfg")
        assert configparser_sections(text) is None

    @pytest.mark.skipif(
        sys.version_info >= (3, 13), reason="ConfigParser cuts inline comments otherwise from 3.13"
    )
    def test_matches_configparser_on_drawn_texts(self):
        rng, parser = random.Random(20251), reference_parser()
        accepted = 0
        for _ in range(20_000):
            text = _draw_config_text(rng)
            expected = configparser_sections(text, parser)
            assert reader_sections(text) == expected, repr(text)
            accepted += expected is not None
        assert accepted > 2_000  # both outcomes are well represented


class TestUsageErrors:
    """argparse errors are bad input: exit 1 with one ``error:`` line."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--surface", "paraboloid", "--steps", "abc"],
             "argument --steps: invalid int value: 'abc'"),
            (["sweep", "--surface", "paraboloid", "--h-min", "one"],
             "argument --h-min: invalid float value: 'one'"),
            (["sweep", "--surface", "paraboloid", "--format", "xml"],
             "argument --format: invalid choice: 'xml'"),
            (["sweep", "--surface", "paraboloid", "--no-such-flag"],
             "unrecognized arguments: --no-such-flag"),
            (["verify", "--surface", "paraboloid", "--out", "v.json"],
             "unrecognized arguments: --out v.json"),
            (["verify", "--surface", "paraboloid", "--format", "json"],
             "unrecognized arguments: --format json"),
            ([], "the following arguments are required: command"),
            (["moebius"], "argument command: invalid choice: 'moebius'"),
        ],
        ids=["bad-int", "bad-float", "bad-choice", "unknown-flag", "verify-out",
             "verify-format", "no-subcommand", "unknown-subcommand"],
    )
    def test_usage_error_exits_one(self, capsys, monkeypatch, argv, message):
        def no_sweep(*args, **kwargs):
            raise AssertionError("a usage error ran a sweep")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert len(captured.err.splitlines()) == 1

    def test_verify_writes_no_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--surface", "paraboloid", "--format", "json", "--out", "v.json"]) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"], ["verify", "--help"]])
    def test_help_exits_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cvlab")


class TestRunConfig:
    def test_invariants(self):
        with pytest.raises(InputError):
            RunConfig(surface="x", h_min=2.0, h_max=1.0)
        with pytest.raises(InputError):
            RunConfig(surface="x", steps=2)
        with pytest.raises(InputError):
            RunConfig(surface="x", abs_tol=0.0)
        with pytest.raises(InputError):
            RunConfig(surface="x", output_format="xml")

    def test_schedule_is_increasing_and_hits_endpoints(self):
        config = RunConfig(surface="x", h_min=1.0, h_max=64.0, steps=12)
        schedule = config.schedule()
        assert len(schedule) == 12
        assert schedule[0] == pytest.approx(1.0)
        assert schedule[-1] == 64.0
        assert all(b > a for a, b in zip(schedule, schedule[1:]))

    @pytest.mark.parametrize(
        "h_min, h_max", [(0.5, 1e308), (1e-300, 1e300), (5e-324, 1.0), (1.0, 1.7976931348623157e308)]
    )
    def test_schedule_past_double_range_keeps_its_endpoints(self, h_min, h_max):
        schedule = RunConfig(surface="x", h_min=h_min, h_max=h_max, steps=12).schedule()
        assert len(schedule) == 12
        assert (schedule[0], schedule[-1]) == (h_min, h_max)
        assert all(b > a for a, b in zip(schedule, schedule[1:]))
        assert all(map(math.isfinite, schedule))

    def test_schedule_keeps_the_geometric_formula(self):
        # the heights perfbench and the tests sweep keep their bits
        ratio = (64.0 / 1.0) ** (1.0 / 11)
        want = [1.0 * ratio**i for i in range(11)] + [64.0]
        assert RunConfig(surface="x", h_min=1.0, h_max=64.0, steps=12).schedule() == want


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "cvlab.cli", "list"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 6
