"""Tests for the command-line driver (the Figure 1.1 flow)."""

import re

import pytest

from repro.cli import main, run_flow
from repro.core.errors import RsgError
from repro.layout import flatten_cell, read_cif
from repro.multiplier import MULTIPLIER_SAMPLE, DESIGN_FILE, PARAMETER_FILE


@pytest.fixture
def flow_files(tmp_path):
    sample = tmp_path / "mult.sample"
    sample.write_text(MULTIPLIER_SAMPLE)
    design = tmp_path / "mult.design"
    design.write_text(DESIGN_FILE)
    output = tmp_path / "mult.cif"
    parameter = tmp_path / "mult.par"
    parameter.write_text(
        f".example_file:{sample}\n"
        f".concept_file:{design}\n"
        f".output_file:{output}\n"
        ".output_cell:thewholething\n"
        + PARAMETER_FILE.split("# Multiplier parameter file (after Appendix C).\n")[1]
        .replace("xsize=6", "xsize=3")
        .replace("ysize=6", "ysize=3")
    )
    return parameter, output


class TestRunFlow:
    def test_end_to_end(self, flow_files):
        parameter, output = flow_files
        cell = run_flow(str(parameter))
        assert cell.name == "thewholething"
        assert output.exists()
        table = read_cif(str(output))
        assert flatten_cell(table.lookup("thewholething")).same_geometry(
            flatten_cell(cell)
        )

    def test_overrides(self, flow_files):
        parameter, _ = flow_files
        cell = run_flow(str(parameter), overrides=["xsize=2", "ysize=2"])
        from repro.multiplier import report_for

        assert report_for(cell, 2, 2).basic_cells == 2 * 3

    def test_missing_directives(self, tmp_path):
        parameter = tmp_path / "bad.par"
        parameter.write_text("x=1\n")
        with pytest.raises(RsgError):
            run_flow(str(parameter))

    def test_svg_format(self, flow_files, tmp_path):
        parameter, output = flow_files
        svg_out = tmp_path / "out.svg"
        text = parameter.read_text().replace(
            f".output_file:{output}", f".output_file:{svg_out}\n.format:svg"
        )
        parameter.write_text(text)
        run_flow(str(parameter))
        assert svg_out.read_text().startswith("<svg")


class TestMain:
    def test_success_exit_code(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter)]) == 0
        captured = capsys.readouterr()
        assert "generated cell 'thewholething'" in captured.out

    def test_set_flag(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--set", "xsize=2", "--set", "ysize=2"]) == 0

    @pytest.mark.parametrize(
        "override,message",
        [
            ("xsize=--5", "bad parameter value '--5'"),
            ("x=\u00b2", "bad parameter value '\u00b2'"),
            ("x.1=--5", "indexed bindings take integer values, got '--5'"),
        ],
    )
    def test_digit_like_set_value_is_a_parse_error(
        self, flow_files, capsys, override, message
    ):
        """A value ``str.isdigit`` admits but ``int`` rejects exits 3
        with the parameter file's line, not 70 as an internal error."""
        parameter, _ = flow_files
        assert main([str(parameter), "--set", override]) == 3
        err = capsys.readouterr().err
        assert re.search(r"error: line \d+: ", err)
        assert message in err
        assert "internal error" not in err

    @pytest.mark.parametrize("form", ['(abs 1 2)', '(+ 1 "a")', '(+ 1 2 "a")', '(- 1 "a")'])
    def test_design_arithmetic_error_is_a_design_error(self, flow_files, capsys, form):
        """A bad operand in the design file exits 3 with its line, not
        70 as an internal error."""
        parameter, _ = flow_files
        design = parameter.parent / "mult.design"
        design.write_text(design.read_text() + form + "\n")
        lines = design.read_text().count("\n")
        assert main([str(parameter)]) == 3
        err = capsys.readouterr().err
        assert f"error: line {lines}: " in err
        assert "internal error" not in err

    def test_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.par"
        bad.write_text("x=1\n")
        assert main([str(bad)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_render_flag(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--render"]) == 0
        assert "scale 1:" in capsys.readouterr().out


class TestCompactFlags:
    def test_compact_reports_bellman_ford(self, flow_files, capsys):
        parameter, output = flow_files
        assert main([str(parameter), "--compact", "x"]) == 0
        out = capsys.readouterr().out
        assert "compacted x: width" in out
        assert "(bellman-ford: " in out
        assert output.exists()

    def test_compact_both_axes(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "xy"]) == 0
        out = capsys.readouterr().out
        assert "compacted x: width" in out
        assert "compacted y: width" in out

    @pytest.mark.parametrize("verb", [[], ["submit"]], ids=["flow", "submit"])
    def test_no_solver_option(self, capsys, verb):
        with pytest.raises(SystemExit) as excinfo:
            main(verb + ["--help"])
        assert excinfo.value.code == 0
        assert "--solver" not in capsys.readouterr().out

    def test_tech_with_verify_accepted(self, flow_files, capsys):
        # verification expands masks with the chosen rule set
        parameter, _ = flow_files
        assert main([str(parameter), "--tech", "B", "--verify", "all"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_tech_with_compact_accepted(self, flow_files, capsys):
        parameter, output = flow_files
        assert main([str(parameter), "--tech", "B", "--compact", "x"]) == 0
        assert "compacted x: width" in capsys.readouterr().out
        assert output.exists()

    def test_tech_alone_rejected(self, flow_files, capsys):
        parameter, _ = flow_files
        with pytest.raises(SystemExit) as excinfo:
            main([str(parameter), "--tech", "B"])
        assert excinfo.value.code == 2
        assert "--verify" in capsys.readouterr().err

    def test_bad_axes_via_run_flow(self, flow_files):
        parameter, _ = flow_files
        with pytest.raises(RsgError):
            run_flow(str(parameter), compact_axes="z")


class TestHierarchicalFlags:
    def test_hier_mode_prints_report(self, flow_files, capsys):
        parameter, output = flow_files
        assert main([str(parameter), "--compact", "hier"]) == 0
        out = capsys.readouterr().out
        assert "hierarchical compaction:" in out
        assert "distinct leaf cell(s)" in out
        assert output.exists()

    def test_hier_axes_variant_runs_both_passes(self, flow_files, capsys):
        """hier:xy compacts each leaf in x then y; output still writes."""
        parameter, output = flow_files
        assert main([str(parameter), "--compact", "hier:xy"]) == 0
        assert "hierarchical compaction:" in capsys.readouterr().out
        xy_bytes = output.read_bytes()
        assert main([str(parameter), "--compact", "hier"]) == 0
        assert output.read_bytes() != xy_bytes  # the y pass did something

    def test_bad_hier_axes_via_run_flow(self, flow_files):
        parameter, _ = flow_files
        with pytest.raises(RsgError, match="hier"):
            run_flow(str(parameter), compact_axes="hier:z")

    def test_cache_dir_hits_on_second_run(self, flow_files, tmp_path, capsys):
        parameter, _ = flow_files
        cache_dir = str(tmp_path / "rsgcache")
        assert main(
            [str(parameter), "--compact", "hier", "--cache-dir", cache_dir]
        ) == 0
        first = capsys.readouterr().out
        assert " miss(es)" in first
        assert main(
            [str(parameter), "--compact", "hier", "--cache-dir", cache_dir]
        ) == 0
        second = capsys.readouterr().out
        assert ", 0 miss(es)" in second  # leading boundary: "10 miss(es)" must fail
        assert "from disk" in second

    def test_cache_dir_with_flat_compaction(self, flow_files, tmp_path, capsys):
        parameter, _ = flow_files
        cache_dir = str(tmp_path / "flatcache")
        assert main(
            [str(parameter), "--compact", "x", "--cache-dir", cache_dir]
        ) == 0
        assert main(
            [str(parameter), "--compact", "x", "--cache-dir", cache_dir]
        ) == 0
        assert "1 hits (1 from disk)" in capsys.readouterr().out

    def test_warm_cache_output_byte_identical_to_cold(self, flow_files, tmp_path):
        parameter, output = flow_files
        cache_dir = str(tmp_path / "rsgcache")
        assert main([str(parameter), "--compact", "hier"]) == 0
        uncached = output.read_bytes()
        for _ in ("cold", "warm"):
            assert main(
                [str(parameter), "--compact", "hier", "--cache-dir", cache_dir]
            ) == 0
            assert output.read_bytes() == uncached

    @pytest.mark.parametrize(
        "flags", [["--compact", "hier", "--jobs", "2"], ["--jobs", "1"]]
    )
    def test_jobs_option_is_unrecognized(self, flow_files, capsys, flags):
        """Hierarchical compaction has one serial path and no --jobs."""
        parameter, _ = flow_files
        with pytest.raises(SystemExit) as excinfo:
            main([str(parameter), *flags])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --jobs" in capsys.readouterr().err

    def test_cache_dir_without_compact_rejected(self, flow_files, capsys):
        parameter, _ = flow_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--cache-dir", "/tmp/nope"])
        assert "--compact" in capsys.readouterr().err

    def test_hier_geometry_matches_direct_pipeline(self, flow_files):
        from repro.compact import TECH_A, HierarchicalCompactor
        from repro.layout import flatten_cell

        parameter, _ = flow_files
        plain = run_flow(str(parameter))
        via_cli = run_flow(str(parameter), compact_axes="hier")
        oracle = HierarchicalCompactor(TECH_A).compact(plain)
        assert flatten_cell(via_cli).same_geometry(flatten_cell(oracle))


ROUTE_SAMPLE = """
cell ctrl
  box metal1 0 0 60 20
  port c0 7 20 metal1
  port c1 28 20 metal1
  port c2 49 20 metal1
end

cell dpath
  box metal1 0 0 60 20
  port k0 7 0 metal1
  port k1 28 0 metal1
  port k2 49 0 metal1
end
"""

ROUTE_DESIGN = """
(mk_instance a ctrl)
(mk_cell "solo" a)
"""

ROUTE_NETS = """
bottom ctrl
top dpath
net w0 ctrl/c0 dpath/k0
net w1 ctrl/c1 dpath/k1
net w2 ctrl/c2 dpath/k2
"""


@pytest.fixture
def route_files(tmp_path):
    sample = tmp_path / "blocks.sample"
    sample.write_text(ROUTE_SAMPLE)
    design = tmp_path / "blocks.design"
    design.write_text(ROUTE_DESIGN)
    netfile = tmp_path / "blocks.net"
    netfile.write_text(ROUTE_NETS)
    output = tmp_path / "routed.cif"
    parameter = tmp_path / "blocks.par"
    parameter.write_text(
        f".example_file:{sample}\n"
        f".concept_file:{design}\n"
        f".output_file:{output}\n"
    )
    return parameter, netfile, output


class TestRouteFlags:
    def test_route_composes_and_writes(self, route_files, capsys):
        parameter, netfile, output = route_files
        assert main([str(parameter), "--route", str(netfile)]) == 0
        out = capsys.readouterr().out
        assert "composed 'ctrl' + 'dpath'" in out
        assert "river" in out
        assert output.exists()
        table = read_cif(str(output))
        routed = table.lookup("solo_routed")
        assert {i.definition.name for i in routed.instances} == {
            "ctrl", "dpath", "solo_routed_wires",
        }

    def test_route_with_explicit_channel_router(self, route_files, capsys):
        parameter, netfile, _ = route_files
        assert main(
            [str(parameter), "--route", str(netfile), "--router", "channel"]
        ) == 0
        assert "channel" in capsys.readouterr().out

    def test_route_round_trip_via_run_flow(self, route_files):
        from repro.compact import TECH_A, check_layout
        from repro.route import RouteStyle, routed_netlist

        parameter, netfile, _ = route_files
        cell = run_flow(str(parameter), route_path=str(netfile))
        style = RouteStyle.single_layer(TECH_A)
        groups = routed_netlist(cell, style)
        assert groups == [
            ["ctrl/c0", "dpath/k0"],
            ["ctrl/c1", "dpath/k1"],
            ["ctrl/c2", "dpath/k2"],
        ]
        wires = next(i for i in cell.instances if i.name == "wires")
        layers = {}
        for layer_box in wires.definition.flatten():
            layers.setdefault(layer_box.layer, []).append(layer_box.box)
        assert check_layout(layers, TECH_A) == []

    def test_route_with_tech_accepted(self, route_files, capsys):
        parameter, netfile, output = route_files
        assert main([str(parameter), "--tech", "B", "--route", str(netfile)]) == 0
        assert "composed 'ctrl' + 'dpath'" in capsys.readouterr().out
        assert output.exists()

    def test_router_without_route_rejected(self, route_files, capsys):
        parameter, _, _ = route_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--router", "channel"])
        assert "--route" in capsys.readouterr().err

    def test_missing_net_file_is_an_error(self, route_files, capsys):
        from repro.cli import EXIT_IO

        parameter, _, _ = route_files
        assert main([str(parameter), "--route", "/nonexistent.net"]) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_route_with_compact_rejected(self, route_files, capsys):
        parameter, netfile, _ = route_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--compact", "x", "--route", str(netfile)])
        assert "cannot be combined" in capsys.readouterr().err
        with pytest.raises(RsgError, match="cannot be combined"):
            run_flow(str(parameter), compact_axes="x", route_path=str(netfile))

    def test_route_with_unknown_technology_rejected(self, route_files):
        parameter, netfile, _ = route_files
        with pytest.raises(RsgError, match="unknown technology"):
            run_flow(str(parameter), route_path=str(netfile), technology="C")


class TestVersionFlag:
    def test_version_prints_package_metadata(self, capsys):
        import repro

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert repro.__version__ in out
        assert "repro" in out

    def test_version_matches_metadata_when_installed(self):
        """Deployed copies answer from importlib.metadata; the source
        checkout falls back to the pyproject default."""
        import repro

        try:
            from importlib.metadata import version
            expected = version("repro-rsg")
        except Exception:
            expected = "1.0.0"
        assert repro.__version__ == expected


class TestVerifyFlags:
    def test_verify_all_on_multiplier_flow(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--verify", "all"]) == 0
        out = capsys.readouterr().out
        assert "verify thewholething (multiplier)" in out
        assert "result: PASS" in out
        assert "LVS match" in out

    def test_verify_lvs_only(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--verify", "lvs"]) == 0
        out = capsys.readouterr().out
        assert "LVS match" in out
        assert "simulation:" not in out

    def test_verify_sim_vectors_cap(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--verify", "sim", "--sim-vectors", "16"]) == 0
        out = capsys.readouterr().out
        assert "16 vectors (sampled)" in out

    def test_sim_vectors_without_verify_rejected(self, flow_files, capsys):
        parameter, _ = flow_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--sim-vectors", "8"])
        assert "--verify" in capsys.readouterr().err

    def test_sim_vectors_with_verify_lvs_rejected(self, flow_files, capsys):
        # LVS simulates nothing, so a vector cap would be silently ignored.
        parameter, _ = flow_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--verify", "lvs", "--sim-vectors", "8"])
        assert "--verify sim" in capsys.readouterr().err

    def test_verify_routed_composite_round_trips(self, route_files, capsys):
        parameter, netfile, _ = route_files
        assert main(
            [str(parameter), "--route", str(netfile), "--verify", "all"]
        ) == 0
        out = capsys.readouterr().out
        assert "routed composite" in out
        assert "0 mismatches" in out

    def test_routed_composite_summary_is_the_services(self, route_files, capsys):
        from repro.service.jobs import execute_job, spec_from_files

        parameter, netfile, _ = route_files
        assert main(
            [str(parameter), "--route", str(netfile), "--verify", "all"]
        ) == 0
        result = execute_job(spec_from_files(
            str(parameter), route_text=netfile.read_text(), verify="all",
        ))
        assert result.verification["ok"]
        assert result.verification["summary"] in capsys.readouterr().out.splitlines()

    def test_verify_failure_exits_nonzero(self, flow_files, capsys, monkeypatch):
        """A failing check must surface as a non-zero exit."""
        from repro.verify.driver import VerificationReport

        def broken(cell, **kwargs):
            report = VerificationReport(cell.name, "all")
            report.failures.append("injected failure")
            return report

        import repro.cli as cli_module
        import repro.verify as verify_module

        monkeypatch.setattr(verify_module, "verify_cell", broken)
        parameter, _ = flow_files
        from repro.cli import EXIT_VERIFY

        assert main([str(parameter), "--verify", "all"]) == EXIT_VERIFY
        assert "verification failed" in capsys.readouterr().err

    def test_bad_verify_mode_via_run_flow(self, flow_files):
        parameter, _ = flow_files
        with pytest.raises(RsgError, match="verify takes"):
            run_flow(str(parameter), verify_mode="everything")

    def test_sim_vectors_with_route_rejected(self, route_files, capsys):
        parameter, netfile, _ = route_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--route", str(netfile), "--verify", "all",
                  "--sim-vectors", "8"])
        assert "round-trip" in capsys.readouterr().err


class TestExitCodes:
    """Every failure family gets a one-line stderr diagnostic and its
    own exit code — the CLI exit-path audit."""

    def test_families_are_distinct(self):
        from repro.cli import (
            EXIT_ERROR, EXIT_INTERNAL, EXIT_IO, EXIT_PARSE, EXIT_SERVICE,
            EXIT_USAGE, EXIT_VERIFY,
        )

        codes = [EXIT_ERROR, EXIT_USAGE, EXIT_PARSE, EXIT_VERIFY, EXIT_IO,
                 EXIT_SERVICE, EXIT_INTERNAL]
        assert len(set(codes)) == len(codes)
        assert all(code != 0 for code in codes)

    def test_exit_code_for_table(self):
        from repro.cli import (
            EXIT_ERROR, EXIT_INTERNAL, EXIT_IO, EXIT_PARSE, EXIT_SERVICE,
            EXIT_VERIFY, exit_code_for,
        )
        from repro.core.errors import (
            ParseError, RsgError, ServiceError, VerificationError,
        )

        assert exit_code_for(ParseError("x")) == EXIT_PARSE
        assert exit_code_for(VerificationError("x")) == EXIT_VERIFY
        assert exit_code_for(ServiceError("x")) == EXIT_SERVICE
        assert exit_code_for(RsgError("x")) == EXIT_ERROR
        assert exit_code_for(OSError("x")) == EXIT_IO
        assert exit_code_for(ValueError("x")) == EXIT_INTERNAL

    @pytest.mark.parametrize("verify", ["lvs", "sim", "all"])
    @pytest.mark.parametrize("compact", ["x", "xy", "yx"])
    def test_masks_that_do_not_extract_exit_verify(self, flow_files, capsys, compact, verify):
        """A TECH_B multiplier compacted along x first, or after y, does
        not extract as a circuit: that fails verification (exit 4), not
        the program, whichever check asked for the circuit."""
        from repro.cli import EXIT_VERIFY

        parameter, _ = flow_files
        assert main([
            str(parameter), "--set", "xsize=4", "--set", "ysize=4",
            "--tech", "B", "--compact", compact, "--verify", verify,
        ]) == EXIT_VERIFY
        err = capsys.readouterr().err
        cell = "thewholething" + "_compacted" * len(compact)
        assert err.startswith(f"error: verification failed for '{cell}'")
        assert "extraction failed: channel region" in err

    def test_bad_parameter_syntax_exits_parse(self, tmp_path, capsys):
        from repro.cli import EXIT_PARSE

        bad = tmp_path / "bad.par"
        bad.write_text("this is not ; a = valid line !!\n")
        assert main([str(bad)]) == EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.strip().splitlines()) == 1

    def test_missing_parameter_file_exits_io(self, capsys):
        from repro.cli import EXIT_IO

        assert main(["/nonexistent/never.par"]) == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_unknown_tech_exits_generic(self, flow_files, capsys):
        from repro.cli import EXIT_SERVICE

        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "x", "--tech", "A",
                     ]) == 0
        capsys.readouterr()
        # run_flow-level check: tech validation happens past argparse
        from repro.cli import run_flow
        from repro.core.errors import RsgError

        with pytest.raises(RsgError):
            run_flow(str(parameter), compact_axes="x", technology="Z")
        from repro.cli import exit_code_for

        try:
            run_flow(str(parameter), compact_axes="x", technology="Z")
        except RsgError as error:
            assert exit_code_for(error) == EXIT_SERVICE

    def test_internal_errors_are_one_line_not_tracebacks(
        self, flow_files, capsys, monkeypatch
    ):
        from repro.cli import EXIT_INTERNAL

        import repro.cli as cli_module

        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli_module, "run_flow", explode)
        monkeypatch.delenv("REPRO_DEBUG", raising=False)
        parameter, _ = flow_files
        assert main([str(parameter)]) == EXIT_INTERNAL
        err = capsys.readouterr().err
        assert "internal error:" in err
        assert "Traceback" not in err

    def test_repro_debug_reraises_internal_errors(
        self, flow_files, capsys, monkeypatch
    ):
        import repro.cli as cli_module

        def explode(*args, **kwargs):
            raise ValueError("boom")

        monkeypatch.setattr(cli_module, "run_flow", explode)
        monkeypatch.setenv("REPRO_DEBUG", "1")
        parameter, _ = flow_files
        with pytest.raises(ValueError, match="boom"):
            main([str(parameter)])


class TestOnePipeline:
    """``repro`` and ``repro submit`` run one pipeline definition."""

    @pytest.mark.parametrize(
        "options",
        [{}, {"compact": "xy"}, {"compact": "hier:xy"}, {"verify": "all"}],
        ids=["plain", "xy", "hier-xy", "verify-all"],
    )
    def test_cli_cif_equals_the_submitted_jobs(self, flow_files, options):
        from repro.service.jobs import execute_job, spec_from_files

        parameter, output = flow_files
        argv = [str(parameter)]
        for name, value in options.items():
            argv += [f"--{name}", value]
        assert main(argv) == 0
        spec = spec_from_files(str(parameter), tech="A", **options)
        assert output.read_text() == execute_job(spec).cif

    def test_import_loads_no_service_sqlite_or_http_server(self):
        import subprocess
        import sys

        probe = (
            "import sys, repro.cli; print(sorted(m for m in sys.modules if"
            " m.startswith('repro.service') or m in ('sqlite3', 'http.server')))"
        )
        completed = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True,
        )
        assert completed.stdout.strip() == "[]"


class TestServiceVerbs:
    """The serve/submit dispatch (the service itself is tested in
    tests/test_service_*.py)."""

    def test_submit_unreachable_service_exits_service_code(
        self, flow_files, capsys
    ):
        from repro.cli import EXIT_SERVICE

        parameter, _ = flow_files
        code = main([
            "submit", str(parameter), "--kind", "multiplier",
            "--url", "http://127.0.0.1:9",  # port 9: discard, nothing listens
        ])
        assert code == EXIT_SERVICE
        assert "cannot reach layout service" in capsys.readouterr().err

    def test_submit_without_directives_needs_kind(self, tmp_path, capsys):
        from repro.cli import EXIT_SERVICE

        bare = tmp_path / "bare.par"
        bare.write_text("xsize=2\n")
        assert main(["submit", str(bare)]) == EXIT_SERVICE
        assert ".example_file" in capsys.readouterr().err

    def test_serve_rejects_bad_workers(self, capsys):
        with pytest.raises(SystemExit):
            main(["serve", "--workers", "0"])
        assert "at least 1" in capsys.readouterr().err

    def test_serve_help_mentions_store(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        assert "artifact store" in capsys.readouterr().out


_TREE_HEADER = re.compile(r"trace [0-9a-f]+  \(\d+ spans\)")
_TREE_ROW = re.compile(r"( *)(\S+)  (\d+\.\d{2}) ms(?:  !\w+)?(?:  \[(.*)\])?")


def _tree_rows(out):
    """The span tree printed in ``out`` as (depth, name, ms, attributes) rows."""
    lines = out.splitlines()
    header = next(i for i, line in enumerate(lines) if _TREE_HEADER.fullmatch(line))
    rows = []
    for line in lines[header + 1:]:
        match = _TREE_ROW.fullmatch(line)
        if match is None:
            break
        indent, name, ms, attributes = match.groups()
        rows.append((len(indent) // 2, name, float(ms), attributes or ""))
    return rows


def _children(rows, name):
    """The rows directly under the first ``name`` row, in printed order."""
    index = next(i for i, row in enumerate(rows) if row[1] == name)
    depth = rows[index][0]
    children = []
    for row in rows[index + 1:]:
        if row[0] <= depth:
            break
        if row[0] == depth + 1:
            children.append(row)
    return children


def _child_names(rows, name):
    return [row[1] for row in _children(rows, name)]


class TestTimingsFlag:
    """--timings prints the run's span tree through ``render_trace`` (the
    renderer ``repro trace`` uses): one ``repro.run`` root over the
    ``job.<stage>`` spans the layout service records per job, each
    parent closed by an ``(unattributed)`` line."""

    def test_prints_the_run_as_a_span_tree(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--timings"]) == 0
        rows = _tree_rows(capsys.readouterr().out)
        assert rows[0][:2] == (1, "repro.run")
        # The plain flow runs generate and emit after the lazy import of
        # the service pipeline; nothing else is a root.
        assert [row for row in rows if row[0] == 1] == rows[:1]
        assert _child_names(rows, "repro.run") == [
            "import.service", "job.generate", "job.emit", "(unattributed)",
        ]

    def test_includes_compact_stage_when_compacting(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "x", "--timings"]) == 0
        stages = _child_names(_tree_rows(capsys.readouterr().out), "repro.run")
        # Pipeline order is preserved in the printed tree.
        assert stages == [
            "import.service", "job.generate", "job.compact", "job.emit",
            "(unattributed)",
        ]

    def test_off_by_default(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter)]) == 0
        out = capsys.readouterr().out
        assert "seconds" not in out
        assert "(unattributed)" not in out and "repro.run" not in out

    @pytest.mark.parametrize(
        "flags",
        [["--compact", "xy"], ["--compact", "hier", "--verify", "lvs"],
         ["--verify", "all"]],
        ids=["xy", "hier-lvs", "verify-all"],
    )
    def test_output_is_render_trace_of_the_runs_spans(
        self, flow_files, capsys, monkeypatch, flags
    ):
        from repro.obs import render_trace
        from repro.obs import trace as obs_trace

        tracers = []

        class Recording(obs_trace.Tracer):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                tracers.append(self)

        monkeypatch.setattr(obs_trace, "Tracer", Recording)
        parameter, _ = flow_files
        assert main([str(parameter), *flags, "--timings"]) == 0
        out = capsys.readouterr().out
        (tracer,) = tracers
        assert out.endswith("instances\n" + render_trace(tracer.finished()) + "\n")

    def test_lists_the_route_stage_when_routing(self, route_files, capsys):
        parameter, netfile, _ = route_files
        assert main([str(parameter), "--route", str(netfile), "--timings"]) == 0
        stages = _child_names(_tree_rows(capsys.readouterr().out), "repro.run")
        assert stages == [
            "import.service", "job.generate", "job.route", "job.emit",
            "(unattributed)",
        ]

    def test_unattributed_line_closes_every_parent(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "xy", "--verify", "all",
                     "--timings"]) == 0
        rows = _tree_rows(capsys.readouterr().out)
        parents = [
            row[1] for row, following in zip(rows, rows[1:])
            if following[0] > row[0]
        ]
        assert parents == [
            "repro.run", "job.generate", "lang.eval", "job.compact", "job.verify",
            "verify.extract",
        ]
        for name in parents:
            names = _child_names(rows, name)
            assert names[-1] == "(unattributed)", name
            assert names.count("(unattributed)") == 1, name
        # One line per parent, none for a leaf.
        assert [row[1] for row in rows].count("(unattributed)") == len(parents)

    def test_every_executed_stage_is_listed_and_sums_to_total(
        self, flow_files, capsys
    ):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "x", "--verify", "lvs",
                     "--timings"]) == 0
        rows = _tree_rows(capsys.readouterr().out)
        stages = _children(rows, "repro.run")
        assert [row[1] for row in stages] == [
            "import.service", "job.generate", "job.compact", "job.verify",
            "job.emit", "(unattributed)",
        ]
        # The stages run one after another inside the root, so they and
        # the unattributed line sum to it, up to the 0.005 ms each
        # printed row rounds away.
        assert rows[0][2] == pytest.approx(
            sum(row[2] for row in stages), abs=0.005 * (len(stages) + 1) + 0.01
        )

    def test_verify_breakdown_rides_along_when_verifying(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--verify", "all", "--timings"]) == 0
        rows = _children(_tree_rows(capsys.readouterr().out), "job.verify")
        assert [row[1] for row in rows] == [
            "import.verify", "import.multiplier", "verify.collect",
            "verify.cellgraph", "verify.lvs", "verify.sim", "(unattributed)",
        ]
        assert re.fullmatch(r"rounds=\d+", rows[4][3]), rows[4]

    def test_compact_breakdown_rides_along_when_compacting(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "xy", "--timings"]) == 0
        rows = _children(_tree_rows(capsys.readouterr().out), "job.compact")
        # The compactor's import, one flatten for the chain, one solve per
        # pass, one output cell; a plain pass finds no alignment pairs.
        one_pass = [
            "compact.edges", "compact.constraints", "solver.solve", "compact.rebuild",
        ]
        assert [row[1] for row in rows] == (
            ["import.compact", "compact.flatten"] + one_pass * 2
            + ["compact.rebuild", "(unattributed)"]
        )
        assert re.fullmatch(r"modules=\d+", rows[0][3]), rows[0]
        attributes = dict((row[1], row[3]) for row in rows)
        assert re.fullmatch(r"boxes=\d+", attributes["compact.flatten"])
        assert re.fullmatch(r"variables=\d+ boxes=\d+", attributes["compact.edges"])
        assert re.fullmatch(r"constraints=\d+", attributes["compact.constraints"])

    def test_compact_sub_spans_cover_the_compact_stage(self, flow_files):
        """The flat pass's sub-spans account for >= 90% of job.compact on
        an 8x8 --compact xy (best of three runs: a scheduler stall between
        two spans is not a hot spot)."""
        from repro.obs import trace as obs_trace

        parameter, _ = flow_files
        stages = {
            "import.compact", "compact.flatten", "compact.edges",
            "compact.constraints", "solver.solve", "compact.rebuild",
        }
        coverage = 0.0
        for _ in range(3):
            tracer = obs_trace.Tracer()
            with obs_trace.activated(tracer):
                run_flow(
                    str(parameter), overrides=["xsize=8", "ysize=8"],
                    compact_axes="xy",
                )
            spans = tracer.finished()
            (stage,) = [span for span in spans if span.name == "job.compact"]
            children = [span for span in spans if span.parent_id == stage.span_id]
            assert {span.name for span in children} == stages
            # The import and one flatten for the chain, each other stage
            # once per pass, plus the output cell's rebuild.
            assert len(children) == 2 + 2 * (len(stages) - 2) + 1
            covered = sum(span.duration_s for span in children) / stage.duration_s
            coverage = max(coverage, covered)
            if coverage >= 0.9:
                break
        assert coverage >= 0.9, f"sub-spans cover {coverage:.0%} of job.compact"

    def test_generate_breakdown_rides_along(self, flow_files, capsys):
        """job.generate splits into the sample load, the compile (only
        when the design text is new to the process) and the evaluation,
        which holds one graph.expand per mk_cell."""
        from repro.lang.interpreter import _compile_program

        parameter, _ = flow_files
        _compile_program.cache_clear()
        for compiled in (["lang.compile"], []):
            assert main([str(parameter), "--timings"]) == 0
            rows = _tree_rows(capsys.readouterr().out)
            assert _child_names(rows, "job.generate") == [
                "sample.load", *compiled, "lang.eval", "(unattributed)",
            ]
            expansions = _children(rows, "lang.eval")
            assert [row[1] for row in expansions] == (
                ["graph.expand"] * 5 + ["(unattributed)"]
            )
            assert [row[3] for row in expansions[:-1]] == [
                "cell=rightregs", "cell=bottomregs", "cell=array",
                "cell=topregs", "cell=thewholething",
            ]

    def test_generate_sub_spans_cover_the_generate_stage(self, flow_files):
        """On a warm 8x8 job (design already compiled) the sample load
        and the evaluation account for >= 90% of job.generate (best of
        three runs, as for the compact stage)."""
        from repro.obs import trace as obs_trace

        parameter, _ = flow_files
        overrides = ["xsize=8", "ysize=8"]
        run_flow(str(parameter), overrides=overrides)
        coverage = 0.0
        for _ in range(3):
            tracer = obs_trace.Tracer()
            with obs_trace.activated(tracer):
                run_flow(str(parameter), overrides=overrides)
            spans = tracer.finished()
            (stage,) = [span for span in spans if span.name == "job.generate"]
            children = [span for span in spans if span.parent_id == stage.span_id]
            assert [span.name for span in children] == ["sample.load", "lang.eval"]
            covered = sum(span.duration_s for span in children) / stage.duration_s
            coverage = max(coverage, covered)
            if coverage >= 0.9:
                break
        assert coverage >= 0.9, f"sub-spans cover {coverage:.0%} of job.generate"

    def test_hier_compaction_opens_one_span_per_leaf(
        self, flow_files, capsys, tmp_path
    ):
        """Each unique leaf of the 3x3 multiplier is one compact.leaf row
        naming the cell; a second run through the same on-disk cache
        marks every one cached."""
        parameter, _ = flow_files
        leaves = ["basiccell", "type1", "phi2_1", "reg", "goboth"]
        for cached in (False, True):
            assert main([
                str(parameter), "--compact", "hier",
                "--cache-dir", str(tmp_path / "cache"), "--timings",
            ]) == 0
            rows = _children(_tree_rows(capsys.readouterr().out), "job.compact")
            assert rows[0][1] == "import.compact"
            assert [(row[1], row[3]) for row in rows[1:-1]] == [
                ("compact.leaf", f"cell={name} cached={cached}") for name in leaves
            ]
            assert rows[-1][1] == "(unattributed)"

    def test_solver_spans_show_passes_and_relaxations(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "x", "--timings"]) == 0
        out = capsys.readouterr().out
        (solve,) = [row for row in _tree_rows(out) if row[1] == "solver.solve"]
        # The one solver is implied: the backend attribute is not shown.
        assert re.fullmatch(
            r"passes=\d+ relaxations=\d+ variables=\d+", solve[3]
        ), solve
        assert "backend" not in out

    @staticmethod
    def _masked(out):
        return re.sub(r"\d+(\.\d+)?", "N", _TREE_HEADER.sub("trace ID", out))

    def test_structure_is_stable_under_trace_env(
        self, flow_files, capsys, monkeypatch
    ):
        """REPRO_TRACE steers only the service — it must not change what
        the CLI prints: the --timings tree up to its numbers and trace
        id, the plain output byte for byte."""
        parameter, _ = flow_files
        # The design text compiles once per process, so only a first
        # run shows a lang.compile row: warm up before comparing.
        assert main([str(parameter)]) == 0
        capsys.readouterr()
        shapes, plain = {}, {}
        for value in ("0", "1"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert main([str(parameter), "--compact", "x", "--timings"]) == 0
            shapes[value] = self._masked(capsys.readouterr().out)
            assert main([str(parameter)]) == 0
            plain[value] = capsys.readouterr().out
        assert "trace ID" in shapes["0"]
        assert shapes["0"] == shapes["1"]
        assert plain["0"] == plain["1"]

    def test_fresh_process_times_the_cli_import(self, flow_files):
        """``python -m repro`` starts the clock before it imports the
        CLI: the import is the root's first child, inside the root's
        interval, and ``repro.run`` covers it."""
        import subprocess
        import sys

        parameter, _ = flow_files
        completed = subprocess.run(
            [sys.executable, "-m", "repro", str(parameter), "--timings"],
            capture_output=True, text=True, check=True,
        )
        rows = _tree_rows(completed.stdout)
        root, first = rows[0], _children(rows, "repro.run")[0]
        assert (root[1], first[1]) == ("repro.run", "import.cli")
        assert 0.0 < first[2] <= root[2]

    def test_fresh_process_closes_each_stage_with_unattributed_time(
        self, flow_files
    ):
        """A fresh interpreter pays the lazy imports of the service
        pipeline and of ``repro.verify`` (in-process tests already hold
        them): each import is a row of its own, the tree still lists
        every stage and sub-stage, and each parent ends with the time
        none of its children covers."""
        import subprocess
        import sys

        parameter, _ = flow_files
        completed = subprocess.run(
            [sys.executable, "-m", "repro", str(parameter), "--verify", "all",
             "--timings"],
            capture_output=True, text=True, check=True,
        )
        rows = _tree_rows(completed.stdout)
        assert rows[0][1] == "repro.run"
        assert _child_names(rows, "repro.run") == [
            "import.cli", "import.service", "job.generate", "job.verify",
            "job.emit", "(unattributed)",
        ]
        assert _child_names(rows, "job.verify") == [
            "import.verify", "import.multiplier", "verify.collect",
            "verify.cellgraph", "verify.lvs", "verify.sim", "(unattributed)",
        ]
