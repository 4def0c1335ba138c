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
    @pytest.mark.parametrize("solver", ["bellman-ford", "topological", "incremental"])
    def test_compact_with_each_solver(self, flow_files, capsys, solver):
        parameter, output = flow_files
        assert main([str(parameter), "--compact", "x", "--solver", solver]) == 0
        out = capsys.readouterr().out
        assert "compacted x: width" in out
        assert solver in out
        assert output.exists()

    def test_compact_both_axes(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "xy"]) == 0
        out = capsys.readouterr().out
        assert "compacted x: width" in out
        assert "compacted y: width" in out

    def test_solvers_shrink_to_same_width(self, flow_files, capsys):
        parameter, _ = flow_files
        widths = set()
        for solver in ("bellman-ford", "topological"):
            assert main([str(parameter), "--compact", "x", "--solver", solver]) == 0
            line = next(
                line
                for line in capsys.readouterr().out.splitlines()
                if line.startswith("compacted x")
            )
            widths.add(line.split("(")[0])
        assert len(widths) == 1

    def test_unknown_solver_rejected_by_parser(self, flow_files):
        parameter, _ = flow_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--compact", "x", "--solver", "simplex"])

    def test_solver_without_compact_rejected(self, flow_files, capsys):
        parameter, _ = flow_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--solver", "topological"])
        assert "--compact" in capsys.readouterr().err

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

    def test_jobs2_output_byte_identical_to_serial(self, flow_files):
        """The acceptance smoke: --jobs 2 CIF == --jobs 1 CIF, byte for byte."""
        parameter, output = flow_files
        assert main([str(parameter), "--compact", "hier", "--jobs", "1"]) == 0
        serial = output.read_bytes()
        assert main([str(parameter), "--compact", "hier", "--jobs", "2"]) == 0
        assert output.read_bytes() == serial

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

    def test_jobs_without_hier_rejected(self, flow_files, capsys):
        parameter, _ = flow_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--jobs", "2"])
        assert "--compact hier" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main([str(parameter), "--compact", "x", "--jobs", "2"])

    def test_bad_jobs_rejected(self, flow_files, capsys):
        parameter, _ = flow_files
        with pytest.raises(SystemExit):
            main([str(parameter), "--compact", "hier", "--jobs", "0"])
        assert "at least 1" in capsys.readouterr().err

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
        with pytest.raises(RsgError, match="--verify takes"):
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
        from repro.cli import EXIT_ERROR

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
            assert exit_code_for(error) == EXIT_ERROR

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


class TestTimingsFlag:
    """--timings prints the per-stage wall-clock table run_flow records
    (the same stage names the layout service stores per job)."""

    def test_prints_stage_table(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--timings"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        header = next(i for i, line in enumerate(lines) if line.split() == ["stage", "seconds"])
        # The plain flow runs generate and emit; total closes the table.
        stages = [line.split()[0] for line in lines[header + 1:] if line.strip()]
        assert stages[0] == "generate"
        assert "emit" in stages
        assert stages[-1] == "total"

    def test_includes_compact_stage_when_compacting(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "x", "--timings"]) == 0
        out = capsys.readouterr().out
        stages = [line.split()[0] for line in out.splitlines() if line.strip()]
        assert "compact" in stages
        # Pipeline order is preserved in the printed table.
        assert stages.index("generate") < stages.index("compact") < stages.index("total")

    def test_off_by_default(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter)]) == 0
        out = capsys.readouterr().out
        assert "seconds" not in out

    def test_timings_table_shape(self):
        from repro.cli import timings_table

        table = timings_table({"generate": 0.5, "emit": 0.25})
        lines = table.splitlines()
        assert lines[0].split() == ["stage", "seconds"]
        assert lines[1].split() == ["generate", "0.500"]
        assert lines[2].split() == ["emit", "0.250"]
        assert lines[3].split() == ["total", "0.750"]

    def test_timings_table_keeps_unknown_stages(self):
        from repro.cli import timings_table

        table = timings_table({"generate": 0.1, "lint": 0.2})
        stages = [line.split()[0] for line in table.splitlines()]
        assert stages == ["stage", "generate", "lint", "total"]

    def test_timings_table_appends_extras_after_total(self):
        from repro.cli import timings_table

        table = timings_table({"generate": 0.1}, extras=("solver x: 1 solve(s)",))
        lines = table.splitlines()
        assert lines[-2].split()[0] == "total"
        assert lines[-1] == "solver x: 1 solve(s)"

    def _parse_table(self, out):
        """The printed table as (ordered stage->seconds dict, total)."""
        lines = out.splitlines()
        header = next(
            i for i, line in enumerate(lines) if line.split() == ["stage", "seconds"]
        )
        stages = {}
        total = None
        for line in lines[header + 1:]:
            parts = line.split()
            if len(parts) != 2:
                break
            if parts[0] == "total":
                total = float(parts[1])
                break
            stages[parts[0]] = float(parts[1])
        return stages, total

    def test_every_executed_stage_is_listed_and_sums_to_total(
        self, flow_files, capsys
    ):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "x", "--verify", "lvs",
                     "--timings"]) == 0
        stages, total = self._parse_table(capsys.readouterr().out)
        assert list(stages) == ["generate", "compact", "verify", "emit"]
        # Each printed row rounds to 3 decimals, so the reconstructed
        # sum can drift from the printed total by 0.5 ms per stage.
        assert total == pytest.approx(sum(stages.values()), abs=0.005)

    def test_solver_summary_rides_along_when_compacting(self, flow_files, capsys):
        parameter, _ = flow_files
        assert main([str(parameter), "--compact", "x", "--timings"]) == 0
        out = capsys.readouterr().out
        summary = [line for line in out.splitlines() if line.startswith("solver ")]
        assert summary, out
        assert re.search(
            r"solver bellman-ford: \d+ solve\(s\), \d+ pass\(es\),"
            r" \d+ relaxation\(s\) in \d+\.\d{3}s",
            summary[0],
        )

    @staticmethod
    def _masked(out):
        return re.sub(r"\d+(\.\d+)?", "N", out)

    def test_structure_is_stable_under_trace_env(
        self, flow_files, capsys, monkeypatch
    ):
        """REPRO_TRACE only decides *whether* spans are kept — it must
        not change what the CLI prints, with or without --timings."""
        parameter, _ = flow_files
        shapes = {}
        for value in ("0", "1"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert main([str(parameter), "--compact", "x", "--timings"]) == 0
            shapes[value] = self._masked(capsys.readouterr().out)
        assert shapes["0"] == shapes["1"]

    def test_plain_output_identical_under_trace_env(
        self, flow_files, capsys, monkeypatch
    ):
        parameter, _ = flow_files
        outputs = {}
        for value in ("0", "1"):
            monkeypatch.setenv("REPRO_TRACE", value)
            assert main([str(parameter)]) == 0
            outputs[value] = capsys.readouterr().out
        assert outputs["0"] == outputs["1"]
