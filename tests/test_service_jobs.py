"""Job canonicalisation: semantically identical specs are one job.

The deduplication contract of the layout service rests entirely on
:meth:`repro.service.jobs.JobSpec.canonical`: if two spellings of the
same request fingerprint differently the fleet does the work twice; if
two *different* requests collide they share artifacts.  These tests pin
both directions.
"""

import pytest

from repro.core.errors import ServiceError, VerificationError
from repro.service.jobs import JobResult, JobSpec, execute_job, fingerprint_spec

SAMPLE = """
cell tiny
  box metal1 0 0 8 8
  box poly 2 0 4 8
  port a 0 4 metal1
end
"""

DESIGN = """
(mk_instance t tiny)
(mk_cell "top" t)
"""


def custom(**overrides):
    base = dict(kind="custom", sample_text=SAMPLE, design_text=DESIGN)
    base.update(overrides)
    return JobSpec(**base)


class TestEqualSpecsHashEqual:
    def test_parameter_key_order_is_irrelevant(self):
        assert (
            custom(parameters="a=1\nb=2\nc=hello\n").fingerprint
            == custom(parameters="c=hello\nb=2\na=1\n").fingerprint
        )

    def test_parameter_whitespace_and_comments_are_irrelevant(self):
        assert (
            custom(parameters="a=1\nb=2\n").fingerprint
            == custom(
                parameters="# a comment\n\n  a = 1   ; trailing\n\nb =2\n"
            ).fingerprint
        )

    def test_indexed_bindings_canonicalise(self):
        assert (
            custom(parameters="top.1=3\ntop.2=4\n").fingerprint
            == custom(parameters="top.2 = 4\ntop.1 = 3\n").fingerprint
        )

    def test_default_sim_vectors_equals_driver_default(self):
        from repro.verify.driver import DEFAULT_MAX_VECTORS

        assert (
            custom(verify="all").fingerprint
            == custom(verify="all", sim_vectors=DEFAULT_MAX_VECTORS).fingerprint
        )

    def test_tech_case_is_irrelevant(self):
        assert custom(tech="a").fingerprint == custom(tech="A").fingerprint

    def test_later_binding_wins_like_cli_set(self):
        assert (
            custom(parameters="a=1\na=2\n").fingerprint
            == custom(parameters="a=2\n").fingerprint
        )

    def test_fingerprint_spec_accepts_raw_payloads(self):
        spec = custom(parameters="a=1\n")
        assert fingerprint_spec(spec.to_dict()) == spec.fingerprint

    def test_hier_x_is_the_hier_job(self):
        # Plain hier compacts each leaf along x: the same work, one job.
        # hier keeps its canonical form, so stored hier jobs keep their
        # fingerprints.
        assert custom(compact="hier:x").fingerprint == custom(compact="hier").fingerprint
        assert custom(compact="hier:x").canonical()["compact"] == "hier"
        results = [
            execute_job(JobSpec(kind="multiplier", compact=mode,
                                parameters="xsize=4\nysize=4"))
            for mode in ("hier", "hier:x")
        ]
        assert results[0].cif == results[1].cif
        assert results[0].pipeline == results[1].pipeline


class TestDistinctSpecsHashDistinct:
    def test_binding_value_changes_fingerprint(self):
        assert (
            custom(parameters="a=1\n").fingerprint
            != custom(parameters="a=2\n").fingerprint
        )

    def test_alias_and_string_values_differ(self):
        # a=foo (alias) resolves through the cell table; a="foo" is text
        assert (
            custom(parameters="a=foo\n").fingerprint
            != custom(parameters='a="foo"\n').fingerprint
        )

    def test_tech_changes_fingerprint(self):
        assert custom(tech="A").fingerprint != custom(tech="B").fingerprint

    def test_compact_mode_changes_fingerprint(self):
        fingerprints = {
            custom(compact=mode).fingerprint
            for mode in (None, "x", "xy", "hier", "hier:xy")
        }
        assert len(fingerprints) == 5

    def test_hier_axes_other_than_x_stay_distinct(self):
        fingerprints = {
            custom(compact=mode).fingerprint
            for mode in ("hier", "hier:y", "hier:xy", "hier:yx")
        }
        assert len(fingerprints) == 4

    def test_verify_mode_changes_fingerprint(self):
        assert custom(verify="lvs").fingerprint != custom(verify="all").fingerprint

    def test_sample_text_changes_fingerprint(self):
        other = SAMPLE.replace("0 0 8 8", "0 0 9 8")
        assert custom().fingerprint != custom(sample_text=other).fingerprint

    def test_kind_resolves_library_texts(self):
        multiplier = JobSpec(kind="multiplier", parameters="xsize=2\nysize=2\n")
        assert multiplier.fingerprint != custom().fingerprint
        assert (
            multiplier.fingerprint
            != JobSpec(kind="multiplier", parameters="xsize=3\nysize=2\n").fingerprint
        )

    def test_delay_is_part_of_the_fingerprint(self):
        assert custom(delay=0.5).fingerprint != custom().fingerprint


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ServiceError, match="unknown generator kind"):
            JobSpec(kind="nonesuch").fingerprint

    def test_custom_without_texts_rejected(self):
        with pytest.raises(ServiceError, match="sample_text"):
            JobSpec(kind="custom").fingerprint

    def test_unknown_tech_rejected(self):
        with pytest.raises(ServiceError, match="technology"):
            custom(tech="Z").fingerprint

    def test_bad_compact_mode_rejected(self):
        with pytest.raises(ServiceError, match="compact"):
            custom(compact="sideways").fingerprint

    def test_sim_vectors_without_sim_rejected(self):
        with pytest.raises(ServiceError, match="sim_vectors"):
            custom(verify="lvs", sim_vectors=8).fingerprint

    def test_sim_vectors_with_route_rejected(self):
        # Routed composites verify by connectivity round-trip and never
        # simulate; an ignored cap must not split the fingerprint.
        with pytest.raises(ServiceError, match="round-trip"):
            custom(
                verify="all", sim_vectors=8, route_text="bottom a\ntop b\n"
            ).fingerprint

    def test_compact_and_route_rejected(self):
        with pytest.raises(ServiceError, match="combined"):
            custom(compact="x", route_text="bottom a\ntop b\n").fingerprint

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(ServiceError, match="unknown job-spec field"):
            JobSpec.from_dict({"kind": "custom", "bogus": 1})

    def test_non_dict_payload_rejected(self):
        with pytest.raises(ServiceError, match="JSON object"):
            JobSpec.from_dict(["not", "a", "dict"])

    def test_bad_parameter_text_is_a_service_error(self):
        with pytest.raises(ServiceError, match="bad parameter text"):
            custom(parameters="!!! nope\n").fingerprint

    @pytest.mark.parametrize(
        "line,message",
        [
            ("xsize=--5", "bad parameter value '--5'"),
            ("x = \u00b2", "bad parameter value '\u00b2'"),
            ("x.1 = --5", "indexed bindings take integer values, got '--5'"),
        ],
    )
    def test_digit_like_parameter_value_is_a_service_error(self, line, message):
        spec = JobSpec(kind="multiplier", parameters=line)
        with pytest.raises(ServiceError, match="bad parameter text: line") as caught:
            spec.fingerprint()
        assert message in str(caught.value)

    @pytest.mark.parametrize(
        "payload,field",
        [
            ({"kind": ["x"]}, "kind"),
            ({"kind": "multiplier", "tech": 1}, "tech"),
            ({"kind": "multiplier", "parameters": None}, "parameters"),
            ({"kind": "multiplier", "router": 3}, "router"),
            ({"kind": "multiplier", "output_cell": 5}, "output_cell"),
            ({"kind": "multiplier", "compact": ["x"]}, "compact"),
            ({"kind": "multiplier", "verify": {"mode": "all"}}, "verify"),
            ({"kind": "multiplier", "route_text": 1}, "route_text"),
            ({"kind": "custom", "sample_text": 1, "design_text": "d"}, "sample_text"),
            ({"kind": "custom", "sample_text": "s", "design_text": b"d"}, "design_text"),
            ({"kind": "multiplier", "verify": "all", "sim_vectors": True}, "sim_vectors"),
            ({"kind": "multiplier", "verify": "all", "sim_vectors": 2.0}, "sim_vectors"),
            ({"kind": "multiplier", "delay": True}, "delay"),
            ({"kind": "multiplier", "delay": "1"}, "delay"),
            ({"kind": "multiplier", "delay": float("nan")}, "delay"),
            ({"kind": None}, "kind"),
            ({"kind": "multiplier", "router": None}, "router"),
            ({"kind": "multiplier", "verify": "all", "sim_vectors": "8"}, "sim_vectors"),
            ({"kind": "multiplier", "verify": "all", "sim_vectors": 0}, "sim_vectors"),
            ({"kind": "multiplier", "delay": None}, "delay"),
            ({"kind": "multiplier", "delay": float("inf")}, "delay"),
            ({"kind": "multiplier", "delay": -1}, "delay"),
        ],
    )
    def test_badly_typed_field_is_a_service_error(self, payload, field):
        with pytest.raises(ServiceError, match=field):
            fingerprint_spec(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "multiplier", "delay": 0},
            {"kind": "multiplier", "delay": 0.5},
            {"kind": "multiplier", "verify": "sim", "sim_vectors": 1},
            {"kind": "multiplier", "output_cell": None, "compact": None},
            {"kind": "multiplier", "tech": "b", "verify": "all"},
        ],
        ids=["int-delay", "float-delay", "one-vector", "null-optionals", "lower-tech"],
    )
    def test_well_typed_edge_values_accepted(self, payload):
        # the type checks must not reject what the spec has always taken
        fingerprint = fingerprint_spec(payload)
        assert len(fingerprint) == 64 and int(fingerprint, 16) >= 0


class TestStoredSolverField:
    """Specs stored when the longest-path solver was selectable carry
    a ``solver`` key; Bellman-Ford was the only one that remains."""

    @pytest.mark.parametrize("solver", [None, "bellman-ford"])
    def test_bellman_ford_loads_as_the_spec_it_meant(self, solver):
        payload = {**custom(compact="x").to_dict(), "solver": solver}
        assert JobSpec.from_dict(payload) == custom(compact="x")

    @pytest.mark.parametrize("solver", ["topological", "incremental"])
    def test_removed_backend_is_a_service_error(self, solver):
        payload = {**custom(compact="x").to_dict(), "solver": solver}
        with pytest.raises(ServiceError, match="removed"):
            JobSpec.from_dict(payload)


class TestExecuteJob:
    def test_tiny_custom_job_produces_cif(self):
        result = execute_job(custom())
        assert result.cell_name == "top"
        assert result.instance_count == 1
        assert result.cif.startswith("( CIF generated by repro RSG")
        assert set(result.timings) == {"generate", "emit"}

    def test_multiplier_kind_matches_batch_flow(self):
        from repro.layout import flatten_cell, read_cif
        from repro.multiplier import report_for

        result = execute_job(JobSpec(kind="multiplier", parameters="xsize=2\nysize=2\n"))
        assert result.cell_name == "thewholething"
        cell = read_cif(result.cif).lookup("thewholething")
        assert report_for(cell, 2, 2).basic_cells == 2 * 3
        assert flatten_cell(cell) is not None

    def test_compact_hier_records_pipeline_report(self):
        result = execute_job(
            JobSpec(kind="multiplier", parameters="xsize=2\nysize=2\n", compact="hier")
        )
        assert result.pipeline is not None
        assert result.pipeline["distinct_cells"] > 0
        assert "compact" in result.timings

    def test_each_job_reports_only_its_own_cache_traffic(self):
        """Jobs sharing one cache must not inherit each other's counters."""
        from repro.compact import CompactionCache

        cache = CompactionCache()
        reports = [
            execute_job(
                JobSpec(kind="multiplier", parameters=parameters, compact="hier"),
                cache=cache,
            ).pipeline
            for parameters in (
                "xsize=2\nysize=2\n", "xsize=3\nysize=2\n", "xsize=2\nysize=2\n",
            )
        ]
        first, second, third = reports
        assert first["cache_misses"] == first["unique_contents"]
        for report in reports:
            assert report["cache_stats"]["hits"] == report["cache_hits"]
            assert report["cache_stats"]["misses"] == report["cache_misses"]
        for report in (second, third):
            assert report["cache_hits"] == report["unique_contents"]
            assert report["cache_misses"] == 0
        assert cache.cache_stats.hits == second["cache_hits"] + third["cache_hits"]

    def test_flat_compaction_records_axis_widths(self):
        result = execute_job(custom(compact="xy"))
        assert [entry["axis"] for entry in result.compaction] == ["x", "y"]

    def test_verification_failure_raises_verification_error(self):
        # A PLA-free, multiplier-free cell takes the generic recipe (no
        # golden, always ok); force a failure through the multiplier
        # recipe with a personality-breaking size instead.
        spec = JobSpec(kind="multiplier", parameters="xsize=2\nysize=2\n", verify="all")
        result = execute_job(spec)  # sanity: the real layout verifies
        assert result.verification is not None and result.verification["ok"]
        with pytest.raises(VerificationError):
            broken = JobSpec(
                kind="custom",
                sample_text=SAMPLE,
                design_text=DESIGN,
                verify="all",
            )
            from unittest import mock

            with mock.patch(
                "repro.verify.verify_cell",
                side_effect=lambda cell, **kw: _failing_report(cell),
            ):
                execute_job(broken)

    def test_failed_verify_marks_its_span_and_keeps_the_summary(self):
        from unittest import mock

        from repro.obs import Tracer, activated

        tracer = Tracer()
        with mock.patch(
            "repro.verify.verify_cell",
            side_effect=lambda cell, **kw: _failing_report(cell),
        ):
            with activated(tracer), pytest.raises(VerificationError) as caught:
                execute_job(custom(verify="all"))
        assert caught.value.headline == "verification failed for 'top'"
        assert "FAIL injected failure" in str(caught.value)
        (verify,) = [s for s in tracer.finished() if s.name == "job.verify"]
        assert verify.status == "error"

    def test_extraction_error_is_a_verification_error(self):
        """Masks that do not read as a circuit fail the verify stage with
        the verification family's code (what a worker records as the
        job's ``error_code``), naming the cell and the extraction error."""
        from unittest import mock

        from repro.cli import EXIT_VERIFY, exit_code_for
        from repro.verify import ExtractionError

        def unreadable(cell, **kwargs):
            raise ExtractionError("channel region with 1 terminal(s)")

        with mock.patch("repro.verify.verify_cell", side_effect=unreadable):
            with pytest.raises(VerificationError) as caught:
                execute_job(custom(verify="lvs"))
        assert caught.value.headline == (
            "verification failed for 'top': extraction failed:"
            " channel region with 1 terminal(s)"
        )
        assert caught.value.result is not None
        assert exit_code_for(caught.value) == EXIT_VERIFY

    @pytest.mark.parametrize("verify", ["lvs", "sim", "all"])
    def test_tech_b_flat_multiplier_fails_verification(self, verify):
        """The real case behind the wrapping above: x-compacted under
        TECH_B, the multiplier's masks leave a channel with one
        terminal, and the job fails in the verification family."""
        from repro.cli import EXIT_VERIFY, exit_code_for

        spec = JobSpec(
            kind="multiplier", parameters="xsize=3\nysize=3", tech="B",
            compact="x", verify=verify,
        )
        with pytest.raises(VerificationError) as caught:
            execute_job(spec)
        assert caught.value.headline.startswith(
            "verification failed for 'thewholething_compacted': extraction failed:"
            " channel region with 1 terminal(s)"
        )
        assert exit_code_for(caught.value) == EXIT_VERIFY

    def test_tech_b_multiplier_compacted_along_y_verifies(self):
        """Control: compacted along y alone, the same multiplier extracts
        and passes every check."""
        spec = JobSpec(
            kind="multiplier", parameters="xsize=3\nysize=3", tech="B",
            compact="y", verify="all",
        )
        result = execute_job(spec)
        assert result.cell_name == "thewholething_compacted"
        assert result.verification is not None and result.verification["ok"]

    def test_design_without_a_cell_is_a_generic_error(self):
        from repro.core.errors import RsgError

        with pytest.raises(RsgError, match="mk_cell") as caught:
            execute_job(custom(design_text="(mk_instance t tiny)\n"))
        assert not isinstance(caught.value, ServiceError)

    def test_flat_compaction_records_solver_stats(self):
        result = execute_job(custom(compact="x"))
        (entry,) = result.compaction
        assert entry["stats"].startswith("bellman-ford: ")

    def test_result_round_trips_through_json(self):
        result = execute_job(custom())
        payload = result.to_dict()
        assert "cif" not in payload
        rebuilt = JobResult.from_dict(payload)
        assert rebuilt.cell_name == result.cell_name
        assert rebuilt.timings == result.timings


def _failing_report(cell):
    from repro.verify.driver import VerificationReport

    report = VerificationReport(cell.name, "all")
    report.failures.append("injected failure")
    return report
