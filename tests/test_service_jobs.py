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

    def test_default_solver_equals_explicit_default(self):
        assert (
            custom(compact="hier").fingerprint
            == custom(compact="hier", solver="bellman-ford").fingerprint
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

    def test_solver_changes_fingerprint(self):
        assert (
            custom(compact="x", solver="topological").fingerprint
            != custom(compact="x").fingerprint
        )

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

    def test_solver_without_compact_rejected(self):
        with pytest.raises(ServiceError, match="solver"):
            custom(solver="topological").fingerprint

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
