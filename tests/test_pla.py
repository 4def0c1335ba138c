"""Tests for the PLA generators (section 1.2.2: RSG as a superset of HPLA)."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.layout import flatten_cell
from repro.pla import (
    HplaGenerator,
    TruthTable,
    compile_description,
    extract_personality,
    generate_decoder,
    generate_pla,
    load_pla_library,
)


TABLE = TruthTable.parse(
    """
    1-0 | 10
    01- | 11
    -11 | 01
    """
)


def random_tables():
    literal = st.sampled_from("01-")
    out = st.sampled_from("01")
    return st.integers(2, 4).flatmap(
        lambda n_in: st.integers(1, 3).flatmap(
            lambda n_out: st.lists(
                st.tuples(
                    st.text(alphabet="01-", min_size=n_in, max_size=n_in),
                    st.text(alphabet="01", min_size=n_out, max_size=n_out),
                ),
                min_size=1,
                max_size=5,
            ).map(lambda rows: TruthTable([r[0] for r in rows], [r[1] for r in rows]))
        )
    )


class TestTruthTable:
    def test_parse_and_dimensions(self):
        assert TABLE.num_inputs == 3
        assert TABLE.num_outputs == 2
        assert TABLE.num_terms == 3

    def test_evaluate(self):
        # term0: x0 & !x2 -> o0 ; term1: !x0 & x1 -> o0,o1 ; term2: x1 & x2 -> o1
        assert TABLE.evaluate([1, 0, 0]) == [1, 0]
        assert TABLE.evaluate([0, 1, 0]) == [1, 1]
        assert TABLE.evaluate([0, 1, 1]) == [1, 1]
        assert TABLE.evaluate([0, 0, 1]) == [0, 0]

    def test_evaluate_lanes_is_the_per_vector_evaluation(self):
        # lane j holds input vector j: input k is bit k of j
        planes = [0b10101010, 0b11001100, 0b11110000]
        words = TABLE.evaluate(planes, lanes=8)
        for lane in range(8):
            bits = [(lane >> k) & 1 for k in range(3)]
            assert [(word >> lane) & 1 for word in words] == TABLE.evaluate(bits)

    def test_crosspoints(self):
        assert TABLE.crosspoints() == (6, 4)

    def test_ragged_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(["10", "1"], ["1", "1"])

    def test_bad_characters_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(["1x"], ["1"])
        with pytest.raises(ValueError):
            TruthTable(["10"], ["-"])

    def test_mismatched_planes_rejected(self):
        with pytest.raises(ValueError):
            TruthTable(["10"], ["1", "0"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TruthTable([], [])


class TestRsgPla:
    def test_personality_round_trip(self):
        pla = generate_pla(TABLE)
        back = extract_personality(pla)
        assert back.and_plane == TABLE.and_plane
        assert back.or_plane == TABLE.or_plane

    def test_layout_logic_matches_table(self):
        back = extract_personality(generate_pla(TABLE))
        for bits in itertools.product([0, 1], repeat=3):
            assert back.evaluate(list(bits)) == TABLE.evaluate(list(bits))

    @given(random_tables())
    @settings(max_examples=25, deadline=None)
    def test_random_personalities_round_trip(self, table):
        pla = generate_pla(table)
        back = extract_personality(pla)
        assert back.and_plane == table.and_plane
        assert back.or_plane == table.or_plane

    def test_structure_counts(self):
        pla = generate_pla(TABLE)
        counts = {}

        def walk(cell):
            for instance in cell.instances:
                counts[instance.celltype] = counts.get(instance.celltype, 0) + 1
                walk(instance.definition)

        walk(pla)
        assert counts["andsq"] == 9
        assert counts["orsq"] == 6
        assert counts["connectao"] == 3
        assert counts["andpull"] == 3
        assert counts["orpull"] == 3
        assert counts["inbuf"] == 3
        assert counts["outbuf"] == 2
        and_x, or_x = TABLE.crosspoints()
        assert counts.get("xtrue", 0) + counts.get("xfalse", 0) == and_x
        assert counts.get("xout", 0) == or_x


class TestHplaBaseline:
    def test_description_compiled_from_shared_sample(self):
        description = compile_description()
        assert description.square_pitch == 10
        assert description.connect_width == 6
        assert description.row_pitch == 10

    def test_same_geometry_as_rsg(self):
        """'The RSG can generate any PLA that HPLA can' — identical output."""
        rsg_pla = generate_pla(TABLE)
        hpla = HplaGenerator().generate(TABLE)
        assert flatten_cell(rsg_pla).same_geometry(flatten_cell(hpla))

    @given(random_tables())
    @settings(max_examples=15, deadline=None)
    def test_equivalence_on_random_tables(self, table):
        assert flatten_cell(generate_pla(table)).same_geometry(
            flatten_cell(HplaGenerator().generate(table))
        )

    def test_three_phase_delayed_binding(self):
        """HPLA's phases: a skeleton can be encoded later (recoding the
        PLA after installation, section 1.2.3)."""
        generator = HplaGenerator()
        skeleton = generator.make_skeleton(3, 2, 3)
        unencoded = flatten_cell(skeleton)
        generator.encode(skeleton, TABLE)
        encoded = flatten_cell(skeleton)
        # Crosspoint transistors (diff strip + cut onto the row metal)
        # appear only in the encoding phase.
        and_x, or_x = TABLE.crosspoints()
        added = encoded.box_count() - unencoded.box_count()
        assert added >= and_x + or_x
        assert flatten_cell(generate_pla(TABLE)).same_geometry(encoded)

    def test_recoding(self):
        """The same skeleton accepts a different personality."""
        generator = HplaGenerator()
        first = generator.generate(TABLE)
        other = TruthTable(["111", "000", "0-1"], ["11", "10", "01"])
        second = generator.generate(other)
        assert extract_personality(second).and_plane == other.and_plane


class TestDecoder:
    """Section 1.2.2: the PLA sample's cells build decoders too."""

    def test_decoder_structure(self):
        decoder = generate_decoder(3)
        back = extract_personality(decoder)
        assert back.num_terms == 8
        assert back.num_outputs == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exactly_one_minterm_active(self, n):
        back = extract_personality(generate_decoder(n))
        for value in range(1 << n):
            bits = [(value >> i) & 1 for i in range(n)]
            active = [
                all(
                    (bits[i] == 1 if literal == "1" else bits[i] == 0)
                    for i, literal in enumerate(row)
                )
                for row in back.and_plane
            ]
            assert sum(active) == 1
            assert active.index(True) == value

    def test_decoder_and_pla_share_one_workspace(self):
        """One sample layout, several architectures — the scope argument."""
        rsg = load_pla_library()
        generate_pla(TABLE, rsg=rsg, name="pla0")
        generate_decoder(2, rsg=rsg, name="dec0")
        assert "pla0" in rsg.cells and "dec0" in rsg.cells
