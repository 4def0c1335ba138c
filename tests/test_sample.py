"""Tests for sample-layout ingestion (design by example, section 2.3)."""

import pytest

from repro.core import Rsg
from repro.core.errors import ParseError, UnknownCellError
from repro.geometry import FLIP_NORTH, NORTH, SOUTH, Vec2
from repro.layout import dump_sample, load_sample, loads_sample


BASIC = """
cell tile
  box metal 0 0 10 10
  port a 5 10 metal
end
"""


class TestCells:
    def test_cell_parsing(self):
        rsg = Rsg()
        summary = loads_sample(BASIC, rsg)
        assert summary.cells == ["tile"]
        tile = rsg.cells.lookup("tile")
        assert len(tile.boxes) == 1
        assert tile.boxes[0].layer == "metal"
        assert tile.port("a").position == Vec2(5, 10)

    def test_load_sample_reads_a_path_or_a_stream(self, tmp_path):
        import io

        path = tmp_path / "basic.sample"
        path.write_text(BASIC)
        from_path, from_stream = Rsg(), Rsg()
        assert load_sample(str(path), from_path).cells == ["tile"]
        assert load_sample(io.StringIO(BASIC), from_stream).cells == ["tile"]
        assert from_path.cells.lookup("tile").boxes == from_stream.cells.lookup("tile").boxes

    def test_port_without_layer(self):
        rsg = Rsg()
        loads_sample("cell c\n  port p 1 2\nend", rsg)
        assert rsg.cells.lookup("c").port("p").layer == ""

    def test_comments_and_blanks(self):
        rsg = Rsg()
        loads_sample("# hi\n\ncell c\n  box m 0 0 1 1  # trailing\nend\n", rsg)
        assert "c" in rsg.cells

    @pytest.mark.parametrize(
        "text",
        [
            "cell a\ncell b\nend\nend",          # nested blocks
            "box m 0 0 1 1",                     # box outside cell
            "cell a\n  box m 0 0 1\nend",        # short box
            "end",                               # stray end
            "cell a\n  box m 0 0 1 x\nend",      # non-integer
            "cell a",                            # unterminated
            "wibble 1 2",                        # unknown keyword
        ],
    )
    def test_malformed_inputs(self, text):
        with pytest.raises(ParseError):
            loads_sample(text, Rsg())


class TestInterfacesByExample:
    def test_label_in_overlap(self):
        rsg = Rsg()
        loads_sample(
            BASIC
            + """
            example
              inst tile 0 0 north
              inst tile 10 0 north
              label 1 10 5
            end
            """,
            rsg,
        )
        assert rsg.interfaces.lookup("tile", "tile", 1).vector == Vec2(10, 0)

    def test_reference_instance_is_first_listed(self):
        """Section 3.4's graphical discrimination: the earlier-listed
        instance is the reference (A1 of Figure 3.7)."""
        rsg = Rsg()
        loads_sample(
            BASIC
            + """
            example
              inst tile 20 0 north
              inst tile 0 0 north
              label 1 20 5
            end
            """,
            rsg,
        )
        # First-listed is at x=20, so the interface points leftward.
        assert rsg.interfaces.lookup("tile", "tile", 1).vector == Vec2(-20, 0)

    def test_oriented_instances(self):
        rsg = Rsg()
        loads_sample(
            BASIC
            + """
            example
              inst tile 0 0 south
              inst tile 0 -10 flip_north
              label 1 0 0
            end
            """,
            rsg,
        )
        interface = rsg.interfaces.lookup("tile", "tile", 1)
        # Deskew by South: vector (0,-10) -> (0,10); orientation
        # South^-1 o FLIP_NORTH = SOUTH o FLIP_NORTH = FLIP_SOUTH.
        assert interface.vector == Vec2(0, 10)
        assert interface.orientation == SOUTH.compose(FLIP_NORTH)

    def test_two_instance_fallback_for_disjoint_cells(self):
        """Interfaces don't require abutment: with exactly two instances
        the label binds them even when their boxes are disjoint."""
        rsg = Rsg()
        loads_sample(
            BASIC
            + """
            example
              inst tile 0 0 north
              inst tile 50 0 north
              label 3 25 5
            end
            """,
            rsg,
        )
        assert rsg.interfaces.lookup("tile", "tile", 3).vector == Vec2(50, 0)

    def test_multiple_labels_in_one_example(self):
        rsg = Rsg()
        loads_sample(
            BASIC
            + """
            cell mask
              box poly 0 0 2 2
            end
            example
              inst tile 0 0 north
              inst mask 4 4 north
              label 1 5 5
              label 2 5 5
            end
            """,
            rsg,
        )
        assert rsg.interfaces.has("tile", "mask", 1)
        assert rsg.interfaces.has("tile", "mask", 2)

    def test_ambiguous_label_rejected(self):
        rsg = Rsg()
        with pytest.raises(ParseError):
            loads_sample(
                BASIC
                + """
                example
                  inst tile 0 0 north
                  inst tile 20 0 north
                  inst tile 40 0 north
                  label 1 100 100
                end
                """,
                rsg,
            )

    def test_example_without_labels_rejected(self):
        with pytest.raises(ParseError):
            loads_sample(
                BASIC + "example\n  inst tile 0 0 north\n  inst tile 10 0 north\nend",
                Rsg(),
            )

    def test_unknown_cell_in_example(self):
        with pytest.raises(UnknownCellError):
            loads_sample("example\n  inst ghost 0 0 north\nend", Rsg())

    def test_bad_orientation_name(self):
        with pytest.raises(ParseError):
            loads_sample(BASIC + "example\n  inst tile 0 0 diagonal\nend", Rsg())


class TestDump:
    def test_round_trip_cells(self):
        rsg = Rsg()
        loads_sample(BASIC, rsg)
        text = dump_sample(rsg, ["tile"])
        rsg2 = Rsg()
        loads_sample(text, rsg2)
        tile1 = rsg.cells.lookup("tile")
        tile2 = rsg2.cells.lookup("tile")
        assert [(b.layer, b.box) for b in tile1.boxes] == [
            (b.layer, b.box) for b in tile2.boxes
        ]
        assert tile1.ports[0].position == tile2.ports[0].position
