import json

import pytest

from qcroute import (
    InstanceError,
    bundled_layouts,
    incident_segments,
    parse_instance,
    render_instance,
)
from conftest import TRIANGLE_DOC
from reference import count_simple_paths


class TestParse:
    def test_triangle_dimensions(self, triangle):
        assert triangle.num_segments == 3
        assert triangle.num_nodes == 3
        assert triangle.num_cables == 1
        assert triangle.internal_nodes(triangle.cables[0]) == ("B",)
        assert triangle.block_dim(triangle.cables[0]) == 4

    def test_scalar_alpha_expands_to_per_segment_costs(self, triangle):
        assert triangle.cables[0].costs == {"AB": 1.0, "BC": 1.0, "AC": 3.0}

    def test_explicit_costs_accepted(self, layout2):
        k2 = layout2.cable("k2")
        assert k2.costs["t1"] == 1.2
        assert len(k2.costs) == layout2.num_segments

    def test_dangling_cable_terminal_rejected(self):
        doc = json.loads(TRIANGLE_DOC)
        doc["cables"][0]["terminal"] = "Z"
        with pytest.raises(InstanceError, match="terminal 'Z' is not a node"):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize(
        "mutate, message",
        [
            (lambda d: d["nodes"].append({"id": "A"}), "duplicate node id"),
            (lambda d: d["segments"].append({"id": "AB", "u": "A", "v": "C", "length": 1}), "duplicate segment id"),
            (lambda d: d["segments"].append({"id": "X", "u": "A", "v": "B", "length": 1}), "parallel segment"),
            (lambda d: d["segments"].append({"id": "X", "u": "A", "v": "A", "length": 1}), "self-loop"),
            (lambda d: d["segments"][0].update(length=-1), "negative"),
            (lambda d: d["cables"][0].update(alpha=-2), "negative"),
            (lambda d: d["cables"][0].update(source="C"), "source equals terminal"),
            (lambda d: d["cables"][0].update(extra=1), "unknown field"),
            (lambda d: d["cables"][0].update(costs={"AB": 1, "BC": 1, "AC": 1}), "exactly one of"),
            (lambda d: d["cables"][0].pop("alpha"), "exactly one of"),
            (lambda d: d["segments"][0].pop("length"), "missing field"),
            (lambda d: d["segments"][0].update(length=float("nan")), "'AB' length: nan is not a finite"),
            (lambda d: d["cables"][0].update(alpha=float("inf")), "alpha: inf is not a finite"),
        ],
    )
    def test_validation_failures(self, mutate, message):
        doc = json.loads(TRIANGLE_DOC)
        mutate(doc)
        with pytest.raises(InstanceError, match=message):
            parse_instance(json.dumps(doc))

    def test_costs_map_must_cover_every_segment(self):
        doc = json.loads(TRIANGLE_DOC)
        del doc["cables"][0]["alpha"]
        doc["cables"][0]["costs"] = {"AB": 1.0, "BC": 1.0}
        with pytest.raises(InstanceError, match="missing cost for segment 'AC'"):
            parse_instance(json.dumps(doc))

    def test_disconnected_graph_rejected(self):
        doc = json.loads(TRIANGLE_DOC)
        doc["nodes"].append({"id": "D"})
        with pytest.raises(InstanceError, match="disconnected"):
            parse_instance(json.dumps(doc))

    def test_malformed_json_rejected(self):
        with pytest.raises(InstanceError, match="not a valid JSON document"):
            parse_instance("{nope")

    def test_top_level_must_be_object(self):
        with pytest.raises(InstanceError, match="expected an object"):
            parse_instance("[1, 2]")


class TestRoundTrip:
    @pytest.mark.parametrize("which", [0, 1])
    def test_bundled_layouts_round_trip(self, which):
        instance = bundled_layouts()[which]
        assert parse_instance(render_instance(instance)) == instance

    def test_triangle_round_trip(self, triangle):
        assert parse_instance(render_instance(triangle)) == triangle

    def test_max_length_survives_round_trip(self, layout1):
        c4 = layout1.cable("c4")
        assert c4.max_length == 6.0
        again = parse_instance(render_instance(layout1)).cable("c4")
        assert again.max_length == 6.0


class TestBundledLayouts:
    def test_layout_shapes(self):
        first, second = bundled_layouts()
        assert (first.num_nodes, first.num_segments, first.num_cables) == (6, 7, 4)
        assert (second.num_nodes, second.num_segments, second.num_cables) == (8, 10, 4)
        assert all(first.block_dim(c) == 11 for c in first.cables)
        assert all(second.block_dim(c) == 16 for c in second.cables)

    def test_layout2_block_arithmetic(self, layout2):
        assert layout2.block_dim(layout2.cables[0]) == 10 + (8 - 2)

    def test_every_cable_has_route_alternatives(self):
        for instance in bundled_layouts():
            for cable in instance.cables:
                assert count_simple_paths(instance, cable.source, cable.terminal) >= 2

    def test_deterministic_across_calls(self):
        assert bundled_layouts() == bundled_layouts()


class TestIncidentSegments:
    def test_triangle_incidences(self, triangle):
        assert incident_segments(triangle, "B") == [0, 1]
        assert incident_segments(triangle, "A") == [0, 2]
        assert incident_segments(triangle, "C") == [1, 2]

    def test_unknown_node(self, triangle):
        with pytest.raises(InstanceError, match="unknown node id"):
            incident_segments(triangle, "Z")

    def test_degree_one_node(self, single_edge):
        assert incident_segments(single_edge, "A") == [0]
        assert single_edge.block_dim(single_edge.cables[0]) == 1

    def test_endpoint_symmetry(self):
        for instance in bundled_layouts():
            for i, segment in enumerate(instance.segments):
                for node in instance.nodes:
                    member = i in incident_segments(instance, node.id)
                    assert member == (node.id in (segment.u, segment.v))
