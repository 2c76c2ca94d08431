"""Cable-routing layout model: nodes, segments, cables, validation, and I/O.

An instance document is a single JSON object:

    {"name": "...",
     "nodes": [{"id": "..."}, ...],
     "segments": [{"id": "...", "u": "...", "v": "...", "length": <num>}, ...],
     "cables": [{"id": "...", "source": "...", "terminal": "...",
                 "alpha": <num>  OR  "costs": {"<segment-id>": <num>, ...},
                 "max_length": <num, optional>}, ...]}

Field names are fixed; unknown fields are rejected.  A cable carries either a
scalar ``alpha`` (expanded to per-segment costs ``alpha * length`` at parse
time) or an explicit ``costs`` map covering every segment.  Segment order in
the document fixes the variable order used everywhere downstream, so two
documents that differ only in segment order are different instances.

Instances are immutable after validation and safe to share across workers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

__all__ = [
    "InstanceError",
    "Node",
    "Segment",
    "Cable",
    "Instance",
    "parse_instance",
    "render_instance",
    "incident_segments",
    "bundled_layouts",
]


class InstanceError(ValueError):
    """Malformed instance document or violated validation rule."""


@dataclass(frozen=True)
class Node:
    """A connection point in the layout graph."""

    id: str


@dataclass(frozen=True)
class Segment:
    """An undirected physical pathway between two distinct nodes."""

    id: str
    u: str
    v: str
    length: float


@dataclass(frozen=True)
class Cable:
    """One routing demand: source, terminal, and per-segment layout costs.

    ``costs`` is the canonical internal form; parsing a scalar ``alpha``
    expands it eagerly.  ``max_length`` is optional schema metadata: it is
    parsed, validated and written back by ``render_instance``, and no solver
    or oracle reads it (length is priced into the costs).
    """

    id: str
    source: str
    terminal: str
    costs: dict[str, float]
    max_length: float | None = None


@dataclass(frozen=True)
class Instance:
    """A validated routing layout: graph plus the cables to route on it."""

    name: str
    nodes: tuple[Node, ...]
    segments: tuple[Segment, ...]
    cables: tuple[Cable, ...]

    @property
    def num_segments(self) -> int:
        return len(self.segments)

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_cables(self) -> int:
        return len(self.cables)

    def cable(self, cable_id: str) -> Cable:
        for c in self.cables:
            if c.id == cable_id:
                return c
        raise InstanceError(f"unknown cable id {cable_id!r}")

    def internal_nodes(self, cable: Cable) -> tuple[str, ...]:
        """Node ids other than the cable's source/terminal, sorted by id."""
        skip = {cable.source, cable.terminal}
        return tuple(sorted(n.id for n in self.nodes if n.id not in skip))

    def block_dim(self, cable: Cable) -> int:
        """Variable count of the cable's QUBO block: segments + internal nodes."""
        return self.num_segments + len(self.internal_nodes(cable))


def incident_segments(instance: Instance, node_id: str) -> list[int]:
    """Indices of segments touching ``node_id``, in instance segment order."""
    if node_id not in {n.id for n in instance.nodes}:
        raise InstanceError(f"unknown node id {node_id!r}")
    return [i for i, s in enumerate(instance.segments) if node_id in (s.u, s.v)]


# --- parsing -----------------------------------------------------------------


def _number(value, where: str, minimum: float = 0.0) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InstanceError(f"{where}: expected a number, got {value!r}")
    try:
        x = float(value)
    except OverflowError:  # an integer literal past the float range
        x = math.inf
    if not math.isfinite(x):
        raise InstanceError(f"{where}: {x} is not a finite number")
    if x < minimum:
        raise InstanceError(f"{where}: {x} is negative")
    return x


def _string(value, where: str) -> str:
    if not isinstance(value, str) or not value:
        raise InstanceError(f"{where}: expected a non-empty string, got {value!r}")
    return value


def _object(value, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()) -> dict:
    if not isinstance(value, dict):
        raise InstanceError(f"{where}: expected an object, got {type(value).__name__}")
    for key in required:
        if key not in value:
            raise InstanceError(f"{where}: missing field {key!r}")
    unknown = set(value) - set(required) - set(optional)
    if unknown:
        raise InstanceError(f"{where}: unknown field {sorted(unknown)[0]!r}")
    return value


def parse_instance(text: str) -> Instance:
    """Parse and validate an instance document.

    Raises InstanceError naming the first violated rule: malformed JSON,
    duplicate or dangling ids, self-loops, parallel segments, negative lengths
    or costs, a cable whose source equals its terminal, or a disconnected
    layout graph.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, digit limit, deep nesting
        raise InstanceError(f"not a valid JSON document: {exc}") from exc
    doc = _object(doc, "document", ("name", "nodes", "segments", "cables"))
    name = _string(doc["name"], "name")

    if not isinstance(doc["nodes"], list) or not doc["nodes"]:
        raise InstanceError("nodes: expected a non-empty array")
    nodes = []
    seen_nodes: set[str] = set()
    for i, raw in enumerate(doc["nodes"]):
        obj = _object(raw, f"nodes[{i}]", ("id",))
        nid = _string(obj["id"], f"nodes[{i}].id")
        if nid in seen_nodes:
            raise InstanceError(f"nodes[{i}]: duplicate node id {nid!r}")
        seen_nodes.add(nid)
        nodes.append(Node(nid))

    if not isinstance(doc["segments"], list) or not doc["segments"]:
        raise InstanceError("segments: expected a non-empty array")
    segments = []
    seen_segments: set[str] = set()
    seen_pairs: set[frozenset[str]] = set()
    for i, raw in enumerate(doc["segments"]):
        obj = _object(raw, f"segments[{i}]", ("id", "u", "v", "length"))
        sid = _string(obj["id"], f"segments[{i}].id")
        u = _string(obj["u"], f"segments[{i}].u")
        v = _string(obj["v"], f"segments[{i}].v")
        length = _number(obj["length"], f"segment {sid!r} length")
        if sid in seen_segments:
            raise InstanceError(f"segments[{i}]: duplicate segment id {sid!r}")
        seen_segments.add(sid)
        if u == v:
            raise InstanceError(f"segment {sid!r}: self-loop at node {u!r}")
        for endpoint in (u, v):
            if endpoint not in seen_nodes:
                raise InstanceError(f"segment {sid!r}: endpoint {endpoint!r} is not a node")
        pair = frozenset((u, v))
        if pair in seen_pairs:
            raise InstanceError(f"segment {sid!r}: parallel segment between {u!r} and {v!r}")
        seen_pairs.add(pair)
        segments.append(Segment(sid, u, v, length))

    if not isinstance(doc["cables"], list) or not doc["cables"]:
        raise InstanceError("cables: expected a non-empty array")
    cables = []
    seen_cables: set[str] = set()
    for i, raw in enumerate(doc["cables"]):
        obj = _object(
            raw,
            f"cables[{i}]",
            ("id", "source", "terminal"),
            ("alpha", "costs", "max_length"),
        )
        cid = _string(obj["id"], f"cables[{i}].id")
        if cid in seen_cables:
            raise InstanceError(f"cables[{i}]: duplicate cable id {cid!r}")
        seen_cables.add(cid)
        source = _string(obj["source"], f"cable {cid!r} source")
        terminal = _string(obj["terminal"], f"cable {cid!r} terminal")
        for endpoint, role in ((source, "source"), (terminal, "terminal")):
            if endpoint not in seen_nodes:
                raise InstanceError(f"cable {cid!r}: {role} {endpoint!r} is not a node")
        if source == terminal:
            raise InstanceError(f"cable {cid!r}: source equals terminal")
        if ("alpha" in obj) == ("costs" in obj):
            raise InstanceError(f"cable {cid!r}: exactly one of 'alpha' or 'costs' is required")
        if "alpha" in obj:
            alpha = _number(obj["alpha"], f"cable {cid!r} alpha")
            costs = {s.id: alpha * s.length for s in segments}
        else:
            raw_costs = obj["costs"]
            if not isinstance(raw_costs, dict):
                raise InstanceError(f"cable {cid!r}: costs must be an object")
            unknown = set(raw_costs) - seen_segments
            if unknown:
                raise InstanceError(f"cable {cid!r}: cost for unknown segment {sorted(unknown)[0]!r}")
            missing = seen_segments - set(raw_costs)
            if missing:
                raise InstanceError(f"cable {cid!r}: missing cost for segment {sorted(missing)[0]!r}")
            costs = {s.id: _number(raw_costs[s.id], f"cable {cid!r} cost of {s.id!r}") for s in segments}
        max_length = None
        if "max_length" in obj:
            max_length = _number(obj["max_length"], f"cable {cid!r} max_length")
        cables.append(Cable(cid, source, terminal, costs, max_length))

    instance = Instance(name, tuple(nodes), tuple(segments), tuple(cables))
    _check_connected(instance)
    return instance


def _check_connected(instance: Instance) -> None:
    adjacency: dict[str, list[str]] = {n.id: [] for n in instance.nodes}
    for s in instance.segments:
        adjacency[s.u].append(s.v)
        adjacency[s.v].append(s.u)
    start = instance.nodes[0].id
    seen = {start}
    stack = [start]
    while stack:
        for neighbor in adjacency[stack.pop()]:
            if neighbor not in seen:
                seen.add(neighbor)
                stack.append(neighbor)
    if len(seen) != instance.num_nodes:
        missing = sorted(set(adjacency) - seen)[0]
        raise InstanceError(f"layout graph is disconnected: node {missing!r} unreachable")


def render_instance(instance: Instance) -> str:
    """Serialize to the canonical document form (per-segment costs, 2-space indent).

    ``parse_instance(render_instance(x)) == x`` for every validated instance.
    """
    doc = {
        "name": instance.name,
        "nodes": [{"id": n.id} for n in instance.nodes],
        "segments": [
            {"id": s.id, "u": s.u, "v": s.v, "length": s.length} for s in instance.segments
        ],
        "cables": [
            {
                "id": c.id,
                "source": c.source,
                "terminal": c.terminal,
                "costs": {s.id: c.costs[s.id] for s in instance.segments},
                **({"max_length": c.max_length} if c.max_length is not None else {}),
            }
            for c in instance.cables
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


# --- bundled layouts ---------------------------------------------------------
#
# Two fixed synthetic room layouts with 4 cables each.  Both graphs are
# 2-edge-connected, so every cable has at least two distinct source-terminal
# paths and the routing choice is never forced.
#
# layout-1: 6 nodes, 7 segments; per-cable block 7 + 4 = 11 variables.
#
#        n1 ---s1--- n2 ---s2--- n3
#         |           \           |
#         s6           s7         s3
#         |             \         |
#        n6 ---s5--- n5 ---s4--- n4
#
# layout-2: 8 nodes, 10 segments; per-cable block 10 + 6 = 16 variables.
# An 8-cycle drawn as a ring, plus the chords t9 (m1-m4) and t10 (m5-m8).
#
#        m1 ---t1--- m2 ---t2--- m3 ---t3--- m4
#         |                                   |
#         t8           t9: m1-m4              t4
#         |            t10: m5-m8             |
#        m8 ---t7--- m7 ---t6--- m6 ---t5--- m5

_LAYOUT_1 = """
{
  "name": "layout-1",
  "nodes": [
    {"id": "n1"}, {"id": "n2"}, {"id": "n3"},
    {"id": "n4"}, {"id": "n5"}, {"id": "n6"}
  ],
  "segments": [
    {"id": "s1", "u": "n1", "v": "n2", "length": 1.0},
    {"id": "s2", "u": "n2", "v": "n3", "length": 1.0},
    {"id": "s3", "u": "n3", "v": "n4", "length": 1.0},
    {"id": "s4", "u": "n4", "v": "n5", "length": 1.0},
    {"id": "s5", "u": "n5", "v": "n6", "length": 1.0},
    {"id": "s6", "u": "n1", "v": "n6", "length": 2.0},
    {"id": "s7", "u": "n2", "v": "n5", "length": 1.5}
  ],
  "cables": [
    {"id": "c1", "source": "n1", "terminal": "n4", "alpha": 1.0},
    {"id": "c2", "source": "n2", "terminal": "n6", "alpha": 1.0},
    {"id": "c3", "source": "n3", "terminal": "n5", "alpha": 2.0},
    {"id": "c4", "source": "n1", "terminal": "n5", "alpha": 1.0, "max_length": 6.0}
  ]
}
"""

_LAYOUT_2 = """
{
  "name": "layout-2",
  "nodes": [
    {"id": "m1"}, {"id": "m2"}, {"id": "m3"}, {"id": "m4"},
    {"id": "m5"}, {"id": "m6"}, {"id": "m7"}, {"id": "m8"}
  ],
  "segments": [
    {"id": "t1", "u": "m1", "v": "m2", "length": 1.2},
    {"id": "t2", "u": "m2", "v": "m3", "length": 1.0},
    {"id": "t3", "u": "m3", "v": "m4", "length": 1.0},
    {"id": "t4", "u": "m4", "v": "m5", "length": 1.0},
    {"id": "t5", "u": "m5", "v": "m6", "length": 1.0},
    {"id": "t6", "u": "m6", "v": "m7", "length": 1.0},
    {"id": "t7", "u": "m7", "v": "m8", "length": 1.0},
    {"id": "t8", "u": "m8", "v": "m1", "length": 1.0},
    {"id": "t9", "u": "m1", "v": "m4", "length": 1.5},
    {"id": "t10", "u": "m5", "v": "m8", "length": 1.7}
  ],
  "cables": [
    {"id": "k1", "source": "m1", "terminal": "m5", "alpha": 1.0},
    {"id": "k2", "source": "m2", "terminal": "m3",
     "costs": {"t1": 1.2, "t2": 1.0, "t3": 1.0, "t4": 1.0, "t5": 1.0,
               "t6": 1.0, "t7": 1.0, "t8": 1.0, "t9": 1.5, "t10": 1.7}},
    {"id": "k3", "source": "m6", "terminal": "m1", "alpha": 2.0},
    {"id": "k4", "source": "m3", "terminal": "m7", "alpha": 1.0}
  ]
}
"""


def bundled_layouts() -> list[Instance]:
    """The two bundled layouts: 11-variable and 16-variable cable blocks."""
    return [parse_instance(_LAYOUT_1), parse_instance(_LAYOUT_2)]
