import pytest

from qcroute import bundled_layouts, parse_instance, vqe

TRIANGLE_DOC = """
{
  "name": "triangle",
  "nodes": [{"id": "A"}, {"id": "B"}, {"id": "C"}],
  "segments": [
    {"id": "AB", "u": "A", "v": "B", "length": 1.0},
    {"id": "BC", "u": "B", "v": "C", "length": 1.0},
    {"id": "AC", "u": "A", "v": "C", "length": 3.0}
  ],
  "cables": [
    {"id": "c1", "source": "A", "terminal": "C", "alpha": 1.0}
  ]
}
"""

# Same graph with a second cable, for global (multi-block) assemblies small
# enough to brute force end to end.
TRIANGLE_TWO_CABLES_DOC = """
{
  "name": "triangle-2c",
  "nodes": [{"id": "A"}, {"id": "B"}, {"id": "C"}],
  "segments": [
    {"id": "AB", "u": "A", "v": "B", "length": 1.0},
    {"id": "BC", "u": "B", "v": "C", "length": 1.0},
    {"id": "AC", "u": "A", "v": "C", "length": 3.0}
  ],
  "cables": [
    {"id": "c1", "source": "A", "terminal": "C", "alpha": 1.0},
    {"id": "c2", "source": "B", "terminal": "C", "alpha": 1.0}
  ]
}
"""

SINGLE_EDGE_DOC = """
{
  "name": "edge",
  "nodes": [{"id": "A"}, {"id": "B"}],
  "segments": [{"id": "AB", "u": "A", "v": "B", "length": 2.0}],
  "cables": [{"id": "c1", "source": "A", "terminal": "B", "alpha": 1.5}]
}
"""


@pytest.fixture(scope="session")
def triangle():
    return parse_instance(TRIANGLE_DOC)


@pytest.fixture(scope="session")
def triangle_two_cables():
    return parse_instance(TRIANGLE_TWO_CABLES_DOC)


@pytest.fixture(scope="session")
def single_edge():
    return parse_instance(SINGLE_EDGE_DOC)


@pytest.fixture(scope="session")
def layout1():
    return bundled_layouts()[0]


@pytest.fixture(scope="session")
def layout2():
    return bundled_layouts()[1]


@pytest.fixture(autouse=True)
def cold_block_row():
    """Every test starts with no kept (instance, kappa) row of blocks."""
    vqe._row = None
