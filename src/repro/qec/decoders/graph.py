"""Space-time decoding graphs for matching-based decoders.

A decoding graph has one node per *detector* (a stabilizer measurement
comparison at a specific round) plus a single virtual *boundary* node.  Each
edge is an elementary error mechanism:

* **space edges** — a data-qubit error at some round, connecting the one or
  two detectors whose stabilizers contain that qubit (errors on boundary data
  qubits connect a detector to the boundary node);
* **time edges** — a measurement error, connecting the same stabilizer's
  detectors in consecutive rounds.

Edge weights are ``−log(p / (1 − p))`` so that minimum-weight matchings
correspond to maximum-likelihood (independent-error) corrections.  Every space
edge records whether the underlying data qubit lies on the chosen logical
operator representative, which is how decoders and the memory experiment agree
on what counts as a logical error.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import networkx as nx

#: The single virtual boundary node shared by all boundary edges.
BOUNDARY = "boundary"

#: A detector is identified by (stabilizer index, round index).
Detector = Tuple[int, int]


@dataclass(frozen=True)
class DecodingEdge:
    """One elementary error mechanism in the decoding graph."""

    identifier: int
    node_a: object
    node_b: object
    weight: float
    kind: str                     # "space", "time" or "boundary"
    data_qubit: Optional[int]     # space/boundary edges only
    round_index: Optional[int]
    flips_logical: bool

    @property
    def is_boundary(self) -> bool:
        return self.node_a == BOUNDARY or self.node_b == BOUNDARY


def _error_weight(probability: float) -> float:
    probability = min(max(probability, 1e-12), 0.499999)
    return -math.log(probability / (1.0 - probability))


class DecodingGraph:
    """A weighted space-time decoding graph plus code metadata."""

    def __init__(self, name: str, distance: int, rounds: int,
                 num_stabilizers: int, num_data_qubits: int,
                 logical_support: FrozenSet[int]):
        self.name = name
        self.distance = int(distance)
        self.rounds = int(rounds)
        self.num_stabilizers = int(num_stabilizers)
        self.num_data_qubits = int(num_data_qubits)
        self.logical_support = frozenset(logical_support)
        self._graph = nx.Graph()
        self._graph.add_node(BOUNDARY)
        self._edges: List[DecodingEdge] = []
        # Memoized content caches, invalidated when the graph grows (the
        # construction API is append-only: add_detector / add_edge).
        self._fingerprint_cache: Optional[Tuple[Tuple[int, int], str]] = None
        self._detector_order_cache: Optional[Tuple[Tuple[int, int],
                                                   List[Detector]]] = None

    # -- construction --------------------------------------------------------
    def add_detector(self, detector: Detector) -> None:
        self._graph.add_node(detector)

    def add_edge(self, node_a, node_b, probability: float, kind: str,
                 data_qubit: Optional[int] = None,
                 round_index: Optional[int] = None) -> DecodingEdge:
        flips_logical = (data_qubit is not None
                         and data_qubit in self.logical_support)
        edge = DecodingEdge(identifier=len(self._edges), node_a=node_a,
                            node_b=node_b, weight=_error_weight(probability),
                            kind=kind, data_qubit=data_qubit,
                            round_index=round_index,
                            flips_logical=flips_logical)
        self._edges.append(edge)
        # Parallel edges (e.g. two data qubits joining the same detector pair)
        # keep only the lighter one in the simple-graph view, which is exactly
        # what a matching decoder would pick anyway.
        existing = self._graph.get_edge_data(node_a, node_b)
        if existing is None or existing["weight"] > edge.weight:
            self._graph.add_edge(node_a, node_b, weight=edge.weight,
                                 edge_ref=edge)
        return edge

    # -- queries --------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def edges(self) -> List[DecodingEdge]:
        return list(self._edges)

    @property
    def detectors(self) -> List[Detector]:
        return [node for node in self._graph.nodes if node != BOUNDARY]

    def edge_between(self, node_a, node_b) -> Optional[DecodingEdge]:
        data = self._graph.get_edge_data(node_a, node_b)
        return None if data is None else data["edge_ref"]

    def space_edges(self) -> List[DecodingEdge]:
        return [edge for edge in self._edges if edge.kind in ("space", "boundary")]

    def shortest_path(self, source, target) -> Tuple[float, List]:
        """Dijkstra distance and node path between two nodes."""
        distance, path = nx.single_source_dijkstra(self._graph, source,
                                                   target, weight="weight")
        return float(distance), path

    def path_edges(self, path: Sequence) -> List[DecodingEdge]:
        """The DecodingEdge objects along a node path."""
        edges = []
        for node_a, node_b in zip(path, path[1:]):
            edge = self.edge_between(node_a, node_b)
            if edge is None:
                raise ValueError(f"no edge between {node_a} and {node_b}")
            edges.append(edge)
        return edges

    def correction_flips_logical(self, edges: Iterable[DecodingEdge]) -> bool:
        """Parity of the logical operator crossed by a set of correction edges."""
        return sum(1 for edge in edges if edge.flips_logical) % 2 == 1

    # -- content identity -----------------------------------------------------
    def _shape_token(self) -> Tuple[int, int]:
        return (len(self._edges), self._graph.number_of_nodes())

    def detector_order(self) -> List[Detector]:
        """The canonical (sorted) detector ordering used by batched sampling.

        Column ``i`` of a syndrome matrix refers to ``detector_order()[i]``;
        both :mod:`repro.qec.sampling` and every decoder's ``decode_batch``
        agree on this ordering, so syndromes can cross process boundaries as
        plain arrays.
        """
        token = self._shape_token()
        if (self._detector_order_cache is None
                or self._detector_order_cache[0] != token):
            self._detector_order_cache = (token, sorted(self.detectors))
        return list(self._detector_order_cache[1])

    def fingerprint(self) -> str:
        """A stable content hash of the graph (cache key component).

        Covers the code metadata, every edge's endpoints, exact weight,
        kind and round, and the logical mask — two graphs with equal
        fingerprints sample identical error models and imply identical
        corrections, so Monte-Carlo results keyed on the fingerprint are
        shareable across processes and runs.
        """
        token = self._shape_token()
        if (self._fingerprint_cache is not None
                and self._fingerprint_cache[0] == token):
            return self._fingerprint_cache[1]
        digest = hashlib.blake2b(digest_size=16)
        digest.update(repr((self.name, self.distance, self.rounds,
                            self.num_stabilizers, self.num_data_qubits,
                            tuple(sorted(self.logical_support)))).encode())
        for edge in self._edges:
            digest.update(repr((edge.node_a, edge.node_b, edge.kind,
                                edge.data_qubit, edge.round_index,
                                edge.flips_logical)).encode())
            digest.update(struct.pack("<d", edge.weight))
        value = digest.hexdigest()
        self._fingerprint_cache = (token, value)
        return value


# ---------------------------------------------------------------------------
# Repetition code
# ---------------------------------------------------------------------------

def repetition_code_graph(distance: int, rounds: int,
                          data_error_rate: float,
                          measurement_error_rate: Optional[float] = None
                          ) -> DecodingGraph:
    """Decoding graph of the bit-flip repetition code under phenomenological noise.

    ``distance`` data qubits in a line, ``distance − 1`` ZZ parity checks,
    ``rounds`` noisy measurement rounds followed by one perfect round.  Data
    qubit 0 is the logical-operator representative (a single qubit suffices
    for the repetition code).
    """
    if distance < 3 or distance % 2 == 0:
        raise ValueError("distance must be an odd integer ≥ 3")
    if rounds < 1:
        raise ValueError("at least one measurement round is required")
    if measurement_error_rate is None:
        measurement_error_rate = data_error_rate
    num_stabilizers = distance - 1
    graph = DecodingGraph("repetition", distance, rounds, num_stabilizers,
                          num_data_qubits=distance,
                          logical_support=frozenset({0}))
    total_rounds = rounds + 1   # final perfect readout round
    for round_index in range(total_rounds):
        for stabilizer in range(num_stabilizers):
            graph.add_detector((stabilizer, round_index))
    for round_index in range(total_rounds):
        # Space edges: data qubit q touches checks (q−1, q).
        for qubit in range(distance):
            left = qubit - 1
            right = qubit
            node_a = (left, round_index) if left >= 0 else BOUNDARY
            node_b = (right, round_index) if right < num_stabilizers else BOUNDARY
            kind = "boundary" if BOUNDARY in (node_a, node_b) else "space"
            graph.add_edge(node_a, node_b, data_error_rate, kind,
                           data_qubit=qubit, round_index=round_index)
        # Time edges (no measurement error on the final perfect round).
        if round_index + 1 < total_rounds:
            for stabilizer in range(num_stabilizers):
                graph.add_edge((stabilizer, round_index),
                               (stabilizer, round_index + 1),
                               measurement_error_rate, "time",
                               round_index=round_index)
    return graph


# ---------------------------------------------------------------------------
# Rotated surface code
# ---------------------------------------------------------------------------

def rotated_surface_code_stabilizers(distance: int
                                     ) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """Z-type stabilizer supports of the rotated surface code.

    Data qubits sit on a ``distance × distance`` grid and are indexed
    ``row · distance + column``.  Bulk plaquettes centred at
    ``(row + ½, column + ½)`` are Z-type when ``row + column`` is even;
    weight-2 Z-type boundary plaquettes sit on the left and right edges.  The
    returned ``logical_support`` is the middle row of data qubits — a
    representative of the logical Z operator, whose parity detects logical X
    errors.

    Returns ``(stabilizer_supports, logical_support)``.
    """
    if distance < 3 or distance % 2 == 0:
        raise ValueError("distance must be an odd integer ≥ 3")

    def qubit(row: int, column: int) -> int:
        return row * distance + column

    supports: List[Tuple[int, ...]] = []
    # Bulk weight-4 plaquettes.
    for row in range(distance - 1):
        for column in range(distance - 1):
            if (row + column) % 2 == 0:
                supports.append((qubit(row, column), qubit(row, column + 1),
                                 qubit(row + 1, column),
                                 qubit(row + 1, column + 1)))
    # Left boundary weight-2 plaquettes (column −½): rows with (row − 1) even.
    for row in range(distance - 1):
        if (row + (-1)) % 2 == 0:
            supports.append((qubit(row, 0), qubit(row + 1, 0)))
    # Right boundary weight-2 plaquettes (column d−½): rows with (row + d−1) even.
    for row in range(distance - 1):
        if (row + distance - 1) % 2 == 0:
            supports.append((qubit(row, distance - 1),
                             qubit(row + 1, distance - 1)))
    logical_support = [qubit((distance - 1) // 2, column)
                       for column in range(distance)]
    return supports, logical_support


def rotated_surface_code_graph(distance: int, rounds: int,
                               data_error_rate: float,
                               measurement_error_rate: Optional[float] = None
                               ) -> DecodingGraph:
    """Decoding graph of the rotated surface code (X errors / Z stabilizers).

    Phenomenological noise: each data qubit suffers an X error with
    probability ``data_error_rate`` per round, and each stabilizer measurement
    is flipped with probability ``measurement_error_rate``; a final perfect
    round closes the syndrome history.
    """
    if rounds < 1:
        raise ValueError("at least one measurement round is required")
    if measurement_error_rate is None:
        measurement_error_rate = data_error_rate
    supports, logical_support = rotated_surface_code_stabilizers(distance)
    num_stabilizers = len(supports)
    num_data_qubits = distance * distance

    # Which stabilizers touch each data qubit (one or two).
    membership: Dict[int, List[int]] = {q: [] for q in range(num_data_qubits)}
    for stabilizer_index, support in enumerate(supports):
        for qubit in support:
            membership[qubit].append(stabilizer_index)

    graph = DecodingGraph("rotated_surface", distance, rounds, num_stabilizers,
                          num_data_qubits, frozenset(logical_support))
    total_rounds = rounds + 1
    for round_index in range(total_rounds):
        for stabilizer in range(num_stabilizers):
            graph.add_detector((stabilizer, round_index))
    for round_index in range(total_rounds):
        for qubit in range(num_data_qubits):
            stabilizers = membership[qubit]
            if len(stabilizers) == 2:
                graph.add_edge((stabilizers[0], round_index),
                               (stabilizers[1], round_index),
                               data_error_rate, "space", data_qubit=qubit,
                               round_index=round_index)
            elif len(stabilizers) == 1:
                graph.add_edge((stabilizers[0], round_index), BOUNDARY,
                               data_error_rate, "boundary", data_qubit=qubit,
                               round_index=round_index)
            else:   # pragma: no cover - every qubit touches ≥1 Z stabilizer
                raise RuntimeError("data qubit without stabilizer membership")
        if round_index + 1 < total_rounds:
            for stabilizer in range(num_stabilizers):
                graph.add_edge((stabilizer, round_index),
                               (stabilizer, round_index + 1),
                               measurement_error_rate, "time",
                               round_index=round_index)
    return graph


# ---------------------------------------------------------------------------
# Code-family names
# ---------------------------------------------------------------------------

#: Code-family name → graph builder, shared by the memory-experiment drivers
#: and the job service (``"surface"`` is the service's spelling of the
#: rotated surface code).
_CODE_GRAPHS = {
    "repetition": repetition_code_graph,
    "surface": rotated_surface_code_graph,
    "rotated_surface": rotated_surface_code_graph,
}


def _code_graph_builder(code: str):
    """The graph builder for ``code``; ``ValueError`` on an unknown name."""
    builder = _CODE_GRAPHS.get(code)
    if builder is None:
        raise ValueError(f"unknown code family {code!r} (expected one of "
                         f"{sorted(_CODE_GRAPHS)})")
    return builder
