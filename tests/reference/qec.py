"""Per-shot references for the batched QEC sampling pipeline."""

import math
from typing import Dict, List, Sequence

import numpy as np

from repro.qec.decoders.graph import BOUNDARY, DecodingEdge, DecodingGraph
from repro.qec.sampling import (SamplingRun, SeedLike, _shot_blocks,
                                as_seed_sequence, sample_errors,
                                sampling_arrays, syndromes_and_flips)


def sample_error_edges(graph: DecodingGraph,
                       rng: np.random.Generator) -> List[DecodingEdge]:
    """One shot's error edges, drawn edge by edge from ``rng``."""
    draws = rng.random(len(graph.edges))
    return [edge for edge, draw in zip(graph.edges, draws)
            if draw < 1.0 / (1.0 + math.exp(edge.weight))]


def syndrome_of(error_edges: Sequence[DecodingEdge]) -> List:
    """Detectors flipped an odd number of times by the error edges."""
    counts: Dict[object, int] = {}
    for edge in error_edges:
        for node in (edge.node_a, edge.node_b):
            if node != BOUNDARY:
                counts[node] = counts.get(node, 0) + 1
    return [node for node, count in counts.items() if count % 2]


def run_memory_sampling_reference(graph: DecodingGraph, decoder, shots: int,
                                  *, seed: SeedLike = None) -> SamplingRun:
    """:func:`~repro.qec.sampling.run_memory_sampling` decoded shot by shot.

    Draws the identical per-block error samples (same ``SeedSequence``
    children, same Bernoulli matrix) but decodes every shot through the
    decoder's ``decode`` — no deduplication, no batching, no caching — so
    its failure counts equal the batched path's bitwise.
    """
    seed_sequence, _ = as_seed_sequence(seed)
    arrays = sampling_arrays(graph)
    detectors = graph.detector_order()
    failures = 0
    total_defects = 0
    for seed_child, block_shots in _shot_blocks(seed_sequence, shots):
        errors = sample_errors(arrays, block_shots,
                               np.random.default_rng(seed_child))
        syndromes, error_flips = syndromes_and_flips(arrays, errors)
        for row in range(block_shots):
            defects = [detectors[column]
                       for column in np.flatnonzero(syndromes[row])]
            outcome = decoder.decode(defects)
            failures += int(bool(outcome.flips_logical)
                            != bool(error_flips[row]))
            total_defects += len(defects)
    return SamplingRun(shots=int(shots), failures=failures,
                       total_defects=total_defects, from_cache=False)
