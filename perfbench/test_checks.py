"""Each benchmark check fires on a corrupted input and passes on a sound one.

Run from the repository root: ``python3 -m pytest -q perfbench/test_checks.py``.
"""

from __future__ import annotations

import numpy as np

import checks

N = 10
PATH_EDGES = [(i, i + 1) for i in range(N - 1)]


def _path_reference(sources):
    u, v = checks.edge_arrays(PATH_EDGES)
    return checks.distances(checks.adjacency(N, u, v), sources, unweighted=True)


def _emulator_distances(edges, sources):
    u, v, w = checks.edge_arrays(edges, weighted=True)
    return checks.distances(checks.adjacency(N, u, v, w), sources, unweighted=False)


def test_distances_match_path_graph():
    d = _path_reference([0, 4])
    assert d[0].tolist() == [float(i) for i in range(N)]
    assert d[1, 9] == 5.0


def test_emulator_edge_lighter_than_graph_distance_fires():
    sources = [2, 7]
    d_g = _path_reference(sources)
    sound = [(u, v, 1.0) for u, v in PATH_EDGES] + [(0, 9, 9.0)]
    assert checks.check_stretch(d_g, _emulator_distances(sound, sources), 1.0, 0.0, "H") == []
    light = sound[:-1] + [(0, 9, 1.0)]
    problems = checks.check_stretch(d_g, _emulator_distances(light, sources), 1.0, 100.0, "H")
    assert any("d_H < d_G" in p for p in problems)


def test_dropped_edge_that_disconnects_a_pair_fires():
    sources = [0, 9]
    d_g = _path_reference(sources)
    dropped = [(u, v, 1.0) for u, v in PATH_EDGES if (u, v) != (4, 5)]
    problems = checks.check_stretch(d_g, _emulator_distances(dropped, sources), 1.0, 1e9, "H")
    assert any("connected in G but not in H" in p for p in problems)


def test_stretch_upper_bound_fires():
    sources = [0]
    d_g = _path_reference(sources)
    stretched = [(u, v, 2.0) for u, v in PATH_EDGES]
    d_h = _emulator_distances(stretched, sources)
    assert checks.check_stretch(d_g, d_h, 2.0, 0.0, "H") == []
    assert any("d_H >" in p for p in checks.check_stretch(d_g, d_h, 1.5, 1.0, "H"))


def test_emulator_one_edge_past_size_bound_fires():
    n, kappa = 16, 2.0
    bound = int(n ** (1 + 1 / kappa))
    assert checks.check_size(bound, n, kappa, "H") == []
    assert checks.check_size(bound + 1, n, kappa, "H")


def test_non_positive_emulator_weight_fires():
    assert checks.check_positive_weights(np.array([1.0, 3.0]), "H") == []
    assert checks.check_positive_weights(np.array([1.0, 0.0]), "H")


def test_spanner_edge_not_in_graph_fires():
    u, v = checks.edge_arrays(PATH_EDGES)
    keys = np.sort(checks.edge_keys(N, u, v))
    su, sv = checks.edge_arrays([(3, 2), (5, 6)])
    assert checks.check_subgraph(N, keys, su, sv, "S") == []
    bu, bv = checks.edge_arrays([(3, 2), (0, 5)])
    assert checks.check_subgraph(N, keys, bu, bv, "S")


def test_served_answer_below_graph_distance_fires():
    d_g = [3.0, 5.0, float("inf")]
    assert checks.check_answers([3.0, 7.0, float("inf")], d_g, d_g, 2.0, 0.0, "A") == []
    assert any("below d_G" in p for p in
               checks.check_answers([2.0, 7.0, float("inf")], d_g, d_g, 2.0, 0.0, "A"))
    assert checks.check_answers([3.0, 7.0, 4.0], d_g, d_g, 2.0, 0.0, "A")


def test_live_upper_bound_uses_the_graph_at_answer_time():
    built_for = [4.0]     # d_G in the graph the answering version was built on
    now = [6.0]           # d_G after a later deletion
    assert checks.check_answers([9.0], built_for, now, 1.5, 0.0, "A") == []
    assert checks.check_answers([9.5], built_for, now, 1.5, 0.0, "A")
    # Unguaranteed answers keep only the lower bound.
    assert checks.check_answers([50.0], built_for, now, 1.5, 0.0, "A", check_upper=False) == []

