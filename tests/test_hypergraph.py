import random
from itertools import combinations

import pytest

from otcestack.hypergraph import (BehaviorObservation, OracleFeedRecord,
                                  TrustHypergraph, make_oracle_record,
                                  oracle_identity)
from otcestack.keys import KeyStore


def obs(subject, edge_id, compliant, latency, at=0):
    return BehaviorObservation(subject, edge_id, compliant, latency, at)


def small_graph(**kw):
    g = TrustHypergraph(**kw)
    for n in ("a", "b", "c", "d"):
        g.add_node(n)
    g.add_hyperedge(["a", "b", "c"], 0.5, edge_id="e1")
    g.add_hyperedge(["c", "d"], 0.9, edge_id="e2")
    return g


# -- construction ----------------------------------------------------------

@pytest.mark.parametrize("kw", [{"alpha": 0.0}, {"alpha": float("nan")},
                                {"latency_bound": -1}],
                         ids=["alpha-zero", "alpha-nan", "negative-latency-bound"])
def test_constructor_refuses_bad_parameters(kw):
    with pytest.raises(ValueError):
        TrustHypergraph(**kw)


def test_edge_needs_known_nodes():
    g = TrustHypergraph()
    g.add_node("a")
    g.add_node("b")
    with pytest.raises(ValueError):
        g.add_hyperedge(["a", "z"], 0.5, edge_id="e1")


def test_edge_needs_two_distinct_members():
    g = TrustHypergraph()
    g.add_node("a")
    with pytest.raises(ValueError):
        g.add_hyperedge(["a", "a"], 0.5, edge_id="e1")


def test_trust_range_enforced():
    g = small_graph()
    with pytest.raises(ValueError):
        g.add_hyperedge(["a", "b"], 1.5, edge_id="e3")


def test_duplicate_edge_id_rejected():
    g = small_graph()
    with pytest.raises(ValueError):
        g.add_hyperedge(["a", "b"], 0.5, edge_id="e1")


def test_group_trust_only_from_an_edge_holding_the_group():
    g = small_graph()
    assert g.group_trust("e1", ["a", "b", "c"]) == (0.5,)
    assert g.group_trust("e1", ["c", "a"]) == (0.5,)
    with pytest.raises(ValueError, match="^unknown edge 'e9'$"):
        g.group_trust("e9", ["a", "b"])
    with pytest.raises(ValueError, match="^group member\\(s\\) 'd', 'z' not in edge 'e1'$"):
        g.group_trust("e1", ["a", "d", "z"])
    with pytest.raises(ValueError, match="^group member\\(s\\) '' not in edge 'e1'$"):
        g.group_trust("e1", ["a", "", "b"])


@pytest.mark.parametrize("lookup", [
    lambda g: g.update_trust("e9", []),
    lambda g: g.update_trust("e9"),
    lambda g: g.drain_pending("e9"),
])
def test_unknown_edge_has_the_wording_of_group_trust(lookup):
    with pytest.raises(ValueError, match="^unknown edge 'e9'$"):
        lookup(small_graph())


# -- trust updates ---------------------------------------------------------

def test_all_compliant_batch_moves_toward_one():
    g = small_graph()
    new = g.update_trust("e1", [obs("a", "e1", True, 3)])
    assert new == pytest.approx(0.8 * 0.5 + 0.2 * 1.0)


def test_half_compliant_batch():
    g = small_graph()
    new = g.update_trust("e1", [obs("a", "e1", True, 3), obs("b", "e1", False, 3)])
    assert new == pytest.approx(0.8 * 0.5 + 0.2 * 0.5)


def test_latency_above_bound_counts_noncompliant():
    g = small_graph()        # latency bound 10
    new = g.update_trust("e2", [obs("c", "e2", True, 11)])
    assert new == pytest.approx(0.8 * 0.9)


def test_latency_at_bound_is_compliant():
    g = small_graph()
    new = g.update_trust("e2", [obs("c", "e2", True, 10)])
    assert new == pytest.approx(0.8 * 0.9 + 0.2)


def test_empty_batch_leaves_trust():
    g = small_graph()
    assert g.update_trust("e1", []) == 0.5
    assert g.edges["e1"].trust == 0.5


def test_alpha_override():
    g = small_graph(alpha=1.0)
    new = g.update_trust("e1", [obs("a", "e1", True, 1)])
    assert new == 1.0


def test_observation_for_other_edge_rejected():
    g = small_graph()
    with pytest.raises(ValueError):
        g.update_trust("e1", [obs("a", "e2", True, 1)])


@pytest.mark.parametrize("subject", ["d", "nobody"], ids=["other-edge", "not-a-node"])
def test_observation_of_a_non_member_rejected(subject):
    # a batch with one outsider is refused whole, and trust does not move
    g = small_graph()
    with pytest.raises(ValueError, match="not a member of edge e1"):
        g.update_trust("e1", [obs("a", "e1", True, 1), obs(subject, "e1", False, 99)])
    assert g.edges["e1"].trust == 0.5


def test_trust_stays_in_unit_interval():
    rng = random.Random(99)
    g = small_graph()
    for i in range(500):
        batch = [obs("a", "e1", rng.random() < 0.5, rng.randrange(0, 20), i)
                 for _ in range(rng.randrange(1, 5))]
        t = g.update_trust("e1", batch)
        assert 0.0 <= t <= 1.0


def test_ema_sequence_matches_reference_fold():
    rng = random.Random(123)
    g = small_graph()
    expected = 0.5
    for i in range(100):
        batch = [obs("a", "e1", rng.random() < 0.7, rng.randrange(0, 15), i)
                 for _ in range(rng.randrange(1, 6))]
        good = sum(1 for o in batch if o.compliant and o.latency <= 10)
        expected = 0.8 * expected + 0.2 * (good / len(batch))
        assert g.update_trust("e1", batch) == pytest.approx(expected, abs=1e-12)


# -- oracle feed -----------------------------------------------------------

def test_signed_record_queues_and_drains():
    ks = KeyStore(4)
    g = small_graph()
    g.register_oracle("o1", ks)
    rec = make_oracle_record(ks, "o1", obs("a", "e1", True, 2))
    assert g.ingest_oracle_record(rec)
    assert g.edges["e1"].trust == 0.5          # queued, not yet applied
    assert g.update_trust("e1") == pytest.approx(0.6)
    # the record was drained: a second update has an empty batch
    assert g.update_trust("e1") == pytest.approx(0.6)


def test_unregistered_oracle_rejected():
    ks = KeyStore(4)
    g = small_graph()
    rec = make_oracle_record(ks, "o1", obs("a", "e1", True, 2))
    assert not g.ingest_oracle_record(rec)


def test_tampered_signature_rejected():
    ks = KeyStore(4)
    g = small_graph()
    g.register_oracle("o1", ks)
    rec = make_oracle_record(ks, "o1", obs("a", "e1", True, 2))
    bad = OracleFeedRecord(rec.payload, rec.oracle_id,
                           bytes(b ^ 1 for b in rec.signature))
    assert not g.ingest_oracle_record(bad)
    assert g.update_trust("e1") == 0.5


def test_record_for_unknown_edge_rejected():
    ks = KeyStore(4)
    g = small_graph()
    g.register_oracle("o1", ks)
    rec = make_oracle_record(ks, "o1", obs("a", "zz", True, 2))
    assert not g.ingest_oracle_record(rec)


def test_record_about_a_non_member_rejected():
    ks = KeyStore(4)
    g = small_graph()
    g.register_oracle("o1", ks)
    for subject in ("d", "nobody"):
        rec = make_oracle_record(ks, "o1", obs(subject, "e1", False, 99))
        assert not g.ingest_oracle_record(rec)
    assert g.drain_pending("e1") == []


def test_record_signed_by_other_oracle_rejected():
    ks = KeyStore(4)
    g = small_graph()
    g.register_oracle("o1", ks)
    g.register_oracle("o2", ks)
    o = obs("a", "e1", True, 2)
    forged = OracleFeedRecord(o, "o1", ks.sign(oracle_identity("o2"), o.encode()))
    assert not g.ingest_oracle_record(forged)


def test_queue_preserves_arrival_order():
    ks = KeyStore(4)
    g = small_graph()
    g.register_oracle("o1", ks)
    for i in range(5):
        g.ingest_oracle_record(make_oracle_record(ks, "o1", obs("a", "e1", True, i)))
    drained = g.drain_pending("e1")
    assert [o.latency for o in drained] == [0, 1, 2, 3, 4]


# -- analytics vs brute force ----------------------------------------------

def brute_degrees(nodes, edges):
    return {n: sum(1 for members in edges.values() if n in members)
            for n in sorted(nodes)}


def brute_clustering(nodes, edges):
    adj = {n: set() for n in nodes}
    for members in edges.values():
        for u, v in combinations(members, 2):
            adj[u].add(v)
            adj[v].add(u)
    out = {}
    for n in sorted(nodes):
        k = len(adj[n])
        if k < 2:
            out[n] = 0.0
            continue
        links = sum(1 for u, v in combinations(sorted(adj[n]), 2) if v in adj[u])
        out[n] = 2.0 * links / (k * (k - 1))
    return out


def random_graph(rng):
    g = TrustHypergraph()
    n = rng.randrange(3, 26)
    nodes = [f"n{i}" for i in range(n)]
    for node in nodes:
        g.add_node(node)
    edges = {}
    for _ in range(rng.randrange(0, 41)):
        arity = rng.randrange(2, min(6, n + 1))
        members = tuple(sorted(rng.sample(nodes, arity)))
        eid = g.add_hyperedge(members, rng.random(), edge_id=f"e{len(edges)}")
        edges[eid] = set(members)
    return g, set(nodes), edges


def test_degree_and_clustering_match_brute_force():
    rng = random.Random(20240818)
    for _ in range(50):
        g, nodes, edges = random_graph(rng)
        assert g.node_degrees() == brute_degrees(nodes, edges)
        want = brute_clustering(nodes, edges)
        got = g.clustering_coefficients()
        assert set(got) == set(want)
        for n in want:
            assert got[n] == want[n]


def test_degree_distribution_counts_every_node():
    g = small_graph()
    # a:1 b:1 c:2 d:1
    assert g.degree_distribution() == {1: 3, 2: 1}
    g2 = TrustHypergraph()
    g2.add_node("lonely")
    assert g2.degree_distribution() == {0: 1}


def test_isolated_node_has_degree_zero_and_no_clustering():
    g = small_graph()
    g.add_node("z")
    assert g.node_degrees()["z"] == 0
    assert g.clustering_coefficients()["z"] == 0.0


def test_triangle_has_full_clustering():
    g = TrustHypergraph()
    for n in ("x", "y", "z"):
        g.add_node(n)
    g.add_hyperedge(["x", "y", "z"], 0.5, edge_id="e1")
    assert g.clustering_coefficients() == {"x": 1.0, "y": 1.0, "z": 1.0}
