"""Deterministic simulation stack for trust-weighted collaborative sandboxes.

The pieces, bottom up: a canonical byte codec and seeded keystore; a
weighted trust hypergraph with oracle-fed behavior observations; a
trust-to-security-plan mapping; a hash-chained ledger with contract
dispatch; a sandbox lifecycle contract; an identifier registry with
attestation policies; a deterministic message network with fault
injection; one consensus engine, run as PBFT under a byzantine plan and as
Multi-Paxos under a crash plan; a collaborative DAG executor; and a
scenario runner plus CLI gluing it all together.
"""
