"""Seeded generators for the benchmark's scenario and DAG inputs.

Each generator returns a ``Workload``: the scenario text and, for a DAG
workload, the DAG file's name and text. The program under test only ever
sees these texts. The same seed always gives the same texts.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Trust above TAU maps a group to the majority plan, below it to the
# byzantine plan; the generated edges sit well clear of the threshold.
TAU = 0.8
MAJORITY_TRUST = 0.95
BYZANTINE_TRUST = 0.40


@dataclass
class Workload:
    name: str
    scenario: str
    dag: str | None = None
    dag_file: str | None = None


def _header(seed: int, max_ticks: int, net: str) -> list[str]:
    return [f"seed {seed}", f"max-ticks {max_ticks}", f"net {net}",
            "trust 0.2 10", f"mapping {TAU} 1.0"]


# -- ledger_churn ------------------------------------------------------------

LEDGER_NODES = 24
LEDGER_BLOCKS = 400
LEDGER_PER_BLOCK = 25
LEDGER_EDGES = 8
LEDGER_MIX = (("create", 45), ("suspend-resume", 20), ("terminate", 10),
              ("update-plan", 10), ("observe", 15))


def ledger_churn(seed: int) -> Workload:
    """Sandbox lifecycle churn on the ledger: no network, no DAG."""
    rng = random.Random(f"ledger_churn/{seed}")
    nodes = [f"n{i:02d}" for i in range(LEDGER_NODES)]
    lines = _header(rng.randrange(1, 2**31), 100, "1 1 - 0.0")
    lines += [f"node {n}" for n in nodes]
    edges = {}
    for e in range(LEDGER_EDGES):
        members = sorted(rng.sample(nodes, rng.randint(4, 8)))
        edges[f"g{e}"] = members
        trust = MAJORITY_TRUST if e % 2 == 0 else BYZANTINE_TRUST
        lines.append(f"edge g{e} {trust:.2f} {','.join(members)}")
    lines.append("oracle audit")

    acts: list[str] = []
    for n in nodes:
        acts.append(f"register-did {n} role={rng.randbytes(4).hex()}")
    # the generator's model of each live sandbox: alias -> [group, state, edge]
    live: dict[str, list] = {}
    pending_expiry: dict[int, list[str]] = {}
    running: list[str] = []
    suspended: list[str] = []
    created = 0
    mix_names = [name for name, _ in LEDGER_MIX]
    mix_weights = [w for _, w in LEDGER_MIX]

    def drop(alias: str) -> None:
        state = live.pop(alias)[1]
        (running if state == "run" else suspended).remove(alias)

    for height in range(1, LEDGER_BLOCKS + 1):
        for _ in range(LEDGER_PER_BLOCK):
            op = rng.choices(mix_names, mix_weights)[0]
            if op == "suspend-resume" and not (running or suspended):
                op = "create"
            if op in ("terminate", "update-plan") and not live:
                op = "create"
            if op == "create":
                edge = rng.choice(sorted(edges))
                group = sorted(rng.sample(edges[edge], rng.randint(4, len(edges[edge]))))
                delta = rng.randint(50, 2000)
                alias = f"s{created}"
                created += 1
                acts.append(f"create-otce {alias} group={','.join(group)} "
                            f"delta={delta} trust=edge:{edge} by={rng.choice(group)}")
                live[alias] = [group, "run", edge]
                running.append(alias)
                pending_expiry.setdefault(height + delta, []).append(alias)
            elif op == "suspend-resume":
                # resume when something is suspended and the coin says so
                if suspended and (not running or rng.random() < 0.5):
                    alias = rng.choice(suspended)
                    suspended.remove(alias)
                    running.append(alias)
                    live[alias][1] = "run"
                    acts.append(f"resume {alias} by={rng.choice(live[alias][0])}")
                else:
                    alias = rng.choice(running)
                    running.remove(alias)
                    suspended.append(alias)
                    live[alias][1] = "sus"
                    acts.append(f"suspend {alias} by={rng.choice(live[alias][0])}")
            elif op == "terminate":
                alias = rng.choice(running + suspended)
                acts.append(f"terminate {alias} by={rng.choice(live[alias][0])}")
                drop(alias)
            elif op == "update-plan":
                alias = rng.choice(running + suspended)
                group, _, edge = live[alias]
                acts.append(f"update-plan {alias} trust=edge:{edge} by={rng.choice(group)}")
            else:
                edge = rng.choice(sorted(edges))
                compliant = int(rng.random() < 0.8)
                acts.append(f"observe {edge} {rng.choice(edges[edge])} {compliant} "
                            f"{rng.randint(1, 14)} by-oracle=audit")
        if height % 4 == 0:
            acts.append(f"update-trust g{(height // 4) % LEDGER_EDGES}")
        acts.append("seal")
        for alias in pending_expiry.pop(height, []):
            if alias in live:
                drop(alias)

    lines += ["do " + a for a in acts]
    return Workload("ledger_churn", "\n".join(lines) + "\n")


# -- consensus_wide ----------------------------------------------------------

CONSENSUS_INSTANCES = 3
EQUIVOCATOR = "x0"
# View-0 leader of each group, keyed by (n, byzantine). A group's leader is
# its smallest member, so each group draws its other members from the
# honest nodes above its leader. The byzantine 64-group leaves out c00 so
# its leader differs from the majority one's, and takes in the equivocator.
LEADERS = {(64, False): 0, (64, True): 1, (31, True): 10, (31, False): 11,
           (16, True): 30, (16, False): 31, (4, True): 50, (4, False): 51}


def consensus_wide(seed: int) -> Workload:
    """Eight sandboxes (n = 4/16/31/64, both plans), three instances each,
    every view-0 leader crashing shortly after the start."""
    rng = random.Random(f"consensus_wide/{seed}")
    honest_pool = [f"c{i:02d}" for i in range(64)]
    leaders = {key: f"c{idx:02d}" for key, idx in LEADERS.items()}
    crashed = set(leaders.values())
    lines = _header(rng.randrange(1, 2**31), 30000, "1 4 60 0.1")
    lines += [f"node {n}" for n in honest_pool + [EQUIVOCATOR]]
    groups = []
    for (n, byz), leader in sorted(leaders.items()):
        if n == 64:
            members = [c for c in honest_pool if c >= leader]
            if byz:
                members.append(EQUIVOCATOR)
        else:
            above = [c for c in honest_pool if c > leader and c not in crashed]
            # the leader's crash already fills f_max = (n - 1) // 3 = 1 at n = 4
            extra = [EQUIVOCATOR] if byz and n > 4 else []
            members = [leader] + extra + rng.sample(above, n - 1 - len(extra))
        alias = f"{'byz' if byz else 'maj'}{n}"
        groups.append((alias, sorted(members)))
        trust = BYZANTINE_TRUST if byz else MAJORITY_TRUST
        lines.append(f"edge {alias} {trust:.2f} {','.join(groups[-1][1])}")
    faults = {leader: "crash" for leader in crashed}
    faults[EQUIVOCATOR] = "equivocate"
    # Leaders crash at ticks 5-8, after their proposal is out. Each also
    # sits in the 64-groups, where it still votes in view 0: crashing them
    # earlier leaves the byzantine 64-group on the edge of its quorum, and
    # the workload's size then swings by a third from seed to seed.
    for node in sorted(faults):
        at = f" at={rng.randint(5, 8)}" if faults[node] == "crash" else ""
        lines.append(f"fault {node} {faults[node]}{at}")

    acts = [f"create-otce {alias} group={','.join(members)} "
            f"delta=1000 trust=edge:{alias} by={members[-1]}"
            for alias, members in groups]
    acts.append("seal")
    for _ in range(CONSENSUS_INSTANCES):
        for alias, _ in groups:
            acts.append(f"consensus {alias} value={rng.randbytes(rng.randint(8, 32)).hex()}")
    acts.append("seal")
    lines += ["do " + a for a in acts]
    return Workload("consensus_wide", "\n".join(lines) + "\n")


# -- dag_collab --------------------------------------------------------------

DAG_MEMBERS = 8
DAG_TASKS = 3000
DAG_CHUNKS = 64
DAG_FILE = "collab.dag"
DAG_LEAVES = 360
DAG_LAYERS = 264
OPS = ("add", "mul", "concat", "hash")


def dag_collab(seed: int) -> Workload:
    """One 3000-task DAG over eight members; one member crashes mid-run."""
    rng = random.Random(f"dag_collab/{seed}")
    members = [f"d{i}" for i in range(DAG_MEMBERS)]
    chunks = {f"k{i:02d}": rng.randbytes(rng.randint(32, 128)) for i in range(DAG_CHUNKS)}
    lines = _header(rng.randrange(1, 2**31), 30000, "1 3 40 0.05")
    lines += [f"node {n}" for n in members]
    lines.append(f"edge team {MAJORITY_TRUST:.2f} {','.join(members)}")
    # each chunk on two members, so a crash never strands a chunk
    for cid in sorted(chunks):
        for node in rng.sample(members, 2):
            lines.append(f"chunk {node} {cid} {chunks[cid].hex()}")
    victim = rng.choice(members[1:])
    # The executor has one reassignment round, at the first quiescence, and
    # no retransmission, so that round must start after GST. The leaf layer
    # keeps every member busy for DAG_LEAVES / DAG_MEMBERS ticks, past GST;
    # the crash lands before the round, which must then route around it.
    lines.append(f"fault {victim} crash at={rng.randint(20, 35)}")
    acts = [f"create-otce box group={','.join(members)} delta=1000 trust=edge:team",
            "seal", f"run-dag box file={DAG_FILE}", "submit-result box", "seal"]
    lines += ["do " + a for a in acts]

    # Leaves read only literals, so the scheduler deals them round-robin.
    # Above them sit DAG_LAYERS layers of equal width, each task reading one
    # from the layer just below: the critical path, and with it the work,
    # is the same for every seed. Operands of mul and concat are hashes,
    # chunks or literals only, so no value outgrows a few hundred bytes.
    dag_lines = [f"chunk {cid} {data.hex()}" for cid, data in sorted(chunks.items())]
    leaves = []
    for i in range(DAG_LEAVES):
        op = rng.choice(OPS)
        lits = " ".join("l:" + rng.randbytes(rng.randint(8, 32)).hex()
                        for _ in range(rng.randint(1, 2)))
        leaves.append((f"t{i:04d}", op))
        dag_lines.append(f"task t{i:04d} {op} {lits}")
    layers = [leaves]
    width = (DAG_TASKS - DAG_LEAVES) // DAG_LAYERS
    for depth in range(DAG_LAYERS):
        layer = []
        hashes_below = [t for t in layers[-1] if t[1] == "hash"]
        for k in range(width):
            tid = f"t{DAG_LEAVES + depth * width + k:04d}"
            op = rng.choice(OPS)
            if op in ("mul", "concat") and not hashes_below:
                op = "add"
            fits = (lambda t: t[1] == "hash") if op in ("mul", "concat") else (lambda t: True)
            near = [t for lay in layers[-3:] for t in lay if fits(t)]
            operands = ["t:" + rng.choice([t for t in layers[-1] if fits(t)])[0]]
            for _ in range(rng.randint(0, 2)):
                roll = rng.random()
                if roll < 0.15:
                    operands.append("c:" + rng.choice(sorted(chunks)))
                elif roll < 0.25:
                    operands.append("l:" + rng.randbytes(rng.randint(1, 8)).hex())
                else:
                    operands.append("t:" + rng.choice(near)[0])
            layer.append((tid, op))
            dag_lines.append(f"task {tid} {op} {' '.join(operands)}")
        layers.append(layer)
    return Workload("dag_collab", "\n".join(lines) + "\n",
                    dag="\n".join(dag_lines) + "\n", dag_file=DAG_FILE)


GENERATORS = {"ledger_churn": ledger_churn, "consensus_wide": consensus_wide,
              "dag_collab": dag_collab}
