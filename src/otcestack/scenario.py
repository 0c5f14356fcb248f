"""Line-oriented scenario files: configuration plus a scripted action list.

A scenario text has two kinds of lines. Configuration directives declare
the world (seed, tick budget, network shape, trust parameters, plan
mapping, attestation policy, nodes, hyperedges, oracles, faults, data
chunks). Action directives all start with ``do`` and run in file order:
sealing blocks, registering identifiers, creating and steering sandboxes,
feeding observations, running consensus instances and computation DAGs.

The parser is strict: every error names its line. Every line, directive
and action alike, is shaped by one schema table: a ``key=value`` token is
a keyword and any other token a positional, and the head's schema fixes
how many positionals it takes and which keywords (on a setup line, only
``fault``'s ``at=``). The six world-wide directives (``seed`` through
``policy``) may appear once each. A directive's values are then checked
by building the component they configure (keystore, network, trust graph,
plan mapping, attestation policy), so each rule lives in that component
and the parser only names the line. A line ends at a newline, blank
lines are skipped and ``#`` starts a comment (inline or whole-line).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .did import AttestationPolicy
from .hypergraph import DEFAULT_ALPHA, DEFAULT_LATENCY_BOUND, TrustHypergraph
from .keys import KeyStore
from .plan import PlanMapping
from .simnet import Behavior, FaultSpec, NetworkConfig


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class EdgeDecl:
    edge_id: str
    trust: float
    members: tuple[str, ...]


@dataclass(frozen=True)
class ChunkDecl:
    node: str
    chunk_id: str
    data: bytes


@dataclass(frozen=True)
class ParsedAction:
    line_no: int
    verb: str
    args: tuple[str, ...]
    kw: dict[str, str]


@dataclass
class Scenario:
    seed: int
    max_ticks: int = 5000
    net: NetworkConfig = NetworkConfig()
    alpha: float = DEFAULT_ALPHA
    latency_bound: int = DEFAULT_LATENCY_BOUND
    tau: float = 0.8
    weights: tuple[float, ...] = (1.0,)
    policy: tuple[tuple[str, int | None], ...] = ()
    nodes: tuple[str, ...] = ()
    edges: tuple[EdgeDecl, ...] = ()
    oracles: tuple[str, ...] = ()
    faults: tuple[FaultSpec, ...] = ()
    chunks: tuple[ChunkDecl, ...] = ()
    actions: tuple[ParsedAction, ...] = field(default_factory=tuple)


def _schema(lo: int, hi: float | None = None, required=(), optional=(), free=False):
    """(min positional, max positional (default `lo`), required keywords,
    accepted keywords (required and optional), any keyword accepted): how
    a line's head shapes its tokens."""
    accepted = frozenset((*required, *optional))
    return lo, lo if hi is None else hi, frozenset(required), accepted, free


# setup head -> schema; `policy` takes any number of names
_DIRECTIVES = {
    "seed": _schema(1), "max-ticks": _schema(1), "net": _schema(4),
    "trust": _schema(2), "mapping": _schema(2), "policy": _schema(1, float("inf")),
    "node": _schema(1), "edge": _schema(3), "oracle": _schema(1),
    "fault": _schema(2, optional={"at"}), "chunk": _schema(3),
}
_ONCE = frozenset({"seed", "max-ticks", "net", "trust", "mapping", "policy"})

# `do` verb -> schema
_ACTIONS = {
    "register-did": _schema(1, free=True), "seal": _schema(0),
    "create-otce": _schema(1, required={"group", "delta", "trust"}, optional={"by"}),
    "observe": _schema(4, optional={"by-oracle"}), "update-trust": _schema(1),
    "consensus": _schema(1, required={"value"}), "run-dag": _schema(1, required={"file"}),
    "submit-result": _schema(1), "suspend": _schema(1, required={"by"}),
    "resume": _schema(1, required={"by"}), "terminate": _schema(1, required={"by"}),
    "update-plan": _schema(1, required={"trust", "by"}),
}


def _fail(ln: int, why: str) -> None:
    raise ScenarioError(f"line {ln}: {why}")


def _as_int(ln: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        _fail(ln, f"{what} must be an integer, got {tok!r}")


def _as_float(ln: int, tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        _fail(ln, f"{what} must be a number, got {tok!r}")


def _checked(ln: int, build, *args):
    """`build(*args)`, with the ValueError by which it refuses its
    arguments reported against line `ln`."""
    try:
        return build(*args)
    except ValueError as exc:
        _fail(ln, str(exc))


def _parse_line(ln: int, parts: list[str], schemas: dict, kind: str):
    """Shape one line's tokens by its head's schema into (head,
    positionals, keywords): a `key=value` token is a keyword, any other
    token a positional."""
    if not parts:
        _fail(ln, f"empty {kind}")
    verb = parts[0]
    try:
        lo, hi, required, accepted, free = schemas[verb]
    except KeyError:
        _fail(ln, f"unknown {kind} {verb!r}")
    args: list[str] = []
    kw: dict[str, str] = {}
    for tok in parts[1:]:
        if "=" in tok:
            key, _, val = tok.partition("=")
            if not key:
                _fail(ln, f"bad argument {tok!r}")
            if key in kw:
                _fail(ln, f"duplicate argument {key!r}")
            kw[key] = val
        else:
            args.append(tok)
    if not lo <= len(args) <= hi:
        _fail(ln, f"{verb} takes {lo}..{hi} positional arguments, got {len(args)}")
    if not required.issubset(kw):
        missing = sorted(required - kw.keys())
        _fail(ln, f"{verb} needs {', '.join(k + '=' for k in missing)}")
    if not (free or accepted.issuperset(kw)):
        _fail(ln, f"{verb} does not take {', '.join(sorted(kw.keys() - accepted))}")
    return verb, tuple(args), kw


def parse_scenario(text: str) -> Scenario:
    seed: int | None = None
    singles: set[str] = set()
    cfg: dict = {}
    policy: list[tuple[str, int | None]] = []
    nodes: list[str] = []
    edges: list[EdgeDecl] = []
    oracles: dict[str, None] = {}       # an ordered set
    faults: dict[str, FaultSpec] = {}   # by node, in file order
    chunks: dict[tuple[str, str], ChunkDecl] = {}   # by (node, chunk id)
    chunk_data: dict[str, bytes] = {}   # one value per chunk id, on every holder
    actions: list[ParsedAction] = []
    graph = TrustHypergraph()       # answers the node and edge checks

    for ln, raw in enumerate(text.split("\n"), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "do":
            actions.append(ParsedAction(ln, *_parse_line(ln, parts[1:], _ACTIONS, "action")))
            continue
        head, args, kw = _parse_line(ln, parts, _DIRECTIVES, "directive")
        if head in _ONCE:
            if head in singles:
                _fail(ln, f"duplicate {head} directive")
            singles.add(head)

        if head == "seed":
            seed = _checked(ln, KeyStore, _as_int(ln, args[0], "seed")).seed
        elif head == "max-ticks":
            cfg["max_ticks"] = _as_int(ln, args[0], "max-ticks")
            if cfg["max_ticks"] < 1:
                _fail(ln, "max-ticks must be positive")
        elif head == "net":
            cfg["net"] = _checked(
                ln, NetworkConfig, _as_int(ln, args[0], "delay-min"),
                _as_int(ln, args[1], "delay-max"),
                None if args[2] == "-" else _as_int(ln, args[2], "gst"),
                _as_float(ln, args[3], "drop-rate"))
        elif head == "trust":
            cfg["alpha"] = _as_float(ln, args[0], "alpha")
            cfg["latency_bound"] = _as_int(ln, args[1], "latency-bound")
            _checked(ln, TrustHypergraph, cfg["alpha"], cfg["latency_bound"])
        elif head == "mapping":
            cfg["tau"] = _as_float(ln, args[0], "tau")
            cfg["weights"] = (_as_float(ln, args[1], "weight"),)
            _checked(ln, PlanMapping, (cfg["weights"],), cfg["tau"])
        elif head == "policy":
            for tok in args:
                name, _, length = tok.partition(":")
                policy.append((name, _as_int(ln, length, "length") if length else None))
            _checked(ln, AttestationPolicy, tuple(policy))
        elif head == "node":
            if args[0] in graph.nodes:
                _fail(ln, f"duplicate node {args[0]!r}")
            graph.add_node(args[0])
            nodes.append(args[0])
        elif head == "edge":
            trust = _as_float(ln, args[1], "trust")
            members = tuple(args[2].split(","))
            _checked(ln, graph.add_hyperedge, members, trust, args[0])
            edges.append(EdgeDecl(args[0], trust, members))
        elif head == "oracle":
            if args[0] in oracles:
                _fail(ln, f"duplicate oracle {args[0]!r}")
            oracles[args[0]] = None
        elif head == "fault":
            node, behavior_s = args
            if node not in graph.nodes:
                _fail(ln, f"fault for undeclared node {node!r}")
            if node in faults:
                _fail(ln, f"second fault for node {node!r}")
            try:
                behavior = Behavior(behavior_s)
            except ValueError:
                ok = ", ".join(b.value for b in Behavior)
                _fail(ln, f"unknown behavior {behavior_s!r} (one of: {ok})")
            at_tick = _as_int(ln, kw.get("at", "0"), "at")
            if at_tick < 0:
                _fail(ln, "at must be non-negative")
            faults[node] = FaultSpec(node, behavior, at_tick)
        else:   # chunk
            node, chunk_id, hex_data = args
            if node not in graph.nodes:
                _fail(ln, f"chunk on undeclared node {node!r}")
            if (node, chunk_id) in chunks:
                _fail(ln, f"duplicate chunk {chunk_id!r} on {node!r}")
            try:
                data = bytes.fromhex(hex_data)
            except ValueError:
                _fail(ln, f"chunk data must be hex, got {hex_data!r}")
            if chunk_data.setdefault(chunk_id, data) != data:
                _fail(ln, f"chunk {chunk_id!r} was declared with other data")
            chunks[node, chunk_id] = ChunkDecl(node, chunk_id, data)

    if seed is None:
        raise ScenarioError("scenario needs a seed directive")
    return Scenario(seed=seed, policy=tuple(policy), nodes=tuple(nodes),
                    edges=tuple(edges), oracles=tuple(oracles),
                    faults=tuple(faults.values()), chunks=tuple(chunks.values()),
                    actions=tuple(actions), **cfg)
