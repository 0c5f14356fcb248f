import re

import pytest

from otcestack.keys import KeyStore
from otcestack.runner import run_scenario
from otcestack.scenario import ScenarioError, parse_scenario
from otcestack.simnet import Behavior, FaultSpec, NetworkConfig

FULL = """\
# a full-featured scenario
seed 42
max-ticks 900
net 1 4 60 0.25
trust 0.3 12
mapping 0.75 0.5
policy role proof:4

node n1
node n2
node n3
oracle watcher
edge e1 0.9 n1,n2,n3
fault n3 crash at=5
chunk n1 blob1 0a0b

do register-did n1 role=72656c6179   # inline comment
do seal
do create-otce box group=n1,n2,n3 delta=50 trust=edge:e1 by=n1
do consensus box value=aabb
do seal
"""


def test_full_parse():
    scn = parse_scenario(FULL)
    assert scn.seed == 42
    assert scn.max_ticks == 900
    assert scn.net == NetworkConfig(1, 4, 60, 0.25)
    assert (scn.alpha, scn.latency_bound) == (0.3, 12)
    assert (scn.tau, scn.weights) == (0.75, (0.5,))
    assert scn.policy == (("role", None), ("proof", 4))
    assert scn.nodes == ("n1", "n2", "n3")
    assert scn.oracles == ("watcher",)
    assert len(scn.edges) == 1
    assert scn.edges[0].edge_id == "e1"
    assert scn.edges[0].members == ("n1", "n2", "n3")
    assert scn.faults == (FaultSpec("n3", Behavior.CRASH, 5),)
    assert scn.faults[0].behavior is Behavior.CRASH
    assert scn.faults[0].at_tick == 5
    assert scn.chunks[0].data == b"\x0a\x0b"
    assert [a.verb for a in scn.actions] == [
        "register-did", "seal", "create-otce", "consensus", "seal"]


def test_defaults():
    scn = parse_scenario("seed 1\n")
    assert scn.max_ticks == 5000
    assert scn.net == NetworkConfig(1, 1, None, 0.0)
    assert (scn.alpha, scn.latency_bound) == (0.2, 10)
    assert (scn.tau, scn.weights) == (0.8, (1.0,))
    assert scn.policy == () and scn.actions == ()


def test_gst_dash_means_unset():
    scn = parse_scenario("seed 1\nnet 1 2 - 0.0\n")
    assert scn.net.gst is None


def test_comments_and_blank_lines_ignored():
    scn = parse_scenario("\n# hi\nseed 7   # trailing\n\n")
    assert scn.seed == 7


# `str.splitlines` also breaks a line at each of these
NOT_NEWLINES = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


@pytest.mark.parametrize("brk", NOT_NEWLINES)
def test_a_line_ends_only_at_a_newline(brk):
    scn = parse_scenario(f"seed 7{brk}\nnode a{brk}# x{brk}node b\ndo update-trust{brk}e\n")
    assert (scn.seed, scn.nodes) == (7, ("a",))
    assert (scn.actions[0].args, scn.actions[0].line_no) == (("e",), 3)
    with pytest.raises(ScenarioError, match="line 3: duplicate node"):
        parse_scenario(f"seed 1{brk}\nnode a\nnode a\n")


def test_crlf_text_parses_as_lf_text():
    assert parse_scenario(FULL.replace("\n", "\r\n")) == parse_scenario(FULL)


def test_action_kw_parsed():
    scn = parse_scenario("seed 1\ndo create-otce s group=a,b delta=9 trust=edge:e by=a\n")
    act = scn.actions[0]
    assert act.verb == "create-otce"
    assert act.args == ("s",)
    assert act.kw == {"group": "a,b", "delta": "9", "trust": "edge:e", "by": "a"}
    assert act.line_no == 2


# -- every failure names its line ------------------------------------------

@pytest.mark.parametrize("text,line", [
    ("seed x\n", 1),
    ("seed 1\nseed 2\n", 2),
    ("seed 1\nnet 1\n", 2),
    ("seed 1\nnet 5 1 - 0.0\n", 2),
    ("seed 1\nnet 1 2 - 1.5\n", 2),
    ("seed 1\ntrust 0 10\n", 2),
    ("seed 1\nmapping 2.0 1.0\n", 2),
    ("seed 1\nmapping 0.5\n", 2),
    ("seed 1\npolicy\n", 2),
    ("seed 1\npolicy a a:4\n", 2),
    ("seed 1\nnode a\nnode a\n", 3),
    ("seed 1\nedge e 0.5 a,b\n", 2),
    ("seed 1\nnode a\nnode b\nedge e 1.4 a,b\n", 4),
    ("seed 1\nnode a\nedge e 0.5 a,a\n", 3),
    ("seed 1\nnode a\nfault a explode\n", 3),
    ("seed 1\nfault a crash\n", 2),
    ("seed 1\nnode a\nfault a crash at=-1\n", 3),
    ("seed 1\nnode a\nfault a crash scope=global\n", 3),
    ("seed 1\nnode a\nfault a crash\nfault a crash\n", 4),
    ("seed 1\nnode a\nfault a crash at=1 at=5\n", 3),
    ("seed 1\nnode a\nnode b\nchunk a k 00\nchunk b k 01\n", 5),
    ("seed 1\nnode a\nchunk a c zz\n", 3),
    ("seed 1\nchunk a c 00\n", 2),
    ("seed 1\nwat 1 2\n", 2),
    ("seed 1\ndo\n", 2),
    ("seed 1\ndo frobnicate x\n", 2),
    ("seed 1\ndo oracle-feed o1 e1 n2 0 2\n", 2),
    ("seed 1\ndo seal a b\n", 2),
    ("seed 1\ndo seal 2\n", 2),
    ("seed 1\ndo consensus s value=aa instance=i\n", 2),
    ("seed 1\ndo update-trust e alpha=1.0\n", 2),
    ("seed 1\ndo submit-result s by=a\n", 2),
    ("seed 1\ndo create-otce s delta=1 trust=edge:e\n", 2),
    ("seed 1\ndo consensus s value=aa bogus=1\n", 2),
    ("seed 1\ndo observe a b\n", 2),
    ("seed 1\ndo register-did a a=1 a=2\n", 2),
    ("seed 1\nmapping 0.8 nan\n", 2),
    ("seed 1\nmapping 0.8 0.5 inf\n", 2),
    ("seed 1\nmapping 0.8 0.5 0.5\n", 2),
    ("seed 1\nmapping 0.8 inf\n", 2),
    ("seed 1\nmapping 0.8 -inf\n", 2),
    ("seed 1\nnet 1 2 -5 0.0\n", 2),
    ("seed 1\ntrust 0.5 -3\n", 2),
    ("seed 1\npolicy role:-1\n", 2),
    ("seed 1\npolicy a b:4 c:-2\n", 2),
    (f"# big\nseed {10**40}\n", 2),
    (f"seed {2**127}\n", 1),
    (f"seed {-2**127 - 1}\n", 1),
    ("seed 1\nnet 1 2 - nan\n", 2),
    ("seed 1\ntrust nan 10\n", 2),
    ("seed 1\nnode a\nnode b\nedge e nan a,b\n", 4),
    ("seed 1\nnode a\nnode b\nedge e 0.5 a,b\nedge e 0.9 a,b\n", 5),
    ("seed 1\npolicy :4\n", 2),
])
def test_errors_carry_line_numbers(text, line):
    with pytest.raises(ScenarioError, match=f"line {line}:"):
        parse_scenario(text)


# -- one shape rule for every setup line -----------------------------------

VALID_SETUP = {
    "seed": "seed 1", "max-ticks": "max-ticks 9", "net": "net 1 2 - 0.0",
    "trust": "trust 0.2 10", "mapping": "mapping 0.8 1.0", "policy": "policy role",
    "node": "node c", "edge": "edge e 0.5 a,b", "oracle": "oracle o",
    "fault": "fault a crash", "chunk": "chunk a k 00",
}
NODES = "node a\nnode b\n"


def off_by_one_token():
    """(head, line) for each setup head with one positional too few and
    one too many; `policy` takes any number of names, so only too few."""
    for head, line in VALID_SETUP.items():
        yield head, line.rsplit(" ", 1)[0]
        if head != "policy":
            yield head, line + " x"


@pytest.mark.parametrize("head", VALID_SETUP)
def test_each_setup_line_parses(head):
    seed = "" if head == "seed" else "seed 1\n"
    parse_scenario(NODES + seed + VALID_SETUP[head] + "\n")


@pytest.mark.parametrize("head,line", list(off_by_one_token()))
def test_setup_arity_is_shaped_like_an_action(head, line):
    with pytest.raises(ScenarioError,
                       match=f"line 3: {head} takes .* positional arguments, got"):
        parse_scenario(NODES + line + "\nseed 1\n")


@pytest.mark.parametrize("line,why", [
    ("node a=b", "node takes 1..1 positional arguments, got 0"),
    ("node c x=1", "node does not take x"),
    ("edge e=1 0.5 a,b", "edge takes 3..3 positional arguments, got 2"),
    ("fault a crash by=b", "fault does not take by"),
    ("fault a crash =1", "bad argument '=1'"),
    ("seed 1 at=2", "seed does not take at"),
])
def test_a_setup_keyword_is_refused_unless_its_schema_takes_it(line, why):
    with pytest.raises(ScenarioError, match=f"^line 3: {re.escape(why)}$"):
        parse_scenario(NODES + line + "\nseed 1\n")


@pytest.mark.parametrize("members,named", [
    ("a,,b", "''"), ("a,b,", "''"), ("a,ghost", "'ghost'"), ("x,a,", "'', 'x'"),
])
def test_an_unknown_edge_member_is_named_even_when_empty(members, named):
    with pytest.raises(ScenarioError,
                       match=f"^line 4: {re.escape('unknown member(s): ' + named)}$"):
        parse_scenario(f"seed 1\n{NODES}edge e 0.5 {members}\n")


def test_missing_seed_rejected():
    with pytest.raises(ScenarioError, match="seed"):
        parse_scenario("node a\n")


def test_register_did_takes_free_attributes():
    scn = parse_scenario("seed 1\ndo register-did n1 role=00 tier=ff\n")
    assert scn.actions[0].kw == {"role": "00", "tier": "ff"}


@pytest.mark.parametrize("seed", [2**127 - 1, -2**127])
def test_seed_range_ends_accepted(seed):
    scn = parse_scenario(f"seed {seed}\n")
    assert scn.seed == seed
    KeyStore(scn.seed).pubkey("a")


# -- hostile tokens in config directives -----------------------------------

SWEEP = """\
seed 5
max-ticks 400
net 1 3 20 0.1
trust 0.3 12
mapping 0.95 1.0
policy role proof:2
node n1
node n2
node n3
node n4
oracle o1
edge e1 0.9 n1,n2,n3,n4
fault n4 crash at=30
chunk n2 c1 0105
do register-did n1 role=01 proof=abcd
do create-otce box group=n1,n2,n3,n4 delta=50 trust=edge:e1
do seal
do consensus box value=aa
do run-dag box file=work.dag
do submit-result box
do observe e1 n1 1 3
do observe e1 n2 0 2 by-oracle=o1
do update-trust e1
do seal
"""


def hostile_variants(token: str):
    """(line, text) for SWEEP with one token of one config line, or the
    value after a token's `=` or `:`, replaced by `token`; an empty token
    drops the token or leaves its value empty."""
    lines = SWEEP.splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if parts[0] == "do":
            continue
        for j in range(1, len(parts)):
            heads = [""] + [parts[j].split(sep)[0] + sep for sep in "=:" if sep in parts[j]]
            for head in heads:
                new = " ".join(parts[:j] + [head + token] + parts[j + 1:])
                yield i + 1, "\n".join(lines[:i] + [new] + lines[i + 1:]) + "\n"


@pytest.mark.parametrize("token", ["nan", "inf", "-1", str(10**40), ""],
                         ids=["nan", "inf", "minus-one", "ten-pow-40", "empty"])
def test_hostile_config_token_is_refused_by_line_or_runs(tmp_path, token):
    """A refusal names the changed line or a later line that relies on it;
    a scenario the parser accepts runs to the end without raising."""
    (tmp_path / "work.dag").write_text(
        "chunk c1 0105\ntask t1 add l:02 c:c1\ntask t2 hash t:t1\n")
    refused = ran = 0
    for ln, text in hostile_variants(token):
        try:
            scn = parse_scenario(text)
        except ScenarioError as exc:
            named = re.match(r"line (\d+): ", str(exc))
            assert named and int(named[1]) >= ln, (text, str(exc))
            refused += 1
            continue
        result = run_scenario(scn, base_dir=tmp_path)
        assert result.chain_ok and result.replay_ok, text
        ran += 1
    assert refused and ran
