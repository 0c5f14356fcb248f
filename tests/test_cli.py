import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import otcestack
from otcestack import codec
from otcestack.cli import main
from otcestack.ledger import TxKind

SCENARIO = """\
seed 21
max-ticks 3000
node a
node b
node c
node d
edge e1 0.4 a,b,c,d

do register-did a role=00
do create-otce box group=a,b,c,d delta=30 trust=edge:e1
do seal
do consensus box value=cafe
do terminate box by=b
do seal
"""


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "case.scn").write_text(SCENARIO)
    return tmp_path


def do_run(workdir, *extra):
    out = workdir / "out"
    rc = main(["run", "--scenario", str(workdir / "case.scn"),
               "--out", str(out), *extra])
    return rc, out


# -- run -------------------------------------------------------------------

def test_run_writes_outputs_and_exits_zero(workdir, capsys):
    rc, out = do_run(workdir)
    assert rc == 0
    printed = capsys.readouterr().out
    assert "chain_ok=1 replay_ok=1" in printed
    names = {p.name for p in out.iterdir()}
    assert names == {"chain.dump", "trace.log", "metrics.txt",
                     "otce.dump", "did.dump", "graph.dump"}
    assert "terminated_closed=1" in (out / "metrics.txt").read_text()


def test_run_is_reproducible(workdir, tmp_path):
    rc1, out1 = do_run(workdir)
    (workdir / "out2").mkdir()
    rc2 = main(["run", "--scenario", str(workdir / "case.scn"),
                "--out", str(workdir / "out2")])
    assert rc1 == rc2 == 0
    for name in ("chain.dump", "trace.log", "metrics.txt"):
        assert (out1 / name).read_text() == (workdir / "out2" / name).read_text()


def test_run_seed_override(workdir):
    rc, out = do_run(workdir, "--seed-override", "99")
    assert rc == 0
    assert "seed=99" in (out / "metrics.txt").read_text().splitlines()
    assert (out / "trace.log").read_text().splitlines()[0] == "# run seed=99 max-ticks=3000"
    rc, out = do_run(workdir, "--seed-override", "99", "--max-ticks", "2500")
    assert rc == 0
    assert (out / "trace.log").read_text().splitlines()[0] == "# run seed=99 max-ticks=2500"


def test_run_missing_scenario_is_harness_error(tmp_path, capsys):
    rc = main(["run", "--scenario", str(tmp_path / "nope.scn"),
               "--out", str(tmp_path / "o")])
    assert rc == 2


def test_run_non_utf8_scenario_is_harness_error(workdir, capsys):
    (workdir / "case.scn").write_bytes(SCENARIO.encode() + b"# \xff\n")
    rc, out = do_run(workdir)
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read scenario" in err and "Traceback" not in err
    assert not out.exists()


def test_run_bad_syntax_is_harness_error(tmp_path, capsys):
    (tmp_path / "bad.scn").write_text("seed 1\nwibble\n")
    rc = main(["run", "--scenario", str(tmp_path / "bad.scn"),
               "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("ticks", ["0", "-5"])
def test_run_refuses_non_positive_max_ticks(workdir, capsys, ticks):
    rc, out = do_run(workdir, "--max-ticks", ticks)
    assert rc == 2
    assert "max-ticks must be positive" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("line,bad", [
    ("mapping 0.8 nan", "weights must be finite"),
    ("mapping 0.8 inf", "weights must be finite"),
    ("net 1 2 -5 0.0", "gst must be non-negative"),
    (f"seed {10**40}", "seed must be in"),
])
def test_run_refuses_bad_scenario_values(workdir, capsys, line, bad):
    (workdir / "case.scn").write_text(f"{line}\n{SCENARIO}")
    rc, out = do_run(workdir)
    err = capsys.readouterr().err
    assert rc == 2
    assert f"line 1: {bad}" in err
    assert "Traceback" not in err
    assert not out.exists()


def refused_seed(capsys, argv) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert "Traceback" not in err
    return err


@pytest.mark.parametrize("seed", [-10**40, 2**127, -2**127 - 1])
def test_run_refuses_out_of_range_seed(workdir, capsys, seed):
    out = workdir / "out"
    err = refused_seed(capsys, ["run", "--scenario", str(workdir / "case.scn"),
                                "--out", str(out), "--seed-override", str(seed)])
    assert "seed must be in [-2^127, 2^127)" in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [str(10**40), "x"])
def test_replay_refuses_bad_seed(workdir, capsys, seed):
    _, out = do_run(workdir)
    err = refused_seed(capsys, ["replay", "--dump", str(out / "chain.dump"),
                                "--seed", seed])
    assert "seed must be" in err


def test_seed_range_ends_run_and_replay(workdir, capsys):
    for seed in (str(-2**127), str(2**127 - 1)):
        rc, out = do_run(workdir, "--seed-override", seed)
        assert rc == 0
        rc = main(["replay", "--dump", str(out / "chain.dump"), "--seed", seed])
        assert rc == 0


# -- verify-chain ----------------------------------------------------------

def test_verify_intact_chain(workdir, capsys):
    _, out = do_run(workdir)
    rc = main(["verify-chain", "--dump", str(out / "chain.dump")])
    assert rc == 0
    assert "chain intact" in capsys.readouterr().out


def test_verify_detects_bit_flips(workdir, capsys):
    from otcestack.ledger import load_chain

    _, out = do_run(workdir)
    dump = (out / "chain.dump").read_bytes()
    original = load_chain(dump.decode())
    rng = random.Random(66)
    detected = 0
    for _ in range(40):
        data = bytearray(dump)
        i = rng.randrange(len(data))
        data[i] ^= 1 << rng.randrange(8)
        mutated = bytes(data)
        # a flip that leaves the dump decoding to the same chain must read
        # "intact"; `load_chain` refuses a case-only flip of a hex letter, so
        # that one is "corrupt"
        try:
            same = load_chain(mutated.decode()) == original
        except (ValueError, IndexError, UnicodeDecodeError):
            same = False
        (workdir / "mut.dump").write_bytes(mutated)
        rc = main(["verify-chain", "--dump", str(workdir / "mut.dump")])
        if same:
            assert rc == 0, f"identity mutation at byte {i} misreported"
        else:
            assert rc == 1, f"mutation at byte {i} slipped through"
            detected += 1
    assert detected > 0
    assert "chain corrupt" in capsys.readouterr().out


@pytest.mark.parametrize("alias", [codec.pack(1.0), b"T\x01"], ids=["float", "bool"])
def test_verify_refuses_a_tx_kind_that_is_not_an_int(workdir, capsys, alias):
    # the create-otce tx's kind 1 as 1.0 or as True: the same int, other bytes
    _, out = do_run(workdir)
    dump = (out / "chain.dump").read_text()
    kind_1 = codec.pack(int(TxKind.CREATE_OTCE)).hex()
    forged, n = re.subn(rf"(?<=[ ;]){kind_1}", alias.hex(), dump)
    assert n == 1
    (workdir / "forged.dump").write_text(forged)
    assert main(["verify-chain", "--dump", str(workdir / "forged.dump")]) == 1
    assert "chain corrupt" in capsys.readouterr().out


def test_verify_missing_dump_is_harness_error(tmp_path):
    assert main(["verify-chain", "--dump", str(tmp_path / "none.dump")]) == 2


# -- replay ----------------------------------------------------------------

def test_replay_clean_with_scenario_keys(workdir, capsys):
    _, out = do_run(workdir)
    rc = main(["replay", "--dump", str(out / "chain.dump"),
               "--scenario", str(workdir / "case.scn")])
    assert rc == 0
    assert "replay clean" in capsys.readouterr().out


def test_replay_non_utf8_scenario_is_harness_error(workdir, capsys):
    _, out = do_run(workdir)
    (workdir / "bad.scn").write_bytes(b"seed 21\n# \xff\n")
    rc = main(["replay", "--dump", str(out / "chain.dump"),
               "--scenario", str(workdir / "bad.scn")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "can't decode byte 0xff" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "replay"])
@pytest.mark.parametrize("text,want", [
    (None, "error: cannot read scenario: "),
    ("seed 1\nwibble\n", "error: line 2: unknown directive 'wibble'"),
], ids=["missing", "bad-syntax"])
def test_missing_or_bad_scenario_is_the_same_harness_error(workdir, capsys, command,
                                                           text, want):
    scn = workdir / "other.scn"
    if text is not None:
        scn.write_text(text)
    if command == "run":
        argv = ["run", "--scenario", str(scn), "--out", str(workdir / "o")]
    else:
        _, out = do_run(workdir)
        argv = ["replay", "--dump", str(out / "chain.dump"), "--scenario", str(scn)]
    capsys.readouterr()
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(want) and "Traceback" not in err


def test_replay_with_explicit_seed(workdir, capsys):
    _, out = do_run(workdir)
    rc = main(["replay", "--dump", str(out / "chain.dump"), "--seed", "21"])
    assert rc == 0


def test_replay_wrong_seed_detects_forgery(workdir, capsys):
    # signatures in the dump do not verify under a different key universe
    _, out = do_run(workdir)
    rc = main(["replay", "--dump", str(out / "chain.dump"), "--seed", "31337"])
    assert rc == 1
    assert "chain corrupt" in capsys.readouterr().out


def test_replay_detects_tampered_record(workdir, capsys):
    _, out = do_run(workdir)
    text = (out / "chain.dump").read_text()
    # flip a recorded per-tx ok bit from :1: to :0:
    assert ":1:" in text
    (workdir / "tampered.dump").write_text(text.replace(":1:", ":0:", 1))
    rc = main(["replay", "--dump", str(workdir / "tampered.dump"),
               "--scenario", str(workdir / "case.scn")])
    assert rc == 1


def test_unparseable_dump_counts_as_detected_corruption(workdir, capsys):
    (workdir / "junk.dump").write_text("0 zz yy -\n")
    assert main(["verify-chain", "--dump", str(workdir / "junk.dump")]) == 1
    assert "unparseable" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify-chain", "replay"])
@pytest.mark.parametrize("text", ["", "\n", "# no blocks\n"])
def test_dump_without_blocks_is_corrupt(tmp_path, capsys, command, text):
    (tmp_path / "e.dump").write_text(text)
    assert main([command, "--dump", str(tmp_path / "e.dump")]) == 1
    assert "chain corrupt" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify-chain", "replay"])
def test_deeply_nested_tx_is_corrupt(tmp_path, capsys, command):
    line = f"0 {'00' * 32} {'00' * 32} {'4c00000001' * 5000}:1:\n"
    (tmp_path / "deep.dump").write_text(line)
    assert main([command, "--dump", str(tmp_path / "deep.dump")]) == 1
    assert "nesting too deep" in capsys.readouterr().out


@pytest.mark.parametrize("dag", ["", "# no tasks\nchunk k 00\n"])
def test_run_dag_without_tasks_is_refused(workdir, capsys, dag):
    (workdir / "work.dag").write_text(dag)
    (workdir / "case.scn").write_text(
        SCENARIO.replace("do terminate box by=b\n",
                         "do run-dag box file=work.dag\ndo submit-result box\n"))
    rc, out = do_run(workdir)
    err = capsys.readouterr().err
    assert rc == 2
    assert "work.dag: no tasks" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_dag_chunk_with_other_data_than_the_scenario_is_refused(workdir, capsys):
    (workdir / "work.dag").write_text("chunk k 00\ntask c concat c:k l:ff\n")
    (workdir / "case.scn").write_text(
        SCENARIO.replace("edge e1 0.4 a,b,c,d\n", "edge e1 0.4 a,b,c,d\nchunk a k 01\n")
                .replace("do terminate box by=b\n", "do run-dag box file=work.dag\n"))
    rc, out = do_run(workdir)
    err = capsys.readouterr().err
    assert rc == 2
    assert "work.dag: chunk 'k' has other data than the scenario gives it" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_run_dag_non_utf8_file_is_refused(workdir, capsys):
    (workdir / "work.dag").write_bytes(b"task c add l:01\n# \xff\n")
    (workdir / "case.scn").write_text(
        SCENARIO.replace("do terminate box by=b\n", "do run-dag box file=work.dag\n"))
    rc, out = do_run(workdir)
    err = capsys.readouterr().err
    assert rc == 2
    assert "cannot read dag file" in err and "Traceback" not in err
    assert not out.exists()


def test_run_dag_with_every_member_crashed_ends_incomplete(workdir, capsys):
    (workdir / "work.dag").write_text("task s add l:01 l:02\ntask h hash t:s\n")
    (workdir / "case.scn").write_text("""\
seed 3
node a
node b
node c
edge team 0.95 a,b,c
fault a crash at=0
fault b crash at=0
fault c crash at=0
do create-otce box group=a,b,c delta=30 trust=edge:team
do seal
do run-dag box file=work.dag
""")
    rc, out = do_run(workdir)
    assert rc == 0
    assert "Traceback" not in capsys.readouterr().err
    assert "run-dag ok incomplete: h,s" in (out / "trace.log").read_text()
    metrics = (out / "metrics.txt").read_text().splitlines()
    assert "dag_failed=1" in metrics and "dag_completed=0" in metrics


# -- host locale -----------------------------------------------------------

def run_cli(*args, **env):
    """The CLI's exit code, stdout and stderr in a fresh interpreter."""
    src = str(Path(otcestack.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-m", "otcestack.cli", *args],
                          env={**os.environ, "PYTHONPATH": src, **env},
                          capture_output=True, encoding="utf-8", errors="replace")
    return proc.returncode, proc.stdout, proc.stderr


ASCII_HOST = {"LC_ALL": "C", "PYTHONUTF8": "0"}


def test_outputs_do_not_depend_on_the_host_locale(tmp_path):
    (tmp_path / "snow.scn").write_text(
        "seed 5\nnode ☃\nnode b\nedge e 0.9 ☃,b\n"
        "do register-did ☃ role=00\ndo seal\n", encoding="utf-8")
    outs = {}
    for name, env in (("ascii", ASCII_HOST), ("utf8", {"PYTHONUTF8": "1"})):
        rc, _, err = run_cli("run", "--scenario", str(tmp_path / "snow.scn"),
                             "--out", str(tmp_path / name), **env)
        assert (rc, "Traceback" in err) == (0, False), err
        outs[name] = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
    assert len(outs["ascii"]) == 6 and outs["ascii"] == outs["utf8"]
    assert "☃".encode() in outs["ascii"]["graph.dump"]


def test_verify_prints_a_character_the_host_cannot_encode(tmp_path):
    (tmp_path / "snow.dump").write_text("0 ☃\n", encoding="utf-8")
    rc, out, err = run_cli("verify-chain", "--dump", str(tmp_path / "snow.dump"),
                           **ASCII_HOST)
    assert rc == 1
    assert "chain corrupt" in out and "Traceback" not in err
