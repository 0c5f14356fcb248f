"""Command line front end.

Exit codes: 0 for a completed run or an intact chain, 1 when corruption or
a replay mismatch is detected, 2 for harness errors (unreadable files, bad
scenario syntax, bad arguments).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .keys import SEED_RANGE, KeyStore
from .ledger import load_chain, verify_chain
from .runner import audit_chain, run_scenario
from .scenario import Scenario, ScenarioError, parse_scenario


def _seed(tok: str) -> int:
    """argparse type for key seeds: an integer that fits the keystore."""
    try:
        seed = int(tok)
    except ValueError:
        raise argparse.ArgumentTypeError(f"seed must be an integer, got {tok!r}") from None
    if seed not in SEED_RANGE:
        raise argparse.ArgumentTypeError(f"seed must be in [-2^127, 2^127), got {tok}")
    return seed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otcestack",
        description="Deterministic trust, ledger, and sandbox simulation stack.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("--scenario", required=True, help="scenario file path")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed-override", type=_seed, default=None)
    p_run.add_argument("--max-ticks", type=int, default=None)

    p_verify = sub.add_parser("verify-chain", help="check a chain dump's integrity")
    p_verify.add_argument("--dump", required=True, help="chain dump path")

    p_replay = sub.add_parser("replay", help="re-apply a chain dump and compare outcomes")
    p_replay.add_argument("--dump", required=True, help="chain dump path")
    p_replay.add_argument("--scenario", default=None,
                          help="scenario file providing seed, mapping, and policy")
    p_replay.add_argument("--seed", type=_seed, default=None,
                          help="key seed (overrides the scenario's)")
    return parser


def _cmd_run(args) -> int:
    try:
        text = Path(args.scenario).read_text()
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scn = parse_scenario(text)
        result = run_scenario(scn, base_dir=Path(args.scenario).parent,
                              seed_override=args.seed_override,
                              max_ticks_override=args.max_ticks)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, content in sorted(result.outputs().items()):
            (out_dir / name).write_text(content)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    failed = sum(1 for o in result.outcomes if not o.ok)
    print(f"run complete: {len(result.outcomes)} actions ({failed} failed), "
          f"height {result.ledger.current_height()}, outputs in {out_dir}")
    print(f"chain_ok={int(result.chain_ok)} replay_ok={int(result.replay_ok)}")
    return 0 if (result.chain_ok and result.replay_ok) else 1


def _load_dump(path: str) -> tuple[list | None, int]:
    """(chain, 0) when readable; (None, 2) unreadable; (None, 1) corrupt text."""
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        print(f"chain corrupt: unparseable dump ({exc})")
        return None, 1
    except OSError as exc:
        print(f"error: cannot read dump: {exc}", file=sys.stderr)
        return None, 2
    try:
        return load_chain(text), 0
    except (ValueError, IndexError) as exc:
        print(f"chain corrupt: unparseable dump ({exc})")
        return None, 1


def _cmd_verify(args) -> int:
    chain, rc = _load_dump(args.dump)
    if chain is None:
        return rc
    bad = verify_chain(chain)
    if bad is None:
        print(f"chain intact: {len(chain)} blocks, height {chain[-1].height}")
        return 0
    print(f"chain corrupt: first bad height {bad}")
    return 1


def _cmd_replay(args) -> int:
    chain, rc = _load_dump(args.dump)
    if chain is None:
        return rc
    scn = Scenario(seed=0)
    if args.scenario is not None:
        try:
            scn = parse_scenario(Path(args.scenario).read_text())
        except (OSError, ScenarioError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    ks = KeyStore(scn.seed if args.seed is None else args.seed)
    bad, mismatches, (registry, dids) = audit_chain(chain, scn, ks)
    if bad is not None:
        print(f"chain corrupt: first bad height {bad}")
        return 1
    if mismatches:
        print(f"replay diverged ({len(mismatches)} mismatches):")
        for line in mismatches:
            print("  " + line)
        return 1
    print(f"replay clean: {len(chain)} blocks, {len(registry.records)} sandboxes, "
          f"{len(dids.records)} identifiers")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "verify-chain":
        return _cmd_verify(args)
    return _cmd_replay(args)


if __name__ == "__main__":
    sys.exit(main())
