#!/usr/bin/env python
"""Generate docs/cli.md from the live ``repro`` --help output.

The page is committed; CI re-runs this script with ``--check`` on every
change and fails on drift, so the documented CLI can never fall out
of sync with the real one.

Usage::

    PYTHONPATH=src python scripts/gen_cli_docs.py --output docs/cli.md
    PYTHONPATH=src python scripts/gen_cli_docs.py --check docs/cli.md
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

#: Sub-commands in presentation order; None is the top-level parser.
COMMANDS = [
    None,
    "table1",
    "table2",
    "figure2",
    "campaign",
    "merge",
    "report",
    "profile",
    "serve",
    "demo",
    "offline",
    "heuristics",
    "models",
    "traces",
    "traces convert",
    "traces stats",
    "traces fit",
    "traces sample",
]

HEADER = """\
# CLI reference

<!-- Generated by scripts/gen_cli_docs.py -- do not edit by hand.
     Regenerate: PYTHONPATH=src python scripts/gen_cli_docs.py --output docs/cli.md -->

Every command below is `python -m repro <command>` (or plain `repro`
once the package is installed).  This page is generated from the live
`--help` output and checked for drift in [CI](ci.md).
"""


def help_text(command: str | None) -> str:
    """Return ``--help`` output for one (sub-)command at a pinned width."""
    argv = [sys.executable, "-m", "repro"]
    if command:
        argv.extend(command.split())
    argv.append("--help")
    env = dict(os.environ)
    # argparse wraps to the terminal width; pin it so output is
    # deterministic across environments.
    env["COLUMNS"] = "79"
    env.setdefault("PYTHONPATH", str(REPO / "src"))
    proc = subprocess.run(
        argv, capture_output=True, text=True, env=env, check=True, cwd=REPO
    )
    return proc.stdout.rstrip("\n")


def render() -> str:
    parts = [HEADER]
    for command in COMMANDS:
        title = f"`repro {command}`" if command else "`repro`"
        level = "###" if command and " " in command else "##"
        parts.append(f"{level} {title}\n\n```text\n{help_text(command)}\n```\n")
    return "\n".join(parts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--output", metavar="PATH", help="write the page to PATH")
    group.add_argument(
        "--check", metavar="PATH", help="exit 1 if PATH differs from fresh output"
    )
    args = parser.parse_args(argv)

    text = render()
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8")
        print(f"wrote {args.output}")
        return 0
    committed = Path(args.check).read_text(encoding="utf-8")
    if committed != text:
        sys.stderr.write(
            f"{args.check} is out of date with the live --help output.\n"
            "Regenerate: PYTHONPATH=src python scripts/gen_cli_docs.py "
            f"--output {args.check}\n"
        )
        return 1
    print(f"{args.check} matches the live CLI")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
