"""Reference command line for the tests: the argparse parser that
``cli.parse_args`` replaced, built from the same tables.  It is the
oracle of the parity test: on argv that both read, the reader gives the
namespace this parser gives, and each refuses what the other refuses."""

from __future__ import annotations

import argparse

from period_lab.cli import ACTIONS, COMMON_FLAGS, FLAGS, HANDLERS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="period-lab",
        description="exact computations around p-adic period rings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    for flag, options in COMMON_FLAGS.items():
        common.add_argument("--" + flag, **options)
    for name in (*HANDLERS, "batch"):
        command = sub.add_parser(name, parents=[common])
        if name in ACTIONS:
            command.add_argument("action", nargs="?", choices=ACTIONS[name])
        for flag in FLAGS.get(name, ()):
            if flag not in COMMON_FLAGS and flag != "action":
                command.add_argument("--" + flag)
    return parser
