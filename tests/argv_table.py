"""Command lines that `twtl`'s own-parser path must parse as the full parser does.

`cli._parse_args` parses a command's options with a parser of the command's
own, built on the command's first call in the process and reused by the
later ones, and falls back on the full parser, `cli._build_parser()`, for
help and errors it cannot give. For every argv in `ARGVS` both must give the
same namespace, exit code, stdout and stderr. `tests/test_cli.py` checks the
table under pytest. Run as a script, with `src` on `PYTHONPATH`, this module
checks it on any CPython without pytest: twice in one process, the second
time in reverse order, so that every argv meets a reused parser. It prints
each argv that differs and exits 1 if one does:

    PYTHONPATH=src python tests/argv_table.py
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

from twtl import cli

F, C, T = ["--formula", "f.twtl"], ["--config", "c.json"], ["--trace", "t.csv"]
FCT = F + C + T

ARGVS = [
    # help, before and after the command
    ["-h"],
    ["--help"],
    ["-h", "check"],
    ["check", "-h"],
    ["monitor", "--help"],
    ["check", *F, "--he"],
    ["casestudy", "extra", "-h"],
    # no command, an unknown one, an abbreviated one, an option before it
    [],
    ["bogus"],
    ["che", *FCT],
    ["Check", *FCT],
    [*F, "check"],
    ["--", "check", *FCT],
    # every command, valid
    ["parse", *F],
    ["parse", *F, *C, "--dt", "0.5"],
    ["check", *FCT],
    ["rho", *FCT, "--rho-bot", "-5", "--rho-top", "7"],
    ["eta", *FCT, "--dt=2"],
    ["oracle", *T, *C, *F],
    ["monitor", *FCT, "--tau", "0,2.5", "--format", "jsonl", "--out", "m.csv"],
    ["monitor", *F, *C, "--stream", "--conservative-eta"],
    ["casestudy", "--out", "d"],
    ["casestudy", "--out", "d", "--format", "jsonl"],
    # abbreviated and repeated options
    ["check", "--form", "f", "--conf", "c", "--tr", "t"],
    ["monitor", "--formu", "f", "--conf", "c", "--str", "--forma", "jsonl"],
    ["monitor", "--form", "f", *C, "--stream"],
    ["check", *FCT, "--rho", "1"],
    ["monitor", *F, "--c", "c", "--stream"],
    ["check", "--formula", "a", "--formula", "b", *C, *T],
    ["monitor", *F, *C, "--stream", "--stream"],
    # `--` and arguments left over
    ["check", "--", *FCT],
    ["check", *FCT, "--"],
    ["check", *F, *C, "--", *T],
    ["check", *FCT, "extra"],
    ["parse", "x", *F],
    ["casestudy", "--out", "d", "a", "b"],
    ["check", *FCT, "--bogus"],
    ["check", *FCT, "--conservative-eta"],
    ["check", *FCT, "extra", "--bogus"],
    # --trace with --stream, bad values, missing options
    ["monitor", *FCT, "--stream"],
    ["monitor", *F, *C, "--stream", *T],
    ["monitor", *F, *C, "--stream", "--format", "xml"],
    ["casestudy", "--out", "d", "--format", "tsv"],
    ["check", *FCT, "--dt", "0"],
    ["check", *FCT, "--rho-bot", "nan"],
    ["monitor", *F, *C, "--stream", "--tau", "1,x"],
    ["check"],
    ["check", "--bogus"],
    ["parse"],
    ["monitor", *F, *C],
    ["casestudy"],
    ["oracle", *F, *T],
]


def outcome(parse, argv: list[str]) -> tuple:
    """(vars of the namespace or None, exit code or None, stdout, stderr) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    ns = code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            ns = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return ns, code, out.getvalue(), err.getvalue()


def full(argv: list[str]):
    """argv parsed by the full parser alone."""
    return cli._build_parser().parse_args(argv)


def differing(argvs: list[list[str]] = ARGVS) -> list[list[str]]:
    """The argvs, in order, that `cli._parse_args` parses otherwise than `full`."""
    return [argv for argv in argvs if outcome(cli._parse_args, argv) != outcome(full, argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps to the terminal's width
    passes = {"first": differing(), "second, reversed": differing(ARGVS[::-1])}
    for name, bad in passes.items():
        for argv in bad:
            print("differs:", argv)
        print(f"{len(ARGVS) - len(bad)} of {len(ARGVS)} argvs parse as the full parser does "
              f"on the {name} pass (CPython {sys.version.split()[0]})")
    sys.exit(1 if any(passes.values()) else 0)
