"""One long-lived process dispatches like a fresh rmf-lab process per argv.

Usage: PYTHONPATH=src python tests/dispatch_matches_fresh.py

This process runs each case of CASES through cli.dispatch in turn, with
the case's RMF_LAB_THREADS, and a fresh process runs it as the console
script (`rmf-lab`, or `python -m rmflab.cli` where that is not
installed).  The exit code, stdout and stderr of the two must be equal,
once the wall times are blanked.  Exits 1 and names each case that
differs.
"""

from __future__ import annotations

import contextlib
import io
import os
import re
import shutil
import subprocess
import sys
import tempfile

from rmflab.cli import dispatch

#: no RMF_LAB_THREADS in the environment
UNSET = None

#: (RMF_LAB_THREADS, argv, expected exit code); "{config}" is a config file
CASES = (
    (UNSET, "nt zeta --s 2 --seed 1", 0),
    (UNSET, "nt zeta --seed 1", 2),  # --s is required
    (UNSET, "nt tail --x 10 --m 3 --sigma 0.75 --cutoff 1.5 --seed 1", 3),
    ("3", "mc positivity --sigma 0.75 --x 1 --nmax 1000 --trials 200 --seed 1", 0),
    (UNSET, "mc positivity --sigma 0.75 --x 1 --nmax 1000 --trials 200 --seed 1", 0),
    ("abc", "mc positivity --sigma 0.75 --x 1 --nmax 1000 --trials 200 --seed 1", 2),
    ("abc", "nt zeta --s 2 --seed 1 --threads 2", 0),
    (UNSET, "nt zeta --s 2 --seed 1 --threads 0", 2),
    (UNSET, "nt mertens --config {config}", 0),
    (UNSET, "bounds compare --log-x-grid 100,10000 --theta 0.5 --delta 0.5 "
            "--seed 1 --format csv", 0),
    (UNSET, "series trajectory --sigma 0.6 --nmax 5000 --stride 100 --seed 1", 0),
)

_WALL = re.compile(r'"wall_time_ms": [0-9]+')


def _blank(text: str) -> str:
    return _WALL.sub('"wall_time_ms": 0', text)


def _environ(threads: str | None) -> dict:
    env = dict(os.environ)
    env.pop("RMF_LAB_THREADS", None)
    if threads is not None:
        env["RMF_LAB_THREADS"] = threads
    return env


def in_process(threads: str | None, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of dispatch(argv) in this process."""
    saved = dict(os.environ)
    os.environ.clear()
    os.environ.update(_environ(threads))
    out, err = io.StringIO(), io.StringIO()
    try:
        # argparse writes its usage errors to sys.stderr itself
        with contextlib.redirect_stderr(err):
            code = dispatch(argv, stdout=out, stderr=err)
    finally:
        os.environ.clear()
        os.environ.update(saved)
    return code, _blank(out.getvalue()), _blank(err.getvalue())


def fresh(threads: str | None, argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of argv run by a fresh rmf-lab process."""
    script = shutil.which("rmf-lab")
    command = [script] if script else [sys.executable, "-m", "rmflab.cli"]
    proc = subprocess.run(
        command + argv, env=_environ(threads), capture_output=True, text=True
    )
    return proc.returncode, _blank(proc.stdout), _blank(proc.stderr)


def main() -> int:
    failed = 0
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "run.cfg")
        with open(config, "w") as fh:
            fh.write("x = 10\nexact = yes\nseed = 5\nthreads = 2\n")
        for threads, text, expected in CASES:
            argv = text.format(config=config).split()
            mine, theirs = in_process(threads, argv), fresh(threads, argv)
            name = f"RMF_LAB_THREADS={threads} {text}" if threads else text
            if mine != theirs:
                failed += 1
                print(f"DIFFERS: {name}\n  this process: {mine!r}\n  fresh: {theirs!r}")
            elif mine[0] != expected:
                failed += 1
                print(f"EXIT {mine[0]}, not {expected}: {name}\n  {mine!r}")
            else:
                print(f"same, exit {mine[0]}: {name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
