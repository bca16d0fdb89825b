"""Run one rmf-lab operation in this fresh interpreter and report on it.

Usage: python3 bench/child.py SPEC_JSON

SPEC_JSON is an object with keys "argv" (the rmf-lab arguments) and
"trace" (wrap the layers with bench/tracer.py).  The report, one JSON line
on stdout, holds the set-up time (``import rmflab.cli`` plus
``build_parser()``), the wall time of ``dispatch(argv)``, the exit code, the
record with its table rows replaced by a digest, the peak RSS, the versions
the operation ran with and, when traced, the per-layer metrics.

One process per operation keeps in-process caches (such as the lru_cache
on the omega histogram) from carrying over between operations, because a
command-line user pays every cache fill.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback


#: Tables longer than this travel to the benchmark as a digest.
DIGEST_ROWS = 256


def _rows_digest(rows: list) -> dict:
    text = json.dumps(rows, sort_keys=True)
    return {
        "n_rows": len(rows),
        "first": rows[0] if rows else None,
        "last": rows[-1] if rows else None,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _blas_name(np) -> str:
    try:
        config = np.show_config(mode="dicts")
        return str(config["Build Dependencies"]["blas"]["name"])
    except (TypeError, KeyError, ValueError):
        return "unknown"


def _versions() -> dict:
    import mpmath
    import numpy as np
    import rmflab

    scipy = sys.modules.get("scipy")
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "mpmath": mpmath.__version__,
        # scipy counts only when rmflab itself loaded it
        "scipy": getattr(scipy, "__version__", "unknown") if scipy else "absent",
        "blas": _blas_name(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "rmflab_file": os.path.abspath(rmflab.__file__),
    }


def main() -> int:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import rmflab.cli as cli

    cli.build_parser()
    setup_s = time.perf_counter() - start

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    out, err = io.StringIO(), io.StringIO()
    report: dict = {"setup_s": setup_s}
    start = time.perf_counter()
    try:
        code = cli.dispatch(list(spec["argv"]), stdout=out, stderr=err)
    except Exception:  # an escaping traceback is a failed operation
        report["exception"] = traceback.format_exc()
        code = None
    report["dispatch_s"] = time.perf_counter() - start
    # before the record is parsed below, which holds a second copy of it
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.metrics()
        report["absent"] = tracer.absent

    report["exit_code"] = code
    report["stderr"] = err.getvalue()[-2000:]
    text = out.getvalue()
    record = None
    if code == 0:
        try:
            record = json.loads(text)
        except ValueError:  # the benchmark reports a missing record
            pass
    if isinstance(record, dict):
        values = record.get("values")
        rows = values.get("rows") if isinstance(values, dict) else None
        if isinstance(rows, list) and len(rows) > DIGEST_ROWS:
            values["rows"] = _rows_digest(values["rows"])
    report["record"] = record
    report["versions"] = _versions()
    sys.stdout.write(json.dumps(report, sort_keys=True) + "\n")
    return 0 if code == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
