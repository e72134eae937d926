"""Write the figure-preset reference snapshot that checks.py compares with.

    python3 nhbench/make_reference.py

Run once at the commit whose numbers are the reference (the snapshot in
reference/ was taken at the seed commit); a later change that moves a
preset's numbers within its error bounds passes the comparison anyway.
"""

import contextlib
import io
import sys
import tempfile
from pathlib import Path

import common
import workloads
from checks import REFERENCE_DIR


def main() -> int:
    common.require_checkout()
    sys.path.insert(0, str(common.SRC))
    from nhqubit import cli

    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=common.BENCH_DIR) as tmp:
        for name in workloads.PRESETS:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["run", "--preset", name, "--out", tmp])
            if rc != 0:
                raise SystemExit(f"{name}: exit {rc}")
            csv = Path(tmp) / f"{name}.csv"
            (REFERENCE_DIR / csv.name).write_bytes(csv.read_bytes())
    return 0


if __name__ == "__main__":
    sys.exit(main())
