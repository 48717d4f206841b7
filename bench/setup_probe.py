"""Fresh-process probe behind the benchmark's ``setup_s``.

Run by ``run.py`` as ``python3 bench/setup_probe.py <issacsim CLI args>``.
It imports issacsim from the checkout's ``src/``, runs the CLI command (a
few trials only: config parsing, spec building and the scan-grid steering
cache fill all happen on the way to the first trial) and prints the CLI's
exit status and a CLOCK_MONOTONIC timestamp in nanoseconds taken when the
command returned. The caller subtracts the timestamp it took before
starting this process.
"""

import contextlib
import io
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from issacsim.cli import main  # noqa: E402

if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(sys.argv[1:])
    print(status, time.monotonic_ns())
