"""``python -m repro`` entry point.

The clock starts before the CLI is imported, so ``--timings`` shows
that import as ``import.cli`` under the ``repro.run`` root.
"""

import time

started = time.perf_counter()
from . import cli  # noqa: E402

cli.import_window = (started, time.perf_counter())
raise SystemExit(cli.main())
