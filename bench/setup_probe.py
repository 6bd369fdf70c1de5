"""Time the CLI's own start-up in a fresh interpreter; print it as JSON.

Started by ``run.py`` with ``src`` on PYTHONPATH.  Measures importing
``gorenstein_kit.cli`` and building its parser, then times the speed
kernel of ``speed.py`` right after, so the start-up can be given at the
reference speed too.  Nothing is imported before the timed part but
``time``, so the program's imports are all charged to it.
"""

import time

start = time.perf_counter()
import gorenstein_kit.cli as cli  # noqa: E402

cli.build_parser()
elapsed = time.perf_counter() - start

import json  # noqa: E402

import speed  # noqa: E402

print(json.dumps({"raw_s": elapsed, "scaled_s": elapsed * speed.factor()}))
