"""One cli_mix job: the ``discforms`` command in a fresh interpreter.

    python3 perfbench/cli_shim.py [--stats FILE] [--spans FILE] <discforms arguments>

Without options this is the console entry point ``discforms`` (import, then
``sys.exit(main(argv))``), so uncaught exceptions print a traceback and exit
1 as they do for users. --stats FILE takes a speed probe before the import
and another at exit, and writes both with the peak resident memory in KiB
to FILE as JSON. With --spans the layers are traced and the spans, with the
import time, are written to FILE on the way out.
"""

import atexit
import json
import sys

argv = sys.argv[1:]
if argv[:1] == ["--stats"]:
    from host import peak_rss_kib, probe_s

    probes = [probe_s()]

    def _write_stats(path):
        probes.append(probe_s())
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"probe_s": probes, "peak_rss_kib": peak_rss_kib()}, fh)

    atexit.register(_write_stats, argv[1])
    argv = argv[2:]

import time  # noqa: E402

t0 = time.perf_counter()
import discforms.cli  # noqa: E402

import_s = time.perf_counter() - t0
if argv[:1] != ["--spans"]:
    sys.exit(discforms.cli.main(argv))

from tracer import Tracer, dump  # noqa: E402

tracer = Tracer()
tracer.install(with_cli=True)
tracer.job_id = 0
try:
    code = discforms.cli.main(argv[2:])
finally:
    tracer.uninstall()
    spans = tracer.export()
    spans["import_s"] = import_s
    dump(spans, argv[1])
sys.exit(code)
