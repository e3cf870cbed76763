"""Workload process: runs spindimer CLI operations on request.

Started fresh for one workload by run.py, which talks to it over
stdin/stdout with one JSON object per line:

  <- {"ready": true}                              once spindimer.cli is imported
  -> {"argvs": [[...], ...], "trace": false}      run one operation: these
                                                  CLI calls, one after another
  <- {"seconds": 1.23, "exit_codes": [0], "error": null}
  -> {"quit": true, "spans": "<path or null>"}
  <- {"maxrss_kb": 123456}

With "trace" true the operation runs under the span recorder, inside a root
span named "op". Whatever the CLI prints is discarded: stdout carries the
protocol.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

from spans import SpanRecorder


def main() -> int:
    from spindimer import cli

    protocol = sys.stdout
    recorder = SpanRecorder()

    def reply(message: dict) -> None:
        protocol.write(json.dumps(message) + "\n")
        protocol.flush()

    reply({"ready": True})
    for line in sys.stdin:
        request = json.loads(line)
        if request.get("quit"):
            if request.get("spans"):
                recorder.save(request["spans"])
            reply({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
            return 0
        traced = bool(request.get("trace"))
        if traced:
            recorder.install()
            root = recorder.open("op")
        error = None
        exit_codes = []
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                try:
                    for argv in request["argvs"]:
                        exit_codes.append(cli.main(argv))
                finally:
                    seconds = time.perf_counter() - start
        except Exception as exc:  # an op that raises is a failed op, not a dead benchmark
            error = f"{type(exc).__name__}: {exc}"
        finally:
            if traced:
                recorder.close(root)
                recorder.uninstall()
        reply({"seconds": seconds, "exit_codes": exit_codes, "error": error})
    return 1


if __name__ == "__main__":
    sys.exit(main())
