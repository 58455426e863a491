"""One pass of one workload in a fresh interpreter, started by run.py.

    python3 perfbench/worker.py RESULT.json PASS_ID MODE ARGV_JSON

ARGV_JSON is a JSON list of ``qmg`` argv lists.  The pass is timed from
entering the first ``qmg.cli.main`` call until the last one returns, when
its output files are written.  RESULT.json receives the pass time, every
exit code and the process's peak resident memory.  MODE is ``plain``,
``time`` (also record spans at qmg's module boundaries) or ``count`` (spans
plus counters and peak allocations; see tracer.py).
"""

from __future__ import annotations

import json
import resource
import sys
import time

import qmg.cli


def main(result_path: str, pass_id: str, mode: str, argv_json: str) -> int:
    argvs = json.loads(argv_json)
    tracer = None
    if mode != "plain":
        from tracer import Tracer

        tracer = Tracer(int(pass_id))
        tracer.install(counting=mode == "count")
    exit_codes = []
    start = time.perf_counter()
    for argv in argvs:
        try:
            exit_codes.append(qmg.cli.main(argv))
        except SystemExit as exc:
            exit_codes.append(exc.code)
    run_s = time.perf_counter() - start
    result = {
        "run_s": run_s,
        "exit_codes": exit_codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "spans": tracer.spans if tracer else [],
        "counters": dict(tracer.counters) if tracer else {},
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if all(code == 0 for code in exit_codes) else 1


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
