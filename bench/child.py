"""One pipeline run in a fresh interpreter, timed from the inside.

Run:  python3 bench/child.py SRC CONF OUT SNAPSHOTS [TRACE_FILE]

SRC is the checkout's source directory.  Prints one JSON line: the monotonic
clock reading just before run_pipeline (the parent subtracts its own reading
taken just before starting this process, which gives set-up time), the wall
time of run_pipeline, peak RSS, the exit code and the pipeline's summary.
With TRACE_FILE, the stages and module functions are wrapped first and the
trace is written there at exit.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    src, conf, out, snapshots = argv[:4]
    trace_file = argv[4] if len(argv) > 4 else None
    sys.path.insert(0, src)
    import topicpages.pipeline as pipeline_mod
    from topicpages.config import load_config

    config = load_config(conf, env={}, overrides={"out_dir": out, "snapshots": snapshots})
    config.validate()
    ready = time.monotonic()

    tracer = None
    if trace_file:
        from tracing import Tracer  # bench/tracing.py, next to this file

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    code, summary = pipeline_mod.run_pipeline(config)
    pipeline_s = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(Path(trace_file))
    print(json.dumps({
        "ready": ready,
        "pipeline_s": pipeline_s,
        "peak_rss_mb": rss_mb,
        "code": code,
        "summary": summary,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
