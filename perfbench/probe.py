"""Fresh-interpreter probe for set-up time and first-job time.

Run as `python3 probe.py SRC_DIR CONFIG ARGV_JSON`.  Imports the
command line, loads and resolves CONFIG, runs one `iontrack` job with
the JSON-encoded argument list, and prints the CLOCK_MONOTONIC
timestamps at which set-up ended and the job started and ended, with
the reference-kernel timings taken between them, and the job's exit
code (a string when `main` raised).  The parent process
reads the same clock before it starts this interpreter.
"""
import json
import os
import sys
import time


def main() -> None:
    src, config, argv = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
    sys.path[0] = src     # in place of this script's directory
    import iontrack.cli
    from iontrack.config import load_config

    load_config(config)
    setup_end = time.monotonic()
    sys.path.append(os.path.dirname(src))
    from perfbench.host import reference_seconds

    ref_mid = reference_seconds()
    job_start = time.monotonic()
    try:
        exit_code = iontrack.cli.main(argv)
    except Exception as exc:    # a traceback out of main() is a failed job
        exit_code = f"uncaught {exc!r}"
    job_end = time.monotonic()
    print(json.dumps({"setup_end": setup_end, "job_start": job_start,
                      "job_end": job_end, "ref_mid": ref_mid,
                      "ref_end": reference_seconds(), "exit_code": exit_code}))


if __name__ == "__main__":
    main()
