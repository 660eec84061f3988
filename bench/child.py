"""One round of a workload, in a fresh interpreter.

Usage: python3 bench/child.py ROUND_SPEC.json

The spec names the source tree, the config, the CLI commands, the output
directory, whether to trace, and where to write the round's result.  The
round imports ``cordeslab.cli`` and loads the config (set-up), then runs
the commands through ``cordeslab.cli.main`` (the timed part), and writes
its figures as JSON.  CLI output goes to this process's stdout, which the
runner sends to a log file.
"""

import json
import resource
import sys
import time


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    t0 = time.monotonic()
    import cordeslab.cli as cli
    t1 = time.monotonic()
    from cordeslab.config import RunConfig
    RunConfig.load(spec["config"])
    ready = time.monotonic()

    tracer = None
    if spec["trace"]:
        from tracer import Tracer
        tracer = Tracer(spec["spans"])
        tracer.install()
    codes = []
    for command in spec["commands"]:
        codes.append(cli.main(command + ["--config", spec["config"],
                                         "--out", spec["out"]]))
    done = time.monotonic()
    if tracer is not None:
        tracer.uninstall()
        tracer.write_spans()

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "ready_at": ready, "wall_s": done - ready, "exit_codes": codes,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "import_s": t1 - t0, "load_s": ready - t1,
        "module": cli.__file__,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
