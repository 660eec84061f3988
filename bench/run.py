"""cordeslab benchmark runner.

Usage (from the root of a checkout):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each round of a workload runs the workload's ``cordeslab`` CLI commands in
a fresh interpreter (``bench/child.py``), one round at a time.  Rounds
repeat until ``S`` seconds have passed; the run reports medians over its
rounds.  The program's outputs are checked after each round, outside the
timed part, and deleted.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (the commands,
after set-up), ``setup_s`` (process spawn to imported and config loaded;
at least three samples, topped up with set-up-only processes) and
``peak_rss_mb`` (``ru_maxrss`` of the round's process).

``--trace 1`` alternates an untraced and a traced round and prints the
per-layer metrics of the traced rounds (see ``tracer.py``), the traced
wall time and the tracing overhead (traced minus untraced ``wall_s``).
It also checks that the two rounds wrote byte-identical artifacts.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  An operation is
one CLI command; it fails when its exit code is not 0 or its process
dies.  ``correct`` is false when an output check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = ROOT / ".bench_runs"
SETUP_SAMPLES = 3
DEADLINE_S = 170.0

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Run:
    def __init__(self, args, inputs: dict, where: Path):
        self.args = args
        self.inputs = inputs
        self.where = where
        self.t_begin = time.monotonic()
        self.rounds = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.t_begin)

    def spawn(self, trace: bool, commands=None) -> dict | None:
        """Run one round in a fresh interpreter; None if its process died."""
        self.rounds += 1
        rdir = self.where / f"round{self.rounds}"
        rdir.mkdir(parents=True)
        spec = {"src": str(ROOT / "src"), "config": self.inputs["config"],
                "commands": self.inputs["commands"] if commands is None
                else commands,
                "out": str(rdir / "out"), "result": str(rdir / "result.json"),
                "spans": str(rdir / "spans.json"), "trace": int(trace)}
        (rdir / "spec.json").write_text(json.dumps(spec))
        t_spawn = time.monotonic()
        try:
            with open(rdir / "cli.log", "w") as log:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "child.py"),
                     str(rdir / "spec.json")], cwd=ROOT, stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc = None
        if proc is None or proc.returncode != 0:
            print(f"round {self.rounds}: process ended abnormally; see "
                  f"{rdir / 'cli.log'}", file=sys.stderr)
            self.attempted += len(spec["commands"])
            self.failed += len(spec["commands"])
            return None
        result = json.loads((rdir / "result.json").read_text())
        result["setup_s"] = result["ready_at"] - t_spawn
        result["out"] = rdir / "out"
        result["dir"] = rdir
        return result

    def workload_round(self, trace: bool) -> dict | None:
        res = self.spawn(trace)
        if res is None:
            return None
        codes = res["exit_codes"]
        self.attempted += len(codes)
        self.failed += sum(1 for c in codes if c != 0)
        if not Path(res["module"]).resolve().is_relative_to(ROOT / "src"):
            self.problems.append(f"imported cordeslab from {res['module']}")
        if all(c == 0 for c in codes):
            fails = workloads.CHECKS[self.args.workload](
                res["out"], self.inputs["params"])
            self.problems += [f"round {self.rounds}: {f}" for f in fails]
        res["artifact_mb"] = sum(p.stat().st_size for p in res["out"].rglob("*")
                                 if p.is_file()) / 1e6
        print(f"round {self.rounds}{' traced' if trace else ''}: "
              f"setup {res['setup_s']:.3f} s, wall {res['wall_s']:.3f} s "
              f"(process cpu {res['cpu_s']:.3f} s), "
              f"peak rss {res['peak_rss_mb']:.1f} MB, exit codes {codes}",
              flush=True)
        return res

    def measuring(self) -> bool:
        return time.monotonic() - self.t_begin < self.args.seconds


def _digests(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def run_plain(run: Run) -> dict:
    rounds, setups = [], []
    while not rounds or run.measuring():
        res = run.workload_round(trace=False)
        if res is not None:
            rounds.append(res)
            setups.append(res["setup_s"])
            shutil.rmtree(res["out"])
        elif not rounds and not run.measuring():
            break
    while rounds and len(setups) < SETUP_SAMPLES:
        res = run.spawn(trace=False, commands=[])
        if res is None:
            break
        setups.append(res["setup_s"])
    if not rounds:
        return {}
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
    }
    return {k: _metric(v, END_TO_END_UNITS[k]) for k, v in values.items()}


LAYER_UNITS = {"_s": "s", "_mb": "MB"}


def _layer_unit(name: str) -> str:
    for suffix, unit in LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_traced(run: Run) -> dict:
    plain_walls, traced = [], []
    while not traced or run.measuring():
        plain = run.workload_round(trace=False)
        res = run.workload_round(trace=True)
        if plain is None or res is None:
            if not traced and not run.measuring():
                break
            continue
        if _digests(plain["out"]) != _digests(res["out"]):
            run.problems.append("traced round wrote different artifacts")
        plain_walls.append(plain["wall_s"])
        layers = dict(res["layers"], **{
            "cli.import_s": res["import_s"], "config.load_s": res["load_s"],
            "cli.artifact_mb": res["artifact_mb"],
            "trace.wall_s": res["wall_s"]})
        traced.append(layers)
        shutil.copyfile(res["dir"] / "spans.json", RUNS / (
            f"{run.args.workload}-seed{run.args.seed}-spans.json"))
        shutil.rmtree(plain["out"])
        shutil.rmtree(res["out"])
    if not traced:
        return {}
    out = {name: _metric(statistics.median(t[name] for t in traced),
                         _layer_unit(name)) for name in traced[0]}
    out["trace.overhead_s"] = _metric(
        out["trace.wall_s"]["value"] - statistics.median(plain_walls), "s")
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "cordeslab" / "cli.py").is_file():
        print(f"error: no cordeslab sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    where = RUNS / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if where.exists():
        shutil.rmtree(where)
    inputs = workloads.write_inputs(args.workload, args.seed, where / "in")
    run = Run(args, inputs, where)
    metrics = run_traced(run) if args.trace else run_plain(run)
    for p in run.problems:
        print(f"check: {p}", file=sys.stderr)
    if not metrics:
        print("error: no round of the workload completed", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = not run.problems
    if correct and not run.failed:
        shutil.rmtree(where)
        try:
            RUNS.rmdir()
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
