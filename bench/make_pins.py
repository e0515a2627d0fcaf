#!/usr/bin/env python3
"""Recompute bench/pins.json: the output digest of every job the benchmark
can run, for every seed.

    python3 bench/make_pins.py

Covers the threefold-tables and g0-wide jobs at full and smoke size, the
fixture jobs, and every generated surface of `surfaces.universe()` with every
command and format.  A job whose engine checks fail is reported and not
pinned.  Run it only on a commit whose outputs are known good: the pins are
the reference every later run is compared with.
"""

from __future__ import annotations

import json
import sys
import time

import run
import surfaces


def all_jobs(engine):
    jobs = []
    for smoke in (False, True):
        for workload in ("threefold-tables", "g0-wide"):
            jobs += run.build_rounds(engine, workload, 0, smoke)[0]
    jobs += run.fixture_jobs(engine)
    for rays, cap in surfaces.universe():
        document = surfaces.document(rays)
        path = run.write_input(document)
        for command in run.COMMANDS:
            for fmt in run.FORMATS:
                jobs.append(run.cli_job(engine, path, document, command, fmt,
                                        str(cap), semi_fano=True))
    return jobs


def main():
    engine = run.Engine()
    pins = {}
    bad = 0
    start = time.perf_counter()
    jobs = all_jobs(engine)
    for n, job in enumerate(jobs, 1):
        code, text, problems = job.run()
        if problems:
            bad += 1
            print(f"NOT PINNED {job.label}: {'; '.join(problems)}", file=sys.stderr)
            continue
        pins[job.key] = run.output_digest(code, text)
        if n % 100 == 0:
            print(f"{n}/{len(jobs)} jobs, {time.perf_counter() - start:.0f} s",
                  file=sys.stderr)
    run.PINS.write_text(json.dumps(pins, indent=0, sort_keys=True) + "\n")
    print(f"pinned {len(pins)} jobs, {bad} refused")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
