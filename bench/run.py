#!/usr/bin/env python3
"""Benchmark of the semifano engine: one workload per process, closed loop.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The engine is imported from the
checkout's `src/`, never from an installed copy; without `src/` the
benchmark exits with status 1 and prints no result.  Jobs run in this
process one after another (a closed loop with a single client) and the
workload's job list is repeated until --seconds have passed.  Every job's output is compared with a
digest pinned in bench/pins.json; a mismatch or an exception counts as a
failed job and never stops the run.  The last line of stdout is the JSON
result.  With --trace 1 the run alternates untraced and traced passes over
the job list and reports the per-layer metrics instead of the end-to-end
ones.  --smoke shrinks every workload to small boxes for the benchmark's own
tests.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import speed
import surfaces
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = SRC / "semifano" / "fixtures"
WORK = ROOT / ".bench_build" / "bench"
PINS = BENCH / "pins.json"

WORKLOADS = ("threefold-tables", "g0-wide", "surface-sweep")
SETUP_REPEATS = 7
COMMANDS = ("validate", "invariants", "superpotential", "check")
FORMATS = ("text", "json")
# the small fixed fixtures folded into surface-sweep, with their boxes
# (None keeps the CLI default); f3 is the non-semi-Fano negative control
FIXTURE_JOBS = (
    ("p2", None), ("p1xp1", None), ("p1cubed", None), ("f2", "5,5"),
    ("f2-blowup", "5,5,5"), ("kp2-bundle", "4,4"), ("f3", None),
)
# surface-sweep: each round is the fixture jobs plus SURFACES fresh generated
# surfaces, so a run sees many surfaces and its quantiles depend little on
# which ones a seed draws
SWEEP_ROUNDS = 4
SURFACES = 20
SMOKE_SURFACES = 4
TABLE_BOX = {False: (7, 7, 7, 7), True: (3, 3, 3, 3)}
G0_BOXES = {False: ("10,10,0,0", "0,0,0,10"), True: ("4,4,0,0", "0,0,0,4")}
# criterion-2 entries of 1 + delta_i that agree with the reference data:
# (ray index, exponent, value)
ANCHORS = (
    (0, (2, 2, 0, 0), 9),
    (0, (7, 0, 0, 0), -454880),
    (1, (5, 3, 0, 0), -20232),
)

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p95_s": "s",
    "peak_rss_mb": "MB",
}
TIMED = (
    "fans.curve_lattice", "fans.fan_polytope_vertices", "fans.validate_fan",
    "mirror.enumerate_g0_classes", "mirror.pullback_g0",
    "series.invert_diagonal_unit", "series.render",
    "superpotential.assemble_W_PF", "superpotential.normalize_W_LF",
    "superpotential.check_multiplicative_consistency",
    "superpotential.cross_validate_surface", "superpotential.invariant_table",
)
CALLED = ("intlinalg.same_lattice", "intlinalg.lattice_membership",
          "series.substitute")
SELF_TIMED = ("mirror.g0_series", "cli.main")
COUNTED = (
    "mirror.enumerate_g0_classes.classes", "series.inverse.terms",
    "series.inverse.max_coeff_bits", "cli.exit2.count",
)


def per_layer_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {}
    for layer in tracing.LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.calls"] = "count"
    units.update({f"{name}.s": "s" for name in TIMED})
    units.update({f"{name}.self_s": "s" for name in SELF_TIMED})
    units.update({f"{name}.calls": "count" for name in CALLED})
    units.update({name: "count" for name in COUNTED})
    units["series.inverse.max_coeff_bits"] = "bits"
    units["mirror.enumerate_g0_classes.membership_calls"] = "count"
    units["mirror.enumerate_g0_classes.useful_share"] = "ratio"
    units.update({
        "trace.wall_s": "s", "trace.overhead_s": "s",
        "trace.unattributed_s": "s", "trace.spans": "count",
    })
    return units


class Engine:
    """The semifano layer modules, imported from the checkout's src/."""

    def __init__(self):
        if not (SRC / "semifano" / "__init__.py").is_file():
            raise SystemExit(f"no semifano sources under {SRC}")
        sys.path.insert(0, str(SRC))
        import semifano

        if Path(semifano.__file__).resolve().parent != (SRC / "semifano").resolve():
            raise SystemExit(f"semifano was imported from {semifano.__file__}")
        self.modules = {layer: importlib.import_module(f"semifano.{layer}")
                        for layer in tracing.LAYERS}
        self.cli = self.modules["cli"]
        self.fans = self.modules["fans"]
        self.series = self.modules["series"]
        self.sp = self.modules["superpotential"]


@dataclass
class Job:
    label: str
    key: str  # pin key: digest of what the job computes on which input
    run: Callable[[], tuple[int, str, list]]  # -> exit status, output, problems


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def output_digest(code, text):
    return _sha(f"{code}\n{text}")


def doc_digest(document):
    return _sha(json.dumps(document, sort_keys=True, separators=(",", ":")))


def cli_job(engine, path, document, command, fmt, box, semi_fano):
    argv = [command, str(path), "--format", fmt] + (["--box", box] if box else [])
    label = f"{command} {path.name} --format {fmt}" + (f" --box {box}" if box else "")
    key = _sha(json.dumps(["cli", command, fmt, box, doc_digest(document)]))

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = engine.cli.main(argv)
        problems = []
        if semi_fano and code == 1:
            problems.append("an engine check failed on a semi-Fano input")
        return code, out.getvalue() + "\0" + err.getvalue(), problems

    return Job(label, key, run)


def tables_job(engine, document, caps):
    """The paper's tables: analyze, every ray's invariant table, PF=LF and
    multiplicative consistency, plus the criterion-2 anchors."""
    fan, basis, _ = engine.cli.parse_input(document)
    key = _sha(json.dumps(["threefold-tables", caps, doc_digest(document)]))

    def run():
        sp = engine.sp
        lattice = engine.fans.curve_lattice(fan, basis)
        box = engine.series.TruncationBox(caps)
        an = sp.analyze(fan, lattice, box)
        tables = [sp.invariant_table(d) for d in an.deltas]
        whv = sp.assemble_W_HV(fan, lattice, 0, box)
        wpf = sp.assemble_W_PF(whv, an.mirror, box)
        wlf = sp.normalize_W_LF(sp.assemble_W_LF(whv, an.deltas), fan, an.deltas)
        reports = [
            sp.check_PF_equals_LF(wpf, wlf),
            sp.check_multiplicative_consistency(an.deltas, an.mirror, lattice),
        ]
        lines = [f"# ray {t.ray_index + 1}\n{sp.render_table(t)}" for t in tables]
        lines += [f"{r.name}: {'PASS' if r.passed else 'FAIL'}" for r in reports]
        problems = [f"{r.name} failed" for r in reports if not r.passed]
        for ray, exp, want in ANCHORS:
            if box.contains(exp) and tables[ray].entries[exp] != want:
                problems.append(
                    f"ray {ray + 1} {exp[:2]}: {tables[ray].entries[exp]} != {want}"
                )
        code = 0 if all(r.passed for r in reports) else 1
        return code, "\n".join(lines), problems

    return Job(f"threefold-tables box {caps}", key, run)


def write_input(document):
    """Store a generated document under the work directory; returns its path."""
    WORK.joinpath("inputs").mkdir(parents=True, exist_ok=True)
    path = WORK / "inputs" / f"{doc_digest(document)}.json"
    path.write_text(json.dumps(document))
    return path


def fixture_jobs(engine):
    jobs = []
    for name, box in FIXTURE_JOBS:
        path = FIXTURES / f"{name}.json"
        document = json.loads(path.read_text())
        for command in COMMANDS:
            for fmt in FORMATS:
                jobs.append(cli_job(engine, path, document, command, fmt, box,
                                    semi_fano=name != "f3"))
    return jobs


def surface_jobs(engine, rays, cap, rng):
    """The four surface-sweep commands on one generated surface, each in a
    random format; every generated surface is semi-Fano by construction."""
    document = surfaces.document(rays)
    path = write_input(document)
    return [cli_job(engine, path, document, command, rng.choice(FORMATS),
                    str(cap), semi_fano=True)
            for command in COMMANDS]


def build_rounds(engine, workload, seed, smoke):
    """The workload's job lists; passes of the closed loop cycle through them."""
    if workload == "threefold-tables":
        document = json.loads((FIXTURES / "threefold-example.json").read_text())
        return [[tables_job(engine, document, TABLE_BOX[smoke])]]
    if workload == "g0-wide":
        path = FIXTURES / "threefold-example.json"
        document = json.loads(path.read_text())
        return [[cli_job(engine, path, document, "g0", "text", box, semi_fano=True)
                 for box in G0_BOXES[smoke]]]
    rng = random.Random(seed)
    fixed = fixture_jobs(engine)
    count = SMOKE_SURFACES if smoke else SURFACES
    rounds = []
    for _ in range(1 if smoke else SWEEP_ROUNDS):
        jobs = list(fixed)
        for rays, cap in surfaces.sample(rng, count):
            jobs += surface_jobs(engine, rays, cap, rng)
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds


def setup(workload, seed, smoke):
    """Import the engine, generate the inputs, parse them and load the pins.

    Returns the set-up time at reference speed, probed just before and after.
    """
    probe = [speed.kernel_seconds() for _ in range(speed.WINDOW // 2)]
    start = time.perf_counter()
    engine = Engine()
    rounds = build_rounds(engine, workload, seed, smoke)
    pins = json.loads(PINS.read_text())
    seconds = time.perf_counter() - start
    probe += [speed.kernel_seconds() for _ in range(speed.WINDOW // 2)]
    return engine, rounds, pins, speed.scale_once(seconds, probe)


def setup_samples(args, first):
    """Set-up time of this process plus that of fresh processes, since the
    import is only paid once per process."""
    samples = [first]
    argv = [sys.executable, __file__, "--setup-only", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    for _ in range(SETUP_REPEATS - 1):
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120,
                              check=True, cwd=ROOT)
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_job(job, pins, tracer=None, index=0):
    """Run one job; returns (seconds, problems).  Time covers the job only,
    not the benchmark's checks of its output."""
    start = time.perf_counter()
    try:
        if tracer is None:
            code, text, problems = job.run()
        else:
            code, text, problems = tracer.run_job(index, job.run)
    except (Exception, SystemExit) as exc:  # a crashing job fails, the run goes on
        return time.perf_counter() - start, [f"raised {exc!r}"]
    elapsed = time.perf_counter() - start
    want = pins.get(job.key)
    got = output_digest(code, text)
    if want is None:
        problems.append(f"no pinned output (got {got}, exit {code})")
    elif got != want:
        problems.append(f"output {got} (exit {code}) differs from pin {want}")
    return elapsed, problems


class Loop:
    """Closed loop: one job at a time, pass after pass; pass k runs job list
    k mod len(rounds)."""

    def __init__(self, rounds, pins):
        self.rounds = rounds
        self.pins = pins
        self.probe = None  # a speed.SpeedProbe while times are scaled
        self.latencies = []
        self.failures = []

    def jobs(self, k):
        return self.rounds[k % len(self.rounds)]

    def run_pass(self, jobs, tracer=None):
        """Run one job list; returns its time, excluding output checks."""
        wall = 0.0
        for index, job in enumerate(jobs):
            mark = self.probe and self.probe.mark()
            elapsed, problems = run_job(job, self.pins, tracer, index)
            if self.probe:
                elapsed = self.probe.scale(mark, elapsed)
            wall += elapsed
            self.latencies.append(elapsed)
            if problems:
                self.failures.append((job.label, problems))
        return wall


def percentile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(loop, seconds, setup_times):
    """Times at reference speed (see speed.py); the notes add raw seconds."""
    passes = []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        loop.probe = probe
        while not passes or time.perf_counter() < start + seconds:
            passes.append(loop.run_pass(loop.jobs(len(passes))))
    loop.probe = None
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(passes),
        "job_p50_s": statistics.median(loop.latencies),
        "job_p95_s": percentile(loop.latencies, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, {
        "passes": len(passes), "job samples": len(loop.latencies),
        "elapsed s": round(time.perf_counter() - start, 3),
        "mean speed factor": round(
            speed.REFERENCE_S / statistics.fmean(probe.samples), 4),
    }


def per_layer(loop, engine, seconds, spans_path):
    """Per-layer figures from traced passes, each after an untraced pass over
    the same job list.  Span times are raw seconds of engine work (probe
    samples taken out); the overhead compares the two passes at reference
    speed, as wall_s does."""
    tracer = tracing.Tracer(engine.modules)
    plain, traced, summaries, recorded = [], [], [], []
    start = time.perf_counter()
    with speed.SpeedProbe() as probe:
        loop.probe = probe
        while not traced or time.perf_counter() < start + seconds:
            jobs = loop.jobs(len(traced))
            plain.append(loop.run_pass(jobs))
            tracer.install()
            probe.on_sample = tracer.record_probe
            try:
                traced.append(loop.run_pass(jobs, tracer))
            finally:
                probe.on_sample = None
                tracer.uninstall()
            spans, probes, counts = tracer.take()
            recorded.append((spans, probes))
            summaries.append(tracing.summarize(spans, probes, counts))
    loop.probe = None
    # counts are those of the first job list; they must repeat exactly
    first = summaries[0]
    for later in summaries[len(loop.rounds)::len(loop.rounds)]:
        if (later["calls"], later["counts"]) != (first["calls"], first["counts"]):
            print("warning: counts differ between traced passes", file=sys.stderr)

    def median_of(part, name):
        return statistics.median(s[part].get(name, 0.0) for s in summaries)

    metrics = {}
    for layer in tracing.LAYERS:
        metrics[f"{layer}.self_s"] = median_of("layer_self_s", layer)
        metrics[f"{layer}.calls"] = first["layer_calls"].get(layer, 0)
    for name in TIMED:
        metrics[f"{name}.s"] = median_of("inclusive_s", name)
    for name in SELF_TIMED:
        metrics[f"{name}.self_s"] = median_of("self_s", name)
    for name in CALLED:
        metrics[f"{name}.calls"] = first["calls"].get(name, 0)
    for name in COUNTED:
        metrics[name] = first["counts"].get(name, 0)
    classes = metrics["mirror.enumerate_g0_classes.classes"]
    attempts = first["walker_membership_calls"]
    metrics["mirror.enumerate_g0_classes.membership_calls"] = attempts
    metrics["mirror.enumerate_g0_classes.useful_share"] = (
        classes / attempts if attempts else 0.0)
    metrics["trace.wall_s"] = statistics.median(s["jobs_s"] for s in summaries)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    metrics["trace.unattributed_s"] = median_of("self_s", tracing.JOB_SPAN)
    metrics["trace.spans"] = first["spans"]

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    names = sorted({s[0] for spans, _ in recorded for s in spans})
    index = {n: i for i, n in enumerate(names)}
    with spans_path.open("w") as fh:
        json.dump({
            "names": names,
            "jobs": [[job.label for job in jobs] for jobs in loop.rounds],
            "columns": ["name", "parent", "start_ns", "end_ns", "job"],
            "probe_columns": ["parent", "start_ns", "end_ns"],
            "passes": [{"spans": [[index[s[0]], *s[1:]] for s in spans],
                        "probes": probes} for spans, probes in recorded],
        }, fh, separators=(",", ":"))
    return metrics, {
        "untraced passes": len(plain), "traced passes": len(traced),
        "spans file": str(spans_path.relative_to(ROOT)),
    }, per_layer_units()


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small boxes, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    engine, rounds, pins, setup_time = setup(args.workload, args.seed, args.smoke)
    if args.setup_only:
        print(setup_time)
        return 0
    loop = Loop(rounds, pins)
    if args.trace:
        spans_path = WORK / f"spans-{args.workload}-{args.seed}.json"
        metrics, notes, units = per_layer(loop, engine, args.seconds, spans_path)
    else:
        metrics, notes = end_to_end(loop, args.seconds,
                                    setup_samples(args, setup_time))
        units = END_TO_END
    attempted = len(loop.latencies)
    failed = len(loop.failures)
    for label, problems in loop.failures[:20]:
        print(f"FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: "
          + ", ".join(f"{k} {v}" for k, v in notes.items()))
    print(f"# failed_ratio {failed / attempted:.6g} ({failed} of {attempted} jobs)")
    for name, unit in units.items():
        print(f"# {name:52s} {metrics[name]:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
