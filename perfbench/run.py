"""stripfol benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload structure-large --seed 1 --seconds 30 --trace 0

Builds the seeded inputs of one workload, sets up (and times the set-up)
at least three times, then runs whole passes over the workload's ops, one op after
the other, for about ``--seconds``.  Every op's exit code and output
are checked.  ``--trace 0`` reports the end-to-end metrics, scaled to a
reference machine speed measured during the run; ``--trace 1`` runs untraced
and then traced passes and reports the per-layer metrics.
A result file goes to ``.perfbench-out/``; the last line of stdout is the
JSON summary.  See perfbench/README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
# Set up at least SETUP_REPEATS times and for SETUP_SECONDS in all: a set-up
# of a few ms needs many repeats for a steady median.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
IMPORT_SAMPLES = 40
# The shared host's speed drifts by up to a quarter between runs.  A fixed
# slice of pure-Python work, timed after an op once CALIBRATE_EVERY seconds
# have passed since the last slice, before each import sample, and
# SETUP_SLICES times after each set-up, measures the speed of the moment.
# Slices between ops always follow an op, never another slice, so that their
# cache state does not depend on how long the ops are.
# The end-to-end times are scaled by REFERENCE_CALIBRATION_MS over the mean
# slice time of the phase they were measured in, each slice weighted by the
# wall time it stands for, so that they read as at one reference speed.  The
# mean, not the median, because the op time it scales is a sum too.  The
# constant is about the slice's mean between ops on a 2-CPU x86_64 VM (Intel
# Xeon, 2.1 GHz) with Python 3.11.7; its value only sets the scale.
CALIBRATE_ITEMS = 10_000
CALIBRATE_EVERY = 0.2
SETUP_SLICES = 5
REFERENCE_CALIBRATION_MS = 8.8
SUBCOMMANDS = ("validate", "leafspace", "decompose", "canon", "iso", "realize", "render")


@dataclass(slots=True)
class Record:
    op: object
    seconds: float
    problem: str | None
    out_bytes: int
    value: object


def execute(op, tr=None) -> Record:
    """Run one op and judge it: exit code, escaping exception, output check.

    With a tracer ``tr``, the op's calls into the library are traced.
    """
    from stripfol import cli

    out, err = io.StringIO(), io.StringIO()
    value = code = None
    crash = None
    if tr is not None:
        tr.begin(op.name, op.bucket)
    start = time.perf_counter()
    try:
        if op.argv is not None:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(op.argv)
                except SystemExit as e:
                    code = e.code
        else:
            value = op.call()
            code = 0
    except Exception as e:  # an escaping exception is a failed op
        crash = f"{type(e).__name__}: {e}"
    finally:
        seconds = time.perf_counter() - start
        if tr is not None:
            tr.active = False
    text = out.getvalue()
    if crash is not None:
        problem = crash
    elif (code or 0) != op.expect:
        problem = f"exit {code}, expected {op.expect}"
    else:
        problem = op.check(text if op.argv is not None else value)
    return Record(op, seconds, problem, len(text.encode()), value)


def run_passes(ops, seconds=None, passes=None, tr=None, between=None):
    """Closed loop: whole passes over ``ops`` for about ``seconds``, or ``passes`` of them.

    With ``seconds``, passes go on while the next one would end less than half
    a pass past ``seconds``.  ``between`` is called after every op, outside
    the op's timing.
    """
    records = []
    start = time.perf_counter()
    done = 0
    while True:
        for op in ops:
            records.append(execute(op, tr))
            if between is not None:
                between()
        done += 1
        elapsed = time.perf_counter() - start
        if (passes is not None and done >= passes) or (seconds is not None and elapsed * (done + 0.5) / done >= seconds):
            return records, done


def calibrate() -> float:
    """One fixed slice of pure-Python work (str, dict, list, sort), timed in ms.

    The cyclic collector is off meanwhile: the slice makes no cycles, and a
    collection it set off would time the heap of the set-up, not the machine.
    """
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(CALIBRATE_ITEMS):
            table.setdefault(f"s{i % 211}.u{i % 7}", []).append((i * 7919) % 1009)
        sorted((len(v), k, sum(v)) for k, v in table.items())
        return (time.perf_counter() - start) * 1e3
    finally:
        gc.enable()


class Speed:
    """Calibration slices of one phase of a run, each with the wall time it stands for."""

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.weights: list[float] = []

    def sample(self, stands_for: float, count: int = 1) -> None:
        for _ in range(count):
            self.slices.append(calibrate())
            self.weights.append(stands_for / count)

    def summary(self) -> dict:
        mean_ms = statistics.fmean(self.slices, self.weights)
        return {"mean_ms": mean_ms, "samples": len(self.slices), "scale": REFERENCE_CALIBRATION_MS / mean_ms}


def setup(workload: str, seed: int, small: bool):
    """Build inputs and answer keys, then warm up; timed as one set-up."""
    import workloads

    start = time.perf_counter()
    wl = workloads.build(workload, seed, OUT / f"{workload}-seed{seed}", small)
    warm = [execute(op) for op in wl.warmup]
    return time.perf_counter() - start, wl, warm


def import_ms() -> float:
    """``import stripfol.cli`` in a fresh interpreter, in ms."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import stripfol.cli; print((time.perf_counter() - t) * 1e3)"
    )
    proc = subprocess.run([sys.executable, "-I", "-c", code, str(ROOT / "src")], capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


def environment(seed: int) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "src_lines": src_lines,
        "machine": platform.machine(),
    }


def latency_summary(records) -> dict:
    lat = [r.seconds * 1e3 for r in records]
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8] if len(lat) > 1 else lat[0]
    return {"p50_ms": statistics.median(lat), "p90_ms": p90, "samples": len(lat)}


def curves(records, key) -> dict:
    groups = defaultdict(list)
    for r in records:
        groups[key(r)].append(r)
    return {k: latency_summary(v) for k, v in sorted(groups.items())}


def end_to_end(records, setup_times, imports, scale=1.0, setup_scale=1.0, import_scale=1.0) -> dict:
    """The end-to-end metrics; op, set-up and import times are multiplied by their phase's scale."""
    total = sum(r.seconds for r in records) * scale
    lat = latency_summary(records)
    return {
        "ops_per_s": {"value": len(records) / total, "unit": "1/s", "samples": len(records)},
        "op_p50_ms": {"value": lat["p50_ms"] * scale, "unit": "ms", "samples": len(records)},
        "op_p90_ms": {"value": lat["p90_ms"] * scale, "unit": "ms", "samples": len(records)},
        "setup_s": {"value": statistics.median(setup_times) * setup_scale, "unit": "s", "samples": len(setup_times)},
        "import_ms": {"value": statistics.median(imports) * import_scale, "unit": "ms", "samples": len(imports)},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB", "samples": 1},
    }


def per_layer(tr, traced, passes: int, untraced_s: float) -> dict:
    """Per-layer metrics from the traced passes; totals are per pass."""
    import tracer as tracing
    import workloads

    def self_ms(name, tag=None):
        return sum(ns for (n, t), ns in tr.self_ns.items() if n == name and (tag is None or t == tag)) / 1e6

    def calls(name, tag=None):
        return sum(c for (n, t), c in tr.calls.items() if n == name and (tag is None or t == tag))

    def mean_ms(name, tag):
        return self_ms(name, tag) / calls(name, tag) if calls(name, tag) else 0.0

    def span_ms(name, tag, stat=statistics.fmean):
        durs = [(end - start) / 1e6 for _, n, t, start, end, _, _ in tr.spans if n == name and t == tag]
        return stat(durs) if durs else 0.0

    traced_s = sum(r.seconds for r in traced)
    m = {"cli.self_ms": (self_ms("cli.main") / passes, "ms")}
    for sub in SUBCOMMANDS:
        m[f"cli.{sub}.p50_ms"] = (span_ms("cli.main", sub, statistics.median), "ms")
    m["io.parse.self_ms"] = (self_ms("io.parse") / passes, "ms")
    m["io.parse.calls"] = (calls("io.parse") / passes, "count")
    m["io.parse.bytes"] = (tr.counts["io.parse.bytes"] / passes, "B")
    for f in ("serialize", "render", "leafspace_json"):
        m[f"io.{f}.self_ms"] = (self_ms(f"io.{f}") / passes, "ms")
    m["io.out_bytes"] = (sum(r.out_bytes for r in traced) / passes, "B")
    for f in ("build_surface", "is_connected"):
        m[f"core.{f}.self_ms"] = (self_ms(f"core.{f}") / passes, "ms")
        m[f"core.{f}.calls"] = (calls(f"core.{f}") / passes, "count")
    m["core.validate_class_f.self_ms"] = (self_ms("core.validate_class_f") / passes, "ms")
    for f in ("build_leaf_space", "is_special"):
        m[f"leafspace.{f}.self_ms"] = (self_ms(f"leafspace.{f}") / passes, "ms")
        m[f"leafspace.{f}.calls"] = (calls(f"leafspace.{f}") / passes, "count")
    m["leafspace.points"] = (tr.counts["leafspace.points"] / passes, "count")
    m["leafspace.special_points"] = (tr.counts["leafspace.special_points"] / passes, "count")
    for f in ("decompose", "component_closures", "check_cycle_components", "canonicalize", "canonical_code"):
        m[f"decomposition.{f}.self_ms"] = (self_ms(f"decomposition.{f}") / passes, "ms")
    for lo, hi in tracing.CANON_BUCKETS:
        bucket = f"n{lo}-{hi}"
        m[f"decomposition.canonical_code.self_ms.{bucket}"] = (mean_ms("decomposition.canonical_code", bucket), "ms")
    iso_calls = calls("decomposition.is_isomorphic")
    m["decomposition.is_isomorphic.self_ms"] = (self_ms("decomposition.is_isomorphic") / passes, "ms")
    m["decomposition.is_isomorphic.calls"] = (iso_calls / passes, "count")
    m["decomposition.canonical_code.calls_per_iso"] = (tr.counts["decomposition.canonical_code.in_iso"] / iso_calls if iso_calls else 0.0, "ratio")
    m["decomposition.components"] = (tr.counts["decomposition.components"] / passes, "count")
    for k in workloads.REALIZE_KS:
        m[f"homeo.realize_half_strip.ms.k{k}"] = (span_ms("homeo.realize_half_strip", f"k{k}"), "ms")
    for k in workloads.REALIZE_KS:
        m[f"homeo.eta_apply.us.k{k}"] = (span_ms("homeo.eta_apply", f"k{k}") * 1e3, "us")
    for k in workloads.REALIZE_KS:
        m[f"homeo.eta_invert.us.k{k}"] = (span_ms("homeo.eta_invert", f"k{k}") * 1e3, "us")
    m["homeo.uk_eval.calls"] = (tr.counts["homeo.uk_eval.calls"] / passes, "count")
    errors = [workloads.roundtrip_error(r.value) for r in traced if r.op.sub == "roundtrip" and r.value is not None]
    m["homeo.roundtrip_max_err"] = (max(errors, default=0.0), "1")
    for module in tracing.MODULES:
        busy = sum(ns for (n, _), ns in tr.self_ns.items() if n.startswith(module + ".")) / 1e9
        m[f"{module}.busy_share"] = (busy / traced_s, "ratio")
        m[f"{module}.fail"] = (tr.fails[module] / passes, "count")
    m["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def layer_curves(tr, records) -> dict:
    """Self ms per op of each traced function, by the op's size bucket."""
    ops_in = Counter(r.op.bucket for r in records)
    out = defaultdict(dict)
    for (name, bucket), ns in sorted(tr.by_bucket.items()):
        out[name][bucket] = ns / 1e6 / ops_in[bucket]
    return dict(out)


def print_table(metrics: dict) -> None:
    for name, m in metrics.items():
        extra = f"  (n={m['samples']})" if "samples" in m else ""
        print(f"{name:50s} {m['value']:>14.6g} {m['unit']}{extra}")


def run(workload: str, seed: int, seconds: float, trace: bool, small: bool = False) -> dict:
    """Set up, measure and check one workload; returns the summary."""
    import workloads

    if workload not in workloads.BUILDERS:
        raise SystemExit(f"unknown workload {workload!r}; choose from {sorted(workloads.BUILDERS)}")
    setup_times = []
    setup_speed = Speed()
    while len(setup_times) < SETUP_REPEATS or sum(setup_times) < SETUP_SECONDS:
        wl = warm = None  # let the previous corpus go before building the next
        seconds_taken, wl, warm = setup(workload, seed, small)
        setup_times.append(seconds_taken)
        setup_speed.sample(seconds_taken, SETUP_SLICES)
    probes = [execute(op) for op in wl.probes]
    # The corpus and answer keys stay alive for the whole run; freezing them
    # keeps the cyclic collector from rescanning them during the ops, as it
    # would not in a fresh CLI process.
    gc.collect()
    gc.freeze()
    result = {
        "workload": workload,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(seed),
        "sizes": wl.sizes,
        "ops_per_pass": len(wl.ops),
    }

    if not trace:
        # import samples spread over the passes average over more of the run
        samples = 3 if small else IMPORT_SAMPLES
        imports = []
        speed, import_speed = Speed(), Speed()
        import_due = 0.0
        last = time.perf_counter()

        def sample():
            nonlocal import_due, last
            now = time.perf_counter()
            if now >= last + CALIBRATE_EVERY:
                speed.sample(now - last)
                last = time.perf_counter()
            if len(imports) < samples and now >= import_due:
                import_speed.sample(1.0)
                imports.append(import_ms())
                import_due = time.perf_counter() + seconds / samples

        records, passes = run_passes(wl.ops, seconds=seconds, between=sample)
        speed.sample(time.perf_counter() - last)
        while len(imports) < samples:
            import_speed.sample(1.0)
            imports.append(import_ms())
        cal = {"reference_ms": REFERENCE_CALIBRATION_MS, "setup": setup_speed.summary(), "ops": speed.summary(), "imports": import_speed.summary()}
        scales = (cal["ops"]["scale"], cal["setup"]["scale"], cal["imports"]["scale"])
        metrics = end_to_end(records, setup_times, imports, *scales)
        result["raw_metrics"] = end_to_end(records, setup_times, imports)
        result["calibration"] = cal
        result["curves"] = {
            "by_size": curves(records, lambda r: r.op.bucket),
            "by_subcommand": curves(records, lambda r: r.op.sub),
            "by_op": curves(records, lambda r: r.op.name),
        }
    else:
        import tracer as tracing

        records, passes = run_passes(wl.ops, seconds=seconds / 2)
        untraced_s = sum(r.seconds for r in records)
        tr = tracing.Tracer()
        tr.install()
        try:
            traced, _ = run_passes(wl.ops, passes=passes, tr=tr)
        finally:
            tr.uninstall()
        metrics = per_layer(tr, traced, passes, untraced_s)
        result["curves"] = {"self_ms_per_op_by_size": layer_curves(tr, traced)}
        spans_path = OUT / f"spans-{workload}-seed{seed}.jsonl"
        tr.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        records = records + traced

    failures = [f"{r.op.name}: {r.problem}" for r in warm + records if r.problem]
    known = [f"{r.op.name}: {r.problem}" for r in probes if r.problem]
    attempted = len(warm) + len(records)
    result.update(
        passes=passes,
        attempted=attempted,
        failed=len(failures),
        fail_frac=len(failures) / attempted,
        failures=sorted(set(failures)),
        known_defects={
            "attempted": len(probes),
            "failed": known,
            "expected_exit": {r.op.name: r.op.expect for r in probes},
            "fail_frac_with_probes": (len(failures) + len(known)) / (attempted + len(probes)),
        },
        metrics=metrics,
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    return result


def prepare() -> bool:
    """Put the library, the test oracles and the benchmark on the import path."""
    if not (ROOT / "src" / "stripfol" / "cli.py").is_file() or not (ROOT / "tests" / "_oracles.py").is_file():
        return False
    for path in (HERE, ROOT / "tests", ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not prepare():
        print(f"error: no stripfol sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"{args.workload}  seed {args.seed}  passes {result['passes']}  ops {result['attempted']}  failed {result['failed']}  fail_frac {result['fail_frac']:.6g}")
    for line in result["failures"]:
        print(f"  FAILED {line}")
    probes = result["known_defects"]
    print(f"known-defect probes: {len(probes['failed'])} of {probes['attempted']} fail  (fail_frac with probes {probes['fail_frac_with_probes']:.6g})")
    for line in probes["failed"]:
        print(f"  KNOWN {line}")
    if "calibration" in result:
        cal = result["calibration"]
        for phase in ("setup", "ops", "imports"):
            c = cal[phase]
            print(f"speed calibration, {phase}: slice mean {c['mean_ms']:.4g} ms over {c['samples']} slices, reference {cal['reference_ms']} ms, times scaled by {c['scale']:.4g}")
    print_table(result["metrics"])
    summary = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in result["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
