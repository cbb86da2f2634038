"""Time-to-certificate benchmark for okubo-e8.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify-all --seed 0 --seconds 50 --trace 0

The package is used from ``src/`` of the checkout; nothing is installed.
One closed-loop client runs one pass at a time, each in a fresh
interpreter with cold caches (see ``child.py``).  It starts another pass
only while one more as long as the last still fits in ``--seconds``, and
always makes at least one.  Every report a pass writes is checked
(``workloads.py``, ``fixtures.py``); a wrong report or exit code counts
as a failed step.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json: medians
over the passes of the run.  ``--trace 1`` runs one untraced and one
traced pass on the same inputs, requires identical reports from both,
adds the microbenchmarks and kernel rows of ``micro.py``, and prints the
per-layer metrics.  The last line of standard output is one JSON object;
the lines before it are run metadata and a readable summary.  Full
results and spans are kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
STATE = os.path.join(ROOT, ".perfbench")

#: import-only processes per run, on top of the pass processes, for setup_s
SETUP_PROBES = 9
#: a pass that takes longer is killed and all its steps count as failed
PASS_TIMEOUT_S = 170


def _python(*args):
    # -I: ignore PYTHONPATH and user site-packages; child.py puts src first
    return [sys.executable, "-I", *args]


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


def probe_setup() -> float:
    """Seconds from spawning an interpreter until ``okubo_e8.cli`` is
    imported and the kernel backend selected."""
    t_spawn = time.monotonic()
    out = subprocess.run(
        _python(CHILD, "--probe", SRC),
        stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, check=True,
        timeout=PASS_TIMEOUT_S,
    )
    return float(out.stdout.decode().split()[-1]) - t_spawn


class Pass:
    """The timings and checked outcome of one pass."""

    def __init__(self, steps, directory, trace, run_id):
        self.dir = directory
        os.makedirs(directory)
        spec = {
            "src": SRC,
            "steps": [argv for argv, _ in steps],
            "out": directory,
            "trace": trace,
            "run_id": run_id,
        }
        spec_path = os.path.join(directory, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)

        t_spawn = time.monotonic()
        try:
            subprocess.run(
                _python(CHILD, spec_path),
                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                timeout=PASS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print(f"pass timed out after {PASS_TIMEOUT_S} s", file=sys.stderr)
        try:
            with open(os.path.join(directory, "pass.json"), encoding="utf-8") as fh:
                self.result = json.load(fh)
        except (OSError, ValueError):
            self.result = None

        self.outputs = []
        self.failed = 0
        codes = self.result["codes"] if self.result else [None] * len(steps)
        for n, ((argv, check), code) in enumerate(zip(steps, codes)):
            out = self._read(n)
            self.outputs.append(out)
            if out is None or not _checked(check, code, out):
                self.failed += 1
                print(f"FAILED step {' '.join(argv)} (exit {code})", file=sys.stderr)
        t_checked = time.monotonic()

        self.attempted = len(steps)
        if self.result:
            self.wall_s = t_checked - self.result["t_imported"]
            self.setup_s = self.result["t_imported"] - t_spawn
            self.cpu_s = self.result["cpu_s"]
            self.peak_rss_mb = self.result["peak_rss_mb"]
        else:
            self.wall_s = t_checked - t_spawn
            self.setup_s = self.cpu_s = self.peak_rss_mb = None

    def _read(self, n):
        try:
            with open(os.path.join(self.dir, f"step-{n:03d}.out"), "rb") as fh:
                return fh.read()
        except OSError:
            return None


def _checked(check, code, out) -> bool:
    try:
        return bool(check(code, out))
    except (ValueError, KeyError, TypeError, IndexError):  # malformed report
        return False


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def timed_run(workload, seconds, tmp, run_id):
    # half the probes before the passes and half after, so that the
    # setup samples span the run rather than one moment of it
    setups = [probe_setup() for _ in range(SETUP_PROBES // 2)]
    passes = []
    start = time.monotonic()
    while True:
        n = len(passes)
        began = time.monotonic()
        inputs = os.path.join(tmp, f"inputs-{n}")
        os.makedirs(inputs)
        passes.append(Pass(workload.steps(inputs), os.path.join(tmp, f"pass-{n}"), False, run_id))
        now = time.monotonic()
        if now - start + (now - began) > seconds:  # one more such pass would overrun
            break
    setups += [probe_setup() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups += [p.setup_s for p in passes if p.setup_s is not None]

    samples = {
        "wall_s": [p.wall_s for p in passes],
        "cpu_s": [p.cpu_s for p in passes if p.cpu_s is not None],
        "setup_s": setups,
        "peak_rss_mb": [p.peak_rss_mb for p in passes if p.peak_rss_mb is not None],
    }
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    metrics = {name: statistics.median(v) for name, v in samples.items() if v}
    metrics["pass_rate"] = (attempted - failed) / attempted
    summary = {
        name: {"median": statistics.median(v), "q1_q3": _quartiles(v), "n": len(v)}
        for name, v in samples.items() if v
    }
    summary["fail_rate"] = failed / attempted
    summary["passes"] = len(passes)
    summary["lattice.fixture_gram_digits"] = workload.gram_digits
    return metrics, attempted, failed, summary, passes, samples


def traced_run(workload, seed, tmp, run_id):
    import micro

    inputs = os.path.join(tmp, "inputs")
    os.makedirs(inputs)
    steps = workload.steps(inputs)
    plain = Pass(steps, os.path.join(tmp, "untraced"), False, run_id)
    traced = Pass(steps, os.path.join(tmp, "traced"), True, run_id)

    layer, checks = micro.scalar_and_product_layers(seed)
    rows, row_checks = micro.kernel_rows()
    layer.update(rows)
    checks.update(row_checks)
    # tracing must not change a single byte of any report
    checks["trace.identical_reports"] = (
        None not in plain.outputs and plain.outputs == traced.outputs
    )
    for name, ok in checks.items():
        if not ok:
            print(f"FAILED check {name}", file=sys.stderr)

    result = traced.result or {}
    for span, t in result.get("self_s", {}).items():
        layer[f"{span}_s"] = t
    layer.update(result.get("counts", {}))
    candidates = layer.get("stabilizer.candidates", 0)
    layer["stabilizer.useful_ratio"] = (
        layer.get("stabilizer.product_survivors", 0) / candidates if candidates else 0.0
    )
    layer["lattice.fixture_gram_digits"] = workload.gram_digits
    layer["trace.overhead_s"] = traced.wall_s - plain.wall_s

    attempted = plain.attempted + traced.attempted + len(checks)
    failed = plain.failed + traced.failed + sum(1 for ok in checks.values() if not ok)
    # calls x µs: what each counted operation costs the run, to set against wall_s
    estimates = {
        name[:-3]: layer[name[:-3] + "_calls"] * layer[name] / 1e6
        for name in layer if name.endswith("_us") and name[:-3] + "_calls" in layer
    }
    summary = {
        "calls_x_us_s": estimates,
        "untraced_wall_s": plain.wall_s,
        "traced_wall_s": traced.wall_s,
        "span_count": result.get("span_count"),
        "inclusive_s": result.get("total_s", {}),
    }
    return layer, attempted, failed, summary, [plain, traced], {}


# ---------------------------------------------------------------------------
# metadata and output
# ---------------------------------------------------------------------------


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _commit():
    """HEAD of the checkout if it is a git work tree, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except OSError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest():
    """sha256 over the package sources, path and content, in path order."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "okubo_e8")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith((".py", ".pyx")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def metadata(args, passes):
    import okubo_e8
    from okubo_e8 import claims

    backend = next((p.result["backend"] for p in passes if p.result), None)
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "package_version": okubo_e8.__version__,
        "convention": claims.CONVENTION,
        "kernel_backend": backend,
        "python": platform.python_version(),
        "nproc": usable,
        "cpu_model": _cpu_model(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "okubo_e8", "cli.py")):
        print(f"perfbench: no okubo_e8 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    os.makedirs(STATE, exist_ok=True)
    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=STATE, prefix="run-") as tmp:
        workload = WORKLOADS[args.workload](args.seed)
        if args.trace:
            values, attempted, failed, summary, passes, samples = traced_run(
                workload, args.seed, tmp, run_id)
            wanted = spec["per_layer"]
        else:
            values, attempted, failed, summary, passes, samples = timed_run(
                workload, args.seconds, tmp, run_id)
            wanted = spec["end_to_end"]
        meta = metadata(args, passes)

        missing = [m["name"] for m in wanted if m["name"] not in values]
        if missing and not failed:
            print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
            return 3
        values.update(dict.fromkeys(missing, 0.0))  # a crashed pass measured nothing
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
        record = {"meta": meta, "summary": summary, "samples": samples, "metrics": metrics}
        results = os.path.join(STATE, "results")
        os.makedirs(results, exist_ok=True)
        with open(os.path.join(results, f"{run_id}.json"), "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        spans = os.path.join(tmp, "traced", "spans.json")
        if os.path.exists(spans):
            shutil.move(spans, os.path.join(results, f"{run_id}-spans.json"))

    print(json.dumps({"meta": meta}))
    for m in wanted:
        name = m["name"]
        value = values[name]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        line = f"{name:42s} {shown} {m['unit']}"
        if name in summary and isinstance(summary[name], dict):
            s = summary[name]
            line += f"  (q1 {s['q1_q3'][0]:.6g}, q3 {s['q1_q3'][1]:.6g}, n={s['n']})"
        print(line)
    for key in ("fail_rate", "passes", "lattice.fixture_gram_digits",
                "untraced_wall_s", "traced_wall_s", "span_count"):
        if key in summary:
            print(f"{key:42s} {summary[key]}")
    for name, t in summary.get("calls_x_us_s", {}).items():
        print(f"{'calls x us ' + name:42s} {t:.6g} s")
    for span, t in sorted(summary.get("inclusive_s", {}).items()):
        if t:
            print(f"{'inclusive ' + span:42s} {t:.6g} s")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
