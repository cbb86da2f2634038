"""One timed pass, in a fresh interpreter with cold caches.

Usage:  python3 child.py SPEC.json

SPEC names the source directory, the steps (CLI argument lists), the
directory the reports go to, and whether to trace.  The pass imports
``okubo_e8.cli``, selects the kernel backend, then runs every step
through ``okubo_e8.cli.main`` in order, writing each report to
``<out>/step-NNN.out``.  Timings and, when traced, the span summary go
to ``<out>/pass.json``; the spans themselves to ``<out>/spans.json``.

With ``--probe`` it only imports and prints the import-done clock.
"""

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _import_program(src):
    sys.path.insert(0, src)
    import okubo_e8.cli  # noqa: F401  (import time is what setup_s measures)
    from okubo_e8 import _kernels

    if not os.path.abspath(okubo_e8.cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"okubo_e8 was imported from {okubo_e8.cli.__file__}, not {src}")
    return okubo_e8.cli, _kernels.BACKEND


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _run_step(cli, argv):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed step, not a crashed benchmark
        traceback.print_exc()
        code = -1
    return code, buf.getvalue().encode("utf-8")


def main(argv):
    if argv[:1] == ["--probe"]:
        _import_program(argv[1])
        print(time.monotonic())
        return 0

    with open(argv[0], encoding="utf-8") as fh:
        spec = json.load(fh)
    cli, backend = _import_program(spec["src"])
    t_imported = time.monotonic()
    cpu0 = _cpu()

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from tracer import Tracer

        tracer = Tracer(spec["run_id"])
        tracer.install()

    codes = []
    for n, step in enumerate(spec["steps"]):
        code, out = _run_step(cli, step)
        with open(os.path.join(spec["out"], f"step-{n:03d}.out"), "wb") as fh:
            fh.write(out)
        codes.append(code)

    t_done = time.monotonic()
    cpu1 = _cpu()
    result = {
        "backend": backend,
        "t_imported": t_imported,
        "t_done": t_done,
        "cpu_s": cpu1 - cpu0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "codes": codes,
    }
    if tracer is not None:
        tracer.uninstall()
        result["self_s"] = tracer.self_times()
        result["total_s"] = tracer.total_times()
        result["counts"] = {**tracer.counts(), **tracer.tallies}
        result["span_count"] = len(tracer.spans)
        with open(os.path.join(spec["out"], "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(
                {"fields": ["id", "name", "start", "end", "parent", "run_id"],
                 "spans": tracer.spans},
                fh,
            )
    with open(os.path.join(spec["out"], "pass.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
