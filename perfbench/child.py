"""One benchmark op: a fresh interpreter that imports crnflow and runs one command.

    python3 child.py RECORD [--trace SPANS] -- <crnflow argv...>
    python3 child.py RECORD --probe

Writes RECORD (JSON): exit code, CLOCK_MONOTONIC stamps after the import
and around `crnflow.cli.main(argv)`, CPU seconds and peak RSS of this
process. With --trace, wraps the package first (see tracing.py) and
writes the spans to SPANS after main returns. --probe times the host
drift probe instead of a command (median of three) and records the
numpy/scipy versions.
"""

import json
import resource
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe() -> float:
    """Fixed pure-Python plus small-LAPACK work; its time tracks host speed."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc += i * i % 7
    a = np.random.default_rng(0).standard_normal((60, 60)) + 60.0 * np.eye(60)
    for _ in range(400):
        np.linalg.solve(a, a[0])
    return time.perf_counter() - t0


def main(argv: list[str]) -> int:
    record_path, rest = argv[0], argv[1:]
    if rest == ["--probe"]:
        import numpy
        import scipy

        times = sorted(probe() for _ in range(3))
        import crnflow.cli  # noqa: F401  (fills bytecode and file caches)

        with open(record_path, "w", encoding="utf-8") as fh:
            json.dump({"probe_s": times[1], "numpy": numpy.__version__, "scipy": scipy.__version__}, fh)
        return 0
    spans_path = None
    if rest[0] == "--trace":
        spans_path, rest = rest[1], rest[2:]
    cli_argv = rest[1:]  # drop the "--" separator

    import crnflow.cli

    t_imported = _now()
    tracer = None
    if spans_path is not None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    t_start = _now()
    code = crnflow.cli.main(cli_argv)
    t_done = _now()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    if tracer is not None:
        tracer.dump(spans_path)
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump({
            "exit_code": code,
            "package": crnflow.__file__,
            "t_imported": t_imported,
            "t_start": t_start,
            "t_done": t_done,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "max_rss_mb": usage.ru_maxrss / 1024.0,
        }, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
