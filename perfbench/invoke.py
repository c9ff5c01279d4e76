"""One measured spinamp CLI invocation in this fresh interpreter.

    python3 invoke.py setup RESULT -- CLI_ARGS...
    python3 invoke.py run RESULT [--spans SPANS] -- CLI_ARGS...

`setup` times the import of spinamp from the checkout's src/ plus the
parsing and resolution of CLI_ARGS' config. `run` times ``spinamp.cli.main``
on CLI_ARGS (wall and user+system CPU of the whole process, all threads)
and records the process's peak resident memory (VmHWM); with --spans it records
spans around spinamp's module functions and writes them to SPANS.
Measurements go to RESULT as JSON; the exit code is 0 once RESULT is
written, whatever the CLI returned.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def blas_threads() -> int:
    """Threads of the OpenBLAS that numpy loaded, or 0 when it is not found."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.split()[-1]})
    for path in libs:
        if "numpy" not in path:
            continue
        lib = ctypes.CDLL(path)
        for name in names:
            if hasattr(lib, name):
                return int(getattr(lib, name)())
    return 0


def peak_rss_mb() -> float:
    """High-water resident set of this process image. ru_maxrss is not used:
    Linux carries it across exec, so it would include the parent's memory."""
    with open("/proc/self/status", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "run"))
    ap.add_argument("result")
    ap.add_argument("--spans")
    args = ap.parse_args(argv[:split])
    cli_args = argv[split + 1:]

    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import spinamp.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"spinamp imported from {cli.__file__}, not from {ROOT / 'src'}")

    if args.mode == "setup":
        ns = cli.build_parser().parse_args(cli_args)
        cli.resolve_config(cli.apply_overrides(cli.load_config(ns.config), ns.override),
                           ns.command)
        result = {"setup_s": time.perf_counter() - t0}
    else:
        tracer = None
        if args.spans:
            import tracing
            tracer = tracing.Tracer()
            tracing.install(tracer)
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        w0 = time.perf_counter()
        code = cli.main(cli_args)
        wall = time.perf_counter() - w0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        if tracer is not None:
            tracer.dump(args.spans)
        result = {"exit": code, "wall_s": wall,
                  "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
                  "peak_rss_mb": peak_rss_mb(),
                  "pool_workers": cli._n_workers(), "blas_threads": blas_threads()}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
