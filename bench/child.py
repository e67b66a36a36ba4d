"""One fwcsim CLI call in a fresh interpreter, reporting its own timings.

Usage: ``python3 bench/child.py REPORT MODE [CLI ARGS...]`` where MODE is
``setup`` (stop once the config is resolved), ``plain`` or ``traced``. The
report is a JSON file of monotonic-clock timestamps, the CLI's exit code,
the peak RSS, a record of the numeric stack and, when traced, the
per-layer span summary.
"""
from __future__ import annotations

import ctypes
import json
import resource
import sys
import time


def _blas_record() -> dict:
    import numpy as np

    record = {"numpy": np.__version__}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        record["blas"] = "unknown"
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh
                       if "openblas" in line.lower() and ".so" in line})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                record["blas_threads"] = getter()
                return record
    return record


class _SetupDone(Exception):
    """Raised once the config is resolved in ``setup`` mode."""


def main() -> int:
    report_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import fwcsim
    import fwcsim.cli as cli

    report = {"fwcsim_file": fwcsim.__file__}
    tracer = None
    if mode == "traced":
        import layertrace
        tracer = layertrace.install()
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        report["t_config"] = time.monotonic()
        if mode == "setup":
            raise _SetupDone
        return cfg

    cli.load_config = timed_load_config
    try:
        rc = cli.main(cli_args)
    except _SetupDone:
        rc = 0
    report["t_end"] = time.monotonic()
    if tracer is not None:
        report["trace"] = tracer.summary()
    report["rc"] = rc
    report["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    report["machine"] = _blas_record()
    with open(report_path, "w") as fh:
        json.dump(report, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
