"""Run one rotorkit CLI command in this fresh process and report on it.

Usage: python child.py '<json spec>'  with PYTHONPATH pointing at src.

The spec is {"argv": [...], "trace": bool}, or {"probe": true} to report
the library environment instead of running a command.  The last stdout
line is one JSON object: import time, time inside ``cli.main``, exit code,
peak RSS and the captured payload; with tracing, also the spans, the sizes
read at layer boundaries and whether every wrapper was restored.
"""

import contextlib
import io
import json
import sys
import time

t_import0 = time.perf_counter()
from rotorkit import cli  # noqa: E402  (the import itself is measured)
t_import1 = time.perf_counter()

from tracer import Tracer, max_rss_kb  # noqa: E402


def run_command(argv, trace):
    result = {"import_s": t_import1 - t_import0}
    tracer = notes = None
    restored = True
    if trace:
        import layers
        tracer, notes = Tracer(), layers.Notes()
        layers.install(tracer, layers.plan(layers.modules()), notes)
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except SystemExit as err:  # argparse rejects the arguments
        code = err.code if isinstance(err.code, int) else 2
    finally:
        t1 = time.perf_counter()
        if tracer is not None:
            restored = tracer.restore()
    result.update(run_s=t1 - t0, code=code, max_rss_kb=max_rss_kb(),
                  payload=buf.getvalue())
    if tracer is not None:
        result["restored"] = restored
        result["spans"] = tracer.spans
        result["notes"] = notes.summary()
    return result


def probe():
    """Versions and BLAS threading as this interpreter sees them."""
    import ctypes
    import os
    import platform
    import re

    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's BLAS)

    blas = []
    with open("/proc/self/maps") as fh:
        paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", fh.read())))
    for path in paths:
        entry = {"library": os.path.basename(path)}
        lib = ctypes.CDLL(path)
        for suffix in ("64_", "", "_64_"):
            for prefix in ("scipy_openblas", "openblas"):
                cfg = getattr(lib, f"{prefix}_get_config{suffix}", None)
                nth = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if cfg is not None and nth is not None:
                    cfg.restype = ctypes.c_char_p
                    nth.restype = ctypes.c_int
                    entry["config"] = cfg().decode()
                    entry["threads"] = int(nth())
                    break
            if "config" in entry:
                break
        blas.append(entry)
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "openblas": blas,
            "blas_env": {k: os.environ[k] for k in sorted(os.environ)
                         if k.endswith("_NUM_THREADS")}}


def main():
    spec = json.loads(sys.argv[1])
    out = probe() if spec.get("probe") else run_command(spec["argv"],
                                                         spec.get("trace", False))
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
