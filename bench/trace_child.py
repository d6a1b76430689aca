"""Run one CLI command or online session in-process with every public
function of ``lqgsched`` wrapped in a timing span.

    python bench/trace_child.py SPANS.json cli sweep --problem configs/sys1.json ...
    python bench/trace_child.py SPANS.json online --problem ... --O 10 --steps 500 --seed 1

Modules import each other's functions by name (``from .riccati import
dare_solve``), so a wrapper installed only on the defining module would miss
the calls between modules. Every binding of each public function, in every
``lqgsched`` module and in the package itself, is replaced by the same
wrapper before the command is imported and run. Private helpers stay
unwrapped; their time lands in the self time of the public caller.

Spans are kept in memory as ``[name, start, end, parent]`` and written out
once the command returns, with the command's exit code and a few values read
from the results (Riccati and oracle iteration counts, the resident-set
high-water mark around each Monte Carlo call).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

MODULES = ("cli", "model", "riccati", "policy", "controller", "sim", "oracle")
METHODS = (("sim", "TrajectoryRecord", "csv_text"),)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Span store and the wrappers that fill it."""

    def __init__(self):
        self.spans: list = []
        self.extra: dict = {}
        self._stack: list[int] = []

    def _note(self, name: str, idx: int, result) -> None:
        if name == "riccati.dare_solve":
            self.extra[idx] = {"iterations": result.iterations}
        elif name == "oracle.solve_r_fixed_point":
            self.extra[idx] = {"iterations": result.convergence_iters}

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        measure_rss = name == "sim.monte_carlo_value"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            rss0 = _max_rss_mb() if measure_rss else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = [name, t0, t1, parent]
            if measure_rss:
                self.extra[idx] = {"rss_growth_mb": _max_rss_mb() - rss0}
            self._note(name, idx, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function at every binding."""
        import lqgsched

        modules = {short: importlib.import_module(f"lqgsched.{short}") for short in MODULES}
        wrappers: dict[int, tuple] = {}
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrappers[id(obj)] = (obj, self.wrap(f"{short}.{attr}", obj))
        for mod in (lqgsched, *modules.values()):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        for short, cls_name, meth in METHODS:
            cls = getattr(modules[short], cls_name)
            setattr(cls, meth, self.wrap(f"{short}.{cls_name}.{meth}", getattr(cls, meth)))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    out_path, kind, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    tracer.install()
    t0 = time.perf_counter()
    if kind == "cli":
        import lqgsched.cli

        code = lqgsched.cli.main(rest)
    elif kind == "online":
        import online  # imported after install, so it binds the wrappers

        code = online.main(rest)
    else:
        raise SystemExit(f"unknown command kind {kind!r}")
    elapsed = time.perf_counter() - t0
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump({"exit_code": code, "in_process_s": elapsed, "spans": tracer.spans,
                   "extra": {str(k): v for k, v in tracer.extra.items()}}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
