"""Run one lipbound CLI operation in-process, with its layers wrapped.

    python3 perfbench/tracer.py TRACE.json <lipbound cli arguments...>

Times the import of `lipbound.cli` in this fresh interpreter, then wraps
the public functions below at every name the package binds them to (so
`lipbound.bounds.gamma_matrix` and `lipbound.cli.run_recursion` are both
caught), calls `lipbound.cli.main(argv)` and writes the counters to
TRACE.json.  The exit code is the CLI's.  A function the program no
longer has is listed under "absent" instead of failing the run.

The tracing overhead is measured apart from the operation's own time: the
same wrappers are timed around a no-op in this process, and their per-call
cost is multiplied by the number of wrapped calls the operation made.  Two
timings of a whole operation differ by more than that from host noise
alone.
"""

import json
import sys
import time

# (counter, module, function).  Both eigen-solver entry points feed one
# counter; a call made from inside another counted call of the same
# counter is part of it and is not counted twice.
TARGETS = (
    ("load_network", "lipbound.network", "load_network"),
    ("jacobian_sigma", "lipbound.network", "jacobian_sigma"),
    ("run_recursion", "lipbound.bounds", "run_recursion"),
    ("gamma_matrix", "lipbound.bounds", "gamma_matrix"),
    ("cholesky", "lipbound.bounds", "cholesky"),
    ("eigen", "lipbound.linalg", "power_iteration"),
    ("eigen", "lipbound.linalg", "power_iteration_matvec"),
    ("empirical_lower_bound", "lipbound.certify", "empirical_lower_bound"),
    ("verify_feasibility", "lipbound.certify", "verify_feasibility"),
)


class Counter:
    def __init__(self):
        self.calls = 0
        self.entries = 0
        self.raised = 0
        self.seconds = 0.0
        self.matvecs = 0
        self.depth = 0

    def as_dict(self) -> dict:
        return {"calls": self.calls, "entries": self.entries, "raised": self.raised,
                "seconds": self.seconds, "matvecs": self.matvecs}


def timed(fn, counter: Counter, count_matvecs: bool):
    def wrapper(*args, **kwargs):
        counter.entries += 1
        if count_matvecs:
            matvec = args[0]

            def counted(v):
                counter.matvecs += 1
                return matvec(v)

            args = (counted,) + args[1:]
        if counter.depth:
            return fn(*args, **kwargs)
        counter.depth += 1
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            counter.raised += 1
            raise
        finally:
            counter.seconds += time.perf_counter() - t0
            counter.calls += 1
            counter.depth -= 1

    return wrapper


def _best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def wrapper_costs(n: int = 50_000) -> tuple:
    """Seconds a wrapper adds to one call, and to one counted matvec."""
    def noop(*args):
        return None

    def call_loop(fn):
        return lambda: [fn() for _ in range(n)]

    call = (_best_of(call_loop(timed(noop, Counter(), False)))
            - _best_of(call_loop(noop))) / n

    def matvec_loop(matvec):
        for _ in range(n):
            matvec(None)

    counted = timed(matvec_loop, Counter(), True)
    matvec = (_best_of(lambda: counted(noop)) - _best_of(lambda: matvec_loop(noop))) / n
    return max(call, 0.0), max(matvec, 0.0)


def overhead_s(counters: dict) -> float:
    """Time the wrappers added to the traced operation."""
    call, matvec = wrapper_costs()
    return sum(c.entries * call + c.matvecs * matvec for c in counters.values())


def install(counters: dict) -> list:
    """Wrap every target; returns the names of those the program lacks."""
    absent = []
    packages = [m for name, m in sys.modules.items() if name.split(".")[0] == "lipbound"]
    for key, module_name, attr in TARGETS:
        original = getattr(sys.modules.get(module_name), attr, None)
        if original is None:
            absent.append(f"{module_name}.{attr}")
            continue
        wrapper = timed(original, counters.setdefault(key, Counter()),
                        attr == "power_iteration_matvec")
        for module in packages:
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, wrapper)
    return absent


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    import lipbound.cli

    import_s = time.perf_counter() - t0
    counters = {}
    absent = install(counters)
    t0 = time.perf_counter()
    rc = lipbound.cli.main(argv)
    op_s = time.perf_counter() - t0
    with open(out, "w") as fh:
        json.dump({
            "import_s": import_s,
            "op_s": op_s,
            "overhead_s": overhead_s(counters),
            "rc": rc,
            "absent": absent,
            "counters": {k: c.as_dict() for k, c in counters.items()},
        }, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
