"""giantnat benchmark: one workload per process, from the repository root.

    python3 perfbench/run.py --workload giant-tree --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 1

The library is imported from ``src/`` next to this directory.  A run makes
the workload's inputs and expected values from the seed, times the
library's set-up (a fresh import and the conversion of the inputs) several
times, then repeats the workload's whole op list in passes until
``--seconds`` have gone by, timing one more set-up after each pass; the
median set-up time is ``setup_s``.  Every result is
checked against an oracle outside the timed window, and every op runs
under a per-op budget enforced by an interval timer, so nothing hangs.
The workload's boundary probes run once at the end.

Lines before the last are a readable report and a run record.  The last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` -- the end-to-end metrics of ``BENCHMARK.json`` with
``--trace 0``, its per-layer metrics with ``--trace 1``.  A traced run
first measures untraced passes, then wraps the library from outside (see
:mod:`tracing`) for further passes, and reports their counts and self
times and the ratio of traced to untraced pass time.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import marshal
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from random import Random
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("core", "tree", "bij", "bignat", "codecs", "numtheory", "cli")
SETUP_REPEATS = 5  # set-ups before the first pass; one more follows every untraced pass
MIN_PASSES = 3
# the metrics of the last line: BENCHMARK.json's end_to_end (untraced) and
# per_layer (traced) lists, name -> unit
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# end-to-end metrics that only the report carries
REPORT_UNITS = {"bij_s": "s", "int_s": "s", "giant_growth_x": "x", "fail_ratio": "ratio"}


REFERENCE_S = 0.00063  # reference_work's fastest time on a quiet host; sets the unit
REFERENCE_EVERY = 8  # ops between reference timings within a pass


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def reference_work(n: int = 2000):
    """Fixed pure-Python work like the library's (small slotted objects,
    tuples, type tests, attribute loads); it never touches giantnat."""
    acc = None
    for i in range(n):
        t = (i, acc)
        acc = _Cell(t, i & 7) if i & 1 else _Cell(acc, t)
        if type(acc) is _Cell and acc.b == 3:
            acc = acc.a
    return acc


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


# The import in a set-up is timed against a second reference, because the
# host's load slows loading and running module code by other amounts than
# it slows the loop above: loading and running the code of the
# benchmark's own oracle and tracer, as an import does, without the file
# system.
SETUP_REFERENCE_S = 0.0003  # its time on a quiet host; sets the unit of the import's time
SETUP_REFERENCE_CODE = [marshal.dumps(compile((HERE / f"{m}.py").read_text(), f"{m}.py", "exec"))
                        for m in ("oracle", "tracing")]


def time_setup_reference() -> float:
    t0 = time.perf_counter()
    for code in SETUP_REFERENCE_CODE:
        exec(marshal.loads(code), {"__name__": "setup_reference"})
    return time.perf_counter() - t0


class OverBudget(BaseException):
    """Raised by the interval timer inside an op that ran past its budget."""


def _on_alarm(signum, frame):
    raise OverBudget()


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------


def import_giantnat() -> SimpleNamespace:
    """Fresh import of the library from ``src/`` (dropping any earlier one)."""
    if not (SRC / "giantnat" / "__init__.py").is_file():
        raise SystemExit(f"run.py: no giantnat sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "giantnat" or n.startswith("giantnat.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    pkg = importlib.import_module("giantnat")
    if Path(pkg.__file__).resolve().parent != SRC / "giantnat":
        raise SystemExit(f"run.py: imported giantnat from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"giantnat.{m}") for m in MODULES})


def _giantnat_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "giantnat" or n.startswith("giantnat.")}


def timed_setup(build):
    """(seconds, modules, workload) of one fresh import plus ``build``.

    Each part is scaled by the reference whose work it resembles, timed
    just before: the import by loading and running module code, the
    conversions in ``build`` by the op list's loop.
    """
    gc.collect()
    import_scale = SETUP_REFERENCE_S / time_setup_reference()
    build_scale = REFERENCE_S / time_reference()
    t0 = time.perf_counter()
    gn = import_giantnat()
    t1 = time.perf_counter()
    wl = build(gn)
    t2 = time.perf_counter()
    return import_scale * (t1 - t0) + build_scale * (t2 - t1), gn, wl


def setup(workload: str, seed: int):
    """(modules, workload, set-up times, function that times one more set-up).

    The inputs and the oracle's expected values are made once, untimed.
    The library's part -- a fresh import and the conversion of the inputs
    -- is timed SETUP_REPEATS times, each after a full garbage collection;
    the last set-up is kept and its converted inputs are checked, untimed.
    Further set-ups are timed between passes, so that the median samples
    the host over the whole run rather than in its first second; each
    leaves ``sys.modules`` holding the kept set-up's modules.
    """
    import workloads

    build = workloads.WORKLOADS[workload](Random(seed))
    times = []
    for _ in range(SETUP_REPEATS):
        gn = wl = None
        t, gn, wl = timed_setup(build)
        times.append(t)
    wl.verify()
    kept = _giantnat_modules()

    def again():
        times.append(timed_setup(build)[0])
        for name in _giantnat_modules():
            del sys.modules[name]
        sys.modules.update(kept)

    return gn, wl, times, again


# ----------------------------------------------------------------------
# measurement
# ----------------------------------------------------------------------


@dataclass
class Pass:
    times: list[float]  # per op, seconds; None when the op failed
    digest: list[str]
    failures: list[str] = field(default_factory=list)
    reference: float = math.inf  # fastest reference_work timing in the pass


def run_op(op, budget: float):
    """(seconds, result, error) of one op under the per-op budget."""
    signal.setitimer(signal.ITIMER_REAL, budget)
    t0 = time.perf_counter()
    try:
        result = op.run()
        return time.perf_counter() - t0, result, None
    except OverBudget:
        return None, None, f"over the {budget:g} s budget"
    except Exception as exc:  # noqa: BLE001 -- any exception is a failed op
        return None, None, f"{type(exc).__name__}: {str(exc)[:120]}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def check_op(op, result) -> tuple[str | None, str | None]:
    """(digest entry, error) of a result, judged outside the timed window."""
    try:
        return op.check(result), None
    except Exception as exc:  # noqa: BLE001 -- a check that cannot read the result fails it
        return None, f"wrong result: {type(exc).__name__}: {str(exc)[:160]}"


def run_pass(ops, budget: float) -> Pass:
    p = Pass([], [])
    for j, op in enumerate(ops):
        if j % REFERENCE_EVERY == 0:
            p.reference = min(p.reference, time_reference())
        dt, entry, err = math.inf, None, None
        for _ in range(op.reps):
            try:
                t, result, err = run_op(op, budget)
            except OverBudget:  # the timer fired just as the op returned
                t, result, err = None, None, f"over the {budget:g} s budget"
            if err is None:
                entry, err = check_op(op, result)
            if err is not None:
                break
            dt = min(dt, t)
        p.times.append(dt if err is None else None)
        p.digest.append(entry if err is None else "FAIL")
        if err is not None:
            p.failures.append(f"{op.name}: {err}")
    return p


def measure(ops, budget: float, seconds: float, between) -> list[Pass]:
    """Passes over ``ops`` until ``seconds`` have gone by, ``between`` after each."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(ops, budget))
        between()
    return passes


def percentile(sorted_vals: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1]


def tail_percent(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it."""
    return max(50, math.floor(100 * (n - 10) / n)) if n > 10 else 50


def per_op_times(passes: list[Pass], n: int) -> list[float]:
    """Each op's fastest time over the run's passes (nan if it never passed).

    The work of an op is the same in every pass, so its fastest time is
    its cost with the least interference from the rest of the machine; on
    a shared two-core host the median moves by tens of percent from one
    minute to the next, the minimum by a few.
    """
    out = []
    for j in range(n):
        ts = [p.times[j] for p in passes if p.times[j] is not None]
        out.append(min(ts) if ts else math.nan)
    return out


def speed_scale(passes: list[Pass]) -> float:
    """How much faster than now the host would run the run's fastest times.

    The reference loop is timed within every pass, a dozen times, like an
    op: its fastest time over the run moves with the host's speed the way
    the ops' fastest times do, and the ratio cancels that drift.
    """
    return REFERENCE_S / min(p.reference for p in passes)


def end_to_end(wl, passes: list[Pass], setup_times: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics; the op list's times are scaled by :func:`speed_scale`,
    ``setup_s`` is the median of the set-up times (scaled as they were taken)."""
    ops = wl.ops
    scale = speed_scale(passes)
    per_op = [t * scale for t in per_op_times(passes, len(ops))]
    ok = [(t, op) for t, op in zip(per_op, ops) if not math.isnan(t)]
    ok_times = sorted(t for t, _ in ok)
    m = {"setup_s": statistics.median(setup_times), "wall_s": sum(ok_times)}
    for rep in ("tree", "bij", "int"):
        if any(op.rep == rep for op in ops):
            m[f"{rep}_s"] = sum(t for t, op in ok if op.rep == rep)
    p_tail = tail_percent(len(ok_times))
    m["op_p50_ms"] = 1000 * percentile(ok_times, 50)
    m["op_tail_ms"] = 1000 * percentile(ok_times, p_tail)
    rungs = sorted({op.group for op in ops if op.group.startswith("mersenne:")}, key=lambda g: int(g[9:]))
    if rungs:
        def rung_median(g):
            return statistics.median(t for t, op in ok if op.group == g)
        m["giant_growth_x"] = rung_median(rungs[-1]) / rung_median(rungs[0])
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    info = {"op_tail_percentile": p_tail, "op_samples": len(ok_times), "passes": len(passes),
            "growth_rungs": f"{rungs[-1]} / {rungs[0]}" if rungs else None,
            "speed_scale": scale,
            "wall_median_pass_s": statistics.median(
                sum(t for t in p.times if t is not None) for p in passes)}
    return m, info


def run_probes(wl) -> list[tuple[str, str]]:
    """(probe, outcome) for each boundary probe; outcome "ok", "refused" or the failure."""
    import workloads

    out = []
    for probe in wl.probes:
        p = run_pass([probe], workloads.PROBE_BUDGET_S)
        out.append((probe.name, p.failures[0].split(": ", 1)[1] if p.failures else p.digest[0]))
    return out


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------


def src_lines() -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted((SRC / "giantnat").glob("*.py")))


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(args) -> int:
    signal.signal(signal.SIGALRM, _on_alarm)
    gn, wl, setup_times, setup_again = setup(args.workload, args.seed)
    n_ops = len(wl.ops)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "python": platform.python_version(), "nproc": nproc(),
              "src_lines": src_lines(), "ops_per_pass": n_ops, "probes": len(wl.probes)}
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = measure(wl.ops, wl.budget_s, seconds, setup_again)
    metrics, info = end_to_end(wl, passes, setup_times)
    layer = None
    if args.trace:
        layer, traced = traced_passes(gn, wl, passes, args.seconds / 2)
        record["trace.overhead_x"] = layer["trace.overhead_x"]
        passes = passes + traced
    probes = run_probes(wl)

    failed_ops = sorted({f.split(": ", 1)[0] for p in passes for f in p.failures})
    digests = {tuple(p.digest) for p in passes}
    consistent = len(digests) == 1
    probe_failures = [name for name, outcome in probes if outcome not in ("ok", "refused")]
    metrics["fail_ratio"] = (len(failed_ops) + len(probe_failures)) / (n_ops + len(probes))
    record["passes"] = info["passes"]
    record["digest"] = (hashlib.sha256("\n".join(passes[0].digest).encode()).hexdigest()[:16]
                        if consistent else "mismatch")

    print(f"# {args.workload}: {n_ops} ops per pass, {info['passes']} untraced passes, seed {args.seed}")
    print("# run record " + json.dumps(record, sort_keys=True))
    for name, v in metrics.items():
        note = ""
        if name == "op_tail_ms":
            note = f"  (p{info['op_tail_percentile']} of {info['op_samples']} per-op times)"
        elif name == "giant_growth_x":
            note = f"  (median op time, rung {info['growth_rungs']})"
        elif name == "wall_s":
            note = (f"  (sum of per-op fastest times, x{info['speed_scale']:.4f} for host speed;"
                    f" median pass {fmt(info['wall_median_pass_s'])} s unscaled)")
        elif name == "setup_s":
            note = f"  (median of {len(setup_times)} set-ups, fastest {fmt(min(setup_times))} s)"
        elif name == "fail_ratio":
            note = f"  ({len(failed_ops)} of {n_ops} ops, {len(probe_failures)} of {len(probes)} probes)"
        print(f"#   {name:<16} {fmt(v):>12} {END_TO_END.get(name) or REPORT_UNITS[name]}{note}")
    for name, outcome in probes:
        print(f"#   probe {name}: {outcome}")
    for f in sorted({f for p in passes for f in p.failures})[:20]:
        print(f"#   FAILED {f}")
    if not consistent:
        print("#   result digests differ between passes")
    if layer is not None:
        for name, v in layer.items():
            print(f"#   {name:<34} {fmt(v)}")
        # BENCHMARK.json lists layers every workload reaches; one a later change removes reads 0
        out_metrics = {k: {"value": layer.get(k, 0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        out_metrics = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()}
    attempted = sum(len(p.times) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


def traced_passes(gn, wl, untraced: list, seconds: float):
    """Per-layer counts and self times from passes run under the tracer."""
    import tracing

    tracer = tracing.Tracer(gn)
    budget = wl.budget_s * 20
    traced, counts = [], None
    times: dict[str, list[float]] = {}
    tracer.install()
    try:
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < seconds:
            tracer.reset()
            traced.append(run_pass(wl.ops, budget))
            c = tracer.counts()
            if counts is None:
                counts = c
            elif c != counts:
                raise RuntimeError("traced counts differ between passes of the same inputs")
            for k, v in tracer.times().items():
                times.setdefault(k, []).append(v)
    finally:
        tracer.remove()
    # each half scaled by its own reference timings, so host drift cancels
    scale = speed_scale(traced)
    wall = speed_scale(untraced) * sum(per_op_times(untraced, len(wl.ops)))
    traced_wall = scale * sum(per_op_times(traced, len(wl.ops)))
    layer = dict(counts)
    layer.update({k: scale * min(v) for k, v in times.items()})
    layer["trace.passes"] = len(traced)
    layer["trace.not_found"] = ",".join(tracer.missing) or "-"
    layer["trace.overhead_x"] = traced_wall / wall
    return layer, traced


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("giant-tree", "desk-numtheory", "codec-cli", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # each workload in its own single-threaded process, one after another
        status = 0
        for name in ("giant-tree", "desk-numtheory", "codec-cli"):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            status |= subprocess.run(cmd, check=False).returncode
        return status
    try:
        return run_workload(args)
    except SystemExit:
        raise
    except Exception:  # noqa: BLE001 -- report and exit nonzero without a result line
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
