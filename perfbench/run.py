"""fracdg benchmark: one workload (or all four) per invocation.

    python3 perfbench/run.py --workload graded-long --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout and imports fracdg from its `src/`.
With --trace 0 it times passes of the workload untraced, in CPU time scaled
to a reference machine speed (see probe.py), and prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced passes
and prints the per-layer metrics.  Every pass checks its outputs.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

import os

# one process, one thread: pin BLAS before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("FRACDG_THREADS", None)

import argparse  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# set-up is repeated in this many fresh processes; setup_s is their median
SETUP_SAMPLES = 5
WORKLOAD_NAMES = ("graded-long", "hp-table2", "fem-graded", "diagnostics")
# end-to-end metrics and their units, as --trace 0 reports them
END_TO_END = {"pass_ref_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "mode_dofs_per_s": "1/s"}


def _import_fracdg():
    """Import fracdg from this checkout's src/; exit with an error if it is not there."""
    sys.path.insert(0, str(SRC))
    try:
        import fracdg
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import fracdg from {SRC}: {exc}")
    if Path(fracdg.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: fracdg imported from {fracdg.__file__}, not from {SRC}")
    if not (ROOT / "configs" / "table2.cfg").is_file():
        sys.exit(f"perfbench: {ROOT / 'configs' / 'table2.cfg'} is missing")


def _blas_threads():
    """Thread counts reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes

    import numpy

    found = {}
    site = Path(numpy.__file__).resolve().parent.parent
    for lib in sorted(glob.glob(str(site / "*.libs" / "*openblas*"))):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                found[Path(lib).name] = getter()
                break
    return found or {"OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"]}


def environment(seed):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "machine": platform.machine(),
        "seed": seed,
    }


def setup_seconds(name, seed):
    """Set-up time, as the median over fresh processes: (scaled CPU s, wall s).

    Each child reports its own CPU time from process start to a finished
    set-up, scaled to the reference speed (see probe.py)."""
    scaled, walls = [], []
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline().split()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=120)
        if code != 0 or len(line) != 2 or line[0] != "ready":
            raise RuntimeError(f"set-up of {name} failed in a fresh process (exit {code})")
        scaled.append(float(line[1]))
        walls.append(elapsed)
    return statistics.median(scaled), statistics.median(walls)


def _setup_only(name, seed):
    """Build the workload's set-up under the probe; print 'ready <scaled CPU s>'."""
    from probe import SpeedProbe

    with SpeedProbe() as probe:
        _import_fracdg()
        from workloads import WORKLOADS

        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
            WORKLOADS[name](seed, workdir)
        # CPU from process start: interpreter, imports and the set-up itself
        setup = probe.since_start()
    print(f"ready {setup.scaled!r}", flush=True)


def _timed_pass(probe, workload):
    """(PassResult, Timing) of one pass; a raising pass fails all its operations."""
    from workloads import PassResult

    def one_pass():
        try:
            return workload.run_pass()
        except Exception:  # the benchmark keeps running and counts the failure
            traceback.print_exc()
            return PassResult(workload.ops_per_pass, workload.ops_per_pass)

    return probe.time(one_pass)


def _more(start, seconds, timings):
    """True while another pass, as long as the median pass so far, ends within `seconds`."""
    typical = statistics.median(t.wall for t in timings) if timings else 0.0
    return time.perf_counter() - start + typical <= seconds


def run_untraced(cls, seed, seconds, workdir):
    from probe import SpeedProbe

    setup_s, setup_wall = setup_seconds(cls.name, seed)
    workload = cls(seed, workdir)
    timings, attempted, failed = [], 0, 0
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while not timings or _more(start, seconds, timings):
            result, timing = _timed_pass(probe, workload)
            timings.append(timing)
            attempted += result.attempted
            failed += result.failed
    pass_s = statistics.median(t.scaled for t in timings)
    values = {
        "pass_ref_s": pass_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mode_dofs_per_s": workload.mode_dofs / pass_s,
    }
    metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    print(f"  set-up: median wall {setup_wall:.3f} s over {SETUP_SAMPLES} fresh processes")
    return metrics, attempted, failed, {"passes": timings}, []


def run_traced(cls, seed, seconds, workdir):
    from probe import SpeedProbe
    from tracing import Tracer, layer_metrics

    stuck = []
    setup = Tracer()
    setup.install()
    try:
        workload = cls(seed, workdir)
    finally:
        stuck += setup.restore()
    passes = Tracer()
    untraced, traced, attempted, failed, unique_blocks = [], [], 0, 0, 0
    with SpeedProbe() as probe:
        start = time.perf_counter()
        while not traced or _more(start, seconds, untraced + traced):
            if len(untraced) <= len(traced):
                result, timing = _timed_pass(probe, workload)
                untraced.append(timing)
            else:
                passes.install()
                try:
                    result, timing = _timed_pass(probe, workload)
                finally:
                    stuck += passes.restore()
                traced.append(timing)
                unique_blocks += len(passes.block_keys)
                passes.block_keys.clear()
            attempted += result.attempted
            failed += result.failed
    overhead = (statistics.median(t.scaled for t in traced)
                / statistics.median(t.scaled for t in untraced) - 1.0)
    metrics = layer_metrics(setup, passes, len(traced), unique_blocks, overhead)
    return metrics, attempted, failed, {"untraced": untraced, "traced": traced}, stuck


def run_workload(name, seed, seconds, trace):
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as workdir:
        runner = run_traced if trace else run_untraced
        metrics, attempted, failed, timings, stuck = runner(cls, seed, seconds, workdir)
    print(f"workload {name}: seed {seed}, trace {int(trace)}, {attempted} operations, "
          f"{failed} failed")
    for label, group in timings.items():
        for field in ("wall", "cpu", "scaled"):
            values = " ".join(f"{getattr(t, field):.3f}" for t in group)
            print(f"  {label} {field} (s): {values}")
    for binding in stuck:
        print(f"  binding not restored: {binding}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:40s} {value:14.6g} {unit}")
    return metrics, attempted, failed, not stuck


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="build the workload's set-up, print 'ready' and exit")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_only:
        _setup_only(args.workload, args.seed)
        return 0
    _import_fracdg()
    env = environment(args.seed)
    print("environment " + json.dumps(env, sort_keys=True))
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    metrics, attempted, failed, restored = {}, 0, 0, True
    for name in names:
        found, tried, bad, ok = run_workload(name, args.seed, args.seconds, args.trace)
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in found.items()})
        attempted += tried
        failed += bad
        restored = restored and ok
    print(json.dumps({
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
