"""effham benchmark: seeded workloads run through the public CLI, in process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client.  After set-up, the process runs
the workload's CLI commands (`effham.cli.main(argv)`) one after another, then
again, until the next round would end after `--seconds`.  BLAS is pinned to
one thread.  Every command's artifacts are checked; a non-zero exit, a
command that hits the per-command time limit, or a failed check counts the
command's operations as failed.

`--trace 0` times the rounds untraced and reports the end-to-end metrics:
`setup_s` (median of five cold set-ups: import, seeded inputs, one warm-up
command), `wall_norm_s` (median round wall time of the program, rescaled
for the host's speed drift; see Calibration) and `peak_rss_mb`.  The report
lines above the JSON line add the raw `wall_s`, `samples_per_s` or
`path_steps_per_s`, and `failed_frac`.

`--trace 1` alternates untraced and traced rounds on the same input set: the
traced ones run with layer spans installed from outside (see tracing.py) and
give the per-layer metrics; traced minus untraced wall time is the tracing
overhead.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Everything else the run
leaves (configs, artifacts, spans, the environment record) goes to
`.bench_work/<workload>/` at the root of the checkout.
"""

import os

# pin BLAS before numpy loads; child set-up processes inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# the keys of workloads.WORKLOADS, listed here so that parsing the arguments
# imports no numpy before set-up starts its clock
WORKLOAD_NAMES = ("sweep_1d", "check_regime2", "mc_motor")
SETUP_CHILDREN = 4          # extra cold set-ups, each in a fresh process
INPUT_SETS = 8              # seeded input sets a run cycles through
COMMAND_LIMIT_S = 60.0      # a command still running after this has stalled
                            # (the slowest, 1000-path simulate, takes 11-25 s)
RUN_LIMIT_S = 150.0         # no command starts or runs past this (of 180 s)

CALIBRATION_REF_S = 0.025   # nominal time of one calibration sample
CALIBRATION_PERIOD_S = 0.2  # a sample every this many seconds of a command

E2E_UNITS = {"setup_s": "s", "wall_norm_s": "s", "peak_rss_mb": "MB"}


class CommandTimeout(BaseException):
    """Raised in the CLI call by the alarm; BaseException, so the CLI's own
    `except Exception` handlers cannot swallow it."""


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def setup(workload: str, seed: int, work: Path):
    """Import the program from this checkout, write the seeded inputs and
    run one warm-up command.  Returns (cli module, input sets, seconds)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import effham.cli as cli
    if Path(cli.__file__).resolve().parents[1] != SRC:
        raise SystemExit(f"effham imported from {cli.__file__}, not from {SRC}")
    import workloads

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sets = workloads.input_sets(workload, work, seed, INPUT_SETS)
    warm = workloads.warmup_command(work, sets[0])
    code = cli.main(list(warm.argv))
    if code != 0 or warm.check(warm.out, warm.ops):
        raise SystemExit(f"warm-up command failed (exit {code})")
    return cli, sets, time.perf_counter() - t0


def child_setups(args) -> list:
    """Set-up times of SETUP_CHILDREN fresh processes, one after another."""
    times = []
    for k in range(SETUP_CHILDREN):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-only",
             "--workload", args.workload, "--seed", str(args.seed),
             "--work", str(WORK / f"{args.workload}.setup{k}")],
            capture_output=True, text=True, timeout=60, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"set-up process failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
    return times


# ---------------------------------------------------------------------------
# rounds
# ---------------------------------------------------------------------------

class Calibration:
    """A fixed mix of the kinds of work the program does (dense LU solves,
    tiny numpy calls, a plain Python loop) that uses no effham code, timed
    as a sample of the shared host's speed.

    The host's speed drifts by 10-40 % over minutes and jitters by as much
    from one tenth of a second to the next, and samples taken only between
    commands tracked it poorly.  So an interval timer interrupts each timed
    command every CALIBRATION_PERIOD_S for one sample (about a tenth of the
    time); the command's wall time minus the time in samples is the
    program's, and `wall_norm_s` rescales it to the speed at which a sample
    takes CALIBRATION_REF_S.  The same timer enforces the per-command limit.
    """

    def __init__(self):
        import numpy as np
        rng = np.random.default_rng(0)
        self._solve = np.linalg.solve     # bound before any tracing patch
        self._big = rng.random((256, 256)) + 256.0 * np.eye(256)
        self._small = rng.random((3, 3)) + 3.0 * np.eye(3)
        self._rhs = np.ones(256)
        self.samples = []
        self._active = False      # a command is running under the timer
        self._deadline = 0.0
        self.busy = 0.0           # seconds spent in samples inside commands
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.sample()

    def sample(self) -> None:
        solve, big, small, rhs = self._solve, self._big, self._small, self._rhs
        t0 = time.perf_counter()
        for _ in range(10):
            solve(big, rhs)
        for _ in range(1000):
            solve(small, rhs[:3])
        acc = 0.0
        for k in range(75_000):
            acc += 0.5 * k
        self.samples.append(time.perf_counter() - t0)

    def _arm(self, now: float) -> None:
        signal.setitimer(signal.ITIMER_REAL,
                         max(min(CALIBRATION_PERIOD_S, self._deadline - now), 1e-3))

    def program_clock(self) -> float:
        """perf_counter() without the time spent in samples: the clock of
        the traced round's spans."""
        return time.perf_counter() - self.busy

    def _on_alarm(self, signum, frame):
        if not self._active:      # delivered after the command ended
            return
        t0 = time.perf_counter()
        if t0 >= self._deadline:
            raise CommandTimeout()
        self.sample()
        t1 = time.perf_counter()
        self.busy += t1 - t0
        self._arm(t1)

    def run(self, call, limit: float):
        """call() under the time limit.  Returns (its result or "timeout",
        program seconds, mean sample time over the command)."""
        first, busy = len(self.samples), self.busy
        t0 = time.perf_counter()
        self._deadline = t0 + limit
        self._active = True
        self._arm(t0)
        try:
            result = call()
        except CommandTimeout:
            result = "timeout"
        finally:
            self._active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - t0 - (self.busy - busy)
        self.sample()             # every command gets at least one sample
        return result, wall, statistics.mean(self.samples[first:])


def run_command(cli, cmd, limit: float, calib: Calibration) -> dict:
    """Run one CLI command under a time limit, then check its artifacts."""
    cmd.clear()
    if limit <= 0:
        return {"name": cmd.name, "wall": 0.0, "calibration": CALIBRATION_REF_S,
                "exit": "skipped", "failed": cmd.ops}
    code, wall, speed = calib.run(lambda: cli.main(list(cmd.argv)), limit)
    failed = cmd.ops
    if code == 0:
        try:
            failed = cmd.check(cmd.out, cmd.ops)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            print(f"# {cmd.name}: unreadable artifact: {exc!r}", file=sys.stderr)
    if failed:
        print(f"# {cmd.name}: exit {code}, {failed}/{cmd.ops} operations failed",
              file=sys.stderr)
    return {"name": cmd.name, "wall": wall, "calibration": speed,
            "exit": code, "failed": failed}


def run_round(cli, wl, deadline: float, calib: Calibration) -> dict:
    commands = [run_command(cli, cmd,
                            min(COMMAND_LIMIT_S, deadline - time.perf_counter()),
                            calib)
                for cmd in wl.commands]
    ok = {c["name"]: c["failed"] == 0 for c in commands}
    return {
        "wall": sum(c["wall"] for c in commands),
        "wall_norm": sum(c["wall"] * CALIBRATION_REF_S / c["calibration"]
                         for c in commands),
        "attempted": sum(cmd.ops for cmd in wl.commands),
        "failed": sum(c["failed"] for c in commands),
        "samples": sum(max(cmd.samples - c["failed"], 0)
                       for cmd, c in zip(wl.commands, commands)),
        "path_steps": sum(cmd.path_steps for cmd in wl.commands if ok[cmd.name]),
        "commands": commands,
    }


def run_rounds(cli, sets, seconds: float, deadline: float, traced: bool):
    """Rounds until the next would end after `seconds`, round r on input set
    r % len(sets); with `traced`, each untraced round is followed by a traced
    one on the same set.  Returns (untraced rounds, traced rounds, tracers)."""
    plain, traced_rounds, tracers = [], [], []
    start = time.perf_counter()
    calib = Calibration()
    while True:
        wl = sets[len(plain) % len(sets)]
        plain.append(run_round(cli, wl, deadline, calib))
        if traced:
            import tracing
            tracer = tracing.Tracer(calib.program_clock)
            tracer.install()
            try:
                rnd = run_round(cli, wl, deadline, calib)
            finally:
                tracer.uninstall()
            rnd["layers"] = tracer.layer_metrics(rnd["wall"], wl.dominant)
            traced_rounds.append(rnd)
            tracers.append(tracer)
        per_round = (time.perf_counter() - start) / len(plain)
        if time.perf_counter() - start + per_round > seconds:
            return plain, traced_rounds, tracers


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads():
    """Thread count the loaded OpenBLAS reports, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(args) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

def _median(values):
    return statistics.median(values) if values else 0.0


def _report_line(name: str, value, unit: str) -> None:
    print(f"{name:<34} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up in --work, print the seconds, exit")
    parser.add_argument("--work", help="work directory (default .bench_work/WORKLOAD)")
    args = parser.parse_args(argv)
    work = Path(args.work) if args.work else WORK / args.workload

    if args.setup_only:
        print(f"{setup(args.workload, args.seed, work)[2]:.9f}")
        return 0

    run_start = time.perf_counter()
    cli, sets, own_setup = setup(args.workload, args.seed, work)
    setups = [own_setup] + child_setups(args)
    wl = sets[0]
    plain, traced, tracers = run_rounds(cli, sets, args.seconds,
                                        run_start + RUN_LIMIT_S, bool(args.trace))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rounds = plain + traced
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    walls = [r["wall"] for r in plain]
    wall = _median(walls)
    env = environment(args)
    print("# " + json.dumps(env, sort_keys=True))
    print(f"# {wl.name}: {len(plain)} untraced round(s), {len(traced)} traced, "
          f"round wall quartiles "
          + (", ".join(f"{q:.4f}" for q in statistics.quantiles(walls, n=4))
             if len(walls) > 1 else f"{wall:.4f}") + " s")

    e2e = {"setup_s": _median(setups),
           "wall_norm_s": _median([r["wall_norm"] for r in plain]),
           "peak_rss_mb": rss_mb}
    for name, value in e2e.items():
        _report_line(name, value, E2E_UNITS[name])
    _report_line("wall_s", wall, "s")
    samples = _median([r["samples"] / r["wall"] for r in plain if r["wall"]])
    steps = _median([r["path_steps"] / r["wall"] for r in plain if r["wall"]])
    if any(cmd.samples for cmd in wl.commands):
        _report_line("samples_per_s", samples, "1/s")
    if any(cmd.path_steps for cmd in wl.commands):
        _report_line("path_steps_per_s", steps, "1/s")
    _report_line("failed_frac", failed / attempted, "1")

    if args.trace:
        import tracing
        layers = {name: _median([r["layers"][name] for r in traced])
                  for name in traced[0]["layers"]}
        layers["trace.wall_s"] = _median([r["wall"] for r in traced])
        # each traced round reruns the input set of the untraced one before
        # it; rescaled walls keep the host's drift out of the difference
        layers["trace.overhead_s"] = _median([t["wall_norm"] - u["wall_norm"]
                                              for u, t in zip(plain, traced)])
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER_UNITS.items()}
        for name, m in metrics.items():
            _report_line(name, m["value"], m["unit"])
        spans = work / "spans.jsonl"
        spans.unlink(missing_ok=True)
        for k, tracer in enumerate(tracers):
            tracer.write(spans, k)
    else:
        metrics = {name: {"value": value, "unit": E2E_UNITS[name]}
                   for name, value in e2e.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (work / "result.json").write_text(json.dumps(
        {"environment": env, "setups_s": setups, "rounds": rounds,
         **result}, indent=1, default=str), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
