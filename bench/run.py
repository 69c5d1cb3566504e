"""The shiftcat benchmark: fresh `python -m shiftcat.cli` processes on a
seeded job list, run from the root of a source checkout.

    python3 bench/run.py --workload corpus-mix --seed 1 --seconds 24 --trace 0

Closed loop, one client: the next job is spawned when the previous one
has exited and its output has been read.  With --trace 0 the jobs are
run in list order (cycling) until --seconds have passed and the
end-to-end metrics are printed; with --trace 1 every job is run once
as a process and once more in-process by the traced replay
(replay.py), and the per-layer metrics are printed.  Every output is
checked (checks.py) after the timed region.  The last line of stdout
is the JSON result; a wrong output makes the exit code 1.  Details
(per-job times and sizes, spans) go to .bench_out/.

The speed of a shared machine drifts by a quarter or more over minutes,
and a job slows with it as much as a bare interpreter start does.  So
the timed loop also times `python -c pass` before every sixth job, and
the end-to-end times are reported at a reference start-up of
REFERENCE_START_S: each measured time is scaled by REFERENCE_START_S over
the run's median bare start (a rate by the inverse).  The raw values and
the scale are printed too.  Nothing in shiftcat can change a bare
interpreter start, so the scale hides no change to the package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUPS = 5
STARTUP_PROBES = 10
# median `python -c pass` wall time of Python 3.11 on the 2-vCPU x86-64 VM
# the bounds were set on, when that machine ran at its faster speed
REFERENCE_START_S = 0.045
CALIBRATE_EVERY = 6


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=24.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-digests", action="store_true",
                   help="with --trace 1 and the default seed: store the "
                        "digest of every checked report in digests.json")
    return p.parse_args(argv)


class Spawner:
    """Runs one process at a time, through launcher.py, from the work
    directory; each run reports (wall seconds, exit code, stdout,
    stderr, peak RSS in KiB)."""

    def __init__(self, root: Path, workdir: Path):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE)
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        # jobs reuse the bytecode the warm-up process caches, as they would
        # for an installed package; without this every job would recompile
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self._send({"cwd": str(workdir), "env": env})

    def _send(self, obj) -> None:
        self.proc.stdin.write(json.dumps(obj).encode() + b"\n")
        self.proc.stdin.flush()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()

    def run(self, args: list[str]):
        self._send([sys.executable] + args)
        head = json.loads(self.proc.stdout.readline())
        out = self.proc.stdout.read(head["out"])
        err = self.proc.stdout.read(head["err"])
        return head["wall_s"], head["code"], out, err, head["rss_kib"]

    def job(self, job):
        return self.run(["-m", "shiftcat.cli"] + job.argv)


def set_up(root: Path, name: str, seed: int, workdir: Path):
    """Inputs from the seed, written out, then one untimed warm-up
    process so that bytecode compilation is not timed."""
    t0 = time.perf_counter()
    wl = workloads.build(name, root, seed)
    if workdir.exists():
        shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    wl.write(workdir)
    spawner = Spawner(root, workdir)
    _, code, _, err, _ = spawner.run(["-m", "shiftcat.cli", "--version"])
    if code != 0:
        spawner.close()
        raise SystemExit(f"warm-up process failed: {err.decode()[-500:]}")
    return wl, spawner, time.perf_counter() - t0


def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def timed_loop(spawner: Spawner, jobs, seconds: float):
    """Jobs in list order, cycling, until `seconds` of job time have
    passed; a bare interpreter start is timed before every
    CALIBRATE_EVERY-th job, outside the job time.  Returns the runs, the
    job time and the bare start times."""
    execs, bare = [], []
    start = time.perf_counter()
    paused = 0.0
    while time.perf_counter() - start - paused < seconds:
        if len(execs) % CALIBRATE_EVERY == 0:
            t0 = time.perf_counter()
            bare.append(spawner.run(["-c", "pass"])[0])
            paused += time.perf_counter() - t0
        job = jobs[len(execs) % len(jobs)]
        execs.append((job,) + spawner.job(job))
    return execs, time.perf_counter() - start - paused, bare


def checker(root: Path, args, wl) -> checks.Checker:
    """The reports of the default seed are also held to their recorded
    digests, unless those are being recorded."""
    digests = {}
    if args.seed == checks.DEFAULT_SEED and not args.record_digests:
        digests = checks.load_digests(args.workload)
    return checks.Checker(root, wl.files, digests)


def judge(checker: checks.Checker, execs) -> list[dict]:
    failures = []
    for job, wall, code, out, err, _ in execs:
        why = checker.verify(job, code, out, err)
        if why is not None:
            failures.append({"job": job.id, "argv": job.argv, "why": why,
                             "stderr": err.decode("utf-8", "replace")[-300:]})
    return failures


def job_records(jobs, execs) -> list[dict]:
    rows = {j.id: {"id": j.id, "argv": j.argv, "sizes": dict(j.info),
                   "wall_s": [], "rss_kib": []} for j in jobs}
    for job, wall, _, out, _, rss in execs:
        rows[job.id]["wall_s"].append(wall)
        rows[job.id]["rss_kib"].append(rss)
        rows[job.id]["stdout_bytes"] = len(out)
    return list(rows.values())


def end_to_end(root, args, workdir, meta):
    setups = []
    for _ in range(SETUPS):
        wl, spawner, dt = set_up(root, args.workload, args.seed, workdir)
        setups.append(dt)
        if len(setups) < SETUPS:
            spawner.close()
    try:
        execs, elapsed, bare = timed_loop(spawner, wl.jobs, args.seconds)
    finally:
        spawner.close()
    walls = [e[1] for e in execs]
    raw = {
        "jobs_per_s": len(execs) / elapsed,
        "job_s.p50": statistics.median(walls),
        "job_s.p90": percentile(walls, 90),
        "setup_s": statistics.median(setups),
    }
    scale = REFERENCE_START_S / statistics.median(bare)
    metrics = {
        "jobs_per_s": (raw["jobs_per_s"] / scale, "1/s"),
        "job_s.p50": (raw["job_s.p50"] * scale, "s"),
        "job_s.p90": (raw["job_s.p90"] * scale, "s"),
        "peak_rss_mb": (max(e[5] for e in execs) / 1024, "MiB"),
        "setup_s": (raw["setup_s"] * scale, "s"),
    }
    failures = judge(checker(root, args, wl), execs)
    meta.update(samples=len(execs), list_length=len(wl.jobs),
                passes=len(execs) / len(wl.jobs), elapsed_s=elapsed,
                bare_start_s=statistics.median(bare), scale=scale,
                bare_starts=len(bare), raw=raw, setups_s=setups)
    detail = {"jobs": job_records(wl.jobs, execs)}
    return metrics, len(execs), failures, detail


def traced(root, args, workdir, meta):
    sys.path.insert(0, str(root / "src"))
    import replay  # imports shiftcat from the checkout's src/

    wl, spawner, _ = set_up(root, args.workload, args.seed, workdir)
    try:
        execs = [(job,) + spawner.job(job) for job in wl.jobs]
        bare = [spawner.run(["-c", "pass"])[0] for _ in range(STARTUP_PROBES)]
        imported = [spawner.run(["-c", "import shiftcat.cli"])[0]
                    for _ in range(STARTUP_PROBES)]
    finally:
        spawner.close()
    failures = judge(checker(root, args, wl), execs)
    if args.record_digests:
        if failures or args.seed != checks.DEFAULT_SEED:
            raise SystemExit("digests are recorded only from a clean run "
                             "at the default seed")
        record_digests(args.workload, execs)
    result = replay.run(wl, workdir, execs)
    failures += result.mismatches
    n = len(wl.jobs)
    interp = statistics.median(bare)
    metrics = dict(result.metrics)
    metrics.update({
        "cli.interpreter_s": (n * interp, "s"),
        "cli.import_s": (n * (statistics.median(imported) - interp), "s"),
        "cli.startup_s": (sum(e[1] for e in execs) - result.main_s, "s"),
    })
    meta.update(samples=n, list_length=n, replay_s=result.replay_s,
                replay_traced_s=result.traced_s)
    detail = {"jobs": job_records(wl.jobs, execs), "sizes": result.sizes,
              "spans": result.spans}
    return metrics, n, failures, detail


def record_digests(workload: str, execs) -> None:
    data = {}
    if checks.DIGESTS.exists():
        data = json.loads(checks.DIGESTS.read_text(encoding="utf-8"))
    data[workload] = {job.id: checks.digest(out)
                      for job, _, _, out, _, _ in execs}
    checks.DIGESTS.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n",
                              encoding="utf-8")


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    missing = [p for p in ("src/shiftcat/cli.py", "tests/oracles.py",
                           "tests/data/even.json") if not (root / p).exists()]
    if missing:
        print(f"error: run from the root of a shiftcat checkout; missing "
              f"{', '.join(missing)}", file=sys.stderr)
        return 2
    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit(root), "source_sha256": source_digest(root)}
    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        run = traced if args.trace else end_to_end
        metrics, attempted, failures, detail = run(root, args, workdir, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    values = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    report = {"meta": meta, "failures": failures, "metrics": values, **detail}
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report) + "\n", encoding="utf-8")
    for f in failures[:10]:
        print(f"FAILED {f['job']} {' '.join(f['argv'])}: {f['why']}",
              file=sys.stderr)
    failed = len({f["job"] for f in failures}) if args.trace else len(failures)
    print(" ".join(f"{k}={v}" for k, v in meta.items() if k != "setups_s"))
    if args.trace == 0:
        print("raw (unscaled):", " ".join(f"{k}={v:.6g}"
                                         for k, v in meta["raw"].items()))
    for k, (v, u) in metrics.items():
        print(f"{k:40s} {v:.6g} {u}")
    print(f"{'failed_frac':40s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} jobs)")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": values}))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
