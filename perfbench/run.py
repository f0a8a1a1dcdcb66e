"""The continua benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program under test is the package
in the checkout's ``src``; the benchmark byte-compiles it, generates every
input from ``--seed``, runs a fixed list of operations one at a time (a
closed loop with one client and no concurrency), checks every output
exactly, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.

Workloads (see ``predictions.json`` for what each one is for):

* ``certify``: ``continua certify --homeo G.json`` on an edge-enriched
  ternary map, a fresh process per operation; the success path.
* ``refuse``: ``continua certify --segments 8 --depth 3``, a fresh process
  per operation; the certificate refuses with exit 3.
* ``deep``: library calls on the depth-9 ternary map in one fresh worker.

The list length follows from ``--seconds`` alone (``NOMINAL_OP_S``), so it
is the same on every commit and ``wall_s`` shows a change of speed.  With ``--trace 0`` the end-to-end
metrics are reported, every time scaled to nominal machine speed by the
samples each process takes of its own speed (``reference.py``); with ``--trace 1`` the first quarter of the list runs
untraced and then traced, and the per-layer metrics come from the spans,
which are written as JSONL beside the result under ``.bench_build``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import oracles
import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 8  # before the operations, and as many after
OP_TIMEOUT_S = 120

# Seconds per operation the list length assumes, so that --seconds 20 gives
# 6 certify, 8 refuse and 5 deep operations.  At the seed commit, on a shared
# 2-vCPU machine, operations took 3.2-4.4 s, 2.5-3.9 s and 6.5-9.5 s.
NOMINAL_OP_S = {"certify": 3.2, "refuse": 2.6, "deep": 5.0}

# Named spans behind the per-layer metrics that are not plain self times.
INCLUSIVE = {
    "plmap.compose_s": {"plmap.compose"},
    "cantor.chain_s": {"cantor.best_chain_quality", "cantor.check_chain_property"},
    "cantor.conjugacy_s": {"cantor.build_conjugacy"},
    "continuum.nearest_s": {"continuum.Arc.nearest"},
    "shadowing.modulus_s": {"shadowing.estimate_shadowing_modulus"},
    "shadowing.soundness_s": {
        "shadowing.sample_certificate_soundness", "shadowing.sample_global_soundness"},
}
CALLS = {
    "plmap.evaluate_calls": {"plmap.evaluate"},
    "plmap.invert_calls": {"plmap.invert"},
    "plmap.construct_calls": {"plmap.PLHomeo.__post_init__"},
    "geometry.segment_calls": {"geometry.project_point_segment", "geometry.dist2_segment_segment"},
    "continuum.nearest_calls": {"continuum.Arc.nearest"},
    "shadowing.pseudo_orbits": {
        "shadowing.generate_pseudo_orbit", "shadowing.generate_pseudo_orbit_y",
        "shadowing.true_orbit"},
    "shadowing.cert_builds": {"shadowing.quasi_attractor_certificate"},
}


def log(msg: str) -> None:
    sys.stderr.write(msg + "\n")
    sys.stderr.flush()


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_child(cmd: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float]:
    """Run one process to its end; (exit code, wall seconds, peak RSS in MB)."""
    with open(stdout, "wb") as out, open(stderr, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def op_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_OP_S[workload]))


def coordinate_change(rng: random.Random) -> dict:
    """PL map JSON with slopes in [1/2, 2] and 1..4 breakpoints on endpoints
    of the non-nested middle thirds down to level 3."""
    pool = set()
    for n in range(4):
        ks = [0]
        for _ in range(n):
            ks = [3 * k + d for k in ks for d in (0, 2)]
        for k in ks:
            pool.update((Fraction(3 * k + 1, 3 ** (n + 1)), Fraction(3 * k + 2, 3 ** (n + 1))))
    xs = sorted(rng.sample(sorted(pool), rng.randrange(1, 5)))
    ys, prev_x, prev_y = [], Fraction(0), Fraction(0)
    for x in xs:
        dx = x - prev_x
        lo = max(prev_y + dx / 2, 1 - 2 * (1 - x))
        hi = min(prev_y + 2 * dx, 1 - (1 - x) / 2)
        ys.append(lo + (hi - lo) * Fraction(rng.randrange(0, 65), 64))
        prev_x, prev_y = x, ys[-1]

    def enc(v: Fraction) -> list[str]:
        return [str(v.numerator), str(v.denominator)]

    return {"domain": [enc(Fraction(0)), enc(Fraction(1))],
            "breakpoints": [enc(v) for v in (Fraction(0), *xs, Fraction(1))],
            "values": [enc(v) for v in (Fraction(0), *ys, Fraction(1))]}


def op_specs(workload: str, seed: int, count: int) -> list[dict]:
    """The run's fixed operation list; operation i depends on (seed, i) only,
    so a longer list extends a shorter one."""
    specs = []
    for i in range(count):
        rng = random.Random(f"{workload}/{seed}/{i}")
        if workload == "certify":
            # M alternates, so every even-length list has as many 7-arc as 5-arc models
            specs.append({"M": 2 + (seed + i) % 2, "depth": rng.choice((2, 3)),
                          "k": rng.choice((15, 16, 17)), "trials": 10,
                          "s": rng.randrange(10**6)})
        elif workload == "refuse":
            specs.append({"M": 8, "depth": 3, "trials": 25, "s": rng.randrange(10**6)})
        else:
            specs.append({"A": coordinate_change(rng)})
    return specs


def homeo_file(run_dir: Path, spec: dict) -> Path:
    """G.json: the depth-d ternary map on every arc, with an L interval at
    [eta, 2 eta] and an R interval at [1 - 2 eta, 1 - eta], eta = 2^-k."""
    path = run_dir / f"G-{spec['M']}-{spec['depth']}-{spec['k']}.json"
    if not path.exists():
        from continua.cantor import build_ternary_map, explode_fixed_point
        from continua.cli import dump_json
        from continua.continuum import YHomeo, build_arc_model
        from continua.plmap import Orientation

        eta = Fraction(1, 2 ** spec["k"])
        f = build_ternary_map(spec["depth"])
        f = explode_fixed_point(f, Fraction(3, 2) * eta, eta / 2, Orientation.L)
        f = explode_fixed_point(f, 1 - Fraction(3, 2) * eta, eta / 2, Orientation.R)
        model = build_arc_model(spec["M"])
        path.write_text(dump_json(YHomeo({a.id: f for a in model.arcs}).to_json()))
    return path


def cli_args(workload: str, spec: dict, run_dir: Path, bundle: Path) -> list[str]:
    if workload == "certify":
        model = ["--segments", str(spec["M"]), "--homeo", str(homeo_file(run_dir, spec))]
    else:
        model = ["--segments", str(spec["M"]), "--depth", str(spec["depth"])]
    return ["certify", *model, "--epsilon", "1/10", "--trials", str(spec["trials"]),
            "--seed", str(spec["s"]), "--out", str(bundle)]


# ---------------------------------------------------------------------------
# Running operations
# ---------------------------------------------------------------------------


def run_cli_ops(workload, specs, run_dir, spans_path=None) -> list[dict]:
    """Run each operation in a fresh process.  Untraced, the process samples
    its own speed (see reference.py) and reports it in ``speed.json``."""
    ops = []
    for i, spec in enumerate(specs):
        tag = "-traced" if spans_path else ""
        bundle = run_dir / f"bundle-{i}{tag}.json"
        args = cli_args(workload, spec, run_dir, bundle)
        speed_path = run_dir / "speed.json"
        speed_path.unlink(missing_ok=True)
        mode = ["--spans", str(spans_path)] if spans_path else ["--speed", str(speed_path)]
        cmd = [sys.executable, str(HERE / "worker.py"), "cli", "--op", str(i), *mode, "--", *args]
        code, wall, rss = run_child(cmd, run_dir / "stdout.txt", run_dir / "stderr.txt")
        data = bundle.read_bytes() if bundle.exists() else b""
        op = {"spec": spec, "code": code, "wall_s": wall, "scaled_s": 0.0, "rss_mb": rss,
              "artifact": data}
        if not spans_path:
            try:
                speed = json.loads(speed_path.read_text())
            except (OSError, ValueError):
                op["code"] = code or 1  # the oracle counts it; no speed to scale by
            else:
                # interpreter start and exit, outside the sampled block, at its median speed
                outside = wall - speed["wall_s"] - speed["probe_s"]
                op["wall_s"] = wall - speed["probe_s"]
                op["scaled_s"] = speed["scaled_s"] + reference.REF_S * outside / speed["ref_s"]
        ops.append(op)
        log(f"{workload} op {i}{tag}: exit {code}, {op['wall_s']:.3f} s, "
            f"{op['scaled_s']:.3f} s at nominal speed")
    return ops


def run_deep_ops(specs, run_dir, untraced, traced=0, spans_path=None) -> tuple[dict, float]:
    specs_path = run_dir / "deep-specs.json"
    specs_path.write_text(json.dumps(specs))
    cmd = [sys.executable, str(HERE / "worker.py"), "deep", "--specs", str(specs_path),
           "--out", str(run_dir), "--untraced", str(untraced), "--traced", str(traced)]
    if spans_path:
        cmd += ["--spans", str(spans_path)]
    report_path = run_dir / "deep-report.json"
    code, wall, rss = run_child(cmd, report_path, run_dir / "stderr.txt")
    try:
        report = json.loads(report_path.read_text())
    except ValueError:
        log(f"deep worker exited {code} without a report")
        report = {}
    for part, n in (("untraced", untraced), ("traced", traced)):
        ops = report.get(part, [])
        # operations a crashed worker never reported count as failed
        ops += [{"op": i, "code": code or 1, "wall_s": 0.0, "scaled_s": 0.0,
                 "facts": {}, "artifact": None}
                for i in range(len(ops), n)]
        for op in ops:
            op["spec"] = specs[op["op"]]
            op["artifact"] = Path(op["artifact"]).read_bytes() if op["artifact"] else b""
            log(f"deep op {op['op']}: code {op['code']}, {op['wall_s']:.3f} s, "
                f"{op['scaled_s']:.3f} s at nominal speed")
        report[part] = ops
    return report, rss


def check_ops(workload: str, ops: list[dict], pinned: list[str] | None) -> int:
    """Number of failed operations; prints each problem."""
    failed = 0
    for i, op in enumerate(ops):
        digest = pinned[i] if pinned is not None and i < len(pinned) else None
        problems = oracles.check(workload, op, digest)
        if problems:
            failed += 1
            log(f"{workload} op {i} FAILED: {'; '.join(problems)}")
    return failed


# A fresh interpreter that imports continua.cli between two speed samples
# of three probes each and prints the samples' total time and median.
SETUP_CODE = f"""\
import sys, time
sys.path.insert(0, {str(HERE)!r})
import reference
start = time.perf_counter()
samples = [reference.probe() for _ in range(3)]
middle = time.perf_counter()
import continua.cli
end = time.perf_counter()
samples += [reference.probe() for _ in range(3)]
print(middle - start + time.perf_counter() - end, sorted(samples)[3])
"""


def time_setup(repeats: int) -> list[float]:
    """Times for a fresh interpreter to finish ``import continua.cli``,
    without the speed samples and at nominal speed."""
    cmd = [sys.executable, "-c", SETUP_CODE]
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        out = subprocess.run(cmd, cwd=ROOT, env=child_env(), check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        wall = time.perf_counter() - start
        probe_s, ref_s = map(float, out.split())
        times.append((wall - probe_s) * reference.REF_S / ref_s)
    return times


def layer_metrics(summary: dict, ops: list[dict], workload: str) -> dict:
    self_s = summary["self_s"]
    m = {f"{layer}.self_s": (self_s[layer], "s") for layer in spans.LAYERS + ("other",)}
    m["rational.fraction_new"] = (summary["fraction_new"], "count")
    for name, group in INCLUSIVE.items():
        m[name] = (sum(summary["inclusive_s"].get(n, 0.0) for n in group), "s")
    for name, group in CALLS.items():
        m[name] = (sum(summary["calls"].get(n, 0) for n in group), "count")
    used = 0
    if workload == "certify":
        used = sum(len(json.loads(op["artifact"])["certificates"]) for op in ops
                   if not oracles.check(workload, op, None))
    builds = m["shadowing.cert_builds"][0]
    m["shadowing.cert_yield"] = (used / builds if builds else 0.0, "ratio")
    artifact_bytes = sum(len(op["artifact"]) for op in ops) if workload != "deep" else 0
    m["cli.artifact_bytes"] = (artifact_bytes, "bytes")
    m["trace.wall_s"] = (summary["wall_s"], "s")
    return m


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(NOMINAL_OP_S), required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--pin", action="store_true",
                   help="record the artifact digests of this run (default seed only)")
    args = p.parse_args()
    if args.pin and (args.seed != DEFAULT_SEED or args.trace):
        p.error(f"--pin needs --seed {DEFAULT_SEED} --trace 0")
    # a terminated run still stops the operation it started (see run_child)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "continua" / "cli.py").is_file():
        log(f"no continua package under {SRC}: run from the root of a checkout")
        return 2
    sys.path.insert(0, str(SRC))
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "continua")],
                   cwd=ROOT, check=True, stdout=subprocess.DEVNULL)

    workload = args.workload
    run_dir = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    count = op_count(workload, args.seconds)
    specs = op_specs(workload, args.seed, count)
    pinned = None
    if args.seed == DEFAULT_SEED and not args.pin:
        pinned = json.loads(DIGESTS.read_text()).get(workload) if DIGESTS.exists() else None
        if pinned is None:
            log(f"no pinned digests for {workload}: run with --pin at seed {DEFAULT_SEED}")
            return 2

    if args.trace:
        traced = max(1, count // 4)
        spans_path = run_dir / "spans.jsonl"
        if workload == "deep":
            report, _ = run_deep_ops(specs, run_dir, traced, traced, spans_path)
            plain, ops = report["untraced"], report["traced"]
        else:
            plain = run_cli_ops(workload, specs[:traced], run_dir)
            ops = run_cli_ops(workload, specs[:traced], run_dir, spans_path)
        all_ops = plain + ops
        failed = check_ops(workload, plain, pinned) + check_ops(workload, ops, pinned)
        if spans_path.exists():
            with open(spans_path) as fh:
                summary = spans.summarize(fh)
        else:  # every traced process died before writing a span
            summary = spans.summarize([])
        metrics = layer_metrics(summary, ops, workload)
        plain_wall = sum(op["wall_s"] for op in plain)
        overhead = sum(op["wall_s"] for op in ops) / plain_wall if plain_wall else 0.0
        metrics["trace.overhead"] = (overhead, "ratio")
    else:
        time_setup(1)  # warm-up: the page cache and the bytecode are ready afterwards
        setup = time_setup(SETUP_REPEATS)
        if workload == "deep":
            report, rss = run_deep_ops(specs, run_dir, count)
            all_ops = report["untraced"]
        else:
            all_ops = run_cli_ops(workload, specs, run_dir)
            rss = max(op["rss_mb"] for op in all_ops)
        setup += time_setup(SETUP_REPEATS)  # spread over the run's slow and fast spells
        failed = check_ops(workload, all_ops, pinned)
        walls = [op["scaled_s"] for op in all_ops]
        metrics = {
            "wall_s": (sum(walls), "s"),
            "op_p50_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (rss, "MB"),
        }

    missed = oracles.self_check(workload, all_ops[0]) if all_ops and not failed else []
    for what in missed:
        log(f"oracle self-check: a corrupted operation passed ({what})")
    if all_ops and not failed and not missed:
        log("oracle self-check: a wrong exit code and a changed artifact byte both fail")
    if args.pin:
        pins = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
        pins[workload] = [oracles.sha256(op["artifact"]) for op in all_ops[:count]]
        DIGESTS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")

    result = {
        "correct": failed == 0 and not missed and len(all_ops) > 0,
        "attempted": len(all_ops),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    line = json.dumps(result)
    (run_dir / "result.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
