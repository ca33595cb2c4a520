"""Seeded benchmark of hatlab, one workload per process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1

A run sets the workload up, then makes passes over its items, one call after
another (a closed loop with one caller), until `--seconds` is used up; it
always makes at least one pass. After every item it times a fixed
pure-Python reference loop, so pass times can be given in units of the
reference time taken at the same moment on the same machine. Every output
is checked. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, the per-layer metrics with `--trace 1`.
With `--trace 1` the passes alternate untraced and traced, so the tracing
overhead is measured in the same run.

hatlab is imported from `src/` of the checkout; without it the run exits
with code 2 before printing a result. Results, spans and the fingerprints
used for the cross-run determinism check go to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import NULL, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("solve", "mis", "alphastar", "blockers")
SETUP_REPEATS = 7
SETUP_METRICS = ("game.enumerate_family.s", "graphs.build.s")
PROBE_TIMEOUT_S = 120
ALL_TIMEOUT_S = 900


class BenchError(Exception):
    """The benchmark cannot run in this directory."""


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def load_hatlab():
    if not (SRC / "hatlab" / "__init__.py").is_file():
        raise BenchError("src/hatlab is missing: run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import hatlab

    if Path(hatlab.__file__).resolve().parent != SRC / "hatlab":
        raise BenchError(f"imported hatlab from {hatlab.__file__}, not from src/")
    return hatlab


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "hatlab").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh workload process until its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or code != 0:
        raise BenchError(f"set-up probe for {workload} failed with exit code {code}")
    return elapsed


def reference_loop(n: int = 150_000) -> int:
    """Fixed interpreter work (integer and bit arithmetic, dict and list
    updates) that no change to hatlab can alter; about 0.05 s."""
    counts: dict[int, int] = {}
    kept = []
    acc = 0
    for i in range(n):
        x = (i * 2654435761) & 0xFFFFFFFF
        acc ^= x >> 3
        counts[x & 1023] = counts.get(x & 1023, 0) + 1
        if x & 7 == 0:
            kept.append(x)
        acc += (x & -x).bit_length()
    return acc + len(kept) + len(counts)


def time_reference() -> tuple[float, float]:
    w0, c0 = time.perf_counter(), time.process_time()
    reference_loop()
    return time.perf_counter() - w0, time.process_time() - c0


def run_pass(wl, inputs: dict, tr, expected: dict, request: str) -> dict:
    """One pass over the workload's items; an item that raises is a failure.

    `wall` and `cpu` sum the items only. The reference loop is timed before
    the first item and after every item; `wall_rel` and `cpu_rel` sum each
    item's time divided by the mean of the two reference times around it.
    """
    gc.collect()
    if tr.enabled:
        tr.request = request
    state: dict = {}
    outcomes = []
    refs = [time_reference()]
    for item in wl.items:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            ok, detail, fp = item.run(inputs, state, tr, expected)
        except Exception as exc:  # one broken item must not hide the others
            traceback.print_exc(file=sys.stderr)
            ok, detail, fp = False, f"raised {type(exc).__name__}: {exc}", None
        outcomes.append({"item": item.name, "ok": bool(ok), "detail": detail, "fingerprint": fp,
                         "wall": time.perf_counter() - t0, "cpu": time.process_time() - c0})
        refs.append(time_reference())
    return {"request": request, "traced": tr.enabled,
            "wall": sum(o["wall"] for o in outcomes), "cpu": sum(o["cpu"] for o in outcomes),
            "wall_rel": sum(o["wall"] * 2 / (a[0] + b[0]) for o, a, b in zip(outcomes, refs, refs[1:])),
            "cpu_rel": sum(o["cpu"] * 2 / (a[1] + b[1]) for o, a, b in zip(outcomes, refs, refs[1:])),
            "refs": refs,
            "outcomes": outcomes, "state": state}


def measure(wl, inputs: dict, seconds: float, tracer, expected: dict, probe=None) -> tuple[list[dict], list[float]]:
    """Passes until the next one would overrun `seconds`; at least one pass,
    and with a tracer at least one untraced and one traced pass.

    `probe`, if given, is a set-up probe run after each of the first
    SETUP_REPEATS passes (and after the last pass until there are that
    many), so set-up times are sampled across the whole run.
    """
    passes: list[dict] = []
    setup_times: list[float] = []
    laps: list[float] = []
    start = time.perf_counter()
    while True:
        lap = time.perf_counter()
        traced = tracer is not None and len(passes) % 2 == 1
        passes.append(run_pass(wl, inputs, tracer if traced else NULL, expected, f"pass{len(passes)}"))
        if probe is not None and len(setup_times) < SETUP_REPEATS:
            setup_times.append(probe())
        laps.append(time.perf_counter() - lap)
        elapsed = time.perf_counter() - start
        if len(passes) >= (1 if tracer is None else 2) and elapsed + statistics.median(laps) > seconds:
            break
    while probe is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(probe())
    return passes, setup_times


def fail_item(passes: list[dict], name: str, detail: str) -> None:
    for p in passes:
        for o in p["outcomes"]:
            if o["item"] == name:
                o["ok"] = False
                o["detail"] += f"; {detail}"


def check_determinism(passes: list[dict], key: str) -> None:
    """Every seeded result and count must repeat: across the passes of this
    run, and across runs of this seed on the same hatlab source."""
    first = passes[0]["outcomes"]
    for p in passes[1:]:
        for o, o0 in zip(p["outcomes"], first):
            if o["fingerprint"] != o0["fingerprint"]:
                o["ok"] = False
                o["detail"] += f"; differs from {passes[0]['request']}: {o0['fingerprint']}"
    current = {o["item"]: json.loads(json.dumps(o["fingerprint"])) for o in first}
    path = OUT / "fingerprints" / f"{key}.json"
    if path.is_file():
        recorded = json.loads(path.read_text())
        for name, fp in current.items():
            if name in recorded and recorded[name] != fp:
                fail_item(passes, name, f"differs from an earlier run of this seed: {recorded[name]}")
        return
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(current, indent=1))
    os.replace(tmp, path)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run_workload(args, spec: dict) -> dict:
    hatlab = load_hatlab()
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        wl.setup(args.seed, NULL)
        print("ready", flush=True)
        return {}

    tracer = Tracer() if args.trace else None
    probe = None
    if tracer is None:
        probe = functools.partial(probe_setup, wl.name, args.seed)
        inputs = wl.setup(args.seed, NULL)
    else:
        for i in range(SETUP_REPEATS):
            hatlab.game.enumerate_family.cache_clear()  # time the cold call each time
            tracer.request = f"setup{i}"
            inputs = wl.setup(args.seed, tracer)

    passes, setup_times = measure(wl, inputs, args.seconds, tracer, workloads.EXPECTED, probe)
    rss = peak_rss_mb()  # before the untimed checks below

    for name, ok, detail in (wl.post_check(inputs, passes[0]["state"]) if wl.post_check else []):
        if not ok:
            fail_item(passes, name, detail)
    src = source_digest()
    check_determinism(passes, f"{wl.name}-seed{args.seed}-{src}")

    records = [o for p in passes for o in p["outcomes"]]
    attempted = len(records)
    failed = sum(not o["ok"] for o in records)
    for o in records:
        if not o["ok"]:
            print(f"FAILED {wl.name} {o['item']}: {o['detail']}", file=sys.stderr)

    raw = {
        "wall_s": statistics.median(p["wall"] for p in passes if not p["traced"]),
        "cpu_s": statistics.median(p["cpu"] for p in passes if not p["traced"]),
        "ref_s": statistics.median(r[0] for p in passes for r in p["refs"]),
    }
    if tracer is None:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_rel": statistics.median(p["wall_rel"] for p in passes),
            "cpu_rel": statistics.median(p["cpu_rel"] for p in passes),
            "peak_rss_mb": rss,
            "checked_ratio": (attempted - failed) / attempted,
        }
        wanted = spec["end_to_end"]
    else:
        traced = [p for p in passes if p["traced"]]
        untraced = [p for p in passes if not p["traced"]]
        per_pass = [workloads.derived_metrics(tracer.totals(p["request"])) for p in traced]
        per_setup = [workloads.derived_metrics(tracer.totals(f"setup{i}")) for i in range(SETUP_REPEATS)]
        values = {
            key: statistics.median(m[key] for m in (per_setup if key in SETUP_METRICS else per_pass))
            for key in per_pass[0]
        }
        values["trace.overhead_s"] = (statistics.median(p["wall"] for p in traced)
                                      - statistics.median(p["wall"] for p in untraced))
        wanted = spec["per_layer"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    meta = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "threads": wl.threads,
        "items": [item.name for item in wl.items],
        "passes": len(passes),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "hatlab_version": hatlab.__version__,
        "git_commit": git_commit(),
        "source_digest": src,
    }
    OUT.mkdir(exist_ok=True)
    report = {"meta": meta, "metrics": metrics, "raw": raw, "setup_times": setup_times,
              "attempted": attempted, "failed": failed,
              "passes": [{k: v for k, v in p.items() if k != "state"} for p in passes],
              "layer_totals": {p["request"]: tracer.totals(p["request"]) for p in passes if p["traced"]},
              "spans": tracer.dump() if tracer else []}
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    print("meta " + json.dumps(meta))
    for name, m in metrics.items():
        print(f"{wl.name} {name} = {m['value']:.6g} {m['unit']}")
    for name, value in raw.items():  # seconds as measured, printed but not JSON metrics (see README)
        print(f"{wl.name} {name} = {value:.6g} s")
    print(f"{wl.name} failed_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} item runs)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, one after another."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=ALL_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"workload {name} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        total["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return total


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measuring time; default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_workload(args, spec)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if result:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
