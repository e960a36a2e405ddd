"""flipcheck's benchmark: one workload per run, checked against oracles
that share no code with flipcheck.

    python3 perfbench/run.py --workload golden|scripts|kernels --seed N \\
        --seconds S --trace 0|1 [--tamper]

Run it from the root of a checkout.  With ``--trace 0`` it sets up the
workload three times (reporting the median as ``setup_s``), then times
whole cycles of ops, one client and no concurrency, until ``--seconds``
is used up, and reports the end-to-end metrics.  Their times are at
reference host speed: each op is timed right after a fixed calibration
loop and scaled by the loop's reference time over its measured time
around the op (see ``proc.at_reference_speed``), so that a shared host's
changing speed cancels.
With ``--trace 1`` it runs the ops of all three workloads in-process,
alternating cycles with and without every layer wrapped, and reports the
per-layer metrics instead; end-to-end numbers never come from a traced
run.
``--tamper`` (timed runs) hands the checker a wrong output for the first
op, to show that a wrong answer is counted as failed.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (each ``{"value", "unit"}``), with exactly the
metric names BENCHMARK.json lists for the mode.  Scratch files go to
``.perfbench-work/`` in the checkout: inputs and bytecode cache under
``run/``, per-op latencies of the last timed run under
``out/samples-<workload>.json`` and the spans of the last traced cycle
under ``out/spans.tsv``.
"""

from __future__ import annotations

import sys

# The traced run imports flipcheck from the checkout's src/; leave no
# bytecode beside the sources.
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import proc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench-work")
RUN_DIR = os.path.join(WORK, "run")
OUT_DIR = os.path.join(WORK, "out")
SETUP_REPEATS = 3
PROBE_REPEATS = 9
WORKLOADS = ("golden", "scripts", "kernels")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _manifest() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _fresh_run_dir() -> dict[str, str]:
    shutil.rmtree(RUN_DIR, ignore_errors=True)
    os.makedirs(os.path.join(RUN_DIR, "inputs"))
    return proc.child_env(ROOT, RUN_DIR)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile: the mean of all order
    statistics weighted by a Beta((n+1)p, (n+1)(1-p)) density, which varies
    less from run to run than the one or two order statistics next to the
    quantile.  The weights are the density's mass over each 1/n of [0, 1],
    integrated by the midpoint rule."""
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    steps = 200 * n
    weights = [0.0] * n
    for k in range(steps):
        u = (k + 0.5) / steps
        weights[k * n // steps] += math.exp(
            (a - 1) * math.log(u) + (b - 1) * math.log1p(-u) - log_beta)
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


# -- timed runs --------------------------------------------------------------------


def _setup_cli(workload: str, seed: int):
    """Fresh inputs and an empty bytecode cache, then one untimed process of
    each command, on its smallest input, so that the cache is warm before
    timing starts."""
    env = _fresh_run_dir()
    ops = workloads.cli_ops(workload, seed, os.path.join(RUN_DIR, "inputs"))
    seen = set()
    for op in sorted(ops, key=workloads.input_bytes):
        if op.args[:2] not in seen:
            seen.add(op.args[:2])
            proc.run(proc.flipcheck_argv(op.args), env, RUN_DIR)
    return env, ops


def _timed_cli(workload: str, seed: int, seconds: float, tamper: bool) -> dict:
    cal_env = proc.child_env(ROOT, RUN_DIR)
    (env, ops), setup_s = proc.timed_setups(
        lambda: _setup_cli(workload, seed), SETUP_REPEATS,
        lambda: proc.calibration_process_ns(cal_env), proc.REF_PROCESS_NS)
    print("environment: " + json.dumps(proc.environment_record(env), sort_keys=True))
    raw_ns, cal_ns, rss_kb, failures, cycles = [], [], [], [], []
    start = time.perf_counter()
    while len(raw_ns) < proc.MIN_SAMPLES or (
            time.perf_counter() - start + statistics.fmean(cycles) <= seconds):
        cycle_start = time.perf_counter()
        for op in ops:
            proc.pin_quietest_cpu()
            cal_ns.append(proc.calibration_process_ns(env))
            res = proc.run(proc.flipcheck_argv(op.args), env, RUN_DIR)
            stdout = workloads.tampered(res.stdout) if tamper and not raw_ns \
                else res.stdout
            if res.timed_out:
                reason = f"timed out after {proc.OP_TIMEOUT_S:g} s"
            else:
                reason = op.check(res.rc, stdout)
            if reason:
                failures.append(f"{op.label}: {reason}; stderr {res.stderr[-300:]!r}")
            raw_ns.append(res.elapsed_ns)
            rss_kb.append(res.maxrss_kb)
        cycles.append(time.perf_counter() - cycle_start)
    latencies = proc.at_reference_speed(raw_ns, cal_ns, proc.REF_PROCESS_NS)
    return {"setup_s": setup_s, "latencies_ns": latencies, "raw_ns": raw_ns,
            "failures": failures, "cycles": len(cycles),
            "peak_rss_kb": max(rss_kb), "labels": [op.label for op in ops]}


def _timed_kernels(seed: int, seconds: float, tamper: bool) -> dict:
    env = _fresh_run_dir()
    print("environment: " + json.dumps(proc.environment_record(env), sort_keys=True))
    argv = [proc.EXE, *proc.FLAGS, os.path.join(ROOT, "perfbench", "kernels.py"),
            str(seed), str(seconds)] + (["--tamper"] if tamper else [])
    res = proc.run(argv, env, RUN_DIR, timeout_s=seconds + 100)
    if res.rc != 0:
        raise RuntimeError(f"kernels worker exited {res.rc}: {res.stderr[-2000:]}")
    out = json.loads(res.stdout)
    out["peak_rss_kb"] = res.maxrss_kb
    return out


def timed_run(workload: str, seed: int, seconds: float, tamper: bool):
    if workload == "kernels":
        raw = _timed_kernels(seed, seconds, tamper)
    else:
        raw = _timed_cli(workload, seed, seconds, tamper)
    ms = [ns / 1e6 for ns in raw["latencies_ns"]]
    raw_ms = [ns / 1e6 for ns in raw["raw_ns"]]
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"samples-{workload}.json"), "w") as fh:
        json.dump({"labels": raw["labels"], "latencies_ms": ms,
                   "raw_latencies_ms": raw_ms, "setup_s": raw["setup_s"]}, fh)
    ok = len(ms) - len(raw["failures"])
    metrics = {
        "setup_s": statistics.median(raw["setup_s"]),
        "op_p50_ms": quantile(ms, 0.5),
        "op_p90_ms": quantile(ms, 0.9),
        "ops_per_s": ok / (sum(ms) / 1e3),
        "peak_rss_mb": raw["peak_rss_kb"] / 1024,
    }
    print(f"{workload}: {len(ms)} ops in {raw['cycles']} cycles, "
          f"{len(raw['failures'])} failed (fail_ratio "
          f"{len(raw['failures']) / len(ms):.4f}); "
          f"p50 and p90 (Harrell-Davis) over {len(ms)} samples; times at "
          f"reference speed, unscaled p50 {quantile(raw_ms, 0.5):.1f} ms, p90 "
          f"{quantile(raw_ms, 0.9):.1f} ms, calibration at "
          f"{statistics.median(r / m for r, m in zip(raw_ms, ms)):.3f} x reference")
    return metrics, len(ms), raw["failures"]


# -- traced runs -------------------------------------------------------------------


def _cli_call(cli, op):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(op.args))
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 2
        return rc, out.getvalue()
    return call, lambda result: op.check(*result)


def _guarded(call):
    """The op's result, or the reason it timed out or raised."""
    try:
        with proc.deadline():
            return call(), None
    except proc.OpTimeout as exc:
        return None, str(exc)
    except Exception as exc:  # a crash in flipcheck is a failed op
        return None, f"{type(exc).__name__}: {exc}"


def traced_run(workload: str, seed: int, seconds: float):
    """Per-layer metrics over whole cycles of all three workloads, so that
    every layer is measured in every traced run.  After one untimed cycle,
    each op runs once traced and once untraced, in turn first, until
    ``seconds`` is used up; ``trace.overhead_ratio`` is the traced over the
    untraced time of ``workload``'s own ops."""
    env = _fresh_run_dir()
    os.makedirs(OUT_DIR, exist_ok=True)
    input_dir = os.path.join(RUN_DIR, "inputs")
    cli_ops = {w: workloads.cli_ops(w, seed, input_dir) for w in ("golden", "scripts")}
    proc.run(proc.flipcheck_argv(["verify-all"]), env, RUN_DIR)  # warm the cache
    print("environment: " + json.dumps(proc.environment_record(env), sort_keys=True))
    start = time.perf_counter()
    probe = tracing.process_probe(env, RUN_DIR, PROBE_REPEATS)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import flipcheck
    import flipcheck.cli
    import kernels

    calls = [(w, *_cli_call(flipcheck.cli, op)) for w, ops in cli_ops.items()
             for op in ops]
    calls += [("kernels", op.call, op.check)
              for op in kernels.kernel_ops(flipcheck, seed)]
    probe["cli.build_parser_ms"] = tracing.build_parser_ms(flipcheck.cli, 21)

    tracer = tracing.Tracer()
    patched = tracing.Patched(flipcheck, tracer)
    spent = {False: dict.fromkeys(WORKLOADS, 0.0), True: dict.fromkeys(WORKLOADS, 0.0)}
    per_cycle, cycle_s, failures, attempted = [], [], [], 0
    for _, call, _ in calls:  # warm-up, untimed
        _guarded(call)
    while not per_cycle or time.perf_counter() - start + cycle_s[-1] <= seconds:
        tracer.clear()
        cycle_start = time.perf_counter()
        for op_id, (w, call, check) in enumerate(calls):
            tracer.op_id = op_id
            proc.pin_quietest_cpu()
            flip = (op_id + len(per_cycle)) % 2
            for traced in ((True, False) if flip else (False, True)):
                with patched if traced else contextlib.nullcontext():
                    op_start = time.perf_counter()
                    result, reason = _guarded(tracer.wrap("op", call) if traced else call)
                    spent[traced][w] += time.perf_counter() - op_start
                attempted += 1
                reason = reason or check(result)
                if reason:
                    failures.append(f"{w}: {reason}")
        cycle_s.append(time.perf_counter() - cycle_start)
        per_cycle.append(tracing.layer_metrics(tracer.spans))
    tracing.write_spans(tracing.spans_path(OUT_DIR), tracer.spans)

    def overhead(w: str) -> float:
        return spent[True][w] / spent[False][w]

    metrics = dict(probe)
    for name in per_cycle[0]:
        metrics[name] = statistics.median(c[name] for c in per_cycle)
    metrics["trace.overhead_ratio"] = overhead(workload)
    print(f"traced {len(per_cycle)} cycles of {len(calls)} ops (golden, scripts "
          f"and kernels); per-layer values are per cycle, median over cycles; "
          f"overhead golden {overhead('golden'):.3f}, scripts "
          f"{overhead('scripts'):.3f}, kernels {overhead('kernels'):.3f}; "
          f"spans of the last cycle in {tracing.spans_path(OUT_DIR)}")
    return metrics, attempted, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--tamper", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "flipcheck", "cli.py")):
        return _fail(f"no flipcheck sources under {ROOT}/src; run from a checkout")
    if not os.path.isdir(os.path.join(ROOT, "checks")):
        return _fail(f"no checks/ directory under {ROOT}")
    os.chdir(ROOT)
    manifest = _manifest()
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in manifest[section]}

    if args.trace:
        metrics, attempted, failures = traced_run(args.workload, args.seed,
                                                  args.seconds)
    else:
        metrics, attempted, failures = timed_run(args.workload, args.seed,
                                                 args.seconds, args.tamper)
    if set(metrics) != set(units):
        missing = sorted(set(units) - set(metrics))
        extra = sorted(set(metrics) - set(units))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: "
                           f"missing {missing}, unlisted {extra}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<58} {value:>14.6g} {units[name]}")
    for reason in failures[:20]:
        print(f"FAILED {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
