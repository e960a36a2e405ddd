"""Per-layer numbers for the traced run.

The tracer wraps flipcheck's public functions from outside, patching each
name where its caller looks it up (``dsl.sym2_class`` as well as
``motive.sym2_class``, ``MotiveExpr.__add__`` on the class, each entry of
``cli.ALL_CHECKS``), records one span per call in memory and restores the
originals afterwards.  A span is (name, start ns, end ns, parent index,
op id, size, info); its self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import functools
import math
import os
import statistics
import time

import oracle
import proc

MODULES = ("cli", "dsl", "fano", "hodge", "motive", "sod", "varieties")

NAME, START, END, PARENT, OP, SIZE, INFO = range(7)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op_id = -1

    def wrap(self, name, fn, measure=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
            if measure is not None:
                rec[SIZE], rec[INFO] = measure(args, out)
            return out
        return traced

    def clear(self):
        self.spans.clear()
        self.stack.clear()


def _ast_nodes(root, node_type) -> int:
    count, todo = 0, [root]
    while todo:
        item = todo.pop()
        if isinstance(item, node_type):
            count += 1
            todo.extend(getattr(item, f) for f in item.__dataclass_fields__)
        elif isinstance(item, (tuple, list)):
            todo.extend(item)
    return count


def _patch_list(flipcheck, tracer: Tracer) -> list[tuple[object, str, object]]:
    """(owner, attribute, replacement) for every traced name."""
    cli, dsl, fano, hodge = (flipcheck.cli, flipcheck.dsl, flipcheck.fano,
                             flipcheck.hodge)
    motive, sod, varieties = flipcheck.motive, flipcheck.sod, flipcheck.varieties
    Expr, Table = motive.MotiveExpr, sod.RuleTable

    def terms(args, out):
        return len(out.terms), None

    def entries(args, out):
        return len(out.entries()), None

    def pairs(args, out):
        m = len(args[0])
        return m * (m + 1) // 2, None

    def tokens(args, out):
        return len(out), len(args[0])

    def nodes(args, out):
        return _ast_nodes(out, dsl.Node), None

    def evaluated(args, out):
        size = len(out.terms) if isinstance(out, Expr) else 0
        node = args[0]
        return size, len(node.terms) if isinstance(node, dsl.Sum) else 0

    def printed(args, out):
        return len(out.encode()), None

    def report(args, out):
        return 0, out.name

    table = [
        (cli, "run_all_checks", "cli.run_all_checks", None),
        (dsl, "tokenize", "dsl.tokenize", tokens),
        (dsl, "parse_script", "dsl.parse", nodes),
        (dsl, "parse", "dsl.parse", nodes),
        (dsl, "evaluate", "dsl.evaluate", evaluated),
        (dsl, "print_canonical", "dsl.print_canonical", printed),
        (dsl, "sym2_class", "motive.sym2_class", terms),
        (motive, "sym2_class", "motive.sym2_class", terms),
        (Expr, "__add__", "motive.add", terms),
        (Expr, "__radd__", "motive.add", terms),
        (Expr, "__mul__", "motive.mul", terms),
        (Expr, "__rmul__", "motive.mul", terms),
        (hodge, "kunneth", "hodge.kunneth", entries),
        (hodge, "sym2", "hodge.sym2", entries),
        (hodge, "hilbert_square", "hodge.hilbert_square", entries),
        (Table, "normalize", "sod.normalize", None),
        (sod, "substitute", "sod.substitute", None),
        (sod, "sym2_ledger", "sod.sym2_ledger", pairs),
        (fano, "verify_codim_identity", "fano.verify_codim_identity", None),
        (fano, "verify_codim_identity_symbolic", "fano.verify_codim_identity", None),
        (fano, "enumerate_line_splittings", "fano.line_splittings", None),
        (fano, "brute_force_line_splittings", "fano.line_splittings", None),
        (varieties, "builtin", "varieties.builtin", None),
    ]
    patches = [(owner, attr, tracer.wrap(name, getattr(owner, attr), measure))
               for owner, attr, name, measure in table]
    checks = [tracer.wrap("cli.check", check, report) for check in cli.ALL_CHECKS]
    patches.append((cli, "ALL_CHECKS", checks))
    return patches


class Patched:
    """Context manager that installs the tracer's wrappers and restores the
    original names on exit."""

    def __init__(self, flipcheck, tracer: Tracer):
        self.patches = _patch_list(flipcheck, tracer)
        self.saved = []

    def __enter__(self):
        for owner, attr, new in self.patches:
            self.saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, new)
        return self

    def __exit__(self, *exc):
        for owner, attr, old in reversed(self.saved):
            setattr(owner, attr, old)
        self.saved.clear()


# -- per-layer metrics from one cycle's spans ------------------------------------


def _fit_slope(points: list[tuple[int, int]]) -> float:
    """Least-squares slope of log(time) on log(size), over the median time
    at each size; 0 when the sizes span less than a factor of two."""
    by_size: dict[int, list[int]] = {}
    for size, ns in points:
        by_size.setdefault(size, []).append(ns)
    if len(by_size) < 2 or max(by_size) < 2 * min(by_size):
        return 0.0
    xs = [math.log(s) for s in by_size]
    ys = [math.log(max(1, statistics.median(v))) for v in by_size.values()]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    dur = [s[END] - s[START] for s in spans]
    child_ns = [0] * len(spans)
    substeps = [0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child_ns[s[PARENT]] += dur[i]
            if s[NAME] == "sod.substitute":
                substeps[s[PARENT]] += 1
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    calls: dict[str, int] = {}
    size: dict[str, int] = {}
    top: dict[str, list[int]] = {}  # spans not nested in a span of the same name
    checks: dict[str, int] = {}
    for i, s in enumerate(spans):
        name = s[NAME]
        total[name] = total.get(name, 0) + dur[i]
        self_ns[name] = self_ns.get(name, 0) + dur[i] - child_ns[i]
        calls[name] = calls.get(name, 0) + 1
        size[name] = size.get(name, 0) + s[SIZE]
        if s[PARENT] < 0 or spans[s[PARENT]][NAME] != name:
            top.setdefault(name, []).append(i)
        if name == "cli.check":
            checks[s[INFO]] = checks.get(s[INFO], 0) + dur[i]

    def ms(ns: int) -> float:
        return ns / 1e6

    def points(name, keep):
        return [(spans[i][SIZE], dur[i]) for i in top.get(name, []) if keep(i)]

    bytes_in = sum(spans[i][INFO] for i in top.get("dsl.tokenize", []))
    normalize_steps = sum(substeps[i] for i in top.get("sod.normalize", []))
    m = {
        "cli.run_all_checks_ms": ms(total.get("cli.run_all_checks", 0)),
        "fano.verify_codim_identity_calls": calls.get("fano.verify_codim_identity", 0),
        "fano.codim_ms": ms(total.get("fano.verify_codim_identity", 0)),
        "fano.line_splittings_ms": ms(total.get("fano.line_splittings", 0)),
        "varieties.builtin_calls": calls.get("varieties.builtin", 0),
        "varieties.builtin_ms": ms(total.get("varieties.builtin", 0)),
        "dsl.tokenize_ms": ms(total.get("dsl.tokenize", 0)),
        "dsl.tokens": size.get("dsl.tokenize", 0),
        "dsl.tokenize_ns_per_byte": (total.get("dsl.tokenize", 0) / bytes_in
                                     if bytes_in else 0.0),
        "dsl.parse_ms": ms(self_ns.get("dsl.parse", 0)),
        "dsl.ast_nodes": sum(spans[i][SIZE] for i in top.get("dsl.parse", [])),
        "dsl.evaluate_ms": ms(self_ns.get("dsl.evaluate", 0)),
        "dsl.statements": len(top.get("dsl.evaluate", [])),
        "dsl.print_canonical_ms": ms(sum(dur[i] for i in top.get("dsl.print_canonical", []))),
        "dsl.output_bytes": sum(spans[i][SIZE] for i in top.get("dsl.print_canonical", [])),
        "motive.add_calls": calls.get("motive.add", 0),
        "motive.add_ms": ms(total.get("motive.add", 0)),
        "motive.mul_calls": calls.get("motive.mul", 0),
        "motive.mul_ms": ms(total.get("motive.mul", 0)),
        "motive.sym2_class_calls": calls.get("motive.sym2_class", 0),
        "motive.sym2_class_ms": ms(total.get("motive.sym2_class", 0)),
        "motive.terms_out": sum(size.get(n, 0) for n in
                                ("motive.add", "motive.mul", "motive.sym2_class")),
        "hodge.kunneth_ms": ms(total.get("hodge.kunneth", 0)),
        "hodge.sym2_ms": ms(total.get("hodge.sym2", 0)),
        "hodge.hilbert_square_ms": ms(total.get("hodge.hilbert_square", 0)),
        "hodge.entries_out": sum(size.get(n, 0) for n in
                                 ("hodge.kunneth", "hodge.sym2", "hodge.hilbert_square")),
        "sod.normalize_ms": ms(total.get("sod.normalize", 0)),
        "sod.normalize_steps": normalize_steps,
        "sod.sym2_ledger_ms": ms(sum(dur[i] for i in top.get("sod.sym2_ledger", []))),
        "sod.sym2_ledger_pairs": sum(spans[i][SIZE] for i in top.get("sod.sym2_ledger", [])),
        "slope.dsl.tokenize": _fit_slope(points("dsl.tokenize",
                                                lambda i: spans[i][SIZE] >= 500)),
        "slope.dsl.evaluate_sum": _fit_slope(points("dsl.evaluate",
                                                    lambda i: spans[i][INFO] >= 200)),
        "slope.motive.sym2_class": _fit_slope(points("motive.sym2_class",
                                                     lambda i: spans[i][SIZE] >= 100)),
        "slope.hodge.hilbert_square": _fit_slope(points("hodge.hilbert_square",
                                                        lambda i: spans[i][SIZE] >= 100)),
        "slope.sod.sym2_ledger": _fit_slope(points("sod.sym2_ledger",
                                                   lambda i: spans[i][SIZE] >= 1000)),
        "slope.sod.normalize": _fit_slope(
            [(substeps[i], dur[i]) for i in top.get("sod.normalize", [])
             if substeps[i] >= 50]),
    }
    for name in oracle.GOLDEN_CHECKS:
        m[check_metric(name)] = ms(checks.get(name, 0))
    return m


def check_metric(check_name: str) -> str:
    return "cli.check." + check_name.replace("/", ".") + "_ms"


def write_spans(path: str, spans: list[list]) -> None:
    """One tab-separated line per span: name, start, end, parent, op, size, info."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("name\tstart_ns\tend_ns\tparent\top\tsize\tinfo\n")
        for s in spans:
            fh.write("\t".join("" if v is None else str(v) for v in s) + "\n")


# -- process start and import, measured in child processes --------------------------


def _importtime(stderr: str) -> tuple[float, dict[str, float]]:
    """(cumulative ms of importing flipcheck.cli, self ms per module)."""
    cumulative_us, self_ms = 0, {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        own, cum, name = line[len("import time:"):].split("|")
        if not own.strip().isdigit():
            continue  # the header line
        level = (len(name) - len(name.lstrip(" ")) - 1) // 2
        name = name.strip()
        if level == 0 and (name == "flipcheck" or name.startswith("flipcheck.")):
            cumulative_us += int(cum)
        if name.startswith("flipcheck.") and name[10:] in MODULES:
            self_ms[name[10:]] = int(own) / 1000
    return cumulative_us / 1000, self_ms


def process_probe(env: dict[str, str], out_dir: str, reps: int) -> dict[str, float]:
    """Bare interpreter start and flipcheck's import cost, each the median
    of ``reps`` child processes with the benchmark's flags and environment."""
    starts, imports = [], []
    per_module: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(reps):
        proc.pin_quietest_cpu()
        res = proc.run([proc.EXE, *proc.FLAGS, "-c", "pass"], env, out_dir)
        starts.append(res.elapsed_ns / 1e6)
        proc.pin_quietest_cpu()
        res = proc.run([proc.EXE, *proc.FLAGS, "-X", "importtime", "-c",
                        "import flipcheck.cli"], env, out_dir)
        if res.rc != 0:
            raise RuntimeError(f"importing flipcheck.cli failed: {res.stderr[-500:]}")
        cumulative, own = _importtime(res.stderr)
        imports.append(cumulative)
        for mod in MODULES:
            per_module[mod].append(own.get(mod, 0.0))
    out = {"proc.interp_start_ms": statistics.median(starts),
           "cli.import_ms": statistics.median(imports)}
    for mod in MODULES:
        out[f"import.{mod}_ms"] = statistics.median(per_module[mod])
    return out


def build_parser_ms(cli, reps: int) -> float:
    times = []
    for _ in range(reps):
        start = time.perf_counter_ns()
        cli.build_parser()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / 1e6


def spans_path(out_dir: str) -> str:
    return os.path.join(out_dir, "spans.tsv")
