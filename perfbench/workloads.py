"""The three benchmark workloads.

Each workload is driven in a closed loop by one caller: ``op(i)`` runs the
i-th operation, checks its output and returns ``(ok, output)``; the caller
issues op i+1 only after op i returns. ``op(i)`` depends only on the seed
and ``i``, so a traced replay of ops 0..m-1 must reproduce the same outputs.

* ``sweep``  - closed-form path, in-process: one seeded parameter draw per op.
* ``oracle`` - verification path, in-process, ``workers=2``: one round of
  every Monte Carlo and ODE oracle at the reference parameters per op.
* ``cli``    - one fresh ``python -m growthopt.cli`` process per op.
"""

from __future__ import annotations

import csv
import gzip
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import growthopt as go
from growthopt import cli as go_cli

from draws import KINDS, build, label, raw_pool
from tracer import Tracer, module_self_ms, read_spans

CONFIG_DIR = Path(__file__).resolve().parent / "configs"
SRC = Path(__file__).resolve().parent.parent / "src"
MC_SEED = 0x5EED  # the acceptance-suite seed; every oracle round reuses it
DRAWS_PER_KIND = 2000
CURVE_POINTS = 101


def cli_env():
    """Environment of a fresh interpreter that imports this checkout's growthopt."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def load_reference(kind):
    """Model and utility of the benchmark's reference config for ``kind``."""
    cfg = go_cli.parse_config((CONFIG_DIR / f"{kind}.cfg").read_text(encoding="utf-8"))
    return cfg.model, cfg.utility


class InProcessTracing:
    """Tracing for workloads whose ops run in the benchmark's own process."""

    tracer = None

    def trace_begin(self):
        self.tracer = Tracer()

    def trace_op(self, i):
        self.tracer.op = i
        with self.tracer:
            return self.op(i)

    def trace_end(self, n_ops, spans_path):
        self.tracer.write(spans_path)
        return len(self.tracer.spans), module_self_ms(self.tracer.spans, n_ops)


class Sweep(InProcessTracing):
    """optimal_allocation, a 101-point growth_curve and numeric_argmax per draw.

    Draw i uses kind ``KINDS[i % 5]``; the record is constructed inside the
    op, so parameter validation is part of the measured work.
    """

    name = "sweep"
    trace_ops = 300

    def __init__(self, seed, workdir):
        self.pool = raw_pool(seed, DRAWS_PER_KIND)

    def draw(self, i):
        kind = KINDS[i % len(KINDS)]
        theta, fields = self.pool[kind][(i // len(KINDS)) % DRAWS_PER_KIND]
        return kind, theta, fields

    def warm_up(self):
        for i in range(len(KINDS)):
            self.op(i)

    def op(self, i):
        kind, theta, fields = self.draw(i)
        model = build(kind, fields)
        u = go.Utility(theta)
        decision = go.optimal_allocation(model, u)
        curve = go.growth_curve(model, u, CURVE_POINTS)
        numeric = go.numeric_argmax(model, u)
        gap = abs(decision.alpha_star - numeric)
        shortfall = float(go.growth_rate(model, u, numeric)) - float(
            go.growth_rate(model, u, decision.alpha_star)
        )
        ok = gap <= 1e-6 and shortfall <= 1e-10 and bool(np.all(np.isfinite(curve.lambdas)))
        return ok, (decision.alpha_star, decision.case_label, numeric)

    def mix(self, outputs):
        """Share of ops per (draw class, case label) and of non-concave probes.

        A draw is non-concave-probe when the 64-point second differences of
        its growth rate are not all negative: the input property that sends
        ``numeric_argmax`` to its fallback scan. It is computed here, after
        the timed window, from the draws alone.
        """
        counts = {}
        nonconcave = 0
        probe = np.linspace(0.0, 1.0, 64)
        for i, out in enumerate(outputs):
            kind, theta, fields = self.draw(i)
            key = f"{label(kind, fields)}/{out[1] if isinstance(out, tuple) else 'failed'}"
            counts[key] = counts.get(key, 0) + 1
            values = np.asarray(go.growth_rate(build(kind, fields), go.Utility(theta), probe))
            if not np.all(values[2:] - 2.0 * values[1:-1] + values[:-2] < 0.0):
                nonconcave += 1
        n = max(len(outputs), 1)
        return {
            "draw_case_share": {k: v / n for k, v in sorted(counts.items())},
            "nonconcave_probe_share": nonconcave / n,
        }

    def report(self, outputs, latencies):
        return self.mix(outputs)


# (name, kind, alpha, t, n_steps); two blocks of verify.BLOCK_SIZE paths each
# so the two workers get equal shares.
MC_RUNS = (
    ("mc.gbm", "gbm", 1.0, 20.0, 1),
    ("mc.heston", "heston", 0.5, 10.0, 100),
    ("mc.three_halves", "three_halves", 0.5, 10.0, 100),
    ("mc.vasicek", "vasicek", 0.5, 10.0, 100),
    ("mc.jump", "jump", 0.5, 20.0, 1),
)
MC_PATHS = 2 * 16384
MC_WORKERS = 2
LAPLACE_LAMBDA, LAPLACE_T, LAPLACE_STEPS = 0.125, 1.0, 100
ODE_ALPHA, ODE_T_END, ODE_DT = 0.5, 100.0, 1e-3
ORACLE_ITEMS = tuple(r[0] for r in MC_RUNS) + ("mc.laplace_3_2", "ode.heston", "ode.vasicek")


class Oracle(InProcessTracing):
    """One verification round per op at the reference parameters.

    ``--seed`` only permutes the order of the round's eight oracles; the
    Monte Carlo seed is the acceptance seed for every round, so each round's
    verdict is the same and a failure is the program's, not sampling luck.
    """

    name = "oracle"
    trace_ops = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.refs = {kind: load_reference(kind) for kind in KINDS}
        self.stats = []  # per item: (name, path_steps, seconds, std_error)

    def warm_up(self):
        self.op(0)
        self.stats.clear()

    def _item(self, name):
        started = time.perf_counter()
        if name.startswith("ode."):
            kind = name[4:]
            model, u = self.refs[kind]
            integrate = go.integrate_heston_riccati if kind == "heston" else go.integrate_vasicek_ode
            trace = integrate(model, u, ODE_ALPHA, ODE_T_END, ODE_DT)
            b_gap = abs(float(trace.b_values[-1]) - trace.b_limit_closed_form)
            a_gap = abs(float(trace.a_values[-1]) / ODE_T_END - trace.a_slope_closed_form)
            return b_gap <= 1e-8 and a_gap <= 1e-3, (b_gap, a_gap)
        if name == "mc.laplace_3_2":
            model, _ = self.refs["three_halves"]
            est = go.mc_laplace_three_halves(
                model, LAPLACE_LAMBDA, LAPLACE_T, MC_PATHS, LAPLACE_STEPS, MC_SEED,
                workers=MC_WORKERS,
            )
            seconds = time.perf_counter() - started
            closed = go.laplace_three_halves_finite_t(model, LAPLACE_LAMBDA, LAPLACE_T)
            ok = abs(est.mean - closed) <= 3.0 * est.std_error + go_cli.MC_ALLOWANCE["three_halves"]
            self.stats.append((name, MC_PATHS * LAPLACE_STEPS, seconds, est.std_error))
            return ok, (est.mean, est.std_error)
        _, kind, alpha, t, steps = next(r for r in MC_RUNS if r[0] == name)
        model, u = self.refs[kind]
        est = go.mc_growth_estimate(model, u, alpha, t, MC_PATHS, steps, MC_SEED, workers=MC_WORKERS)
        seconds = time.perf_counter() - started
        closed = float(go.growth_rate(model, u, alpha))
        ok = abs(est.lambda_hat - closed) <= 3.0 * est.std_error + go_cli.MC_ALLOWANCE[kind]
        self.stats.append((name, MC_PATHS * steps, seconds, est.std_error))
        return ok, (est.lambda_hat, est.std_error)

    def op(self, i):
        order = np.random.default_rng([self.seed, i]).permutation(len(ORACLE_ITEMS))
        ok = True
        outputs = {}
        for k in order:
            name = ORACLE_ITEMS[k]
            item_ok, outputs[name] = self._item(name)
            ok = ok and item_ok
        return ok, tuple(sorted(outputs.items()))

    def report(self, outputs, latencies):
        """Monte Carlo throughput and accuracy-normalised cost over the window."""
        steps = sum(s[1] for s in self.stats)
        seconds = sum(s[2] for s in self.stats)
        se2_s = [s[3] ** 2 * s[2] for s in self.stats]
        return {
            "path_steps_per_s": steps / seconds if seconds else None,
            "mc_se2_s": math.exp(sum(math.log(v) for v in se2_s) / len(se2_s)) if se2_s else None,
            "mc_paths": MC_PATHS,
            "mc_workers": MC_WORKERS,
            "mc_seed": MC_SEED,
        }


def _cli_commands():
    """The documented subcommands on the reference configs, one op each."""
    cmds = []
    for kind in KINDS:
        cmds.append(("curve", kind, ["curve", "--format", "csv"]))
        cmds.append(("curve", kind, ["curve", "--format", "json"]))
        cmds.append(("optimal", kind, ["optimal"]))
    for kind in ("heston", "vasicek"):
        cmds.append(("verify_ode", kind, ["verify-ode"]))
    # One block of paths and 10 steps per unit time keep the simulation
    # below the import cost, so import stays the larger share of the op.
    for kind in KINDS:
        cmds.append(("verify_mc", kind, [
            "verify-mc", "--workers", "1", "--paths", "16384", "--t", "10", "--steps", "100",
        ]))
    cmds.append(("transform", "three_halves", ["transform-3-2", "--paths", "32768"]))
    return [
        (sub, kind, argv[:1] + ["--config", str(CONFIG_DIR / f"{kind}.cfg")] + argv[1:])
        for sub, kind, argv in cmds
    ]


CLI_COMMANDS = _cli_commands()
CLI_TIMEOUT_S = 120


def _check_cli_output(sub, argv, stdout):
    text = stdout.decode("utf-8")
    if sub == "curve" and "csv" in argv:
        rows = list(csv.reader(io.StringIO(text)))
        return rows[0] == ["alpha", "lambda"] and len(rows) == CURVE_POINTS + 1 and all(
            math.isfinite(float(v)) for row in rows[1:] for v in row
        )
    payload = json.loads(text)
    if sub == "curve":
        return len(payload["alpha"]) == len(payload["lambda"]) == CURVE_POINTS
    if sub == "optimal":
        return 0.0 <= payload["alpha_star"] <= 1.0
    return payload["pass"] is True


class Cli:
    """One fresh interpreter per op running one subcommand.

    The rotation of ``CLI_COMMANDS`` is visited in a seeded order, a new
    permutation for each pass.
    """

    name = "cli"
    trace_ops = 12

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.env = cli_env()
        self.launcher = [sys.executable, "-m", "growthopt.cli"]
        self.traced_launcher = [sys.executable, str(Path(__file__).resolve().parent / "traced_cli.py")]

    def command(self, i):
        n = len(CLI_COMMANDS)
        order = np.random.default_rng([self.seed, i // n]).permutation(n)
        return CLI_COMMANDS[order[i % n]]

    def warm_up(self):
        self.op(0)

    def _spans_file(self, i):
        return self.workdir / f"cli-spans-{i}.json.gz"

    def op(self, i):
        return self._run(i, self.launcher)

    def _run(self, i, launcher):
        sub, _, argv = self.command(i)
        proc = subprocess.run(
            launcher + argv,
            cwd=self.workdir, env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S,
        )
        ok = proc.returncode == 0 and _check_cli_output(sub, argv, proc.stdout)
        return ok, (proc.returncode, proc.stdout, proc.stderr)

    def report(self, outputs, latencies):
        """Median wall time of each subcommand's process."""
        by_sub = {}
        for i, lat in enumerate(latencies):
            by_sub.setdefault(self.command(i)[0], []).append(lat)
        return {f"{sub}_ms": 1e3 * float(np.median(v)) for sub, v in sorted(by_sub.items())}

    def trace_begin(self):
        pass

    def trace_op(self, i):
        return self._run(i, self.traced_launcher + [str(self._spans_file(i))])

    def trace_end(self, n_ops, spans_path):
        """Merge the per-process span files, setting each span's op. Span ids
        are unique only within a process, so self times are computed per
        file before they are summed."""
        totals = {}
        n_spans = 0
        with gzip.open(spans_path, "wt", encoding="utf-8") as out:
            for i in range(n_ops):
                path = self._spans_file(i)
                if not path.exists():  # the process failed; the op counts as failed
                    continue
                spans = read_spans(path)
                path.unlink()
                n_spans += len(spans)
                for span in spans:
                    out.write(json.dumps([*span[:5], i, span[6]]) + "\n")
                for mod, ms in module_self_ms(spans, 1).items():
                    totals[mod] = totals.get(mod, 0.0) + ms
        return n_spans, {mod: ms / n_ops for mod, ms in sorted(totals.items())}


WORKLOADS = {w.name: w for w in (Sweep, Oracle, Cli)}
