"""The lqgsched benchmark: cold CLI commands end to end, layers by tracing.

    python3 bench/run.py --workload sweep_small --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout. It drives the program only from
outside: every CLI command runs in a fresh ``python -m lqgsched.cli``
process, as a user runs it, with ``src`` on the path and BLAS pinned to one
thread, one child at a time. With ``--trace 1`` each command runs instead
under ``bench/trace_child.py``, which wraps the public functions of every
module, and the per-layer metrics replace the end-to-end ones. This process
and its children share one CPU, and every time is scaled by a speed probe
(``bench/probe.py``) timed next to it, so that the machine's changing speed
does not read as a change in the program. Every output is checked; the
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See
``bench/README.md`` for the workloads, the metrics and the gate.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections.abc import Callable
from dataclasses import dataclass, field

from probe import REF_S, STEP_REF_US, SpeedProbe

BENCH = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH, "reference")
WORKLOADS = ("sweep_small", "closed_loop_small", "plant_q50")

# A Monte Carlo mean further than this many standard errors from the closed
# form fails the gate. Each workload seed draws a fresh q=50 plant and noise
# seed, so at 3 SE about one correct run in 370 would fail; at 4 SE one in
# 16000 does.
MC_Z_MAX = 4.0
# Stored sys1/sys2 references: T* exact, every real within this relative error.
REF_RTOL = 1e-9
# The q=50 plant is checked against the oracle's grid fixed point, which
# converges r only to about 1e-8.
ORACLE_RTOL = 1e-6
CHILD_TIMEOUT_S = 60.0  # the longest command takes about 4 s
# Probes within this factor of each other count as taken in one speed state.
STATE_BAND = 1.25

# name -> unit, in the order they are printed.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "sweep_prices_per_s": "1/s",
    "mc_run_steps_per_s": "1/s",
    "online_step_p50_us": "us",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "cli.load_problem.s": "s",
    "model.validate.calls": "count",
    "model.validate.s": "s",
    "riccati.dare_solve.calls": "count",
    "riccati.dare_solve.s": "s",
    "riccati.dare_solve.iterations": "count",
    "riccati.lyapunov_solve.calls": "count",
    "riccati.lyapunov_solve.s": "s",
    "riccati.dlyap_adjoint.calls": "count",
    "riccati.dlyap_adjoint.s": "s",
    "riccati.spectral_radius.calls": "count",
    "policy.optimal_period.calls": "count",
    "policy.optimal_period.self_s": "s",
    "policy.never_measure_threshold.calls": "count",
    "policy.never_measure_threshold.self_s": "s",
    "policy.value_at.s": "s",
    "policy.error_cov_seq.calls": "count",
    "policy.error_cov_seq.s": "s",
    "controller.step_decide.calls": "count",
    "controller.step_decide.s": "s",
    "controller.step_decide.p99_us": "us",
    "controller.make_packet.calls": "count",
    "controller.make_packet.s": "s",
    "sim.monte_carlo_value.s": "s",
    "sim.monte_carlo_value.rss_growth_mb": "MB",
    "sim.simulate.self_s": "s",
    "sim.TrajectoryRecord.csv_text.s": "s",
    "oracle.verify_solution.calls": "count",
    "oracle.verify_solution.s": "s",
    "oracle.solve_r_fixed_point.s": "s",
    "oracle.solve_r_fixed_point.iterations": "count",
    "oracle.inner_dp_check.s": "s",
    "setup.scipy_import_s": "s",
    "trace.overhead_s": "s",
}

# Workload sizes. "tiny" is the smoke-test size; "full" is what is measured.
SIZES = {
    "full": {
        "sweep_step": 1.0, "sweep_sim_runs": 1000, "companion_sweep_step": 5.0,
        "mc_runs": 20000, "online_steps": 30000, "sweep_online_steps": 10000,
        "q50_prices": 61, "q50_verify": 3, "q50_runs": 400, "q50_online_steps": 10000,
    },
    "tiny": {
        "sweep_step": 30.0, "sweep_sim_runs": 100, "companion_sweep_step": 100.0,
        "mc_runs": 200, "online_steps": 600, "sweep_online_steps": 300,
        "q50_prices": 7, "q50_verify": 1, "q50_runs": 60, "q50_online_steps": 300,
    },
}
HORIZON = 500


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, or its inputs failed to build)."""


# --------------------------------------------------------------------------
# Children


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    exit_code: int
    stdout: str
    stderr: str
    probe_s: float = math.nan  # mean of the speed probes just before and just after the child


def child_env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "LQGSCHED_"))}
    env.update(
        PYTHONPATH=os.path.join(root, "src"),
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def run_child(argv: list[str], env: dict, cwd: str, work: str) -> Outcome:
    """Run one child to completion; wall time from spawn to reap, peak RSS
    from the child's own rusage."""
    out_path, err_path = os.path.join(work, "child.out"), os.path.join(work, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=env, cwd=cwd)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted or terminated: leave no child behind
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Outcome(wall, usage.ru_maxrss / 1024.0, proc.returncode, stdout, stderr)


# --------------------------------------------------------------------------
# Output checks. Each returns a list of failure messages, empty when correct.


def _close(a: float, b: float, rtol: float) -> bool:
    """Equal within rtol relative to the larger magnitude, or absolute below 1."""
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def _read_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _t_star(field_value) -> int | None:
    return None if field_value in ("inf", None) else int(field_value)


def load_reference(name: str) -> dict[float, dict]:
    """A stored sweep table keyed by price."""
    with open(os.path.join(REFERENCE, name)) as fh:
        return {float(row["O"]): row for row in _read_csv(fh.read())}


def check_sweep_reference(text: str, reference: dict[float, dict], expected_rows: int) -> list[str]:
    """Every row equals the stored row at its price: T* exactly, reals within REF_RTOL."""
    rows = _read_csv(text)
    fails = [] if len(rows) == expected_rows else [f"sweep has {len(rows)} rows, expected {expected_rows}"]
    for row in rows:
        ref = reference.get(float(row["O"]))
        if ref is None:
            fails.append(f"O={row['O']}: no reference row")
            continue
        if _t_star(row["T_star"]) != _t_star(ref["T_star"]):
            fails.append(f"O={row['O']}: T*={row['T_star']}, reference {ref['T_star']}")
        for key, value in ref.items():
            if key not in ("O", "T_star") and not _close(float(row[key]), float(value), REF_RTOL):
                fails.append(f"O={row['O']}: {key}={row[key]}, reference {value}")
    return fails


def check_sweep_oracle(text: str, oracle: list[dict]) -> list[str]:
    """Row k sits at the oracle's price k, with the oracle's T and r."""
    rows = _read_csv(text)
    if len(rows) != len(oracle):
        return [f"sweep has {len(rows)} rows, expected {len(oracle)}"]
    fails = []
    for row, ref in zip(rows, oracle):
        if not _close(float(row["O"]), ref["O"], REF_RTOL):
            fails.append(f"price {row['O']}, expected {ref['O']!r}")
        fails += _oracle_mismatch(row["O"], _t_star(row["T_star"]), float(row["r"]), ref)
    return fails


def _oracle_mismatch(O, T, r, ref: dict) -> list[str]:
    fails = []
    if T != ref["T"]:
        fails.append(f"O={O}: T*={T}, oracle {ref['T']}")
    if not _close(r, ref["r"], ORACLE_RTOL):
        fails.append(f"O={O}: r={r!r}, oracle {ref['r']!r}")
    return fails


def check_solve_oracle(text: str, ref: dict) -> list[str]:
    doc = json.loads(text)
    return _oracle_mismatch(doc["O"], doc["T_star"], doc["r"], ref)


def check_verify(text: str) -> list[str]:
    doc = json.loads(text)
    if doc.get("passed") is True:
        return []
    return ["verify failed: " + ", ".join(c["name"] for c in doc.get("checks", []) if not c["passed"])]


def check_mc(summary_line: str, closed_form: float, runs: int) -> list[str]:
    """The Monte Carlo mean sits within MC_Z_MAX standard errors of the closed form."""
    doc = json.loads(summary_line)
    fails = [] if doc.get("n_runs") == runs else [f"n_runs={doc.get('n_runs')}, expected {runs}"]
    z = (doc["mc_mean"] - closed_form) / doc["mc_std_error"]
    if not abs(z) <= MC_Z_MAX:
        fails.append(f"MC mean {doc['mc_mean']!r} is {z:+.2f} SE from the closed form {closed_form!r}")
    return fails


def check_online(line: str, steps: int) -> list[str]:
    doc = json.loads(line)
    fails = [] if doc["steps"] == steps else [f"session ran {doc['steps']} steps, expected {steps}"]
    if doc["mismatches"]:
        fails.append(f"{doc['mismatches']} of {doc['windows']} windows differ from make_packet")
    return fails


# --------------------------------------------------------------------------
# Workloads


@dataclass
class Step:
    """One command of a workload: a CLI command or an online session."""

    name: str
    kind: str  # "cli" or "online"
    argv: list[str]
    check: Callable[[Outcome], list[str]]
    prices: int = 0  # prices a sweep tabulates
    run_steps: int = 0  # runs x horizon a simulate covers
    repeat: int = 1  # runs per cycle when untraced: more samples of a long or noisy command


def _sweep_rows(step: float) -> int:
    return int(round(300.0 / step)) + 1


def _cli_sweep(name, problem, step, out, reference, prices, repeat=1) -> Step:
    argv = ["sweep", "--problem", problem, "--O-min", "0", "--O-max", "300", "--O-step", repr(step), "--out", out]
    return Step(name, "cli", argv, lambda o: check_sweep_reference(_read(out), reference, prices),
                prices=prices, repeat=repeat)


def _cli_simulate(name, problem, O, runs, seed, out, closed_form, repeat=1) -> Step:
    argv = ["simulate", "--problem", problem, "--O", repr(O), "--runs", str(runs),
            "--horizon", str(HORIZON), "--seed", str(seed), "--out", out]
    return Step(name, "cli", argv, lambda o: check_mc(o.stdout.strip().splitlines()[-1], closed_form, runs),
                run_steps=runs * HORIZON, repeat=repeat)


def _online(name, problem, O, steps, seed, repeat=1) -> Step:
    argv = ["--problem", problem, "--O", repr(O), "--steps", str(steps), "--seed", str(seed)]
    return Step(name, "online", argv, lambda o: check_online(o.stdout.strip().splitlines()[-1], steps),
                repeat=repeat)


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def prepare_args(workload: str, seed: int, size: dict, configs: str) -> list[str]:
    """Arguments for bench/prepare.py: which closed forms and plant to build."""
    if workload == "sweep_small":
        return ["--closed-form", os.path.join(configs, "sys2.json"), "7.0"]
    if workload == "closed_loop_small":
        return ["--closed-form", os.path.join(configs, "sys1.json"), "10.0"]
    return ["--plant-seed", str(seed), "--plant-prices", str(size["q50_prices"])]


def build_steps(workload: str, seed: int, size: dict, prep: dict, configs: str, work: str) -> list[Step]:
    """The commands of one cycle of a workload, with their output checks.

    Every workload runs at least one sweep, one Monte Carlo simulate and one
    online session, so every end-to-end metric is measured on each; the
    sizes put the bulk of the work where the workload's name says.
    """
    sys1, sys2 = os.path.join(configs, "sys1.json"), os.path.join(configs, "sys2.json")
    out = lambda name: os.path.join(work, name)  # noqa: E731
    rng = random.Random(seed)
    online_seed = rng.randrange(2**31)

    if workload == "sweep_small":
        rows = _sweep_rows(size["sweep_step"])
        cf = prep["closed_form"][0]["closed_form"]
        # sys2's never-measure threshold is 6.43; stay in the finite-period band.
        O_online = math.exp(rng.uniform(math.log(1.0), math.log(5.0)))
        return [
            _cli_sweep("sweep sys1", sys1, size["sweep_step"], out("sweep1.csv"), load_reference("sys1_sweep.csv"), rows,
                       repeat=2),
            _cli_sweep("sweep sys2", sys2, size["sweep_step"], out("sweep2.csv"), load_reference("sys2_sweep.csv"), rows,
                       repeat=2),
            _cli_simulate("simulate sys2", sys2, 7.0, size["sweep_sim_runs"], 11, out("traj2.csv"), cf, repeat=2),
            _online("online sys2", sys2, O_online, size["sweep_online_steps"], online_seed, repeat=2),
        ]
    if workload == "closed_loop_small":
        cf = prep["closed_form"][0]["closed_form"]
        step = size["companion_sweep_step"]
        return [
            _cli_simulate("simulate sys1", sys1, 10.0, size["mc_runs"], 0, out("traj1.csv"), cf),
            _online("online sys1", sys1, 10.0, size["online_steps"], online_seed),
            _cli_sweep("sweep sys1 coarse", sys1, step, out("sweep1.csv"), load_reference("sys1_sweep.csv"),
                       _sweep_rows(step)),
        ]

    plant = prep["plant"]
    problem = plant["problem"]
    sweep_out, solve_out = out("q50_sweep.csv"), out("q50_solve.json")
    steps = [
        Step("solve q50", "cli", ["solve", "--problem", problem, "--format", "json", "--out", solve_out],
             lambda o: check_solve_oracle(_read(solve_out), plant["solve_oracle"])),
        Step("sweep q50", "cli",
             ["sweep", "--problem", problem, "--O-min", repr(plant["O_lo"]), "--O-max", repr(plant["O_hi"]),
              "--O-log", str(plant["n_prices"]), "--out", sweep_out],
             lambda o: check_sweep_oracle(_read(sweep_out), plant["sweep_oracle"]), prices=plant["n_prices"],
             repeat=2),
    ]
    for k, O in enumerate(plant["O_verify"][: size["q50_verify"]]):
        verify_out = out(f"q50_verify{k}.json")
        steps.append(Step(f"verify q50 #{k}", "cli",
                          ["verify", "--problem", problem, "--O", repr(O), "--out", verify_out],
                          lambda o, path=verify_out: check_verify(_read(path))))
    steps.append(_cli_simulate("simulate q50", problem, plant["O_sim"], size["q50_runs"], plant["sim_seed"],
                               out("q50_traj.csv"), plant["sim_reference"]["closed_form"]))
    steps.append(_online("online q50", problem, plant["O_online"], size["q50_online_steps"], plant["online_seed"],
                         repeat=2))
    return steps


# --------------------------------------------------------------------------
# Measurement


@dataclass
class Tally:
    """ops_attempted and ops_failed: every command run and every output check counts once."""

    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def record(self, what: str, fails: list[str]) -> None:
        self.attempted += 1
        if fails:
            self.failed += 1
            self.messages += [f"{what}: {m}" for m in fails]


class Bench:
    """Runs children from the checkout root, with the pinned environment."""

    def __init__(self, root: str, work: str):
        self.root = root
        self.work = work
        self.env = child_env(root)
        self.probe = SpeedProbe()
        self.next_probe = None

    def timed(self, argv: list[str]) -> Outcome:
        """run_child between two speed probes; the second is the next child's first."""
        before = self.next_probe or self.probe()
        outcome = run_child(argv, self.env, self.root, self.work)
        self.next_probe = self.probe()
        outcome.probe_s = (before + self.next_probe) / 2
        return outcome

    def argv(self, step: Step, spans: str | None) -> list[str]:
        if spans is not None:
            return [sys.executable, os.path.join(BENCH, "trace_child.py"), spans, step.kind, *step.argv]
        if step.kind == "cli":
            return [sys.executable, "-m", "lqgsched.cli", *step.argv]
        return [sys.executable, os.path.join(BENCH, "online.py"), *step.argv]

    def run_step(self, step: Step, tally: Tally, spans: str | None = None) -> Outcome:
        outcome = self.timed(self.argv(step, spans))
        tally.record(step.name, [] if outcome.exit_code == 0 else
                     [f"exit code {outcome.exit_code}: {outcome.stderr.strip()[-500:]}"])
        if outcome.exit_code == 0:
            try:
                fails = step.check(outcome)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                fails = [f"unreadable output: {exc!r}"]
            tally.record(f"{step.name} output", fails)
        return outcome

    def import_time(self) -> Outcome:
        outcome = self.timed([sys.executable, "-c", "import lqgsched"])
        if outcome.exit_code != 0:
            raise BenchError("import lqgsched failed:\n" + outcome.stderr)
        return outcome

    def scipy_import_s(self) -> float:
        """Cumulative import time of scipy.linalg, from ``python -X importtime``."""
        outcome = run_child([sys.executable, "-X", "importtime", "-c", "import lqgsched"],
                            self.env, self.root, self.work)
        for line in outcome.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "scipy.linalg":
                return int(parts[1]) / 1e6
        return 0.0


def _session(o: Outcome) -> dict | None:
    """The online session's result line, or None if it failed."""
    if o.exit_code != 0 or not o.stdout.strip():
        return None
    try:
        return json.loads(o.stdout.strip().splitlines()[-1])
    except ValueError:
        return None


def state_probes(probes: list[float]) -> dict[float, float]:
    """Each probe of a run mapped to the median of the run's probes within a
    factor STATE_BAND of it: the typical probe of the speed state it was
    taken in. The states lie about 1.6 times apart, and a single probe
    jitters within its state by 10-15%, which a child lasting seconds
    averages out; scaling by the state's typical probe removes the state
    without adding that jitter."""
    band = math.log(STATE_BAND)
    return {p: statistics.median(q for q in probes if abs(math.log(q / p)) <= band) for p in probes}


def end_to_end_metrics(steps: list[Step], runs: list[list[Outcome]], imports: list[Outcome],
                       scaled: bool = True) -> dict:
    """Combine each command's median repetition in the run.

    When ``scaled``, each wall time is first multiplied by REF_S over the
    typical probe of the speed state its child ran in (see state_probes),
    taken from the probes just before and just after the child, and each
    session's median step latency by STEP_REF_US over the median of the
    step probes it timed between its steps (see probe.py). A run is then not
    read as slower for the state the machine was in.
    """
    state = state_probes([o.probe_s for o in imports] + [o.probe_s for r in runs for o in r])

    def scale(probe_s: float) -> float:
        return REF_S / state[probe_s] if scaled else 1.0

    def typical(outcomes: list[Outcome]) -> float:
        ok = [o.wall_s * scale(o.probe_s) for o in outcomes if o.exit_code == 0]
        # a failed command still took its time
        return statistics.median(ok or [o.wall_s * scale(o.probe_s) for o in outcomes])

    cli = [k for k, s in enumerate(steps) if s.kind == "cli"]
    sweeps = [k for k in cli if steps[k].prices]
    sims = [k for k in cli if steps[k].run_steps]
    sessions = [doc for k, s in enumerate(steps) if s.kind == "online"
                for doc in map(_session, runs[k]) if doc is not None]
    p50 = [doc["p50_us"] * (STEP_REF_US / doc["probe_p50_us"] if scaled else 1.0) for doc in sessions]
    return {
        "setup_s": typical(imports),
        "wall_s": sum(typical(runs[k]) for k in cli),
        "sweep_prices_per_s": sum(steps[k].prices for k in sweeps) / sum(typical(runs[k]) for k in sweeps),
        "mc_run_steps_per_s": sum(steps[k].run_steps for k in sims) / sum(typical(runs[k]) for k in sims),
        "online_step_p50_us": statistics.median(p50) if p50 else math.nan,
        "peak_rss_mb": max(o.rss_mb for k in cli for o in runs[k]),
    }


def aggregate_spans(doc: dict) -> dict:
    """Per span name: calls, total and self seconds, durations, summed extras."""
    spans = doc["spans"]
    child_time = [0.0] * len(spans)
    for name, t0, t1, parent in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    layers: dict = {}
    for idx, (name, t0, t1, parent) in enumerate(spans):
        entry = layers.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []})
        entry["calls"] += 1
        entry["s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - child_time[idx]
        entry["durations"].append(t1 - t0)
        for key, value in doc["extra"].get(str(idx), {}).items():
            entry[key] = entry.get(key, 0) + value
    return layers


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q / 100.0 * len(ordered)) - 1))]


def layer_metrics(per_command: list[dict]) -> dict:
    """The traced cycle's per-layer metrics, summed over its commands."""
    merged: dict = {}
    for layers in per_command:
        for name, entry in layers.items():
            into = merged.setdefault(name, {"durations": []})
            for key, value in entry.items():
                if key == "durations":
                    into["durations"] += value
                else:
                    into[key] = into.get(key, 0) + value
    out = {}
    for metric in PER_LAYER:
        layer, stat = metric.rsplit(".", 1)
        if layer in ("setup", "trace"):
            continue
        entry = merged.get(layer, {"durations": []})
        if stat == "p99_us":
            out[metric] = _percentile(entry["durations"], 99) * 1e6 if entry["durations"] else 0.0
        else:
            out[metric] = entry.get(stat, 0)
    return out


def command_breakdown(step: Step, layers: dict, doc: dict, traced: Outcome, plain: Outcome) -> dict:
    in_process = doc["in_process_s"]
    return {
        "command": step.name,
        "in_process_s": in_process,
        "traced_wall_s": traced.wall_s,
        "untraced_wall_s": plain.wall_s,
        "overhead_s": traced.wall_s - plain.wall_s,
        "layers": {
            name: {"calls": e["calls"], "s": e["s"], "self_s": e["self_s"], "share": e["s"] / in_process,
                   **{k: v for k, v in e.items() if k not in ("calls", "s", "self_s", "durations")}}
            for name, e in sorted(layers.items(), key=lambda kv: -kv[1]["s"])
        },
    }


def median_of(samples: list[dict]) -> dict:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def untraced_cycles(bench: Bench, steps: list[Step], seconds: float, tally: Tally,
                    imports: list, runs: list) -> float:
    """Run the workload's commands round and round until the time is up.

    One cycle is every command, ``repeat`` times each, with a cold import
    before each half, so that setup_s samples the whole run. The first cycle
    always runs whole; after it, the run stops at the first command whose
    last wall time would take it past ``seconds``, so the run fills its time
    without overrunning it. Returns the cycles run, as a fraction."""
    commands = [k for k, s in enumerate(steps) for _ in range(s.repeat)]
    half = len(commands) // 2
    schedule = [None, *commands[:half], None, *commands[half:]]
    deadline = time.perf_counter() + seconds
    for n, k in enumerate(itertools.cycle(schedule)):
        samples = imports if k is None else runs[k]
        if n >= len(schedule) and time.perf_counter() + samples[-1].wall_s > deadline:
            return n / len(schedule)
        samples.append(bench.import_time() if k is None else bench.run_step(steps[k], tally))


def traced_cycles(bench: Bench, steps: list[Step], seconds: float, tally: Tally,
                  imports: list, runs: list, samples: list, work: str) -> int:
    """Cycles of every command run once untraced and once traced, while
    another cycle fits in ``seconds``. Each cycle appends its per-layer
    metrics, and the last one's per-command breakdown, to ``samples``."""
    t_start = time.perf_counter()
    n_cycles = 0
    while True:
        t_cycle = time.perf_counter()
        imports.append(bench.import_time())
        n_cycles += 1
        plain = []
        for k, s in enumerate(steps):
            runs[k].append(bench.run_step(s, tally))
            plain.append(runs[k][-1])
        span_files = [os.path.join(work, f"spans{k}.json") for k in range(len(steps))]
        for f in span_files:
            if os.path.exists(f):
                os.remove(f)
        traced = [bench.run_step(s, tally, spans=f) for s, f in zip(steps, span_files)]
        done = [(s, json.loads(_read(f)), t, p)
                for s, f, t, p in zip(steps, span_files, traced, plain) if os.path.exists(f)]
        layers = [aggregate_spans(doc) for _, doc, _, _ in done]
        sample = layer_metrics(layers)
        sample["trace.overhead_s"] = sum(t.wall_s - p.wall_s for t, p in zip(traced, plain))
        sample["breakdown"] = [command_breakdown(s, lay, doc, t, p) for (s, doc, t, p), lay in zip(done, layers)]
        samples.append(sample)
        now = time.perf_counter()
        # Stop when another cycle like this one would overrun the time.
        if now - t_start + (now - t_cycle) > seconds:
            return n_cycles


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: bool, size_name: str) -> tuple:
    """Returns (result, detail): the result object printed last and a record of
    the environment, the generated inputs and the per-command figures."""
    size = SIZES[size_name]
    configs = os.path.join(root, "configs")
    work = os.path.join(root, ".bench_build", f"{workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        bench = Bench(root, work)
        prep_out = run_child([sys.executable, os.path.join(BENCH, "prepare.py"), "--out", work,
                              *prepare_args(workload, seed, size, configs)], bench.env, root, work)
        if prep_out.exit_code != 0:
            raise BenchError("preparing the workload failed:\n" + prep_out.stderr)
        with open(os.path.join(work, "prep.json")) as fh:
            prep = json.load(fh)
        tally = Tally()
        if "plant" in prep:
            tally.record("q50 plant validate", prep["plant"]["violations"])
        steps = build_steps(workload, seed, size, prep, configs, work)

        bench.import_time()  # compiles bytecode and warms the file cache
        imports, runs, samples, breakdowns = [], [[] for _ in steps], [], []
        if trace:
            n_cycles = traced_cycles(bench, steps, seconds, tally, imports, runs, samples, work)
            breakdowns = [x.pop("breakdown") for x in samples][-1]
        else:
            n_cycles = untraced_cycles(bench, steps, seconds, tally, imports, runs)

        if trace:
            metrics = median_of(samples)
            metrics["setup.scipy_import_s"] = statistics.median(bench.scipy_import_s() for _ in range(3))
            units = PER_LAYER
        else:
            metrics = end_to_end_metrics(steps, runs, imports)
            unscaled = end_to_end_metrics(steps, runs, imports, scaled=False)
            units = END_TO_END
        detail = {
            "workload": workload,
            "seed": seed,
            "size": size_name,
            "cycles": n_cycles,
            "step_walls": {s.name: [o.wall_s for o in runs[k]] for k, s in enumerate(steps)},
            "step_probes": {s.name: [o.probe_s for o in runs[k]] for k, s in enumerate(steps)},
            "sessions": {s.name: [_session(o) for o in runs[k]] for k, s in enumerate(steps) if s.kind == "online"},
            "environment": prep["environment"],
            "import_s": [o.wall_s for o in imports],
            "import_probe_s": [o.probe_s for o in imports],
            "commands": [" ".join(s.argv) for s in steps],
            "failures": tally.messages,
        }
        if "plant" in prep:
            detail["plant"] = {k: prep["plant"][k] for k in
                               ("rho_A", "never_measure_threshold", "O_lo", "O_hi", "O_solve", "O_verify",
                                "O_sim", "sim_seed", "O_online", "online_seed")}
            finite = [r["T"] for r in prep["plant"]["sweep_oracle"] if r["T"] is not None]
            detail["plant"]["T_star_range"] = [min(finite, default=None), max(finite, default=None),
                                               len(prep["plant"]["sweep_oracle"]) - len(finite)]
        if trace:
            detail["breakdown"] = breakdowns
        else:
            detail["unscaled_metrics"] = unscaled
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            # A metric with no sample (every online session failed) is null, which
            # keeps the line valid JSON; the run is then not correct anyway.
            "metrics": {name: {"value": _finite_or_none(metrics.get(name)), "unit": unit}
                        for name, unit in units.items()},
        }
        return result, detail
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _finite_or_none(value):
    return value if value is not None and math.isfinite(value) else None


def summary_lines(workload: str, result: dict, detail: dict) -> list[str]:
    lines = [f"# {workload}: seed {detail['seed']}, {detail['cycles']:.3g} cycles, "
             f"ops_failed = {result['failed']} of ops_attempted = {result['attempted']}"]
    if "unscaled_metrics" in detail:
        lines.append("#   times scaled to the speed probe's reference speed; unscaled in brackets")
    unscaled = detail.get("unscaled_metrics", {})
    for name, m in result["metrics"].items():
        value = "null" if m["value"] is None else format(m["value"], ".6g")
        raw = f"  ({unscaled[name]:.6g})" if name in unscaled else ""
        lines.append(f"#   {name:40s} {value:>16} {m['unit']}{raw}")
    lines += [f"#   FAILED {msg}" for msg in detail["failures"]]
    return lines


def pin_to_one_cpu() -> None:
    """Keep this process and every child it starts on one CPU.

    On the machine this was written on the two CPUs are often in different
    speed states at the same moment (a probe read 10 ms on one and 14 ms on
    the other), so a probe timed on this process's CPU says nothing of a child
    that runs on the other. Children inherit the affinity. Nothing runs
    alongside a child: this process waits while it runs."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0, help="how long to repeat the workload's commands")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics from a traced run")
    ap.add_argument("--size", choices=sorted(SIZES), default="full", help="tiny is for the smoke tests")
    args = ap.parse_args(argv)
    # On SIGTERM, unwind through run_child, which stops the running child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The speed probe runs numpy in this process: one BLAS thread, like the children.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    pin_to_one_cpu()

    root = os.getcwd()
    for needed in ("src/lqgsched/cli.py", "configs/sys1.json", "configs/sys2.json"):
        if not os.path.isfile(os.path.join(root, needed)):
            print(f"bench: {needed} not found; run from the root of an lqgsched checkout", file=sys.stderr)
            return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            result, detail = run_workload(root, name, args.seed, args.seconds, bool(args.trace), args.size)
            print("\n".join(summary_lines(name, result, detail)))
            print(json.dumps({"detail": detail}))
            results[name] = result
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
