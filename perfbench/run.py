"""Pipeline benchmark: time to a verified phasemix result.

Run from the repository root:

    python3 perfbench/run.py --workload well_budget --seed 11 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all --seconds 28

One invocation is one process, a closed loop with one caller: it sets the
workload up (and times set-up in fresh interpreters), then makes the
workload's top-level calls one after another until `--seconds` would be
exceeded, at least once.  BLAS and OpenMP pools default to one thread,
so the load is one thread on one core.  Every call is checked and its
emitted output hashed; a call fails if it raises, if its check fails or
if its hash differs from the first call's.  With `--trace 1` one more call
runs with the tracer on and per-layer metrics are reported instead of
end-to-end ones.
The last line of standard output is the JSON result; see README.md.
`--workload all` runs every workload at its default seed, one process
each, and prints a table of the end-to-end metrics and `failed_frac`.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import inputs
import setup_probe

SETUP_SAMPLES = 7      # the main process's set-up and six fresh ones

# thread pools of numpy/scipy's BLAS and of OpenMP, unless the caller set them
THREAD_DEFAULTS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}

END_TO_END = [("call_cpu_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("harness.self_s", "s"), ("harness.emit_s", "s"),
    ("config.load_s", "s"), ("scales.compute_s", "s"),
    ("lindblad.evolve_s", "s"), ("lindblad.steps", "count"),
    ("lindblad.step_ms", "ms"), ("lindblad.noiseless_step_frac", "ratio"),
    ("lindblad.invariants_s", "s"), ("lindblad.trace_distance_s", "s"),
    ("lindblad.wigner_s", "s"),
    ("fokker_planck.evolve_s", "s"), ("fokker_planck.steps", "count"),
    ("fokker_planck.step_ms", "ms"), ("fokker_planck.cfl_dt_ratio", "ratio"),
    ("fokker_planck.l1_distance_s", "s"),
    ("kernels.advect.calls", "count"), ("kernels.advect.busy_s", "s"),
    ("kernels.advect.bytes_per_call_computed", "B"),
    ("kernels.advect.gb_s_computed", "GB/s"),
    ("kernels.diffuse.busy_s", "s"),
    ("kernels.rasterize_density.busy_s", "s"),
    ("kernels.rasterize_density.evals", "count"),
    ("kernels.rasterize_phase.busy_s", "s"),
    ("kernels.rasterize_phase.evals", "count"),
    ("mixture.evolve_s", "s"), ("mixture.steps", "count"),
    ("mixture.particle_steps_per_s", "1/s"), ("mixture.spill_count", "count"),
    ("mixture.to_density_s", "s"), ("mixture.to_phase_s", "s"),
    ("mixture.density_envelope_frac", "ratio"),
    ("mixture.phase_envelope_frac", "ratio"),
    ("langevin.sample_s", "s"), ("langevin.evolve_s", "s"),
    ("langevin.particle_steps_per_s", "1/s"), ("langevin.histogram_s", "s"),
    ("rng.stream_normals.calls", "count"), ("rng.stream_normals.busy_s", "s"),
    ("rng.normals_per_s", "1/s"),
    ("process.call_cpu_s", "s"), ("process.ref_kernel_s", "s"),
    ("process.call_wall_s", "s"), ("process.first_call_s", "s"),
    ("process.user_s", "s"), ("process.sys_s", "s"),
    ("process.minor_faults", "count"), ("process.first_call_sys_s", "s"),
    ("process.first_call_minor_faults", "count"),
    ("process.copy_gb_s", "GB/s"),
    ("harness.max_trace_distance", "ratio"),
    ("harness.max_l1_distance", "ratio"),
    ("harness.worst_budget_ratio", "ratio"),
    ("harness.free_negativity", "ratio"), ("harness.diffusive_floor", "ratio"),
    ("langevin.l1_vs_fp", "ratio"), ("check.headroom", "ratio"),
    ("trace.overhead_s", "s"),
]

# check values reported as per-layer metrics: key -> metric name
RESULTS = {"max_trace_distance": "harness.max_trace_distance",
           "max_l1_distance": "harness.max_l1_distance",
           "worst_budget_ratio": "harness.worst_budget_ratio",
           "free_negativity": "harness.free_negativity",
           "diffusive_floor": "harness.diffusive_floor",
           "l1_vs_fp": "langevin.l1_vs_fp"}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def _log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def _child_setup(name, seed, ini_path) -> float:
    out = subprocess.run(
        [sys.executable, setup_probe.__file__, name, str(seed), ini_path],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.split()[-1])


class Calls:
    """Runs, checks and hashes the workload's calls; counts failures."""

    def __init__(self, workload, cfg, work_dir):
        self.workload = workload
        self.cfg = cfg
        self.work_dir = work_dir
        self.durations = []
        self.cpu = []
        self.usages = []
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.values = {}

    def call(self) -> float:
        import probes
        import workloads
        out_dir = os.path.join(self.work_dir, f"call-{self.attempted}")
        self.attempted += 1
        before = probes.rusage()
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            values, digest = self.workload.call(self.cfg, out_dir)
        except Exception:
            values = None
            _log(f"call {self.attempted} raised:\n{traceback.format_exc()}")
        seconds = time.perf_counter() - t0
        self.cpu.append(time.process_time() - c0)
        self.usages.append([b - a for a, b in zip(before, probes.rusage())])
        if values is None:
            self.failed += 1
            return seconds
        bad = workloads.failed_checks(self.workload, values)
        if self.digest is None:
            self.digest = digest
        if bad or digest != self.digest:
            self.failed += 1
        self.values = values
        _log(f"call {self.attempted}: {seconds:.3f} s wall, "
             f"{self.cpu[-1]:.3f} s CPU, digest {digest[:16]}"
             + "".join(f", FAILED {c.name} = {c.value!r} (needs {c.op} "
                       f"{c.bound!r})" for c in bad)
             + ("" if digest == self.digest else ", OUTPUT DIFFERS"))
        return seconds


def _per_layer(tr, calls, traced_s, wall_s, cpu_s, ref_s,
               copy_gb_s) -> dict:
    import tracer as tracing
    import workloads
    busy, c = tr.busy, tr.counts
    root = next(i for i, s in enumerate(tr.spans) if s[0] == "run")
    # untraced calls only: the traced call is the last entry
    untraced = calls.usages[:-1]
    warm = [statistics.median(col) for col in zip(*untraced[1:] or untraced)]
    density = sum(tracing.density_envelope_evals(*d)
                  for d in tr.deferred["density"])
    phase = sum(tracing.phase_envelope_evals(*d)
                for d in tr.deferred["phase"])
    tau_h = tr.notes.get("tau_H", 0.0)
    m = {
        "harness.self_s": tr.self_time(root),
        "harness.emit_s": busy("harness.emit"),
        "config.load_s": busy("config.load"),
        "scales.compute_s": busy("scales.compute"),
        "lindblad.evolve_s": busy("lindblad.evolve"),
        "lindblad.steps": c["lindblad.steps"],
        "lindblad.step_ms": _ratio(1e3 * busy("lindblad.evolve"),
                                   c["lindblad.steps"]),
        "lindblad.noiseless_step_frac": _ratio(c["lindblad.noiseless_steps"],
                                               c["lindblad.steps"]),
        "lindblad.invariants_s": busy("lindblad.invariants"),
        "lindblad.trace_distance_s": busy("lindblad.trace_distance"),
        "lindblad.wigner_s": busy("lindblad.wigner"),
        "fokker_planck.evolve_s": busy("fokker_planck.evolve"),
        "fokker_planck.steps": c["fokker_planck.steps"],
        "fokker_planck.step_ms": _ratio(1e3 * busy("fokker_planck.evolve"),
                                        c["fokker_planck.steps"]),
        "fokker_planck.cfl_dt_ratio": _ratio(
            tr.notes.get("fokker_planck.dt", 0.0), tau_h / 100.0),
        "fokker_planck.l1_distance_s": busy("fokker_planck.l1_distance"),
        "kernels.advect.calls": c["kernels.advect.calls"],
        "kernels.advect.busy_s": busy("kernels.advect"),
        "kernels.advect.bytes_per_call_computed": _ratio(
            c["kernels.advect.bytes"], c["kernels.advect.calls"]),
        "kernels.advect.gb_s_computed": _ratio(
            c["kernels.advect.bytes"] / 1e9, busy("kernels.advect")),
        "kernels.diffuse.busy_s": busy("kernels.diffuse"),
        "kernels.rasterize_density.busy_s": busy("kernels.rasterize_density"),
        "kernels.rasterize_density.evals":
            c["kernels.rasterize_density.evals"],
        "kernels.rasterize_phase.busy_s": busy("kernels.rasterize_phase"),
        "kernels.rasterize_phase.evals": c["kernels.rasterize_phase.evals"],
        "mixture.evolve_s": busy("mixture.evolve"),
        "mixture.steps": c["mixture.steps"],
        "mixture.particle_steps_per_s": _ratio(c["mixture.particle_steps"],
                                               busy("mixture.evolve")),
        "mixture.spill_count": c["mixture.spill_count"],
        "mixture.to_density_s": busy("mixture.to_density"),
        "mixture.to_phase_s": busy("mixture.to_phase"),
        "mixture.density_envelope_frac": _ratio(
            density, c["kernels.rasterize_density.evals"]),
        "mixture.phase_envelope_frac": _ratio(
            phase, c["kernels.rasterize_phase.evals"]),
        "langevin.sample_s": busy("langevin.sample"),
        "langevin.evolve_s": busy("langevin.evolve"),
        "langevin.particle_steps_per_s": _ratio(c["langevin.particle_steps"],
                                                busy("langevin.evolve")),
        "langevin.histogram_s": busy("langevin.histogram"),
        "rng.stream_normals.calls": c["rng.stream_normals.calls"],
        "rng.stream_normals.busy_s": busy("rng.stream_normals"),
        "rng.normals_per_s": _ratio(c["rng.normals"],
                                    busy("rng.stream_normals")),
        "process.call_cpu_s": cpu_s,
        "process.ref_kernel_s": ref_s,
        "process.call_wall_s": wall_s,
        "process.first_call_s": calls.durations[0],
        "process.user_s": warm[0],
        "process.sys_s": warm[1],
        "process.minor_faults": warm[2],
        "process.first_call_sys_s": untraced[0][1],
        "process.first_call_minor_faults": untraced[0][2],
        "process.copy_gb_s": copy_gb_s,
        "check.headroom": workloads.headroom(calls.workload, calls.values)
        if calls.values else 0.0,
        "trace.overhead_s": traced_s - wall_s,
    }
    for key, metric in RESULTS.items():
        m[metric] = calls.values.get(key, 0.0)
    return m


def run_workload(name, seed, seconds, trace, work_dir) -> int:
    setup_s, cfg = setup_probe.timed_setup(
        name, seed, os.path.join(work_dir, "workload.ini"))
    # imported only now, so that the set-up clock above started before numpy
    import probes
    import tracer as tracing
    import workloads

    env = probes.environment()
    _log("env", json.dumps(env, sort_keys=True))
    setups = [setup_s] + [
        _child_setup(name, seed, os.path.join(work_dir, f"setup-{k}.ini"))
        for k in range(1, SETUP_SAMPLES)]

    calls = Calls(workloads.WORKLOADS[name], cfg, work_dir)
    refs = []      # refs[i]: the reference kernel's CPU time after call i
    start = time.perf_counter()
    while True:
        calls.durations.append(calls.call())
        refs.append(probes.reference_cpu_s())
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(calls.durations) > seconds:
            break
    # The first call of a process runs cold (fresh pages, first-touch
    # faults): it is process.first_call_s, and the medians are of the warm
    # calls.  CPU time leaves out the time the VM's host ran something else
    # on our core (steal), which wall time on a shared host includes.  The
    # host's speed still drifts by +-20 % over minutes; each warm call is
    # rescaled by the reference kernel timed just before and after it.
    cpu_s = statistics.median(calls.cpu[1:] or calls.cpu)
    wall_s = statistics.median(calls.durations[1:] or calls.durations)
    ref_s = statistics.median(refs)
    scaled = [cpu * probes.REF_NOMINAL_S / (0.5 * (before + after))
              for cpu, before, after in zip(calls.cpu[1:], refs, refs[1:])]
    cpu_ref_s = statistics.median(scaled) if scaled \
        else calls.cpu[0] * probes.REF_NOMINAL_S / refs[0]
    _log(f"{name} seed {seed}: {calls.attempted} calls, call_cpu_ref_s "
         f"{cpu_ref_s:.3f} s, CPU {cpu_s:.3f} s, wall {wall_s:.3f} s, "
         f"reference {ref_s:.4f} s, setup samples "
         f"{[round(s, 3) for s in setups]}")

    if not trace:
        metrics = {"call_cpu_ref_s": cpu_ref_s,
                   "setup_s": statistics.median(setups),
                   "peak_rss_mb": probes.peak_rss_mb()}
    else:
        tr = tracing.Tracer()
        with tr:
            setup_probe.timed_setup(name, seed,
                                    os.path.join(work_dir, "traced.ini"))
            with tr.span("run"):
                traced_s = calls.call()
        missing = workloads.missing_spans(calls.workload, tr.fired())
        if missing:
            _log(f"span coverage: {', '.join(missing)} never fired on {name};"
                 " a phasemix name the tracer patches was renamed or "
                 "re-routed, update perfbench/tracer.py")
            return 3
        _write_spans(tr, name, seed, env)
        metrics = _per_layer(tr, calls, traced_s, wall_s, cpu_s, ref_s,
                             probes.copy_bandwidth())
    declared = PER_LAYER if trace else END_TO_END
    result = {"correct": calls.failed == 0, "attempted": calls.attempted,
              "failed": calls.failed,
              "metrics": {k: {"value": float(metrics[k]), "unit": unit}
                          for k, unit in declared}}
    print(json.dumps(result), flush=True)
    return 0


def _write_spans(tr, name, seed, env):
    out = os.path.join(setup_probe.ROOT, ".perfbench_out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{name}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "spans": tr.spans,
                   "counts": tr.counts}, fh)
    _log(f"spans written to {path}")


def run_all(seconds, trace) -> int:
    """Every workload at its default seed, one process each, as a table."""
    status = 0
    for name in inputs.WORKLOADS:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(inputs.default_seed(name)), "--seconds",
             str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, timeout=900)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"{name}: exited with {out.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:40s} {m['value']:14.6g} {m['unit']}")
        print(f"{name:15s} {'failed_frac':40s} "
              f"{result['failed'] / result['attempted']:14.6g} ratio")
        status |= not result["correct"]
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(inputs.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the acceptance test's)")
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for var, value in THREAD_DEFAULTS.items():
        os.environ.setdefault(var, value)
    if not setup_probe.source_present():
        _log(f"no phasemix sources under {setup_probe.SRC}; run from a "
             "checkout of the repository")
        return 2
    if args.workload == "all":
        return run_all(args.seconds, args.trace)
    seed = inputs.default_seed(args.workload) if args.seed is None \
        else args.seed
    work_dir = os.path.join(setup_probe.ROOT, ".perfbench_tmp",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return run_workload(args.workload, seed, args.seconds,
                            bool(args.trace), work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
