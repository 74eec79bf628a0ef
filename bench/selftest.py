"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 bench/selftest.py

Checks that
- every run prints each BENCHMARK.json metric of its mode, with its unit,
  and ends with a well-formed result line;
- a traced pass emits exactly the bytes of an untraced pass, so tracing
  never moves a random draw;
- every attribute the tracer patches is restored afterwards;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
failures = []


def check(ok: bool, message: str) -> None:
    if not ok:
        failures.append(message)
        print(f"FAIL {message}")


def run_bench(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def check_printed_metrics(spec: dict) -> None:
    for name in (w["name"] for w in spec["workloads"]):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            out = run_bench(ROOT, "--workload", name, "--seed", "3",
                            "--seconds", "0", "--trace", trace, "--tiny")
            where = f"{name} --trace {trace}"
            check(out.returncode == 0, f"{where}: exit {out.returncode}\n"
                  + out.stderr)
            lines = out.stdout.strip().splitlines()
            if not lines:
                continue
            result = json.loads(lines[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, f"{where}: result keys")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted, f"{where}: metrics {sorted(got)} != "
                  f"{sorted(wanted)} or units differ")
            for metric, unit in wanted.items():
                check(any(line.startswith(f"metric {metric} = ")
                          and line.endswith(f" {unit}") for line in lines),
                      f"{where}: no printed line for {metric} [{unit}]")


def check_tracing_in_process() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    def snapshot() -> dict:
        table = {}
        for module_name, module in list(sys.modules.items()):
            if spans.is_levyexc(module_name):
                for key, value in vars(module).items():
                    table[(module_name, key)] = value
        for module_name, cls_name, attr, _, _ in spans.METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            table[(cls_name, attr)] = cls.__dict__[attr]
        return table

    before = snapshot()
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for name, workload in workloads.WORKLOADS.items():
            sizes = workloads.TINY[name]
            plain = workloads.Runner(tmp)
            workload.run(plain, 5, sizes)
            tracer = spans.Tracer()
            traced = workloads.Runner(tmp, tracer)
            with tracer.installed():
                workload.run(traced, 5, sizes)
            check(plain.result.digest.hexdigest()
                  == traced.result.digest.hexdigest(),
                  f"{name}: traced output differs from untraced output")
            check(all(o.sound for o in traced.result.outcomes),
                  f"{name}: wrong output under tracing")
            check(sum(tracer.calls.values()) > 0,
                  f"{name}: the tracer saw no calls")
    after = snapshot()
    moved = [k for k in before if after.get(k) is not before[k]]
    check(not moved, f"attributes not restored: {moved}")
    check(not spans.leftover_wrappers(),
          f"wrappers left behind: {spans.leftover_wrappers()}")


def check_bare_directory() -> None:
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(bare, "--workload", "verify_shipped", "--seed", "1",
                        "--seconds", "1", "--trace", "0")
        check(out.returncode != 0, "bare directory: exit code 0")
        check(out.stdout.strip() == "", "bare directory: printed a result")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_bare_directory()
    check_tracing_in_process()
    check_printed_metrics(spec)
    print("selftest: " + ("ok" if not failures else
                          f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
