"""Record the cli-cold goldens: stdout of every fixed command variant.

Run from the repository root at the commit whose output is the reference:

    python3 perfbench/record_goldens.py

It writes perfbench/goldens.json. Every command must exit with code 0.
"""

import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402


def record(argv):
    done = subprocess.run(
        workloads.cli_command(argv), env=workloads.child_env(), cwd=workloads.ROOT,
        capture_output=True, timeout=120,
    )
    if done.returncode != 0:
        raise SystemExit(f"{argv}: exit code {done.returncode}\n{done.stdout.decode()}{done.stderr.decode()}")
    return {"argv": list(argv), "stdout": done.stdout.decode("utf-8")}


def main():
    goldens = {"help": record(workloads.HELP_ARGV)}
    for slot, variants in workloads.CLI_VARIANTS.items():
        for index, argv in enumerate(variants):
            goldens[workloads.golden_key(slot, index)] = record(argv)
    with open(workloads.GOLDENS, "w", encoding="utf-8") as handle:
        json.dump(goldens, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"recorded {len(goldens)} goldens in {os.path.relpath(workloads.GOLDENS, workloads.ROOT)}")


if __name__ == "__main__":
    main()
