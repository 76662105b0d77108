"""Write expected.json: facts of every default-seed command, from this checkout.

    python3 perfbench/freeze.py

Run it only on the commit whose answers the benchmark should hold later
commits to; the file also lists the default seed's concrete commands.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
from layers import in_process  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def main() -> int:
    frozen = {"seed": checks.DEFAULT_SEED, "verify_checks": None, "commands": {}}
    for workload in WORKLOADS:
        table = frozen["commands"][workload] = {}
        for cmd in generate(workload, checks.DEFAULT_SEED):
            _, code, out = in_process(cmd)
            if code != 0:
                raise SystemExit(f"{cmd.text}: exit code {code}")
            report = json.loads(out)
            table[cmd.text] = checks.facts(cmd, report)
            if cmd.kind == "verify":
                frozen["verify_checks"] = {s["name"]: s["checks"] for s in report["result"]["suites"]}
    checks.EXPECTED_FILE.write_text(json.dumps(frozen, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
