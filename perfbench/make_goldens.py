"""Write perfbench/goldens.json from the current source tree.

    python3 perfbench/make_goldens.py

Runs every benchmark and smoke job once, in seed-0 order, and stores the
group-bearing fields of each report.  Refuses to write if any job fails
or if a compare job's pipelines disagree.
"""

import json
import sys

from run import GOLDENS, golden_view, load_cli
from workloads import SMOKE, WORKLOADS


def main():
    cli = load_cli()
    goldens = {}
    for jobs in list(WORKLOADS.values()) + list(SMOKE.values()):
        for job in jobs:
            report, ok = cli.run(cli.parse(job.text()), job.command)
            if not ok:
                sys.exit(f"{job.name}: ok=False: {report}")
            if job.command == "compare" and report.get("all_agree") is not True:
                sys.exit(f"{job.name}: pipelines disagree: {report['agree']}")
            goldens[job.name] = golden_view(report)
            print(job.name, "ok", flush=True)
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
