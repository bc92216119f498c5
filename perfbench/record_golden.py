"""Records ``golden.json``: the answers of the golden corpus at one commit.

    python3 perfbench/record_golden.py

The golden records pin the program's output at the commit named in
``PROGRAM`` below, so that a later change to that output is caught as a
wrong answer instead of being absorbed. The script therefore refuses to run
unless the sources in ``src/cographctl`` are exactly those of that commit;
it exists only to rebuild the records should the golden corpus itself (the
generators in this directory) have to change. For each workload it runs
the corpus built from seed 0 and keeps the exit code and a sha256 of the
stdout of every request that passes its checks; requests that fail at that
commit get no record.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile

import check
import run
import worker
import workloads

# The commit the records belong to, and the sha256 of its program sources
# as ``run.source_digest`` computes it.
PROGRAM = {
    "git_revision": "591fa8f4260c4ec5516738917b603e3b64022268",
    "source_sha256": "1205ff9fb210df213907a6209b4d4f1397579c948ca340334bf3abbcfae87aed",
}


def main() -> int:
    digest = run.source_digest()
    if digest != PROGRAM["source_sha256"]:
        return run.fail(f"the sources in {run.SRC} are not those of {PROGRAM['git_revision']} "
                        f"(sha256 {digest}); golden answers are recorded only there")
    cli = worker.load_program(run.SRC)
    records = {}
    os.makedirs(run.OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="golden-", dir=run.OUT) as workdir:
        for name in workloads.WORKLOADS:
            kept, skipped = {}, 0
            for request in workloads.build(name, run.GOLDEN_SEED, workdir, prefix="g-"):
                result, out, err, _ = worker.call(cli, request["argv"])
                if isinstance(result, type) or check.check(request, result, out, err):
                    skipped += 1
                    continue
                kept[request["id"]] = {"exit": result, "sha256": run.golden_digest(out)}
            records[name] = {"seed": run.GOLDEN_SEED, "requests": kept}
            print(f"{name}: {len(kept)} recorded, {skipped} failing at this commit")
    with open(run.GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({"recorded_at": PROGRAM, "workloads": records}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
