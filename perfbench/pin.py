"""Record ``pinned.json``: input digests, mutate/truncate arguments, job outputs.

    python3 perfbench/pin.py

Run it only at a commit whose outputs are known to be right: every later
benchmark run compares against what it writes.  The arguments are the
first cut (in enumeration order) that has a strict source, resp. a strict
sink, with its smallest such vertex, and the first cut for 'truncate'.
"""

from __future__ import annotations

import json
import sys

import bootstrap

bootstrap.use_checkout_source()

import catalogue  # noqa: E402
import harness  # noqa: E402
from quivercuts import enumerate_cuts, parse_quiver_document, strict_sinks, strict_sources  # noqa: E402


def mutation_arguments(text: str) -> dict:
    q = parse_quiver_document(text).qwc
    cuts = enumerate_cuts(q)
    found = {"truncate": ",".join(sorted(cuts[0]))}
    for direction, strict in (("plus", strict_sources), ("minus", strict_sinks)):
        for cut in cuts:
            vertices = strict(q, cut)
            if vertices:
                found[direction] = [",".join(sorted(cut)), min(vertices)]
                break
    return found


def main() -> int:
    pinned: dict = {"documents": {}, "arguments": {}, "jobs": {}}
    for workload in catalogue.WORKLOADS:
        documents, _ = harness.build_documents(workload, {"documents": {}})
        for name, text in documents.items():
            pinned["documents"][name] = harness.digest(text)
            if workload == "inspect" and name not in catalogue.CANVASES:
                pinned["arguments"][name] = mutation_arguments(text)
        for job in catalogue.catalogue(workload, pinned["arguments"]):
            _, results = harness.run_job(job, documents)
            pinned["jobs"][job.id] = harness.record(results)
            headline = catalogue.HEADLINES.get(job.id)
            if headline is not None and not headline(results[-1][1]):
                print(f"headline value fails: {job.id}", file=sys.stderr)
                return 1
        print(f"{workload}: {len(documents)} documents pinned", file=sys.stderr)
    catalogue.PINNED_PATH.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
