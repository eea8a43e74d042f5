"""The committed RunResult goldens: one digest rule and one writer.

A golden file maps a run's key to the cycles, the instructions and the
sha256 digest of the run's canonical RunResult dict, plus a ``_note`` that
names the script regenerating it.  Each ``regen_golden_*.py`` script lists
its runs and hands them to :func:`regenerate`.  Regenerate ONLY after an
intentional architectural-model change (latencies, cache geometry, DSA
policy, energy inputs...) — never to paper over an identity failure you
can't explain.
"""

import hashlib
import json
from collections.abc import Callable
from pathlib import Path


def canonical(d: dict) -> str:
    return json.dumps(d, sort_keys=True)


def digest(d: dict) -> str:
    """sha256 of a RunResult dict's canonical JSON."""
    return hashlib.sha256(canonical(d).encode()).hexdigest()


def regenerate(path: Path, note: str, runs: dict[str, Callable[[], dict]]) -> None:
    """Run every ``key -> RunResult dict`` thunk and write the golden file."""
    golden: dict = {"_note": note}
    for key, run in runs.items():
        d = run()
        golden[key] = {
            "cycles": d["cycles"],
            "instructions": d["instructions"],
            "digest": digest(d),
        }
    path.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path} ({len(golden) - 1} entries)")
