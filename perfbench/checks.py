"""Correctness gate: every result must equal the per-bit engine's.

Each spec's :meth:`~repro.experiments.runner.ExperimentResult.to_dict`
is hashed and compared with the digest of the same spec run on
``engine="bit"``.  The per-bit digests of the default seed's specs are
pinned in ``reference.json``; any other spec's digest is computed once
per invocation.  A mismatch is a failed operation.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional, Sequence

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference.json")


def _sha(data: Any) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def result_digest(result: Any) -> str:
    return _sha(result.to_dict())


def content_id(spec: Any) -> str:
    """Identity of what a spec simulates: its dict minus the display
    label and the engine choice."""
    data = spec.to_dict()
    data.pop("label", None)
    data.pop("engine", None)
    return _sha(data)


def load_pinned(path: str = REFERENCE_PATH) -> Dict[str, str]:
    try:
        with open(path, encoding="utf-8") as handle:
            return dict(json.load(handle)["digests"])
    except FileNotFoundError:
        return {}


class Reference:
    """Per-bit-engine result digests, pinned or computed on demand."""

    def __init__(self, pinned: Optional[Dict[str, str]] = None) -> None:
        self._digests: Dict[str, str] = dict(pinned or {})
        self.computed = 0

    def digest(self, spec: Any) -> str:
        key = content_id(spec)
        digest = self._digests.get(key)
        if digest is None:
            bit_spec = dataclasses.replace(spec, engine="bit", label=None)
            digest = self._digests[key] = result_digest(bit_spec.run())
            self.computed += 1
        return digest

    def mismatches(self, specs: Sequence[Any],
                   results: Sequence[Optional[Any]]) -> List[str]:
        """Names of the specs whose result is missing or differs."""
        return [spec.name for spec, result in zip(specs, results)
                if result is None or result_digest(result) != self.digest(spec)]


def pin(specs: Iterable[Any], path: str = REFERENCE_PATH) -> int:
    """Write the per-bit digests of ``specs`` to the pinned reference."""
    reference = Reference()
    digests = {content_id(spec): reference.digest(spec) for spec in specs}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"engine": "bit", "digests": dict(sorted(digests.items()))},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return len(digests)
