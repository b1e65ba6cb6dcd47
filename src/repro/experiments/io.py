"""JSON persistence for campaigns.

Campaigns can take a while; persisting the raw :class:`InstanceResult`
records lets tables/figures be rebuilt, re-sliced or compared across runs
without re-simulating.  The format is plain JSON so results can be inspected
or post-processed with any external tooling.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Sequence, Union

from repro.exceptions import ExperimentError
from repro.experiments.runner import InstanceResult

__all__ = ["save_results", "load_results"]

#: Version of the raw result-list payload.
RESULTS_FORMAT_VERSION = 1


def save_results(
    results: Sequence[InstanceResult], path: Union[str, Path], *, label: str = "campaign"
) -> Path:
    """Write a raw list of instance results as JSON.

    The payload is just the labelled record list, suitable for multi-``m``
    campaigns and for feeding external tooling.
    """
    path = Path(path)
    payload = {
        "format_version": RESULTS_FORMAT_VERSION,
        "kind": "results",
        "label": label,
        "results": [result.as_dict() for result in results],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2))
    return path


def load_results(path: Union[str, Path]) -> List[InstanceResult]:
    """Load a raw result list previously written by :func:`save_results`."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise ExperimentError(f"cannot load results from {path}: {error}") from error
    if payload.get("kind") != "results" or payload.get("format_version") != RESULTS_FORMAT_VERSION:
        raise ExperimentError(f"{path} is not a raw results payload")
    return [InstanceResult.from_dict(entry) for entry in payload["results"]]
