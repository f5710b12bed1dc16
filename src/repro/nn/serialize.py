"""Binary (.npz) and JSON serialization for networks.

``.npz`` is the fast internal cache format for trained ACAS networks;
JSON is the human-inspectable interchange option.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .network import Network


def save_npz(network: Network, path: str | Path) -> None:
    """Save a network's parameters to a compressed ``.npz`` file."""
    arrays: dict[str, np.ndarray] = {}
    for i, (w, b) in enumerate(zip(network.weights, network.biases)):
        arrays[f"w{i}"] = w
        arrays[f"b{i}"] = b
    np.savez_compressed(path, num_layers=np.array(len(network.weights)), **arrays)


def load_npz(path: str | Path) -> Network:
    """Load a network saved by :func:`save_npz`. The file is opened
    here, so it is closed even when the archive does not parse."""
    with open(path, "rb") as handle, np.load(handle) as data:
        num_layers = int(data["num_layers"])
        weights = [data[f"w{i}"] for i in range(num_layers)]
        biases = [data[f"b{i}"] for i in range(num_layers)]
    return Network(weights, biases)


def save_json(network: Network, path: str | Path) -> None:
    """Save a network as JSON (weights nested lists, row major)."""
    payload = {
        "layer_sizes": network.layer_sizes,
        "weights": [w.tolist() for w in network.weights],
        "biases": [b.tolist() for b in network.biases],
    }
    with open(path, "w") as out:
        json.dump(payload, out)


def load_json(path: str | Path) -> Network:
    """Load a network saved by :func:`save_json`."""
    with open(path) as handle:
        payload = json.load(handle)
    return Network(
        [np.array(w, dtype=float) for w in payload["weights"]],
        [np.array(b, dtype=float) for b in payload["biases"]],
    )
