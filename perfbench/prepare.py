"""One-off preparation, outside all timing: fill the benchmark's bank
cache from the committed networks and generate the paper bank's
gitignored ``tables.npz`` there, so no measured set-up ever generates
tables or trains a network.

    PYTHONPATH=src python3 perfbench/prepare.py CACHE_DIR
"""

import shutil
import sys
from pathlib import Path

from repro.acasxu import PAPER_SCENARIO, TINY_SCENARIO, load_or_train_networks
from repro.acasxu.mdp import NUM_ADVISORIES


def main() -> int:
    cache = Path(sys.argv[1])
    for scenario in (TINY_SCENARIO, PAPER_SCENARIO):
        key = f"{scenario.table_config.key()}-{scenario.network_config.key()}"
        committed, bank = Path(".cache") / key, cache / key
        bank.mkdir(parents=True, exist_ok=True)
        for name in [f"network_{i}.npz" for i in range(NUM_ADVISORIES)] + ["tables.npz"]:
            if (committed / name).is_file() and not (bank / name).is_file():
                shutil.copyfile(committed / name, bank / name)
        missing = [i for i in range(NUM_ADVISORIES) if not (bank / f"network_{i}.npz").is_file()]
        if missing:
            print(f"error: networks {missing} of bank {key} are not committed under .cache/; "
                  "refusing to train them", file=sys.stderr)
            return 2
        load_or_train_networks(scenario.table_config, scenario.network_config, cache_dir=cache)
    (cache / "prepared").touch()
    return 0


if __name__ == "__main__":
    sys.exit(main())
