"""Times one cold set-up in a fresh interpreter and prints it in seconds:
importing bedl (and its CLI), loading the training file, splitting and
standardizing it, and building the network, i.e. everything ``bedl train``
does before its first optimizer step.

Usage: python3 perfbench/setup_probe.py WORKLOAD DATA_DIR SEED [--smoke]
"""

import sys
import time

t0 = time.perf_counter()

from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import bedl.cli  # noqa: E402,F401  the CLI's imports are part of what a user waits for
import numpy as np  # noqa: E402

import workloads as W  # noqa: E402


def main() -> None:
    name, data_dir, seed = sys.argv[1], Path(sys.argv[2]), int(sys.argv[3])
    smoke = "--smoke" in sys.argv[4:]
    w = W.WORKLOADS[name]
    mods = W.bedl_modules()
    _, _, specs = W.load_train_set(w, mods, data_dir, 0, seed)
    cfg = W.config_for(w, mods, seed, smoke)
    mods["layers"].build_network(specs, np.random.default_rng(cfg.seed),
                                 log_var_mean=cfg.init.log_var_mean,
                                 log_var_var=cfg.init.log_var_var)
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main()
