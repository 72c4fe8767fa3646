"""Time one set-up in a fresh process: import lrcl and build the stream once.

    python3 bench/setup_probe.py SRC_DIR CONFIG SEED

Prints the seconds taken, from just before ``import lrcl`` until
``ExperimentConfig.build_stream`` returns.
"""

import sys
import time


def main() -> None:
    src, config, seed = sys.argv[1], sys.argv[2], int(sys.argv[3])
    sys.path.insert(0, src)
    start = time.perf_counter()
    from lrcl.cli import load_experiment_config

    load_experiment_config(config).build_stream(seed)
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
