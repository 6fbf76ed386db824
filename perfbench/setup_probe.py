"""One set-up, measured from a fresh interpreter.

Usage: ``python3 setup_probe.py <repo root> <config> [<preset>]``

Imports ``dropfresh`` from ``<repo root>/src``, resolves the config (with the
preset overlaid, if given), loads or generates its dataset once, and prints
the ``time.monotonic()`` reading at which all that was done. The parent reads
the same clock before it starts this process.
"""
import sys
import time


def main(argv: list[str]) -> None:
    root, config_path, *preset = argv
    sys.path.insert(0, f"{root}/src")
    from dropfresh import config, harness

    values = config.read_config_file(config_path)
    if preset:
        values = config.apply_preset(values, preset[0])
    cfg = config.build_experiment_config(values)
    harness.load_dataset(cfg.data, cfg.run_seed)
    print(repr(time.monotonic()))


if __name__ == "__main__":
    main(sys.argv[1:])
