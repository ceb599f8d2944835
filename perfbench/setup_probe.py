"""Set-up time of one workload, from before `import phasemix` to the first
solver call: the import, writing the generated INI, `load_config` on it and
`compute_scales`.

`run.py` imports `timed_setup` for its own set-up and also runs this file as
a fresh interpreter, once per extra sample, because the import can be timed
only once per process:

    python3 perfbench/setup_probe.py <workload> <seed> <ini-path>

prints the seconds taken.  Only the standard library is imported before the
clock starts.
"""

import os
import sys
import time

import inputs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def source_present() -> bool:
    """The benchmark runs only against the checkout's own sources."""
    return os.path.isfile(os.path.join(SRC, "phasemix", "__init__.py"))


def timed_setup(name: str, seed: int, ini_path: str):
    """Returns (seconds, config) for one set-up of `name`."""
    t0 = time.perf_counter()
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import phasemix
    if not os.path.abspath(phasemix.__file__).startswith(SRC + os.sep):
        raise ImportError(f"phasemix imported from {phasemix.__file__}, "
                          f"not from {SRC}")
    with open(ini_path, "w", encoding="utf-8") as fh:
        fh.write(inputs.make_ini(name, seed))
    cfg = phasemix.load_config(ini_path)
    model = cfg.build_model()
    phasemix.compute_scales(model, cfg.build_diffusion(model))
    return time.perf_counter() - t0, cfg


if __name__ == "__main__":
    seconds, _ = timed_setup(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    print(repr(seconds))
