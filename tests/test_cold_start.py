"""What a fresh interpreter loads: scipy only once an SGD run needs its expit."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import hetsgd
from hetsgd.cli import main as cli_main

CONFIG = {
    "problem": {"loss": "logistic", "lam": 0.01},
    "data": {"kind": "synthetic", "d": 4, "n": 240, "flip_rate": 0.1},
    "oracles": {"kind": "local_dp", "epsilon_clean": 10.0, "epsilon_noisy": 2.0,
                "batch_size": 10},
    "beta_c": 0.25,
    "trials": 1,
    "master_seed": 42,
    "c_grid": [50.0, 100.0],
}

# After each step, whether scipy.special is loaded; the planning commands print their JSON
# first, so the answer is the last line.
PROBE = textwrap.dedent("""
    import json
    import sys

    def loaded():
        return "scipy.special" in sys.modules

    config, out_dir = sys.argv[1:]
    seen = {}
    import hetsgd
    seen["import"] = loaded()
    from hetsgd.cli import main
    main(["select-rates", "--lam", "1e-3", "--beta-c", "0.1", "--epsilon-clean", "10",
          "--epsilon-noisy", "2", "--dim", "10"])
    seen["select-rates"] = loaded()
    main(["noise-level", "--kind", "dp", "--epsilon", "2", "--dim", "10"])
    seen["noise-level"] = loaded()
    hetsgd.ExperimentConfig.from_json(config)
    seen["config"] = loaded()
    main(["order-exp", "--config", config, "--out-dir", out_dir])
    seen["driver"] = loaded()
    print(json.dumps(seen))
""")


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_scipy_loads_only_for_a_driver_run(flags, tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(CONFIG))
    src = str(Path(hetsgd.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, *flags, "-c", PROBE, str(config), str(tmp_path / "fresh")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "import": False, "select-rates": False, "noise-level": False, "config": False,
        "driver": True}
    # Loading expit late changes no byte: the fresh run's CSV is this process's.
    assert cli_main(["order-exp", "--config", str(config), "--out-dir",
                     str(tmp_path / "here")]) == 0
    assert (tmp_path / "fresh" / "results.csv").read_bytes() == \
        (tmp_path / "here" / "results.csv").read_bytes()
