"""Byte-identity digest of the romuq command-line flow.

Runs a fixed small Hopf flow and a fixed small KS flow,
generate -> train -> infer -> uq -> adapt -> report, each command as its
own ``python -m romuq.cli`` process on the package in this checkout's
``src/``. Every command runs in one temporary directory (``mkdtemp``,
fixed-length name) with relative paths, so no output depends on where the
checkout or the temporary directory lives. Then it runs documented error
exits against the flow's outputs.

It prints ``sha256  relative/path`` for every file the flows wrote, then
each error case's exit code, its stderr and whether it created its
``--out``. Two checkouts that behave the same print the same lines, so a
``diff`` of two runs shows every changed output:

    python3 tools/flow_digest.py > before.txt   # in one checkout
    python3 tools/flow_digest.py > after.txt    # in the other
    diff before.txt after.txt

It exits 1 when a flow command fails or an error case exits 0. The whole
run takes about 11 s (2-core x86 machine, one BLAS thread).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

MODEL = {
    "vae": {"latent_dim": 2, "hidden": [16], "embed_dim": 3},
    "transformer": {"lookback": 4, "horizon": 2, "width": 8, "heads": 2, "blocks": 1},
    "training": {"epochs": 2, "batch_size": 8, "retrain_epochs": 1},
    "uq": {"ensemble_n": 4},
}
FLOWS = {
    "hopf": {"config": {"datagen": {"case": "hopf", "n_x": 16, "dt": 0.1, "n_t": 40},
                        "adaptive": {"budget": 1,
                                     "grid": [{"mu": v, "omega": 1.0} for v in (-0.1, 0.2, 0.4)]},
                        **MODEL, "seed": 3},
             "sweep": "mu=0.2,0.4", "infer": "hopf_mu0.4.updr"},
    "ks": {"config": {"datagen": {"case": "ks", "n_x": 16, "dt": 0.05, "n_t": 40},
                      "adaptive": {"budget": 1,
                                   "grid": [{"ks_nu": v} for v in (0.8, 1.0, 1.2)]},
                      **MODEL, "seed": 4},
           "sweep": "nu=1,1.2", "infer": "ks_nu1.updr"},
}


def flow_commands(case: str, sweep: str, infer: str) -> list:
    cfg, ck, data = f"{case}/config.json", f"{case}/train/checkpoint", f"{case}/data"
    return [
        ["generate", "--config", cfg, "--sweep", sweep, "--out", data],
        ["train", "--config", cfg, "--data", data, "--out", f"{case}/train"],
        ["infer", "--checkpoint", ck, "--data", f"{data}/{infer}", "--out", f"{case}/infer"],
        ["uq", "--checkpoint", ck, "--data", f"{data}/{infer}", "--n", "4", "--seed", "1",
         "--out", f"{case}/uq"],
        ["adapt", "--config", cfg, "--checkpoint", ck, "--data", data,
         "--out", f"{case}/adapt"],
        ["report", "--out", case],
    ]


def romuq(work: Path, args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-m", "romuq.cli", *args], cwd=work, env=env,
                          capture_output=True, text=True)


def make_error_inputs(work: Path):
    """Broken copies of the Hopf flow's outputs, impossible configs, and Hopf
    files at the checkpoint's fitted dt (twice the flow's) and at n_t 3,
    under errors/."""
    err = work / "errors"
    err.mkdir()
    (err / "n_t0.json").write_text(json.dumps({"datagen": {"case": "hopf", "n_t": 0}}))
    (err / "lr0.json").write_text(json.dumps({"training": {"lr": 0}}))
    (err / "n_x48.json").write_text(json.dumps({"datagen": {"case": "ks", "n_x": 48}}))
    (err / "amplitude0.json").write_text(json.dumps(
        {"datagen": {"case": "hopf", "init_amplitude": 0}}))
    hopf = FLOWS["hopf"]["config"]
    for name, change in (("dt02", {"dt": 2 * hopf["datagen"]["dt"]}), ("n_t3", {"n_t": 3})):
        (err / f"{name}.json").write_text(json.dumps(
            dict(hopf, datagen=dict(hopf["datagen"], **change))))
        proc = romuq(work, ["generate", "--config", f"errors/{name}.json",
                            "--sweep", FLOWS["hopf"]["sweep"], "--out", f"errors/{name}"])
        if proc.returncode != 0:
            raise RuntimeError(f"generating errors/{name} exited {proc.returncode}:\n"
                               f"{proc.stderr}")
    raw = (work / "hopf/data/hopf_mu0.4.updr").read_bytes()
    (err / "truncated.updr").write_bytes(raw[:-100])
    for name in ("v1", "flipped"):
        shutil.copytree(work / "hopf/train/checkpoint", err / name)
    manifest = json.loads((err / "v1/manifest.json").read_text())
    manifest["format_version"] = 1
    (err / "v1/manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True))
    weights = bytearray((err / "flipped/weights.bin").read_bytes())
    weights[0] ^= 1
    (err / "flipped/weights.bin").write_bytes(bytes(weights))


ERROR_CASES = [
    ("a negative --seed",
     ["generate", "--case", "hopf", "--sweep", "mu=0.1", "--seed", "-1",
      "--out", "errors/out_seed"]),
    ("a missing --data directory",
     ["train", "--config", "hopf/config.json", "--data", "errors/missing",
      "--out", "errors/out_missing"]),
    ("a truncated .updr",
     ["infer", "--checkpoint", "hopf/train/checkpoint", "--data", "errors/truncated.updr",
      "--out", "errors/out_truncated"]),
    ("a manifest at format_version 1",
     ["infer", "--checkpoint", "errors/v1", "--data", "hopf/data/hopf_mu0.4.updr",
      "--out", "errors/out_v1"]),
    ("a bit flip in weights.bin",
     ["infer", "--checkpoint", "errors/flipped", "--data", "hopf/data/hopf_mu0.4.updr",
      "--out", "errors/out_flipped"]),
    ("datagen.n_t 0",
     ["generate", "--config", "errors/n_t0.json", "--sweep", "mu=0.1",
      "--out", "errors/out_n_t0"]),
    ("training.lr 0",
     ["train", "--config", "errors/lr0.json", "--data", "hopf/data",
      "--out", "errors/out_lr0"]),
    ("adapt on files at the checkpoint's fitted dt",
     ["adapt", "--config", "errors/dt02.json", "--checkpoint", "hopf/train/checkpoint",
      "--data", "errors/dt02", "--out", "errors/out_dt02"]),
    ("a non-finite sweep value",
     ["generate", "--case", "hopf", "--sweep", "mu=nan", "--out", "errors/out_nan"]),
    ("two sweep values that write one file",
     ["generate", "--case", "hopf", "--sweep", "mu=0.1234567,0.1234568",
      "--out", "errors/out_collide"]),
    ("adapt --budget 0",
     ["adapt", "--config", "hopf/config.json", "--checkpoint", "hopf/train/checkpoint",
      "--data", "hopf/data", "--budget", "0", "--out", "errors/out_budget0"]),
    ("train on files generated at n_t 3",
     ["train", "--config", "errors/n_t3.json", "--data", "errors/n_t3",
      "--out", "errors/out_train_n_t3"]),
    ("infer on a file no longer than the lookback",
     ["infer", "--checkpoint", "hopf/train/checkpoint", "--data", "errors/n_t3/hopf_mu0.4.updr",
      "--out", "errors/out_infer_n_t3"]),
    ("datagen.n_x 48 for case ks",
     ["generate", "--config", "errors/n_x48.json", "--sweep", "nu=1", "--out", "errors/out_n_x48"]),
    ("a negative ks nu",
     ["generate", "--case", "ks", "--sweep", "nu=-1", "--out", "errors/out_nu"]),
    ("datagen.init_amplitude 0",
     ["generate", "--config", "errors/amplitude0.json", "--sweep", "mu=0.1",
      "--out", "errors/out_amplitude0"]),
]


def main() -> int:
    work = Path(tempfile.mkdtemp(prefix="flow_digest_"))
    try:
        for case, flow in FLOWS.items():
            (work / case).mkdir()
            (work / case / "config.json").write_text(json.dumps(flow["config"]))
            for args in flow_commands(case, flow["sweep"], flow["infer"]):
                proc = romuq(work, args)
                if proc.returncode != 0:
                    print(f"romuq {' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
                    return 1
        for path in sorted(p for case in FLOWS for p in (work / case).rglob("*") if p.is_file()):
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            print(f"{digest}  {path.relative_to(work).as_posix()}")
        make_error_inputs(work)
        failed = False
        for what, args in ERROR_CASES:
            proc = romuq(work, args)
            created = (work / args[args.index("--out") + 1]).exists()
            print(f"# error case: {what}: romuq {' '.join(args)}")
            print(f"exit {proc.returncode}; --out created: {'yes' if created else 'no'}")
            print(f"stderr: {proc.stderr.strip()}")
            failed |= proc.returncode == 0
        return 1 if failed else 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
