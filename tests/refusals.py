"""The fixed small Hopf and KS flows of the romuq command line, and every
refusal of the command line that files and configs can bring about, in one
table.

A ``Refusal`` holds a command line whose paths are relative to one work
directory, the exit code, a fragment of the message and whether ``--out``
may exist afterwards. ``make_error_inputs(work)`` builds every input the
table reads under ``work/errors``, on top of the Hopf flow's ``generate``
and ``train`` outputs in ``work/hopf``. ``run_cli(argv)`` runs one command
in this process, in the current directory, and returns its exit code and
stderr; tests/test_cli.py and tools/flow_digest.py run every case through
it, each in its own work directory.

A case's id names the test of tests/test_cli.py that runs it:
``name[param]/detail`` runs in ``test_name[param]`` and ``name/detail`` in
``test_name``, in table order. A new refusal is one entry here and its
bullet under "Exit codes" in the README.
"""

from __future__ import annotations

import json
import math
import shlex
import struct
import traceback
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from click.testing import CliRunner

from romuq.cli import main
from romuq.datagen import ParamPoint, read_trajectory, write_trajectory
from romuq.training import ModelCheckpoint

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


def flow_commands(case: str) -> list:
    """generate -> train -> infer -> uq -> adapt -> report for ``FLOWS[case]``,
    whose config is ``<case>/config.json``."""
    sweep, infer = FLOWS[case]["sweep"], FLOWS[case]["infer"]
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


def run_cli(argv: list) -> tuple:
    """(exit code, stderr) of ``romuq argv`` run in this process. An exception
    ``EXIT_CODES`` does not map exits 1 and appends its traceback to stderr,
    as a ``romuq`` process prints it."""
    res = CliRunner().invoke(main, argv)
    stderr = res.stderr
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        stderr += "".join(traceback.format_exception(*res.exc_info))
    return res.exit_code, stderr


HOPF = FLOWS["hopf"]["config"]
CFG, DATA, CKPT = "hopf/config.json", "hopf/data", "hopf/train/checkpoint"
TRAJ = f"{DATA}/hopf_mu0.2.updr"  # the first file of the flow's data


@dataclass(frozen=True)
class Refusal:
    id: str
    args: str  # after ``romuq``, split as a shell would; ``--out out/<id>`` unless given
    code: int
    message: str
    out_may_exist: bool = False

    @property
    def argv(self) -> list:
        argv = shlex.split(self.args)
        return argv if "--out" in argv else [*argv, "--out", f"out/{self.id}"]

    @property
    def out(self) -> str:
        return self.argv[self.argv.index("--out") + 1]

    def differences(self, code: int, output: str, out_exists: bool) -> list:
        """What of a run's exit code, output and ``--out`` the table does not expect."""
        return [what for what, differs in (
            (f"exit {code}, expected {self.code}", code != self.code),
            (f"the output lacks {self.message!r}", self.message not in output),
            (f"{self.out} was created", out_exists and not self.out_may_exist)) if differs]


CONFIGS = {}  # path -> the text make_error_inputs writes there


def config(name: str, content) -> str:
    """``errors/<name>.json``, which holds ``content``: JSON text or an object."""
    path = f"errors/{name}.json"
    CONFIGS[path] = content if isinstance(content, str) else json.dumps(content)
    return path


def hopf(**sections) -> dict:
    """The Hopf flow's config with each of ``sections`` merged into its own."""
    return {**HOPF, **{k: {**HOPF.get(k, {}), **v} if isinstance(v, dict) else v
                       for k, v in sections.items()}}


def _payload(good: bytes) -> int:
    """Where the float32 states of the .updr file ``good`` start."""
    n_t, n_xy = struct.unpack("<QQ", good[8:24])
    return len(good) - 4 - 4 * n_t * n_xy


def _mu(good: bytes) -> int:
    """Where the value after the parameter name ``mu`` starts."""
    return good.index(b"\x02\x00mu") + 4


def _with_crc(body: bytes) -> bytes:
    """``body`` with its trailing checksum recomputed."""
    return body[:-4] + struct.pack("<I", zlib.crc32(body[:-4]))


# name: (the flow's first .updr file changed, what each refusal of it says);
# ``{path}`` is the changed file
MALFORMED_UPDR = {
    "truncated": (lambda g: g[:-4], "truncated trajectory file {path}: needs 4 more bytes, "
                                    "has 0"),
    "truncated_payload": (lambda g: g[:-100], "truncated trajectory file {path}"),
    "trailing": (lambda g: g + b"\0", "trailing bytes after the checksum in {path}"),
    "huge_n_t": (lambda g: g[:8] + (2 ** 62).to_bytes(8, "little") + g[16:],
                 "truncated trajectory file {path}"),
    # a float32 signalling NaN in the last state, before the checksum
    "nan_payload": (lambda g: g[:-8] + b"\x01\x00\x80\x7f" + g[-4:],
                    "non-finite states in {path}"),
    "one_step": (lambda g: g[:8] + (1).to_bytes(8, "little") + g[16:_payload(g) + 4 * 16]
                 + g[-4:], "states must be (n_t>=2, n_xy>=1), got (1, 16) in {path}"),
    "nan_mu": (lambda g: g[:_mu(g)] + struct.pack("<d", float("nan")) + g[_mu(g) + 8:],
               "non-finite parameter mu=nan in {path}"),
    "zero_width": (lambda g: g[:16] + (0).to_bytes(8, "little") + g[24:_payload(g)] + g[-4:],
                   "states must be (n_t>=2, n_xy>=1), got (40, 0) in {path}"),
    "bad_name": (lambda g: g[:_mu(g) - 2] + b"\xffu" + g[_mu(g):],
                 "parameter name b'\\xffu' is not UTF-8 in {path}"),
    # omega renamed mu, with a valid checksum: only the name check can refuse it
    "dup_name": (lambda g: _with_crc(g.replace(b"\x05\x00omega", b"\x02\x00mu")),
                 "parameter 'mu' is named twice in {path}"),
}
BAD_HEADER_UPDR = {
    # format 1: version 1, no length after dt, no checksum
    "format_1": (lambda g: g[:4] + struct.pack("<I", 1) + g[8:32] + g[40:-4],
                 "unsupported format version 1 in {path}"),
    "zero_dt": (lambda g: g[:24] + struct.pack("<d", 0.0) + g[32:],
                f"dt 0.0 and length {2 * math.pi} must be finite and positive in {{path}}"),
    "nan_length": (lambda g: g[:32] + struct.pack("<d", float("nan")) + g[40:],
                   "dt 0.1 and length nan must be finite and positive in {path}"),
    # the last mantissa bit of a state
    "flipped": (lambda g: g[:-8] + bytes([g[-8] ^ 1]) + g[-7:], "checksum mismatch in {path}"),
}


def _stats(m: dict, **change) -> dict:
    return {**m, "stats": {**m["stats"], **change}}


def _config(m: dict, section: str, **change) -> dict:
    return {**m, "config": {**m["config"], section: {**m["config"][section], **change}}}


def _drop_last_weight(m: dict, w: bytes) -> tuple:
    """Without its last weight, in the manifest and in weights.bin."""
    return {**m, "weights": m["weights"][:-1]}, w[:-8 * math.prod(m["weights"][-1]["shape"])]


# name: (the flow checkpoint's (manifest, weights.bin) changed, what each
# refusal of it says); ``{m}`` is the changed manifest.json and ``{w}`` the
# changed weights.bin
MALFORMED_CHECKPOINTS = {
    "long_weights": (lambda m, w: (m, w + b"\0" * 8),
                     "{w} holds 12880 bytes; the manifest's weights need 12872"),
    "flipped_weights": (lambda m, w: (m, w[:-1] + bytes([w[-1] ^ 1])), "checksum mismatch in {w}"),
    "v1": (lambda m, w: ({**m, "format_version": 1}, w),
           "unsupported checkpoint format_version 1 in {m}"),
    "v3": (lambda m, w: ({**m, "format_version": 3}, w),
           "unsupported checkpoint format_version 3 in {m}"),
    "float_seed": (lambda m, w: ({**m, "seed": 0.5}, w),
                   "seed 0.5 in {m} is not a non-negative integer"),
    "short_stats": (lambda m, w: (_stats(m, std=m["stats"]["std"][:-1]), w),
                    "stats in {m} are not of length 16"),
    "text_mean": (lambda m, w: (_stats(m, mean="abc"), w),
                  "stats in {m} are not numbers: could not convert string to float: 'abc'"),
    "null_mean": (lambda m, w: (_stats(m, mean=[None, *m["stats"]["mean"][1:]]), w),
                  "stats in {m} are not finite with a positive std"),
    "zero_std": (lambda m, w: (_stats(m, std=[0.0] * len(m["stats"]["std"])), w),
                 "stats in {m} are not finite with a positive std"),
    "int_weights": (lambda m, w: ({**m, "weights": 3}, w), "weights in {m} are not a list"),
    "no_stats": (lambda m, w: ({k: v for k, v in m.items() if k != "stats"}, w),
                 "{m} lacks the key 'stats'"),
    "not_json": (lambda m, w: ("{", w), "{m} is not valid JSON"),
    "dropped_weight": (_drop_last_weight,
                       "{m} does not fit the model: it lists the weight None where the model "
                       "has {{'name': 'transformer.out_head.b', 'shape': [4]}}"),
}
BAD_MANIFESTS = {
    "text_latent_dim": (lambda m, w: (_config(m, "vae", latent_dim="x"), w),
                        "config in {m} is invalid: [vae] latent_dim must be of type int, "
                        "got 'x'"),
    "nan_kld_weight": (lambda m, w: (_config(m, "loss", kld_weight=float("nan")), w),
                       "config in {m} is invalid: [loss] kld_weight must be finite, got nan"),
    "odd_width": (lambda m, w: (_config(m, "transformer", width=7, heads=7), w),
                  "config in {m} is invalid: width must be even, got 7"),
    **{f"{key}_{label}": (lambda m, w, key=key, value=value: ({**m, key: value}, w),
                          f"{key} in {{m}} is not a list of "
                          + ("objects" if key == "lineage" else "finite numbers"))
       for key, label, value in (("lineage", "3", 3), ("lineage", "of_ints", [1]),
                                 ("loss_curve", "text", "abc"),
                                 ("loss_curve", "nan", [0.5, float("nan")]),
                                 ("loss_curve", "bool", [True]))},
}


def _reads(ckpt: str = CKPT, traj: str = TRAJ, cfg: str = CFG) -> dict:
    """Each command that reads a checkpoint and a trajectory file, or its
    directory, as it reads ``ckpt`` and ``traj``."""
    data = traj.rsplit("/", 1)[0]
    return {"infer": f"infer --checkpoint {ckpt} --data {traj}",
            "uq": f"uq --checkpoint {ckpt} --data {traj} --n 2",
            "adapt": f"adapt --config {cfg} --checkpoint {ckpt} --data {data}",
            "report": f"report --out {data}"}


# field: (the first file of the flow's data changed, what train says of it
# against the flow's config)
DISAGREEMENTS = {
    "dt": (lambda t: {"dt": 0.2}, "datagen.dt 0.1 differs from 0.2 in"),
    "length": (lambda t: {"length": 11.0},
               f"datagen.case 'hopf' length {2 * math.pi} differs from 11.0 in"),
    "grid_width": (lambda t: {"states": t.states[:, :8]}, "datagen.n_x 16 differs from 8 in"),
    "names": (lambda t: {"param": ParamPoint.of(mu=0.5)},
              "datagen.case 'hopf' cannot solve at the parameters ['mu'] of"),
}
# field: (the first file of the flow's data changed, the datagen section that
# solves the changed file, what infer and uq say of it, what adapt says)
NOT_FITTED_DATA = {
    "grid_width": (lambda t: {"states": np.tile(t.states, 2)},
                   {"case": "hopf", "n_x": 32, "dt": 0.1},
                   "grid width 32 differs from the checkpoint's 16", None),
    "length": (lambda t: {"length": 2 * t.length, "param": ParamPoint.of(ks_nu=0.3)},
               {"case": "ks", "n_x": 16, "dt": 0.1, "domain_length": 4 * math.pi},
               f"domain length {4 * math.pi} differs from the checkpoint's {2 * math.pi}", None),
    "names": (lambda t: {"param": ParamPoint.of(ks_nu=0.3)},
              {"case": "ks", "n_x": 16, "dt": 0.1, "domain_length": 2 * math.pi},
              "parameter names ['ks_nu'] differs from the checkpoint's ['mu', 'omega']", None),
    "dt": (lambda t: {"dt": 0.15}, {"case": "hopf", "n_x": 16, "dt": 0.15},
           "dt 0.15 does not divide the checkpoint's dt 0.2 a whole number of times",
           f"dt 0.15 differs from 0.1, the dt of the files {CKPT} was trained on"),
}


# the flow's first file with every state set to 0
ZERO_ENERGY = "errors/zero_energy/hopf_mu0.2.updr"

# directory: (its config, the sweep) for each data set make_error_inputs generates
KS = config("ks", {**HOPF, "datagen": {"case": "ks", "n_x": 16, "n_t": 20},
                   "adaptive": {"budget": 1, "grid": [{"nu": 1.0}, {"nu": 1.1}]}})
GENERATED = {"errors/n_t3": (config("n_t3", hopf(datagen={"n_t": 3})), FLOWS["hopf"]["sweep"]),
             "errors/n_t10": (config("n_t10", hopf(datagen={"n_t": 10})),
                              FLOWS["hopf"]["sweep"]),
             "errors/dt02": (config("dt02", hopf(datagen={"dt": 0.2})), FLOWS["hopf"]["sweep"]),
             "errors/ks": (KS, "nu=1.0")}


def _table() -> list:
    cases = []

    def add(id, args, code, message, out_may_exist=False):
        cases.append(Refusal(id, args, code, message, out_may_exist))

    # ------------------------------------------------------------ generate
    for detail, sweep in (("mu", "mu"), ("mu=", "mu="), ("empty", ""), ("not_a_number", "mu=abc")):
        add(f"generate_rejects_malformed_sweep/{detail}",
            f"generate --config {CFG} --sweep {shlex.quote(sweep)}", 5,
            f"sweep must look like name=v1,v2,... got {sweep!r}")
    add("generate_rejects_wrong_sweep_name", f"generate --config {CFG} --sweep nu=0.3", 5,
        "the hopf solver sweeps 'mu', got 'nu'")
    for case, sweep, bad in (("hopf", "mu=0.3,nan", "mu=nan"), ("hopf", "mu=inf", "mu=inf"),
                             ("ks", "nu=1,nan", "nu=nan")):
        add(f"generate_non_finite_sweep_value_exit_5_before_out[{case}-{sweep}-{bad}]",
            f"generate --case {case} --sweep {sweep}", 5,
            f"--sweep values must be finite, got {bad}")
    # both values print as 0.123457, the name of the file each would write
    add("generate_sweep_values_that_write_one_file_exit_5_before_out",
        "generate --case hopf --sweep mu=0.3,0.1234567,0.1234568", 5,
        "--sweep values 0.1234567 and 0.1234568 both write hopf_mu0.123457.updr")
    for sweep, bad in (("nu=1,-1", "nu=-1.0"), ("ks_nu=0", "nu=0.0")):
        add(f"generate_non_positive_ks_nu_exit_5_before_out[{sweep}-{bad}]",
            f"generate --case ks --sweep {sweep}", 5, f"--sweep values must be positive, got {bad}")
    # every value is solved before --out is created
    add("generate_solver_blow_up_exit_4_before_out", "generate --case hopf --sweep mu=0.3,100",
        4, "Stuart-Landau divergence at mu=100 (step 2)")
    # none of the inputs exists: the seed is refused first
    for i, args in enumerate(("generate --sweep mu=0.3 --seed -3",
                              "train --data missing/data --seed -2",
                              "uq --checkpoint missing/ckpt --data missing/a.updr --seed -1",
                              "adapt --checkpoint missing/ckpt --data missing/data --seed -5")):
        add(f"negative_seed_option_exit_5_before_anything_is_read[command{i}]", args, 5,
            f"--seed must be >= 0, got {args.split()[-1]}")
    add("uq_tiny_ensemble_exit_5_before_loading_anything",
        "uq --checkpoint missing/ckpt --data missing/a.updr --n 1", 5,
        "ensemble size must be >= 2")

    # ------------------------------------------------------------- configs
    cfg = config("seed-4", hopf(seed=-4))
    add("negative_config_seed_exit_3_naming_the_file", f"generate --config {cfg} --sweep mu=0.3",
        3, f"invalid config: {cfg}: seed must be >= 0, got -4")
    # the config is refused before --data, which does not exist, is read
    for section, key, value in (("adaptive", "threshold", "NaN"), ("loss", "kld_weight", "NaN"),
                                ("training", "lr", "Infinity"),
                                ("adaptive", "grid", '[{"mu": -Infinity}]')):
        cfg = config(f"non_finite_{key}", f'{{"{section}": {{"{key}": {value}}}}}')
        add(f"non_finite_config_value_exit_3_naming_the_file_and_key[{key}]",
            f"train --config {cfg} --data missing/data", 3,
            f"invalid config: {cfg}: [{section}] {key} must be finite")
    for key, value in (("n_x", 0), ("n_x", 1), ("n_t", 0), ("n_t", 1), ("n_t", -3)):
        for case, sweep in (("hopf", "mu=0.3"), ("ks", "nu=1.0")):
            cfg = config(f"{case}_{key}{value}", {"datagen": {"case": case, key: value}})
            add(f"grid_below_two_points_exit_3_naming_the_key[{key}-{value}-{case}-{sweep}]",
                f"generate --config {cfg} --sweep {sweep}", 3,
                f"invalid config: {cfg}: datagen.{key} must be >= 2, got {value}")
    # the Hopf solver runs at n_x 48: --case ks checks the section again
    for param, datagen, sweep, message in (
            ("ks-n_x-48", {"case": "ks", "n_x": 48}, "nu=1.0 --case ks",
             "{cfg}: datagen.n_x must be a power of two for case 'ks', got 48"),
            ("hopf-config-case-ks-n_x-48", {"case": "hopf", "n_x": 48}, "nu=1.0 --case ks",
             "datagen.n_x must be a power of two for case 'ks', got 48"),
            ("init_amplitude-0", {"case": "hopf", "init_amplitude": 0}, "mu=0.3",
             "{cfg}: datagen.init_amplitude must be finite and positive, got 0")):
        cfg = config(param, {"datagen": datagen})
        add(f"generate_config_the_solver_cannot_run_exit_3_before_out[{param}]",
            f"generate --config {cfg} --sweep {sweep}", 3,
            f"invalid config: {message.format(cfg=cfg)}")
    # lr 0 would save an untrained checkpoint, a negative one diverge
    for lr in (0, 0.0, -0.5):
        cfg = config(f"lr{lr}", {"training": {"lr": lr}})
        add(f"non_positive_lr_exit_3_before_the_data_is_read[{lr}]",
            f"train --config {cfg} --data missing/data", 3,
            f"invalid config: {cfg}: lr must be > 0, got {lr}")
    add("missing_config_file_exit_code", "generate --config missing/config.json --sweep mu=0.3",
        2, "No such file or directory: 'missing/config.json'")
    for detail, text, message in (
            ("not_a_section", '{"not_a_section": {}}',
             "unknown or data-derived keys in [top level]: ['not_a_section']"),
            ("latent_dimension", '{"vae": {"latent_dimension": 2}}',
             "unknown or data-derived keys in [vae]: ['latent_dimension']"),
            ("not_json", "not json", "Expecting value: line 1 column 1 (char 0)"),
            ("text_hidden", '{"vae": {"hidden": ["a"]}}',
             "[vae] hidden must be of type Sequence[int], got ['a']"),
            ("text_latent_dim", '{"vae": {"latent_dim": "x"}}',
             "[vae] latent_dim must be of type int, got 'x'"),
            ("text_n_t", '{"datagen": {"n_t": "x"}}', "[datagen] n_t must be of type int, got 'x'"),
            ("epochs0", '{"training": {"epochs": 0}}', "epochs and batch_size must be >= 1"),
            ("retrain_epochs0", '{"training": {"retrain_epochs": 0}}',
             "retrain_epochs must be >= 1"),
            ("replay_fraction-0.1", '{"training": {"replay_fraction": -0.1}}',
             "replay_fraction must be in [0, 1]"),
            ("replay_fraction1.5", '{"training": {"replay_fraction": 1.5}}',
             "replay_fraction must be in [0, 1]"),
            ("ensemble_n1", '{"uq": {"ensemble_n": 1}}', "ensemble_n must be >= 2"),
            ("budget0", '{"adaptive": {"budget": 0}}', "adaptive.budget must be >= 1, got 0"),
            ("case_foo", '{"datagen": {"case": "foo"}}',
             "unknown case 'foo'; expected one of ['ks', 'hopf']"),
            ("dt0", '{"datagen": {"dt": 0}}', "datagen.dt must be finite and positive, got 0"),
            ("dt-0.05", '{"datagen": {"dt": -0.05}}',
             "datagen.dt must be finite and positive, got -0.05"),
            ("dt_nan", '{"datagen": {"dt": NaN}}', "[datagen] dt must be finite, got nan"),
            ("domain_length0", '{"datagen": {"domain_length": 0}}',
             "datagen.domain_length must be finite and positive, got 0"),
            ("domain_length-22.0", '{"datagen": {"domain_length": -22.0}}',
             "datagen.domain_length must be finite and positive, got -22.0")):
        cfg = config(f"invalid_{detail}", text)
        add(f"invalid_config_exit_code/{detail}", f"generate --config {cfg} --sweep mu=0.3", 3,
            f"invalid config: {cfg}: {message}")
    for section, key, value, message in (
            ("transformer", "heads", 3, "{cfg}: width must be divisible by heads"),
            ("loss", "lam", -1, "{cfg}: loss weights must be non-negative"),
            # the data's state dim is 16
            ("vae", "latent_dim", 16, "latent_dim must be smaller than state_dim"),
            ("vae", "hidden", 64, "{cfg}: [vae] hidden must be of type Sequence[int], got 64"),
            ("training", "batch_size", 0, "{cfg}: epochs and batch_size must be >= 1")):
        cfg = config(f"{section}_{key}{value}", hopf(**{section: {key: value}}))
        add(f"train_bad_config_value_exit_code[{section}-{key}-{value}]",
            f"train --config {cfg} --data {DATA}", 3,
            f"invalid config: {message.format(cfg=cfg)}")
    # the position encoding pairs a sine and a cosine; 7 is divisible by 7 heads
    cfg = config("transformer_width7", hopf(transformer={"width": 7, "heads": 7}))
    add("train_odd_transformer_width_exit_3", f"train --config {cfg} --data {DATA}", 3,
        f"invalid config: {cfg}: width must be even, got 7")
    # neither the checkpoint nor the data exists: the override is refused by
    # the config's own check before either is read, as in a config file
    for option, value, message in (
            ("--threshold", "nan", "adaptive.threshold must be finite, got nan"),
            ("--threshold", "inf", "adaptive.threshold must be finite, got inf"),
            ("--threshold", "-inf", "adaptive.threshold must be finite, got -inf"),
            ("--budget", "0", "adaptive.budget must be >= 1, got 0"),
            ("--budget", "-2", "adaptive.budget must be >= 1, got -2")):
        add(f"adapt_bad_budget_or_threshold_exit_3_before_anything_is_read"
            f"[{option[2:]}-{value}]",
            f"adapt --checkpoint missing/ckpt --data missing/data {option} {value}", 3,
            f"invalid config: {message}")
    for n in (0, 1):  # no uncertainty-error correlation to compute
        cfg = config(f"grid{n}", hopf(adaptive={"grid": HOPF["adaptive"]["grid"][:n]}))
        add(f"adapt_empty_grid_exit_code/{n}",
            f"adapt --config {cfg} --checkpoint {CKPT} --data {DATA}", 3,
            f"invalid config: adaptive.grid needs at least two points, got {n}")
    # KS trajectories carry ``ks_nu``; a grid keyed ``nu`` never matches them
    add("adapt_grid_names_must_match_the_data_exit_3",
        f"adapt --config {KS} --checkpoint errors/ks_train/checkpoint --data errors/ks", 3,
        "invalid config: adaptive.grid point {'nu': 1.0} does not name the ks solver's "
        "parameters ['ks_nu']")

    # ------------------------------------------------------ missing inputs
    add("train_missing_data_exit_code/empty", "train --data errors/empty", 2,
        "no .updr trajectory files in errors/empty")
    add("train_missing_data_exit_code/missing", f"train --config {CFG} --data missing/data", 2,
        "no .updr trajectory files in missing/data")
    add("infer_missing_inputs_exit_codes", "infer --checkpoint missing/ckpt --data missing/a.updr",
        2, "No such file or directory: 'missing/ckpt/manifest.json'")
    add("report_exit_codes/missing", "report --out missing/runs", 2,
        "no trajectory artifacts under missing/runs")
    add("report_exit_codes/empty", "report --out errors/empty", 2,
        "no trajectory artifacts under errors/empty", out_may_exist=True)
    # a directory where a file is read, a file where a directory is
    for detail, args, message in (
            ("config_directory", "generate --config errors/empty --sweep mu=0.3",
             "Is a directory: 'errors/empty'"),
            ("infer_data_directory", _reads(traj=DATA)["infer"], f"Is a directory: '{DATA}'"),
            ("uq_data_directory", _reads(traj=DATA)["uq"], f"Is a directory: '{DATA}'"),
            ("checkpoint_file", _reads(ckpt=TRAJ)["infer"],
             f"Not a directory: '{TRAJ}/manifest.json'"),
            ("out_below_a_file", f"generate --config {CFG} --sweep mu=0.3 --out {CFG}/sub",
             f"Not a directory: '{CFG}/sub'")):
        add(f"path_of_the_wrong_kind_exit_2/{detail}", args, 2, message)

    # ------------------------------------------------- config against data
    for field, (_, message) in DISAGREEMENTS.items():
        add(f"train_refuses_trajectories_that_disagree_exit_5[{field}]",
            f"train --config {CFG} --data errors/disagree_{field}", 5,
            f"{CFG}: {message} errors/disagree_{field}/b.updr")
    add("adapt_refuses_trajectories_that_disagree_exit_5",
        f"adapt --config {CFG} --checkpoint {CKPT} --data errors/disagree_dt", 5,
        f"{CFG}: datagen.dt 0.1 differs from 0.2 in errors/disagree_dt/b.updr")
    ks_file = "errors/ks/ks_nu1.updr"
    for param, cfg, message in (
            ("case", CFG, "datagen.case 'hopf' cannot solve at the parameters ['ks_nu'] of"),
            ("n_x", config("ks_n_x32", {**HOPF, "datagen": {"case": "ks", "n_x": 32}}),
             "datagen.n_x 32 differs from 16 in"),
            ("dt", config("ks_dt0.1", {**HOPF, "datagen": {"case": "ks", "n_x": 16, "dt": 0.1}}),
             "datagen.dt 0.1 differs from 0.05 in"),
            ("domain_length", config("ks_domain_length11", {**HOPF, "datagen": {
                "case": "ks", "n_x": 16, "domain_length": 11.0}}),
             "datagen.domain_length 11.0 differs from 22.0 in")):
        add(f"train_config_that_contradicts_the_data_exit_5_before_out[{param}]",
            f"train --config {cfg} --data errors/ks", 5, f"{cfg}: {message} {ks_file}")
    add("train_without_config_compares_the_default_datagen_exit_5", f"train --data {DATA}", 5,
        "the default config: datagen.case 'ks' cannot solve at the parameters "
        f"['mu', 'omega'] of {TRAJ}")
    # Hopf data with datagen.case left at its default, ks: refused as train refuses it
    cfg = config("case_default", {**HOPF, "datagen": {"n_x": 16, "dt": 0.1, "n_t": 40}})
    add("adapt_case_must_solve_the_data_exit_5",
        f"adapt --config {cfg} --checkpoint {CKPT} --data {DATA}", 5,
        f"{cfg}: datagen.case 'ks' cannot solve at the parameters ['mu', 'omega'] of {TRAJ}")
    # the grid is solved at the config's datagen, so a datagen that
    # contradicts the initial files is refused before --out is created
    for param, cfg, message in (
            ("dt", "errors/dt02.json", "datagen.dt 0.2 differs from 0.1"),
            ("n_x", config("n_x32", hopf(datagen={"n_x": 32})), "datagen.n_x 32 differs from 16")):
        add(f"adapt_refuses_grid_solves_that_disagree_with_the_data_exit_5[{param}]",
            f"adapt --config {cfg} --checkpoint {CKPT} --data {DATA}", 5,
            f"{cfg}: {message} in {TRAJ}")

    # ---------------------------------------------- data against checkpoint
    # the checkpoint was fitted on the even-index split of dt-0.1 files, so
    # at dt 0.2; files and a config at dt 0.2 would run the loop at dt 0.4
    add("adapt_on_files_at_the_fitted_dt_exit_5_before_out",
        f"adapt --config errors/dt02.json --checkpoint {CKPT} --data errors/dt02", 5,
        f"errors/dt02/hopf_mu0.2.updr: dt 0.2 differs from 0.1, the dt of the files {CKPT} "
        "was trained on")
    # infer, uq and adapt refuse a file of another grid width, length or
    # parameter names; infer and uq a dt that does not divide 0.2 a whole
    # number of times, and adapt any dt but 0.1. adapt runs with a config
    # whose datagen solves the bad file, so that it reaches these checks.
    for field, (_, datagen, message, adapt_message) in NOT_FITTED_DATA.items():
        names = ["ks_nu"] if datagen["case"] == "ks" else ["mu", "omega"]
        cfg = config(f"solves_not_fitted_{field}", {**HOPF, "datagen": {**datagen, "n_t": 40},
                     "adaptive": {"budget": 1, "grid": [dict.fromkeys(names, v)
                                                        for v in (0.2, 0.3)]}})
        bad = f"errors/not_fitted_{field}/b.updr"
        for command in ("infer", "uq", "adapt"):
            add(f"data_the_checkpoint_was_not_fitted_on_exit_5_before_out[{field}]/{command}",
                _reads(traj=bad, cfg=cfg)[command], 5,
                f"{bad}: {(adapt_message or message) if command == 'adapt' else message}")

    # relative MSE divides by the truth's energy; it is computed before --out is created
    for command in ("infer", "uq"):
        add(f"zero_energy_truth_exit_5_before_out/{command}", _reads(traj=ZERO_ENERGY)[command],
            5, f"{ZERO_ENERGY}: truth has zero energy")

    # ---------------------------------------------------- data too short
    # the even-index split of a file at n_t holds (n_t + 1) // 2 snapshots
    for param, cfg, data, message in (
            ("split", config("n_t3_window2", hopf(datagen={"n_t": 3}, transformer={
                "lookback": 1, "horizon": 1})), "errors/n_t3",
             "n_t 3 is too short for lookback 1 + horizon 1: training needs n_t >= 4"),
            ("n_t3", "errors/n_t3.json", "errors/n_t3",
             "n_t 3 is too short for lookback 4 + horizon 2: training needs n_t >= 11"),
            ("n_t10", "errors/n_t10.json", "errors/n_t10",
             "n_t 10 is too short for lookback 4 + horizon 2: training needs n_t >= 11")):
        add(f"train_on_files_too_short_for_a_window_exit_5_before_out[{param}]",
            f"train --config {cfg} --data {data}", 5, f"{data}/hopf_mu0.2.updr: {message}")
    for command in ("infer", "uq"):
        add(f"forecast_on_a_file_no_longer_than_the_lookback_exit_5_before_out[{command}]",
            _reads(traj="errors/n_t3/hopf_mu0.2.updr")[command], 5,
            "errors/n_t3/hopf_mu0.2.updr: n_t 3 is too short for lookback 4: a forecast needs "
            "n_t >= 5")
    # the config's lookback 1 + horizon 1 would fit n_t 10; the checkpoint's
    # lookback 4 + horizon 2, which the loop retrains with, do not
    cfg = config("n_t10_window2", hopf(datagen={"n_t": 10},
                                       transformer={"lookback": 1, "horizon": 1}))
    add("adapt_on_files_too_short_for_the_checkpoints_window_exit_5_before_out",
        f"adapt --config {cfg} --checkpoint {CKPT} --data errors/n_t10", 5,
        "errors/n_t10/hopf_mu0.2.updr: n_t 10 is too short for lookback 4 + horizon 2: "
        "training needs n_t >= 11")
    # the files fit the checkpoint's windows, but the grid would be solved at
    # the config's n_t 10, too short for them
    add("adapt_grid_solves_too_short_for_the_checkpoints_window_exit_5_before_out",
        f"adapt --config errors/n_t10.json --checkpoint {CKPT} --data {DATA}", 5,
        "errors/n_t10.json: datagen.n_t 10 is too short for lookback 4 + horizon 2: "
        "training needs n_t >= 11")

    # ---------------------------------------------------- malformed files
    # report's --out is the directory it reads
    for test, edits, commands in (
            ("malformed_inputs_exit_5_naming_the_file", MALFORMED_UPDR,
             ("infer", "uq", "adapt", "report")),
            ("trajectory_format_1_bad_header_or_checksum_exit_5", BAD_HEADER_UPDR,
             ("infer", "report"))):
        for name, (_, message) in edits.items():
            traj = f"errors/updr_{name}/hopf_mu0.2.updr"
            for command in commands:
                add(f"{test}/{name}/{command}", _reads(traj=traj)[command], 5,
                    message.format(path=traj), out_may_exist=command == "report")
    for test, edits, commands in (
            ("malformed_inputs_exit_5_naming_the_file", MALFORMED_CHECKPOINTS,
             ("infer", "uq", "adapt")),
            ("bad_manifest_config_lineage_or_loss_curve_exit_5", BAD_MANIFESTS,
             ("infer", "adapt"))):
        for name, (_, message) in edits.items():
            ckpt = f"errors/ckpt_{name}"
            for command in commands:
                add(f"{test}/{name}/{command}", _reads(ckpt=ckpt)[command], 5,
                    message.format(m=f"{ckpt}/manifest.json", w=f"{ckpt}/weights.bin"))

    # ------------------------------------------------------- divergence
    cfg = config("lr1e12", hopf(training={"lr": 1e12}))
    add("train_divergence_exit_4_naming_epoch_and_step", f"train --config {cfg} --data {DATA}",
        4, "training diverged at epoch 0, step 2: non-finite output of exp")
    for command in ("infer", "uq", "adapt"):
        add(f"non_finite_rollout_exit_4/{command}", _reads(ckpt="errors/ckpt_1e300")[command], 4,
            "latent rollout diverged at step 0: non-finite output of matmul")
    return cases


REFUSALS = _table()


def make_error_inputs(work: Path):
    """Write every input ``REFUSALS`` reads under ``work/errors``, from the
    Hopf flow's data and checkpoint in ``work/hopf``; ``work`` is the
    current directory."""
    def run(*argv):
        code, stderr = run_cli(list(argv))
        if code != 0:
            raise RuntimeError(f"romuq {' '.join(argv)} exited {code}:\n{stderr}")

    err = work / "errors"
    (err / "empty").mkdir(parents=True)
    for path, text in CONFIGS.items():
        (work / path).write_text(text)
    for data, (cfg, sweep) in GENERATED.items():
        run("generate", "--config", cfg, "--sweep", sweep, "--out", data)
    run("train", "--config", KS, "--data", "errors/ks", "--out", "errors/ks_train")

    good = (work / TRAJ).read_bytes()
    for name, (edit, _) in {**MALFORMED_UPDR, **BAD_HEADER_UPDR}.items():
        (err / f"updr_{name}").mkdir()
        (err / f"updr_{name}/hopf_mu0.2.updr").write_bytes(edit(good))
    first = read_trajectory(work / TRAJ)
    for field, (change, _) in DISAGREEMENTS.items():
        (err / f"disagree_{field}").mkdir()
        (err / f"disagree_{field}/a.updr").write_bytes(good)
        write_trajectory(err / f"disagree_{field}/b.updr", replace(first, **change(first)))
    for field, (change, *_) in NOT_FITTED_DATA.items():
        (err / f"not_fitted_{field}").mkdir()
        write_trajectory(err / f"not_fitted_{field}/b.updr", replace(first, **change(first)))
    (work / ZERO_ENERGY).parent.mkdir()
    write_trajectory(work / ZERO_ENERGY, replace(first, states=np.zeros_like(first.states)))

    manifest = json.loads((work / CKPT / "manifest.json").read_text())
    weights = (work / CKPT / "weights.bin").read_bytes()
    for name, (edit, _) in {**MALFORMED_CHECKPOINTS, **BAD_MANIFESTS}.items():
        m, w = edit(manifest, weights)
        (err / f"ckpt_{name}").mkdir()
        (err / f"ckpt_{name}/manifest.json").write_text(m if isinstance(m, str)
                                                        else json.dumps(m))
        (err / f"ckpt_{name}/weights.bin").write_bytes(w)
    model = ModelCheckpoint.load(work / CKPT)
    dict(model.named_parameters())["transformer.in_proj.w"].data[:] = 1e300
    model.save(err / "ckpt_1e300")
