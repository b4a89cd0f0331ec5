import os
import subprocess
import sys
from pathlib import Path

import pytest

from taclearn.cli import main
from taclearn.config import ConfigError, load_config, parse_config_text
from taclearn.sensor_io import load_manifest


def test_parse_sections_and_types():
    cfg = parse_config_text(
        """
# comment
[dataset]
mode = synthetic
num_classes = 5
noise_floor = 0.05
flag = true

[eval]
lengths = 8,16,32
speeds = 0.5;1.0
""",
        path="demo.cfg",
    )
    assert cfg.get_str("dataset", "mode") == "synthetic"
    assert cfg.get_int("dataset", "num_classes") == 5
    assert cfg.get_float("dataset", "noise_floor") == 0.05
    assert cfg.get_bool("dataset", "flag") is True
    assert cfg.get_int_list("eval", "lengths") == [8, 16, 32]
    assert cfg.get_float_list("eval", "speeds") == [0.5, 1.0]
    assert cfg.get_int("dataset", "absent", 7) == 7


def test_parse_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match=r"demo.cfg:3"):
        parse_config_text("[a]\nx = 1\ny 2\n", path="demo.cfg")
    with pytest.raises(ConfigError, match=r"demo.cfg:1"):
        parse_config_text("x = 1\n", path="demo.cfg")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("[a]\nx = 1\nx = 2\n", path="demo.cfg")


def test_typed_value_error_cites_line():
    cfg = parse_config_text("[a]\n\nn = owl\n", path="demo.cfg")
    with pytest.raises(ConfigError, match=r"demo.cfg:3.*integer"):
        cfg.get_int("a", "n")


def test_missing_required_key():
    cfg = parse_config_text("[a]\nx = 1\n", path="demo.cfg")
    with pytest.raises(ConfigError, match=r"\[a\] y"):
        cfg.get_str("a", "y")


def test_missing_config_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.cfg")


def test_default_epochs_per_task():
    from taclearn.cli import _train_config

    cfg = parse_config_text("[train]\nlr = 0.01\n", path="demo.cfg")
    assert _train_config(cfg, run_seed=0, task="classify").epochs == 100
    assert _train_config(cfg, run_seed=0, task="composition").epochs == 50
    explicit = parse_config_text("[train]\nepochs = 7\n", path="demo.cfg")
    assert _train_config(explicit, run_seed=0, task="classify").epochs == 7


SYNTH_CFG = """
[run]
seed = 0

[dataset]
mode = synthetic
num_classes = {num_classes}
channels = 10
stream_length = 32
noise_floor = 0.05
seed = 5
train_per_class = {train_per_class}
test_per_class = {test_per_class}

[transform]
input_width = 32

[augment]
enabled = true
flip_prob = 0.5
resize_min = 0.75
resize_max = 1.25
crop_min = 16
crop_max = 32
jitter_level = 0.1

[train]
task = classify
epochs = 3
lr = 0.02
batch_size = 8
schedule = cosine

[cl]
capacity = 12
ridge_lambda = 1.0
ft_epochs = 2
ft_lr = 0.01
sweep_capacities = 6,12

[eval]
k = 2
lengths = 8,16,32
speeds = 0.5,1.0,2.0
noise_levels = 0,0.25
"""


def _write_cfg(tmp_path, name="exp.cfg", **overrides):
    params = dict(num_classes=3, train_per_class=6, test_per_class=3)
    params.update(overrides)
    path = tmp_path / name
    path.write_text(SYNTH_CFG.format(**params))
    return path


def test_ingest_writes_manifest_with_expected_count(tmp_path):
    cfg = _write_cfg(tmp_path, num_classes=5, train_per_class=40, test_per_class=0)
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = load_manifest(out / "manifest.txt")
    assert len(manifest.entries) == 200
    assert manifest.norm_bounds is not None
    assert (out / "config.used.txt").exists()


def test_ingest_rerun_is_idempotent(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "out"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    first = (out / "manifest.txt").read_bytes()
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "manifest.txt").read_bytes() == first


def test_missing_manifest_path_exits_one(tmp_path, capsys):
    cfg_text = "[dataset]\nmode = manifest\nmanifest = /does/not/exist.txt\n"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(cfg_text)
    code = main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "/does/not/exist.txt" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _manifest_dataset(tmp_path):
    import numpy as np

    from taclearn.sensor_io import (Manifest, ManifestEntry, SensorSpec, SensorStream,
                                    write_manifest, write_stream)

    spec = SensorSpec("s", channels=4, sample_rate_hz=50.0)
    data = tmp_path / "data"
    data.mkdir()
    entries = []
    for c in range(2):
        rel = f"c{c}.csv"
        write_stream(data / rel, SensorStream(spec=spec, readings=np.full((16, 4), 0.25 * c)))
        entries.append(ManifestEntry(rel, str(c)))
    write_manifest(data / "manifest.txt",
                   Manifest(spec=spec, entries=entries, norm_bounds=(-1.0, 1.0)))
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"[dataset]\nmode = manifest\nmanifest = {data / 'manifest.txt'}\n")
    return cfg, data


@pytest.mark.parametrize("name, old, new", [
    ("data/manifest.txt", b"channels=4", b"channels=abc"),
    ("data/manifest.txt", b"norm_lo=-1.0", b"norm_lo=zz"),
    ("data/manifest.txt", b"kind=vector_stream", b"kind=vector_stream\nframe_h=q"),
    ("data/manifest.txt", b"sensor_id=s", b"sensor_id=s\xff"),
    ("data/c1.csv", b"0.25,", b"0.2\xff,"),
    ("m.cfg", b"mode = manifest", b"mode = manifest\n# \xe9t\xe9"),
], ids=["channels", "norm_lo", "frame_h", "manifest-utf8", "csv-utf8", "config-utf8"])
def test_malformed_loader_input_exits_one_before_outputs(tmp_path, capsys, name, old, new):
    cfg, _ = _manifest_dataset(tmp_path)
    out = tmp_path / "o"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
    target = tmp_path / name
    content = target.read_bytes()
    assert old in content
    target.write_bytes(content.replace(old, new, 1))
    capsys.readouterr()
    never = tmp_path / "never"
    assert main(["ingest", "--config", str(cfg), "--out", str(never)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name.split("/")[-1] in err
    assert not never.exists()


def test_negative_per_class_count_exits_one_before_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path, train_per_class=-1, test_per_class=5)
    out = tmp_path / "never"
    assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 1
    assert "index must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def test_invalid_config_exits_one_before_outputs(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("[dataset]\nmode = synthetic\nnum_classes = owl\n")
    out = tmp_path / "never"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert not out.exists()


def test_train_writes_checkpoint_and_history(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "run1"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "model.tacm").exists()
    history = (out / "history.csv").read_text()
    assert history.splitlines()[0] == "epoch,loss,val_acc,lr"
    assert len(history.splitlines()) == 4  # header + 3 epochs


def test_train_rerun_bit_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["train", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "history.csv").read_bytes() == (out2 / "history.csv").read_bytes()
    assert (out1 / "model.tacm").read_bytes() == (out2 / "model.tacm").read_bytes()


def test_train_seed_changes_outputs(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1 = tmp_path / "s1"
    out2 = tmp_path / "s2"
    assert main(["train", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
    assert (out1 / "history.csv").read_bytes() != (out2 / "history.csv").read_bytes()


def test_train_no_augment_flag(tmp_path):
    cfg = _write_cfg(tmp_path)
    out_aug = tmp_path / "aug"
    out_plain = tmp_path / "plain"
    assert main(["train", "--config", str(cfg), "--out", str(out_aug)]) == 0
    assert main(["train", "--config", str(cfg), "--out", str(out_plain), "--no-augment"]) == 0
    assert (out_aug / "history.csv").read_bytes() != (out_plain / "history.csv").read_bytes()


def test_cl_run_and_sweep(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "cl"
    assert main(["cl", "--config", str(cfg), "--out", str(out)]) == 0
    steps = (out / "cl_steps.csv").read_text().splitlines()
    assert steps[0] == "t,acc_ridge,acc_fine_tuned,buffer_size"
    assert len(steps) == 4  # 3 classes -> 3 steps
    assert (out / "final_ridge.tacm").exists()
    assert (out / "final_fine_tuned.tacm").exists()

    out_sweep = tmp_path / "cl_sweep"
    assert main(["cl", "--config", str(cfg), "--out", str(out_sweep), "--sweep"]) == 0
    assert (out_sweep / "cl_steps_cap6.csv").exists()
    assert (out_sweep / "cl_steps_cap12.csv").exists()


def test_cl_sweep_files_match_single_capacity_runs(tmp_path):
    cfg = _write_cfg(tmp_path)
    out_sweep = tmp_path / "sweep"
    assert main(["cl", "--config", str(cfg), "--out", str(out_sweep), "--sweep"]) == 0
    for cap in (6, 12):
        single_cfg = tmp_path / f"cap{cap}.cfg"
        single_cfg.write_text(cfg.read_text().replace("capacity = 12\n", f"capacity = {cap}\n"))
        out = tmp_path / f"single{cap}"
        assert main(["cl", "--config", str(single_cfg), "--out", str(out)]) == 0
        for name in ("cl_steps.csv", "final_ridge.tacm", "final_fine_tuned.tacm"):
            stem, ext = name.split(".")
            swept = out_sweep / f"{stem}_cap{cap}.{ext}"
            assert swept.read_bytes() == (out / name).read_bytes(), name


@pytest.mark.parametrize("old, new, flags", [
    ("sweep_capacities = 6,12", "sweep_capacities = 12,2", ["--sweep"]),
    ("capacity = 12\n", "capacity = 2\n", []),
])
def test_cl_capacity_below_class_count_exits_one_before_outputs(tmp_path, capsys, old, new,
                                                                 flags):
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace(old, new))
    out = tmp_path / "never"
    assert main(["cl", "--config", str(cfg), "--out", str(out), *flags]) == 1
    assert "capacity 2 leaves no budget for 3 classes" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("capacities, message", [
    ("6,6", "capacity 6 is listed more than once"),
    ("", "[cl] sweep_capacities is empty"),
], ids=["repeated", "empty"])
def test_cl_sweep_capacity_list_is_refused_before_outputs(tmp_path, capsys, capacities,
                                                          message):
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("sweep_capacities = 6,12",
                                           f"sweep_capacities = {capacities}"))
    out = tmp_path / "never"
    assert main(["cl", "--config", str(cfg), "--out", str(out), "--sweep"]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_an_empty_eval_list_exits_one_before_outputs(trained, tmp_path, capsys):
    cfg, ckpt = trained
    for mode, key in (("length", "lengths"), ("speed", "speeds"), ("noise", "noise_levels")):
        empty = tmp_path / f"{key}.cfg"
        empty.write_text("\n".join(f"{key} =" if line.startswith(f"{key} =") else line
                                   for line in cfg.read_text().splitlines()))
        out = tmp_path / f"never-{mode}"
        assert main(["eval", mode, "--config", str(empty), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 1
        assert f"[eval] {key} is empty" in capsys.readouterr().err
        assert not out.exists()


def test_a_negative_ft_epochs_exits_one_before_outputs(tmp_path, capsys):
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("ft_epochs = 2", "ft_epochs = -3"))
    out = tmp_path / "never"
    assert main(["cl", "--config", str(cfg), "--out", str(out)]) == 1
    assert "[cl] ft_epochs must be an integer >= 0" in capsys.readouterr().err
    assert not out.exists()


def _cl_out_entries(tmp_path, cfg, out, code, flags=("--sweep",)):
    """Run `cl` into `out` expecting `code`; `out`'s files by name (None when
    it does not exist) and the names beside it, so no staging is left over."""
    assert main(["cl", *flags, "--config", str(cfg), "--out", str(out)]) == code
    files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else None
    return files, sorted(p.name for p in tmp_path.iterdir())


def test_a_failed_cl_leaves_out_as_it_found_it(tmp_path, capsys, monkeypatch):
    from taclearn import cli
    from taclearn.errors import RuntimeFailure

    diverged = tmp_path / "diverged.cfg"
    diverged.write_text(_fuzz_text("cl", "ft_lr", str(2**62)))
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_bytes(b"mine")
    assert _cl_out_entries(tmp_path, diverged, tmp_path / "never", 2) == (
        None, ["diverged.cfg", "kept"])
    assert _cl_out_entries(tmp_path, diverged, kept, 2) == (
        {"notes.txt": b"mine"}, ["diverged.cfg", "kept"])
    assert "fine-tuning diverged" in capsys.readouterr().err

    # a later capacity's failure also takes back the files of the passes before it
    cfg, saved = _write_cfg(tmp_path), []

    def fail_on_the_third_save(path, checkpoint):
        saved.append(Path(path).name)
        if len(saved) == 3:
            raise RuntimeFailure("injected")
        save(path, checkpoint)

    save = cli.save_checkpoint
    monkeypatch.setattr(cli, "save_checkpoint", fail_on_the_third_save)
    assert _cl_out_entries(tmp_path, cfg, tmp_path / "never", 2) == (
        None, ["diverged.cfg", "exp.cfg", "kept"])
    assert saved == ["final_ridge_cap6.tacm", "final_fine_tuned_cap6.tacm",
                     "final_ridge_cap12.tacm"]


def test_cl_into_an_existing_out_keeps_its_files(tmp_path):
    cfg = _write_cfg(tmp_path)
    fresh, _ = _cl_out_entries(tmp_path, cfg, tmp_path / "fresh", 0)
    kept = tmp_path / "kept"
    kept.mkdir()
    (kept / "notes.txt").write_bytes(b"mine")
    (kept / "config.used.txt").write_bytes(b"an earlier run's")
    assert _cl_out_entries(tmp_path, cfg, kept, 0) == (
        {**fresh, "notes.txt": b"mine"}, ["exp.cfg", "fresh", "kept"])
    assert sorted(fresh) == ["cl_steps_cap12.csv", "cl_steps_cap6.csv", "config.used.txt",
                             "final_fine_tuned_cap12.tacm", "final_fine_tuned_cap6.tacm",
                             "final_ridge_cap12.tacm", "final_ridge_cap6.tacm"]


def test_every_output_csv_field_reads_back_exactly(trained, tmp_path):
    # below its header (report.csv: right of its section and name columns,
    # below its task row), every field is empty, an integer, or a float in
    # its shortest round-trip repr
    cfg, ckpt = trained
    runs = tmp_path / "runs"
    assert main(["cl", "--sweep", "--config", str(cfg), "--out", str(runs / "cl")]) == 0
    for mode in ("kfold", "length", "speed", "noise"):
        assert main(["eval", mode, "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(runs / mode)]) == 0
    paths = [ckpt.parent / "history.csv", *sorted(runs.rglob("*.csv"))]
    assert len(paths) == 10
    for path in paths:
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        if path.name == "report.csv":
            rows = [row[2:] for row in rows]
        fields = [field for row in rows for field in row]
        assert fields, path
        for field in fields:
            assert (field == "" or field.lstrip("-").isdigit()
                    or repr(float(field)) == field), (path, field)


def test_cl_truncated_backend_checkpoint_exits_one(tmp_path, capsys):
    from taclearn.model import Checkpoint, ConvNetBackend, save_checkpoint

    ckpt = tmp_path / "backend.tacm"
    save_checkpoint(ckpt, Checkpoint(backend=ConvNetBackend(seed=1)))
    ckpt.write_bytes(ckpt.read_bytes()[:-10])
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("[cl]\n", f"[cl]\nbackend_checkpoint = {ckpt}\n"))
    out = tmp_path / "never"
    assert main(["cl", "--config", str(cfg), "--out", str(out)]) == 1
    assert "payload bytes" in capsys.readouterr().err
    assert not out.exists()


def test_cli_import_leaves_scipy_out(tmp_path):
    # numpy is the only runtime dependency
    import taclearn

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(taclearn.__file__)))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, taclearn.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, cwd=tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_threads_flag_is_rejected(tmp_path, capsys):
    # BLAS reads its thread variables when numpy loads, before any argument
    # is parsed, so the thread count is set in the environment instead
    with pytest.raises(SystemExit) as exc:
        main(["train", "--config", str(_write_cfg(tmp_path)), "--out", str(tmp_path / "o"),
              "--threads", "1"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_outputs_do_not_depend_on_the_blas_thread_variables(tmp_path):
    # taclearn pins BLAS to one thread unless a thread variable is set, so a
    # run with them unset writes the bytes of a run at OPENBLAS_NUM_THREADS=1;
    # this preset's cl --sweep writes a different checkpoint at two threads
    import taclearn

    src = os.path.dirname(os.path.dirname(taclearn.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    unset = {k: v for k, v in os.environ.items()
             if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    config = Path(__file__).resolve().parents[1] / "experiments" / "synthetic.cfg"
    runs = {}
    for name, env in (("unset", unset), ("one", dict(unset, OPENBLAS_NUM_THREADS="1"))):
        runs[name] = subprocess.Popen(
            [sys.executable, "-m", "taclearn.cli", "cl", "--sweep", "--config", str(config),
             "--out", str(tmp_path / name)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(env, PYTHONPATH=path))
    outputs = {}
    for name, proc in runs.items():
        stdout, stderr = proc.communicate(timeout=600)
        assert proc.returncode == 0, stderr
        out = tmp_path / name
        outputs[name] = stdout, {str(f.relative_to(out)): f.read_bytes()
                                 for f in sorted(out.rglob("*")) if f.is_file()}
    assert "final_fine_tuned_cap50.tacm" in outputs["one"][1]
    assert outputs["unset"] == outputs["one"]


def test_cl_rerun_bit_identical(tmp_path):
    cfg = _write_cfg(tmp_path)
    out1 = tmp_path / "c1"
    out2 = tmp_path / "c2"
    assert main(["cl", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["cl", "--config", str(cfg), "--out", str(out2)]) == 0
    assert (out1 / "cl_steps.csv").read_bytes() == (out2 / "cl_steps.csv").read_bytes()


@pytest.fixture()
def trained(tmp_path):
    cfg = _write_cfg(tmp_path)
    out = tmp_path / "trained"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    return cfg, out / "model.tacm"


@pytest.mark.parametrize("mode", ["kfold", "length", "speed", "noise"])
def test_eval_modes_produce_reports(tmp_path, trained, mode):
    cfg, ckpt = trained
    out = tmp_path / f"eval_{mode}"
    code = main(["eval", mode, "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(out)])
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "summary.txt").exists()
    if mode != "kfold":
        assert (out / f"{mode}_curve.csv").exists()


@pytest.mark.parametrize("width", ["abc", "0"])
def test_bad_checkpoint_input_width_exits_one(tmp_path, trained, capsys, width):
    # every command that loads a checkpoint refuses it, including those
    # that replace its width with the config's
    cfg, ckpt = trained
    raw = ckpt.read_bytes()
    end = 12 + int.from_bytes(raw[8:12], "little")
    header = raw[12:end].replace(b"meta input_width 32", b"meta input_width " + width.encode())
    ckpt.write_bytes(raw[:8] + len(header).to_bytes(4, "little") + header + raw[end:])
    cfg.write_text(cfg.read_text().replace("[train]\n", f"[train]\npretrained = {ckpt}\n")
                   .replace("[cl]\n", f"[cl]\nbackend_checkpoint = {ckpt}\n"))
    out = tmp_path / "never"
    for command in (["eval", "noise", "--checkpoint", str(ckpt)],
                    ["eval", "kfold", "--checkpoint", str(ckpt)], ["train"], ["cl"]):
        assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
        assert "input_width must be a positive integer" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("width", [0, -2])
@pytest.mark.parametrize("command", [["train"], ["cl"], ["eval", "kfold"]],
                         ids=["train", "cl", "eval-kfold"])
def test_config_input_width_below_one_is_a_config_error(tmp_path, capsys, command, width):
    from taclearn.model import Checkpoint, ConvNetBackend, save_checkpoint

    cfg = _write_cfg(tmp_path)
    text = cfg.read_text().replace("input_width = 32", f"input_width = {width}")
    cfg.write_text(text)
    line = text.splitlines().index(f"input_width = {width}") + 1
    ckpt = tmp_path / "model.tacm"
    save_checkpoint(ckpt, Checkpoint(backend=ConvNetBackend(seed=1)))
    extra = ["--checkpoint", str(ckpt)] if command[0] == "eval" else []
    out = tmp_path / "never"
    assert main([*command, *extra, "--config", str(cfg), "--out", str(out)]) == 1
    assert (f"{cfg}:{line}: [transform] input_width must be an integer >= 1, got '{width}'"
            in capsys.readouterr().err)
    assert not out.exists()


def test_eval_on_a_non_finite_backend_weight_exits_one(tmp_path, trained, capsys):
    import struct

    cfg, ckpt = trained
    raw = ckpt.read_bytes()
    first_param = 16 + int.from_bytes(raw[8:12], "little")  # block 0's first weight
    ckpt.write_bytes(raw[:first_param] + struct.pack("<f", float("nan")) + raw[first_param + 4:])
    out = tmp_path / "never"
    assert main(["eval", "noise", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 1
    assert "checkpoint parameters must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_synthetic_eval_noise_normalizes_only_test_images(tmp_path, trained, monkeypatch):
    # the train split is generated for the normalization bounds only
    from taclearn import cli, tactile_image

    cfg, ckpt = trained
    normalized = []
    normalize = tactile_image.normalize

    def counting(planes, *args, **kwargs):
        normalized.append(planes)
        return normalize(planes, *args, **kwargs)

    for module in (tactile_image, cli):
        monkeypatch.setattr(module, "normalize", counting, raising=False)
    assert main(["eval", "noise", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "e")]) == 0
    # one call, on the test stack of num_classes x test_per_class images
    assert [len(planes) for planes in normalized] == [3 * 3]


@pytest.mark.parametrize("mode, old, new, message", [
    ("speed", "speeds = 0.5,1.0,2.0", "speeds = nan", "speed factor must be finite"),
    ("speed", "speeds = 0.5,1.0,2.0", "speeds = 0.5,inf", "speed factor must be finite"),
    ("noise", "noise_levels = 0,0.25", "noise_levels = nan", "jitter level must be finite"),
    ("noise", "noise_levels = 0,0.25", "noise_levels = 0,inf", "jitter level must be finite"),
    ("composition", "[eval]\n", "[eval]\nthreshold = nan\n",
     "composition threshold must be finite"),
], ids=["speeds-nan", "speeds-inf", "noise_levels-nan", "noise_levels-inf", "threshold-nan"])
def test_non_finite_eval_values_exit_one_before_outputs(tmp_path, trained, capsys, mode, old,
                                                        new, message):
    from taclearn.fabric import CONSTITUENTS
    from taclearn.model import Checkpoint, LinearHead, load_checkpoint, save_checkpoint

    cfg, ckpt = trained
    text = cfg.read_text()
    assert old in text
    text = text.replace(old, new, 1)
    if mode == "composition":
        # the trained backend under a composition head, and a truth per class
        backend = load_checkpoint(ckpt).backend
        ckpt = tmp_path / "composition.tacm"
        head = LinearHead.zeros(backend.embed_dim, len(CONSTITUENTS))
        save_checkpoint(ckpt, Checkpoint(backend=backend, heads={"composition": head}))
        text += "\n[composition]\n0 = Cotton\n1 = Wool\n2 = Linen;Viscose\n"
    cfg.write_text(text)
    out = tmp_path / "never"
    assert main(["eval", mode, "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("speeds", ["1.0,1e-300", "1.0,1e-6"])
def test_speed_factor_stretching_past_the_width_bound_exits_one(tmp_path, trained, capsys,
                                                                monkeypatch, speeds):
    # 32 / 1e-300 and 32 / 1e-6 readings are refused before the first
    # embedding or resize, so the wide array is never allocated
    from taclearn.model import ConvNetBackend, train

    cfg, ckpt = trained
    cfg.write_text(cfg.read_text().replace("speeds = 0.5,1.0,2.0", f"speeds = {speeds}", 1))
    calls = []
    for owner, name in ((ConvNetBackend, "embed_batch"), (train, "_resample_axis")):
        monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(args))
    out = tmp_path / "never"
    assert main(["eval", "speed", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 1
    assert "above the maximum of 65536" in capsys.readouterr().err
    assert calls == []
    assert not out.exists()


def test_eval_rerun_bit_identical(tmp_path, trained):
    cfg, ckpt = trained
    out1 = tmp_path / "e1"
    out2 = tmp_path / "e2"
    for out in (out1, out2):
        assert main(["eval", "noise", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
    assert (out1 / "report.csv").read_bytes() == (out2 / "report.csv").read_bytes()


COMPOSITION_CFG = """
[run]
seed = 0

[dataset]
mode = synthetic
num_classes = 3
channels = 10
stream_length = 32
noise_floor = 0.05
seed = 6
train_per_class = 8
test_per_class = 4

[composition]
0 = Cotton;Wool
1 = Linen
2 = Polyester;Elastane

[transform]
input_width = 32

[train]
task = composition
epochs = 30
lr = 0.05
batch_size = 8
schedule = cosine

[eval]
threshold = 0.5
"""


def test_composition_train_and_eval(tmp_path, capsys):
    cfg = tmp_path / "comp.cfg"
    cfg.write_text(COMPOSITION_CFG)
    out = tmp_path / "comp_train"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    out_eval = tmp_path / "comp_eval"
    code = main(["eval", "composition", "--config", str(cfg),
                 "--checkpoint", str(out / "model.tacm"), "--out", str(out_eval)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "composition score" in captured
    assert "FP" in captured and "FN" in captured
    report = (out_eval / "report.csv").read_text()
    assert "composition,mean" in report


def test_composition_without_schedule_exits_one(tmp_path, capsys):
    # an unset [train] schedule means plateau, which composition cannot run
    cfg = tmp_path / "comp.cfg"
    cfg.write_text(COMPOSITION_CFG.replace("schedule = cosine\n", ""))
    out = tmp_path / "never"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "cosine or constant" in capsys.readouterr().err
    assert not out.exists()


def test_composition_class_without_constituents_exits_one_in_both_modes(tmp_path, capsys):
    # `0 =` gives class 0 no constituent set, in synthetic mode as in the
    # manifest ingest writes for it, whose field for it is empty
    cfg = tmp_path / "comp.cfg"
    cfg.write_text(COMPOSITION_CFG.replace("0 = Cotton;Wool", "0 ="))
    data = tmp_path / "data"
    assert main(["ingest", "--config", str(cfg), "--out", str(data)]) == 0
    capsys.readouterr()
    synthetic_dataset = COMPOSITION_CFG[COMPOSITION_CFG.index("[dataset]"):
                                        COMPOSITION_CFG.index("[transform]")]
    manifest_cfg = tmp_path / "manifest.cfg"
    manifest_cfg.write_text(COMPOSITION_CFG.replace(
        synthetic_dataset, f"[dataset]\nmode = manifest\nmanifest = {data / 'manifest.txt'}\n\n"))
    errors = []
    for path in (cfg, manifest_cfg):
        out = tmp_path / f"never-{path.stem}"
        assert main(["train", "--config", str(path), "--out", str(out)]) == 1
        errors.append(capsys.readouterr().err)
        assert not out.exists()
    assert errors[0] == errors[1]
    assert "sample 0 has none" in errors[0]


_NARROW = ("input_width = 32", "input_width = 16")


@pytest.mark.parametrize("case", ["classify-plateau", "cl-fine-tune", "composition",
                                  "composition-augmented"])
def test_encoder_sees_the_configured_input_width(tmp_path, monkeypatch, case):
    # 32-reading streams at [transform] input_width = 16: every model input,
    # augmented or not, in training, validation, fine-tuning and scoring, is
    # 16 columns wide
    from taclearn.model import ConvNetBackend

    if case == "classify-plateau":
        text = SYNTH_CFG.format(num_classes=3, train_per_class=6, test_per_class=3).replace(
            "enabled = true", "enabled = false").replace("schedule = cosine", "schedule = plateau")
        commands = [["train"], ["eval", "noise"]]
    elif case == "cl-fine-tune":
        text = SYNTH_CFG.format(num_classes=3, train_per_class=6, test_per_class=3).replace(
            "sweep_capacities", "ft_augment = false\nsweep_capacities")
        commands = [["cl"]]
    else:
        text = COMPOSITION_CFG.replace("epochs = 30", "epochs = 2")
        if case == "composition-augmented":
            text += "\n[augment]\nenabled = true\n"
        commands = [["train"], ["eval", "composition"]]
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(text.replace(*_NARROW))
    widths = set()
    forward = ConvNetBackend.forward
    monkeypatch.setattr(ConvNetBackend, "forward",
                        lambda self, x, keep_cache=True:
                        widths.add(x.shape[-1]) or forward(self, x, keep_cache))
    checkpoint = tmp_path / "train" / "model.tacm"
    for command in commands:
        extra = ["--checkpoint", str(checkpoint)] if command[0] == "eval" else []
        out = tmp_path / command[-1]
        assert main([*command, "--config", str(cfg), "--out", str(out), *extra]) == 0
    assert widths == {16}


def _curve(out, mode):
    """The (x, y) points of an eval run's `<mode>_curve.csv`."""
    lines = (out / f"{mode}_curve.csv").read_text().splitlines()[1:]
    return [tuple(float(v) for v in line.split(",")) for line in lines]


def test_eval_sweeps_agree_at_neutral_points(tmp_path, trained):
    cfg, ckpt = trained
    out_len = tmp_path / "nlen"
    out_noise = tmp_path / "nnoise"
    assert main(["eval", "length", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(out_len)]) == 0
    assert main(["eval", "noise", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(out_noise)]) == 0
    plain_from_length = dict(_curve(out_len, "length"))[32.0]  # full width
    plain_from_noise = dict(_curve(out_noise, "noise"))[0.0]
    assert plain_from_length == plain_from_noise


@pytest.mark.parametrize("input_width, window_end, lengths", [
    pytest.param(64, None, [4, 8, 16, 32], id="64"),
    pytest.param(16, None, [4, 8, 16, 32], id="16"),
    # windows narrower than 8 readings: no zero length and no repeated one
    pytest.param(16, 0, [1], id="16-width1"),
    pytest.param(16, 4, [1, 2, 5], id="16-width5"),
])
def test_eval_length_defaults_to_the_test_image_width(tmp_path, input_width, window_end,
                                                      lengths):
    # 32-reading streams, no [eval] lengths: the sweep ends at the identity crop
    cfg = _write_cfg(tmp_path)
    transform = f"input_width = {input_width}"
    if window_end is not None:
        transform += f"\nwindow_start = 0\nwindow_end = {window_end}"
    cfg.write_text(cfg.read_text().replace("input_width = 32", transform)
                   .replace("lengths = 8,16,32\n", ""))
    ckpt = tmp_path / "train" / "model.tacm"
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "train"),
                 "--no-augment"]) == 0
    curves = {}
    for mode in ("length", "noise"):
        out = tmp_path / mode
        assert main(["eval", mode, "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(out)]) == 0
        curves[mode] = _curve(out, mode)
    assert [x for x, _ in curves["length"]] == lengths
    assert curves["length"][-1][1] == dict(curves["noise"])[0.0]


def test_train_from_ingested_manifest(tmp_path):
    cfg = _write_cfg(tmp_path)
    data_out = tmp_path / "data"
    assert main(["ingest", "--config", str(cfg), "--out", str(data_out)]) == 0
    manifest_cfg = tmp_path / "from_manifest.cfg"
    manifest_cfg.write_text(f"""
[dataset]
mode = manifest
manifest = {data_out / 'manifest.txt'}

[transform]
input_width = 32

[train]
task = classify
epochs = 2
lr = 0.02
batch_size = 8
schedule = cosine
""")
    out = tmp_path / "mtrain"
    assert main(["train", "--config", str(manifest_cfg), "--out", str(out),
                 "--no-augment"]) == 0
    assert (out / "model.tacm").exists()


def test_ingested_manifest_in_another_directory_trains(tmp_path):
    cfg = _write_cfg(tmp_path)
    source, resolved = tmp_path / "source", tmp_path / "resolved"
    assert main(["ingest", "--config", str(cfg), "--out", str(source)]) == 0

    def manifest_cfg(manifest):
        path = tmp_path / "manifest.cfg"
        path.write_text(f"[dataset]\nmode = manifest\nmanifest = {manifest}\n\n"
                        "[transform]\ninput_width = 32\n\n"
                        "[train]\nepochs = 1\nbatch_size = 8\nschedule = cosine\n")
        return str(path)

    # the re-emitted manifest names its samples relative to its own directory
    assert main(["ingest", "--config", manifest_cfg(source / "manifest.txt"),
                 "--out", str(resolved)]) == 0
    assert load_manifest(resolved / "manifest.txt").entries[0].path.startswith(
        "../source/streams/")
    assert main(["train", "--config", manifest_cfg(resolved / "manifest.txt"),
                 "--out", str(tmp_path / "train"), "--no-augment"]) == 0


@pytest.mark.parametrize("norm", ["kept", "removed"])
def test_synthetic_and_ingested_manifest_datasets_load_to_the_same_stacks(tmp_path, norm):
    # both dataset modes fill their stacks through one loop: the manifest that
    # ingest writes for a synthetic dataset gives the synthetic dataset's
    # bounds, stack bytes, labels and constituent sets
    from taclearn.cli import _load_bundle

    window = "[transform]\nwindow_start = 2\nwindow_end = 28\n"
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("[transform]\n", window)
                   + "\n[composition]\n0 = Cotton;Wool\n2 = Linen\n")
    data = tmp_path / "data"
    assert main(["ingest", "--config", str(cfg), "--out", str(data)]) == 0
    manifest = data / "manifest.txt"
    if norm == "removed":
        manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                    if not line.startswith("norm_")))
        assert load_manifest(manifest).norm_bounds is None
    manifest_cfg = tmp_path / "manifest.cfg"
    manifest_cfg.write_text(f"[dataset]\nmode = manifest\nmanifest = {manifest}\n\n{window}")
    synthetic, ingested = (_load_bundle(load_config(path)) for path in (cfg, manifest_cfg))
    assert ingested.bounds == synthetic.bounds
    for split in ("train", "test"):
        expected = getattr(synthetic, f"{split}_images")
        images = getattr(ingested, f"{split}_images")
        assert images.data.shape == expected.data.shape == (3 * {"train": 6, "test": 3}[split],
                                                            10, 27)
        assert images.data.tobytes() == expected.data.tobytes()
        assert images.source == expected.source
        for field in ("labels", "cons"):
            assert getattr(ingested, f"{split}_{field}") == getattr(synthetic, f"{split}_{field}")
    assert synthetic.test_cons[::3] == [frozenset({"Cotton", "Wool"}), None, frozenset({"Linen"})]


@pytest.mark.parametrize("norm", [None, (1000.25, 1000.75)], ids=["folded", "given"])
def test_manifest_stacks_round_once_from_the_float64_normalization(tmp_path, norm):
    # CSV readings need not be float32-exact: at a DC offset of 1000 over a
    # range of 1, float32 keeps readings to about 6e-5, so rounding them before
    # normalizing would move normalized values by about 1e-4, a thousand times
    # the float32 rounding of the normalized values themselves
    import numpy as np

    from taclearn.cli import _load_bundle
    from taclearn.prng import Prng
    from taclearn.sensor_io import (Manifest, ManifestEntry, SensorSpec, SensorStream,
                                    write_manifest, write_stream)
    from taclearn.tactile_image import image_plane, normalize

    spec = SensorSpec("s", channels=4, sample_rate_hz=50.0)
    data = tmp_path / "data"
    data.mkdir()
    entries, readings = [], []
    for i in range(6):
        readings.append(1000.0001 + Prng(40).spawn(i).uniform(0.0, 1.0, size=(16, 4)))
        write_stream(data / f"s{i}.csv", SensorStream(spec=spec, readings=readings[-1]))
        entries.append(ManifestEntry(f"s{i}.csv", str(i % 2), "train" if i < 4 else "test"))
    write_manifest(data / "manifest.txt", Manifest(spec=spec, entries=entries, norm_bounds=norm))
    cfg = tmp_path / "m.cfg"
    cfg.write_text(f"[dataset]\nmode = manifest\nmanifest = {data / 'manifest.txt'}\n")
    bundle = _load_bundle(load_config(cfg))
    bounds = norm or (min(r.min() for r in readings[:4]), max(r.max() for r in readings[:4]))
    assert bundle.bounds == bounds
    for images, split in ((bundle.train_images, readings[:4]), (bundle.test_images, readings[4:])):
        planes = np.stack([image_plane(r, spec) for r in split])
        once = normalize(planes.copy(), *bounds).data.astype(np.float32)
        twice = normalize(planes.astype(np.float32), *bounds).data
        assert images.data.dtype == np.float32 and images.normalized
        assert images.data.tobytes() == once.tobytes()
        assert np.abs(twice - once).max() > 1e-5


@pytest.fixture()
def ingested(tmp_path):
    """An ingested manifest with bounds, a config reading it and a trained checkpoint."""
    data = tmp_path / "data"
    assert main(["ingest", "--config", str(_write_cfg(tmp_path)), "--out", str(data)]) == 0
    cfg = tmp_path / "manifest.cfg"
    cfg.write_text(f"[dataset]\nmode = manifest\nmanifest = {data / 'manifest.txt'}\n\n"
                   "[transform]\ninput_width = 32\n\n"
                   "[train]\nepochs = 1\nbatch_size = 8\nschedule = cosine\n")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "trained"),
                 "--no-augment"]) == 0
    return cfg, data, tmp_path / "trained" / "model.tacm"


def _corrupt_first(data, split):
    """Give the split's first stream a short row; returns the file name."""
    entry = load_manifest(data / "manifest.txt").split(split)[0]
    with open(data / entry.path, "a", encoding="utf-8") as fh:
        fh.write("1.0\n")
    return entry.path.split("/")[-1]


def test_bad_test_stream_fails_only_the_commands_reading_it(tmp_path, capsys, ingested):
    cfg, data, ckpt = ingested
    name = _corrupt_first(data, "test")
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t"),
                 "--no-augment"]) == 0
    for argv in (["eval", "speed", "--checkpoint", str(ckpt)], ["ingest"]):
        capsys.readouterr()
        never = tmp_path / "never"
        assert main([*argv, "--config", str(cfg), "--out", str(never)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and name in err and "has 1 values" in err
        assert not never.exists()


def test_eval_reads_the_train_split_only_for_bounds(tmp_path, capsys, ingested):
    cfg, data, ckpt = ingested
    name = _corrupt_first(data, "train")
    # with manifest bounds the test modes never read the train split; eval
    # length takes its default lengths from the test images, not input_width
    cfg.write_text(cfg.read_text().replace("input_width = 32\n", ""))
    for mode in ("speed", "length"):
        assert main(["eval", mode, "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(tmp_path / mode)]) == 0
    manifest = data / "manifest.txt"
    manifest.write_text("".join(line for line in manifest.read_text().splitlines(True)
                                if not line.startswith("norm_")))
    capsys.readouterr()
    never = tmp_path / "never"
    assert main(["eval", "speed", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(never)]) == 1
    assert name in capsys.readouterr().err
    assert not never.exists()


def test_eval_without_test_images_exits_one(tmp_path, capsys):
    from taclearn.model import Checkpoint, ConvNetBackend, save_checkpoint

    # a manifest with bounds and no test split: eval reads no image at all
    data = tmp_path / "data"
    cfg = _write_cfg(tmp_path, test_per_class=0)
    assert main(["ingest", "--config", str(cfg), "--out", str(data)]) == 0
    cfg.write_text(f"[dataset]\nmode = manifest\nmanifest = {data / 'manifest.txt'}\n")
    ckpt = tmp_path / "model.tacm"
    save_checkpoint(ckpt, Checkpoint(backend=ConvNetBackend(seed=1)))
    never = tmp_path / "never"
    for mode in ("noise", "length"):
        assert main(["eval", mode, "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--out", str(never)]) == 1
        assert "dataset has no test split" in capsys.readouterr().err
        assert not never.exists()


def test_synthetic_dataset_without_test_samples(tmp_path, capsys):
    # an empty test split: cl runs without a test set, eval kfold folds the
    # train split alone, and the modes that sweep test images exit one
    cfg = _write_cfg(tmp_path, test_per_class=0)
    assert main(["cl", "--config", str(cfg), "--out", str(tmp_path / "cl")]) == 0
    assert "acc_" not in capsys.readouterr().out
    ckpt = tmp_path / "cl" / "final_ridge.tacm"
    assert main(["eval", "kfold", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "kfold")]) == 0
    never = tmp_path / "never"
    assert main(["eval", "noise", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(never)]) == 1
    assert "dataset has no test split" in capsys.readouterr().err
    assert not never.exists()


def test_each_stream_is_parsed_once_per_reading_command(tmp_path, monkeypatch, ingested):
    from taclearn import sensor_io

    cfg, data, _ = ingested
    entries = load_manifest(data / "manifest.txt").entries
    calls = []
    load_stream = sensor_io.load_stream
    monkeypatch.setattr(sensor_io, "load_stream",
                        lambda path, spec: calls.append(path) or load_stream(path, spec))
    assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "re")]) == 0
    assert sorted(calls) == sorted(data / e.path for e in entries)
    calls.clear()
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "t"),
                 "--no-augment"]) == 0
    assert calls == [data / e.path for e in entries if e.split == "train"]


def test_console_entry_point(tmp_path):
    import taclearn

    cfg = _write_cfg(tmp_path)
    out = tmp_path / "subproc"
    # the child imports the package from where this test did, installed or not
    src = os.path.dirname(os.path.dirname(taclearn.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-m", "taclearn.cli", "ingest",
         "--config", str(cfg), "--out", str(out)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    assert result.returncode == 0, result.stderr
    assert (out / "manifest.txt").exists()


def test_pretrained_zero_stride_backend_exits_one(tmp_path, capsys):
    from taclearn.model import Checkpoint, ConvNetBackend, save_checkpoint

    ckpt = tmp_path / "backend.tacm"
    save_checkpoint(ckpt, Checkpoint(backend=ConvNetBackend(seed=1)))
    ckpt.write_bytes(ckpt.read_bytes().replace(b"stride=2", b"stride=0"))
    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("[train]\n", f"[train]\npretrained = {ckpt}\n"))
    out = tmp_path / "never"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 1
    assert "bad backend descriptor" in capsys.readouterr().err
    assert not out.exists()


def test_composition_eval_rejects_six_head_checkpoints(tmp_path, capsys):
    import numpy as np

    from taclearn.fabric import CONSTITUENTS
    from taclearn.model import Checkpoint, ConvNetBackend, LinearHead, save_checkpoint

    cfg = tmp_path / "comp.cfg"
    cfg.write_text(COMPOSITION_CFG)
    # the layout of composition files written before the single composition
    # head: one constituent-named 128x1 head per column
    backend = ConvNetBackend(seed=1, input_width=32)
    six = {name: LinearHead(np.zeros((backend.embed_dim, 1)), np.zeros(1))
           for name in CONSTITUENTS}
    legacy = tmp_path / "six_heads.tacm"
    save_checkpoint(legacy, Checkpoint(backend=backend, heads=six, meta={"task": "composition"}))
    never = tmp_path / "never"
    assert main(["eval", "composition", "--config", str(cfg), "--checkpoint", str(legacy),
                 "--out", str(never)]) == 1
    assert "checkpoint has no composition head" in capsys.readouterr().err
    assert not never.exists()


def _camera_manifest(directory, frame_h, frame_w, classes=3, frames=4, mixed=False):
    """`classes` classes x 12 camera-frame streams (9 train, 3 test) of
    `frames` frames each; with `mixed`, every other stream is binary."""
    import numpy as np

    from taclearn.prng import Prng
    from taclearn.sensor_io import (CAMERA_FRAMES, Manifest, ManifestEntry, SensorSpec,
                                    SensorStream, write_manifest, write_stream)

    size = frame_h * frame_w
    spec = SensorSpec("cam", channels=size, sample_rate_hz=30.0, kind=CAMERA_FRAMES,
                      frame_h=frame_h, frame_w=frame_w, value_range=(0.0, 1.0))
    rows, cols = np.mgrid[0:frame_h, 0:frame_w]
    directory.mkdir()
    entries = []
    for c in range(classes):
        # a class is a spatial frequency of the pressed texture
        pattern = 0.5 + 0.4 * np.sin((c + 1) * 0.6 * cols + 0.3 * rows).ravel()
        for i in range(12):
            noise = np.asarray(Prng(100 * c + i).uniform(-0.05, 0.05, size=(frames, size)))
            fmt = "binary" if mixed and i % 2 else "csv"
            rel = f"c{c}_s{i:02d}.{'bin' if fmt == 'binary' else 'csv'}"
            write_stream(directory / rel, SensorStream(spec=spec, readings=pattern + noise), fmt)
            entries.append(ManifestEntry(rel, str(c), "train" if i < 9 else "test"))
    write_manifest(directory / "manifest.txt", Manifest(spec=spec, entries=entries))
    return directory / "manifest.txt"


def test_camera_frame_manifest_end_to_end(tmp_path):
    from taclearn.sensor_io import CAMERA_FRAMES

    data = _camera_manifest(tmp_path / "frames", 10, 12).parent
    cfg = tmp_path / "cam.cfg"
    cfg.write_text(f"""
[dataset]
mode = manifest
manifest = {data / 'manifest.txt'}

[transform]
input_width = 12
frame_index = 1

[augment]
flip_prob = 0.5
resize_min = 0.8
resize_max = 1.25
crop_min = 6
crop_max = 12
jitter_level = 0.05

[train]
epochs = 4
lr = 0.02
batch_size = 9
schedule = cosine

[cl]
capacity = 9
ft_epochs = 1

[eval]
noise_levels = 0,0.2
""")
    ingested = tmp_path / "ingest"
    assert main(["ingest", "--config", str(cfg), "--out", str(ingested)]) == 0
    assert load_manifest(ingested / "manifest.txt").spec.kind == CAMERA_FRAMES
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "train")]) == 0
    assert main(["cl", "--config", str(cfg), "--out", str(tmp_path / "cl")]) == 0
    assert (tmp_path / "cl" / "cl_steps.csv").read_text().count("\n") == 4
    assert main(["eval", "noise", "--config", str(cfg),
                 "--checkpoint", str(tmp_path / "train" / "model.tacm"),
                 "--out", str(tmp_path / "eval")]) == 0
    assert (tmp_path / "eval" / "noise_curve.csv").exists()


def test_camera_frame_manifest_augmented_runs_rerun_identically(tmp_path, capsys):
    # ingest, then train with all four augmentations on the ingested
    # manifest (the batched camera-frame augmentation), then eval noise
    import shutil

    source = _camera_manifest(tmp_path / "frames", 12, 16)
    runs = tmp_path / "runs"
    ingest_cfg = tmp_path / "ingest.cfg"
    ingest_cfg.write_text(f"[dataset]\nmode = manifest\nmanifest = {source}\n")
    cfg = tmp_path / "cam.cfg"
    cfg.write_text(f"""
[dataset]
mode = manifest
manifest = {runs / 'ingest' / 'manifest.txt'}

[transform]
input_width = 16
frame_index = 2

[augment]
flip_prob = 0.5
resize_min = 0.8
resize_max = 1.25
crop_min = 8
crop_max = 16
jitter_level = 0.1

[train]
epochs = 3
lr = 0.02
batch_size = 9
schedule = cosine

[eval]
noise_levels = 0,0.2
""")

    def run():
        shutil.rmtree(runs, ignore_errors=True)
        capsys.readouterr()
        assert main(["ingest", "--config", str(ingest_cfg), "--out", str(runs / "ingest")]) == 0
        assert main(["train", "--config", str(cfg), "--out", str(runs / "train")]) == 0
        assert main(["eval", "noise", "--config", str(cfg),
                     "--checkpoint", str(runs / "train" / "model.tacm"),
                     "--out", str(runs / "eval")]) == 0
        files = {str(p.relative_to(runs)): p.read_bytes()
                 for p in sorted(runs.rglob("*")) if p.is_file()}
        return files, capsys.readouterr().out

    first = run()
    assert {"ingest/manifest.txt", "train/model.tacm", "train/history.csv",
            "eval/noise_curve.csv"} <= set(first[0])
    assert first == run()


def test_mixed_format_camera_manifest_runs_through_the_cli(tmp_path, capsys):
    # 12x10 frames, half the streams CSV and half binary, no [transform]
    # input_width: the encoder width comes from the frames
    source = _camera_manifest(tmp_path / "frames", 12, 10, classes=2, frames=3, mixed=True)
    assert {p.suffix for p in source.parent.iterdir()} == {".csv", ".bin", ".txt"}
    runs = tmp_path / "runs"
    cfg = tmp_path / "cam.cfg"
    cfg.write_text(f"""
[dataset]
mode = manifest
manifest = {source}

[transform]
frame_index = 1

[augment]
flip_prob = 0.5
resize_min = 0.8
resize_max = 1.25
crop_min = 5
crop_max = 10
jitter_level = 0.05

[train]
epochs = 2
lr = 0.02
batch_size = 9
schedule = cosine

[eval]
k = 2
noise_levels = 0,0.2
""")
    args = ["--config", str(cfg), "--out"]
    assert main(["ingest", *args, str(runs / "ingest")]) == 0
    assert main(["train", *args, str(runs / "train")]) == 0
    model = (runs / "train" / "model.tacm").read_bytes()
    assert b"\nmeta input_width 10\n" in model
    for mode in ("kfold", "noise"):
        assert main(["eval", mode, *args, str(runs / mode),
                     "--checkpoint", str(runs / "train" / "model.tacm")]) == 0
    assert main(["train", *args, str(runs / "again")]) == 0
    for name in ("model.tacm", "history.csv"):
        assert (runs / "again" / name).read_bytes() == (runs / "train" / name).read_bytes()


@pytest.mark.parametrize("command, edit", [
    (["train", "--seed", "-1"], None),
    (["cl", "--seed", "-3"], None),
    (["train"], ("seed = 5", "seed = -4")),  # [dataset] seed
    (["train"], ("jitter_level = 0.1", "jitter_level = 0.1\nseed = -1")),  # [augment] seed
    (["ingest", "--seed", "-1"], None),
], ids=["train-seed", "cl-seed", "dataset-seed", "augment-seed", "ingest-seed"])
def test_negative_seed_exits_one_before_outputs(tmp_path, capsys, command, edit):
    cfg = _write_cfg(tmp_path)
    if edit is not None:
        cfg.write_text(cfg.read_text().replace(*edit, 1))
    out = tmp_path / "never"
    assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == 1
    assert "seed must be non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, edit", [
    (["ingest", "--seed", str(2**64)], None),
    (["train"], ("[run]\nseed = 0", f"[run]\nseed = {2**64}")),
    (["train"], ("seed = 5", f"seed = {2**64}")),  # [dataset] seed
    (["train"], ("jitter_level = 0.1", f"jitter_level = 0.1\nseed = {2**64}")),  # [augment]
    (["train"], ("schedule = cosine", f"schedule = cosine\nseed = {2**64}")),  # [train] seed
    (["cl", "--sweep"], ("ft_lr = 0.01", f"ft_lr = 0.01\nft_seed = {2**64}")),
], ids=["run-flag", "run-key", "dataset", "augment", "train", "cl-ft_seed"])
def test_a_seed_of_2_64_exits_one_before_outputs(tmp_path, capsys, command, edit):
    # seeds are 64-bit: 2**64 would otherwise run as seed 0
    cfg = _write_cfg(tmp_path)
    if edit is not None:
        cfg.write_text(cfg.read_text().replace(*edit, 1))
    out = tmp_path / "never"
    assert main([command[0], "--config", str(cfg), "--out", str(out), *command[1:]]) == 1
    assert f"seed must be non-negative and below 2**64, got {2**64}" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg"]


def _ragged_manifest(directory):
    """2 classes x 6 streams (4 train, 2 test) of 10 channels; every third
    stream has 44 readings, the others 40."""
    import numpy as np

    from taclearn.prng import Prng
    from taclearn.sensor_io import (Manifest, ManifestEntry, SensorSpec, SensorStream,
                                    write_manifest, write_stream)

    spec = SensorSpec("s", channels=10, sample_rate_hz=50.0)
    directory.mkdir()
    entries = []
    for c in range(2):
        for i in range(6):
            length = 44 if i % 3 == 2 else 40
            readings = 0.5 * c + np.asarray(Prng(10 * c + i).uniform(-1, 1, size=(length, 10)))
            rel = f"c{c}_s{i:02d}.csv"
            write_stream(directory / rel, SensorStream(spec=spec, readings=readings))
            entries.append(ManifestEntry(rel, str(c), "train" if i < 4 else "test"))
    write_manifest(directory / "manifest.txt", Manifest(spec=spec, entries=entries))
    return directory / "manifest.txt"


def test_images_of_one_dataset_must_share_one_shape(tmp_path, capsys):
    manifest = _ragged_manifest(tmp_path / "ragged")
    ragged = tmp_path / "ragged.cfg"
    ragged.write_text(f"""
[dataset]
mode = manifest
manifest = {manifest}

[train]
epochs = 2
batch_size = 4
schedule = cosine

[cl]
capacity = 4
ft_epochs = 1

[eval]
noise_levels = 0,0.2
""")
    for command in ("ingest", "train", "cl"):
        out = tmp_path / "never"
        assert main([command, "--config", str(ragged), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "c0_s02.csv" in err and "window_start" in err
        assert not out.exists()

    # cut to one window, the same streams train and evaluate
    windowed = tmp_path / "windowed.cfg"
    windowed.write_text(ragged.read_text() + "\n[transform]\nwindow_start = 0\nwindow_end = 39\n")
    assert main(["train", "--config", str(windowed), "--out", str(tmp_path / "train")]) == 0
    ckpt = tmp_path / "train" / "model.tacm"
    assert main(["eval", "noise", "--config", str(windowed), "--checkpoint", str(ckpt),
                 "--out", str(tmp_path / "eval")]) == 0
    out = tmp_path / "never"
    assert main(["eval", "noise", "--config", str(ragged), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 1
    assert "c0_s02.csv" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("split", ["train", "test"])
def test_synthetic_split_is_built_class_by_class(split):
    # each generated class is copied straight into its split's stack, so a
    # split's streams never sit beside it, and a class is generated in
    # blocks: traced memory peaks under the stacks plus four classes'
    # readings (2.9 measured; generating a class in one pass took 5.1).
    # Holding every stream beside its stack peaked at 74 MB for train, and
    # at 48 MB for test alone, whose bounds come from the train split.
    import tracemalloc

    import numpy as np

    from taclearn.cli import _load_bundle, _synthetic_config
    from taclearn.sensor_io import generate_synthetic, synthetic_sensor_spec
    from taclearn.tactile_image import compute_bounds, image_plane, normalize

    config = parse_config_text(
        "[dataset]\nmode = synthetic\nnum_classes = 10\nchannels = 12\nstream_length = 256\n"
        "train_per_class = 150\ntest_per_class = 5\n\n"
        "[transform]\nwindow_start = 3\nwindow_end = 250\n", path="synth.cfg")
    tracemalloc.start()
    try:
        bundle = _load_bundle(config, (split,))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    images = bundle.train_images if split == "train" else bundle.test_images
    class_bytes = 150 * 256 * 12 * 8
    assert peak <= images.data.nbytes + 4 * class_bytes

    synth = _synthetic_config(config)
    spec = synthetic_sensor_spec(synth)
    indices = range(150) if split == "train" else range(150, 155)
    readings = np.concatenate([generate_synthetic(synth, c, indices) for c in range(10)])
    bounds = compute_bounds(generate_synthetic(synth, c, range(150)) for c in range(10))
    expected = normalize(np.ascontiguousarray(image_plane(readings, spec, 3, 250)), *bounds)
    assert bundle.bounds == bounds
    # the float32 stack holds each value rounded once from its float64 normalization
    assert images.data.tobytes() == expected.data.astype(np.float32).tobytes()
    assert images.source == spec
    labels = bundle.train_labels if split == "train" else bundle.test_labels
    assert labels == [str(c) for c in range(10) for _ in indices]


@pytest.mark.parametrize("command, old, new, message", [
    ("train", "lr = 0.02", "lr = nan", "lr must be finite"),
    ("train", "lr = 0.02", "lr = inf", "lr must be finite"),
    ("train", "[train]\n", "[train]\nweight_decay = nan\n", "weight_decay must be finite"),
    ("cl", "ft_lr = 0.01", "ft_lr = nan", "lr must be finite"),
    ("cl", "[cl]\n", "[cl]\nft_weight_decay = inf\n", "weight_decay must be finite"),
    ("cl", "ridge_lambda = 1.0", "ridge_lambda = inf", "ridge_lambda must be finite"),
    ("train", "resize_max = 1.25", "resize_max = inf", "resize factors must be finite"),
    ("train", "noise_floor = 0.05", "noise_floor = nan", "noise_floor must be finite"),
    ("ingest", "noise_floor = 0.05", "noise_floor = inf", "noise_floor must be finite"),
    ("train", "jitter_level = 0.1", "jitter_level = nan", "jitter_level must be finite"),
    ("train", "jitter_level = 0.1", "jitter_level = inf", "jitter_level must be finite"),
], ids=["lr-nan", "lr-inf", "weight_decay-nan", "ft_lr-nan", "ft_weight_decay-inf",
        "ridge_lambda-inf", "resize_max-inf", "noise_floor-nan", "noise_floor-inf",
        "jitter_level-nan", "jitter_level-inf"])
def test_non_finite_config_values_exit_one_before_outputs(tmp_path, capsys, command, old, new,
                                                          message):
    cfg = _write_cfg(tmp_path)
    text = cfg.read_text()
    assert old in text
    cfg.write_text(text.replace(old, new, 1))
    out = tmp_path / "never"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key", [
    ("dataset", "num_classes"), ("dataset", "channels"), ("dataset", "stream_length"),
    ("dataset", "train_per_class"), ("dataset", "test_per_class"),
    ("transform", "input_width"),
])
def test_impossible_dataset_sizes_exit_one_before_outputs(tmp_path, capsys, section, key):
    # at 2**62 each of these used to end in numpy's ValueError or a MemoryError
    # (exit 2), or, for test_per_class, in a train run that never read it
    import re

    cfg = _write_cfg(tmp_path)
    text, count = re.subn(rf"^{key} = .*$", f"{key} = {2**62}", cfg.read_text(), flags=re.M)
    assert count == 1
    cfg.write_text(text)
    out = tmp_path / "never"
    for command in ("train", "cl"):
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 1
        assert f"[{section}] {key} must be an integer <= " in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command, splits", [
    (["train"], ("train",)),
    (["cl"], ("train", "test")),
    (["eval", "noise"], ("train", "test")),  # train for the bounds alone
], ids=["train", "cl", "eval-noise"])
def test_synthetic_load_generates_each_class_once_per_split(tmp_path, monkeypatch, command,
                                                           splits):
    # the benchmark's per-layer trace counts generation by wrapping
    # sensor_io.generate_synthetic wherever a taclearn module binds it
    from taclearn import sensor_io
    from taclearn.model import Checkpoint, ConvNetBackend, LinearHead, save_checkpoint

    cfg = _write_cfg(tmp_path)
    ckpt = tmp_path / "model.tacm"
    backend = ConvNetBackend(seed=1)
    save_checkpoint(ckpt, Checkpoint(backend=backend,
                                     heads={"classify": LinearHead.zeros(backend.embed_dim, 3)},
                                     meta={"classes": "0;1;2"}))
    generate = sensor_io.generate_synthetic
    calls = []

    def counted(config, class_id, indices):
        calls.append((class_id, list(indices)))
        return generate(config, class_id, indices)

    for name, module in list(sys.modules.items()):
        if name.startswith("taclearn") and getattr(module, "generate_synthetic", None) is generate:
            monkeypatch.setattr(module, "generate_synthetic", counted)
    extra = ["--checkpoint", str(ckpt)] if command[0] == "eval" else []
    assert main([*command, "--config", str(cfg), "--out", str(tmp_path / "o"), *extra]) == 0
    indices = {"train": list(range(6)), "test": list(range(6, 9))}
    assert calls == [(c, indices[split]) for split in splits for c in range(3)]


def test_cl_warm_start_changes_only_the_fine_tuned_model(tmp_path):
    # three classes: step 3 fine-tunes from step 2's tuned backend when warm
    cold_cfg = _write_cfg(tmp_path)
    warm_cfg = tmp_path / "warm.cfg"
    warm_cfg.write_text(cold_cfg.read_text().replace("[cl]\n", "[cl]\nwarm_start = true\n"))
    runs = {}
    for name, cfg in (("cold", cold_cfg), ("warm", warm_cfg), ("warm2", warm_cfg)):
        out = tmp_path / name
        assert main(["cl", "--config", str(cfg), "--out", str(out)]) == 0
        runs[name] = {f.name: f.read_bytes() for f in out.iterdir() if f.name != "config.used.txt"}
    assert runs["warm"]["final_ridge.tacm"] == runs["cold"]["final_ridge.tacm"]
    assert runs["warm"]["final_fine_tuned.tacm"] != runs["cold"]["final_fine_tuned.tacm"]
    assert runs["warm2"] == runs["warm"]


def test_checkpoints_carry_one_input_channel_and_refuse_three(tmp_path, trained, capsys):
    # train writes in=1; a three-channel checkpoint still loads as a
    # three-channel backend, and eval refuses to feed it tactile planes
    from taclearn.model import (Checkpoint, ConvNetBackend, LinearHead, load_checkpoint,
                                save_checkpoint)

    cfg, model = trained
    assert b"backend in=1 " in model.read_bytes()
    ckpt = tmp_path / "rgb.tacm"
    save_checkpoint(ckpt, Checkpoint(backend=ConvNetBackend(in_channels=3, seed=1),
                                     heads={"classify": LinearHead.zeros(128, 3)},
                                     meta={"task": "classify", "classes": "0;1;2"}))
    assert load_checkpoint(ckpt).backend.in_channels == 3
    out = tmp_path / "never"
    assert main(["eval", "noise", "--config", str(cfg), "--checkpoint", str(ckpt),
                 "--out", str(out)]) == 1
    assert "3-channel backend expects (N, 3, H, W) input" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("detail, message", [
    ("Unable to allocate 64.0 EiB for an array",
     "runtime failure: out of memory: Unable to allocate 64.0 EiB for an array\n"),
    ("", "runtime failure: out of memory\n"),
], ids=["numpy", "bare"])
def test_out_of_memory_exits_two_as_a_runtime_failure(tmp_path, capsys, monkeypatch, detail,
                                                      message):
    from taclearn import cli

    def exhausted(*args):
        raise MemoryError(detail)

    monkeypatch.setattr(cli, "_read_splits", exhausted)
    out = tmp_path / "never"
    assert main(["train", "--config", str(_write_cfg(tmp_path)), "--out", str(out)]) == 2
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_a_diverged_step_reports_only_the_runtime_failure(tmp_path, capsys):
    # the overflow inside the diverged step reaches the user as the
    # finite-loss failure alone, not as numpy warnings before it
    import warnings

    cfg = _write_cfg(tmp_path)
    cfg.write_text(cfg.read_text().replace("\nlr = 0.02", "\nlr = 1e200"))
    out = tmp_path / "never"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == "runtime failure: non-finite loss at epoch 0 batch 1\n"
    assert not out.exists()


def test_every_perfbench_traced_name_is_bound(monkeypatch):
    # the benchmark's traced run wraps these names by lookup; a renamed or
    # deleted one raises LookupError here rather than only in the benchmark
    import taclearn.cli  # noqa: F401  (binds every module the CLI reaches)

    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import instrument
    from spans import Patcher, Tracer

    with Patcher("taclearn") as patcher:
        instrument.install(Tracer(), patcher)


# Every key the six sections hold for train / cl / cl --sweep / eval, on a tiny
# 3-class 12x32 dataset trained for one epoch, with the commands that read it.
# [eval] threshold is left out: only composition eval reads it.
FUZZ_CFG = {
    "dataset": {"mode": "synthetic", "num_classes": "3", "channels": "12",
                "stream_length": "32", "base_freq_lo": "0.05", "base_freq_hi": "0.45",
                "noise_floor": "0.05", "seed": "5", "train_per_class": "6",
                "test_per_class": "3"},
    "transform": {"input_width": "32", "window_start": "0", "window_end": "31",
                  "frame_index": "0"},
    "augment": {"enabled": "true", "flip_prob": "0.5", "resize_min": "0.75",
                "resize_max": "1.25", "crop_min": "16", "crop_max": "32",
                "jitter_level": "0.1", "seed": "3"},
    "train": {"task": "classify", "epochs": "1", "lr": "0.02", "momentum": "0.9",
              "weight_decay": "1e-4", "batch_size": "8", "schedule": "cosine", "seed": "1",
              "val_fraction": "0.1", "plateau_patience": "10", "freeze_backend": "false"},
    "cl": {"capacity": "12", "sweep_capacities": "6,12", "ridge_lambda": "1.0",
           "ft_epochs": "1", "ft_lr": "0.01", "ft_momentum": "0.9", "ft_weight_decay": "1e-4",
           "ft_batch_size": "8", "ft_seed": "2", "ft_augment": "true", "warm_start": "false"},
    "eval": {"k": "2", "ridge_lambda": "1.0", "lengths": "8,16", "speeds": "0.5,2.0",
             "noise_levels": "0,0.25"},
}
FUZZ_ABSENT = {("train", "pretrained"), ("cl", "backend_checkpoint")}  # paths, unset above
FUZZ_COMMANDS = {"dataset": [["train"], ["cl"], ["eval", "noise"]], "augment": [["train"]],
                 "train": [["train"]], "cl": [["cl"], ["cl", "--sweep"]]}
FUZZ_COMMANDS["transform"] = FUZZ_COMMANDS["dataset"]
FUZZ_EVAL_MODES = {"k": "kfold", "ridge_lambda": "kfold", "lengths": "length",
                   "speeds": "speed", "noise_levels": "noise"}
FUZZ_VALUES = ["0", "-1", "nan", "inf", "x", "1,2", str(2**62)]
# in-range values whose only effect is a run of 2**62 epochs
FUZZ_SKIP = {("train", "epochs", str(2**62)), ("cl", "ft_epochs", str(2**62))}


def _fuzz_text(section=None, key=None, value=None):
    lines = []
    for name, items in FUZZ_CFG.items():
        items = dict(items)
        if name == section:
            items[key] = value
        lines += [f"[{name}]", *(f"{k} = {v}" for k, v in items.items()), ""]
    return "\n".join(lines)


def test_config_fuzz_ends_in_a_designed_exit(tmp_path, capsys):
    # each odd value of each key exits 0 or 1, or 2 only as a runtime failure
    cfg, out = tmp_path / "fuzz.cfg", tmp_path / "out"
    cfg.write_text(_fuzz_text())
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    ckpt = tmp_path / "model.tacm"
    (out / "model.tacm").rename(ckpt)
    keys = [(s, k) for s, items in FUZZ_CFG.items() for k in items] + sorted(FUZZ_ABSENT)
    surprises = []
    for section, key in keys:
        commands = FUZZ_COMMANDS.get(section) or [["eval", FUZZ_EVAL_MODES[key]]]
        for value in FUZZ_VALUES:
            if (section, key, value) in FUZZ_SKIP:
                continue
            cfg.write_text(_fuzz_text(section, key, value))
            for command in commands:
                capsys.readouterr()
                extra = ["--checkpoint", str(ckpt)] if command[0] == "eval" else []
                code = main([*command, *extra, "--config", str(cfg), "--out", str(out)])
                err = capsys.readouterr().err
                if code not in (0, 1) and not (code == 2 and err.startswith("runtime failure:")):
                    surprises.append((section, key, value, command[:2], code, err))
    assert surprises == []


@pytest.mark.parametrize("command, section, key, value, edits", [
    # capacity 6 fine-tunes on one batch, whose one step diverges
    (["cl", "--sweep"], "cl", "ft_lr", str(2**62), []),
    # 24 images at batch 16: the second, last step overflows float32
    (["train"], "augment", "jitter_level", "1e30",
     [("train_per_class = 6", "train_per_class = 8"), ("batch_size = 8", "batch_size = 16")]),
    # one batch per epoch: the step leaves float32 weights whose validation pass overflows
    (["train"], "train", "lr", "1e15", [("train_per_class = 6", "train_per_class = 10"),
                                        ("batch_size = 8", "batch_size = 64"),
                                        ("schedule = cosine", "schedule = plateau")]),
], ids=["cl-sweep-ft_lr", "train-jitter_level", "train-plateau-lr"])
def test_a_diverged_last_step_is_a_runtime_failure(tmp_path, capsys, command, section, key,
                                                    value, edits):
    # no loss check follows an epoch's last step; its parameters, and the
    # scores of the model it leaves, report the divergence, not numpy
    import warnings

    text = _fuzz_text(section, key, value)
    for old, new in edits:
        text = text.replace(old, new, 1)
    cfg = tmp_path / "diverged.cfg"
    cfg.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*command, "--config", str(cfg), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("runtime failure:")
    assert "acc_ft" not in captured.out


@pytest.mark.parametrize("command, section, key, value", [
    (["eval", "noise"], "eval", "noise_levels", "0,3e38"),
    (["eval", "noise"], "eval", "noise_levels", "0,1e39"),
    (["train"], "augment", "jitter_level", "1e39"),
], ids=["noise-3e38", "noise-1e39", "jitter-1e39"])
def test_a_level_overflowing_float32_exits_one_before_outputs(tmp_path, capsys, command,
                                                               section, key, value):
    import warnings

    cfg, ckpt = tmp_path / "level.cfg", tmp_path / "trained" / "model.tacm"
    cfg.write_text(_fuzz_text())
    assert main(["train", "--config", str(cfg), "--out", str(ckpt.parent)]) == 0
    cfg.write_text(_fuzz_text(section, key, value))
    extra = ["--checkpoint", str(ckpt)] if command[0] == "eval" else []
    out = tmp_path / "never"
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*command, *extra, "--config", str(cfg), "--out", str(out)])
    level = float(value.split(",")[-1])
    assert code == 1
    assert f"in [0, 2**127], got {level!r}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case, message", [
    ("composition-only", "checkpoint has no classification head"),
    ("short-class-list", "checkpoint lists 2 classes for a 3-way head"),
    ("no-constituents", "test sample without constituent truth"),
    ("constant-streams", "degenerate data: min == max == 0.5"),
], ids=["composition-only", "short-class-list", "no-constituents", "constant-streams"])
def test_designed_refusals_exit_one_before_outputs(tmp_path, capsys, case, message):
    import numpy as np

    from taclearn.fabric import CONSTITUENTS
    from taclearn.model import Checkpoint, ConvNetBackend, LinearHead, save_checkpoint
    from taclearn.sensor_io import (Manifest, ManifestEntry, SensorSpec, SensorStream,
                                    write_manifest, write_stream)

    cfg, ckpt = _write_cfg(tmp_path), tmp_path / "model.tacm"
    backend = ConvNetBackend(seed=1)
    command = ["eval", "noise", "--checkpoint", str(ckpt)]
    if case in ("composition-only", "no-constituents"):
        heads, meta = {"composition": LinearHead.zeros(backend.embed_dim, len(CONSTITUENTS))}, {}
    else:
        heads, meta = {"classify": LinearHead.zeros(backend.embed_dim, 3)}, {"classes": "0;1"}
    save_checkpoint(ckpt, Checkpoint(backend=backend, heads=heads, meta=meta))
    if case == "no-constituents":
        cfg.write_text(COMPOSITION_CFG.replace("0 = Cotton;Wool", "0 ="))
        command = ["eval", "composition", "--checkpoint", str(ckpt)]
    elif case == "constant-streams":
        spec = SensorSpec("s", channels=4, sample_rate_hz=50.0)
        for c in range(2):
            write_stream(tmp_path / f"c{c}.csv",
                         SensorStream(spec=spec, readings=np.full((16, 4), 0.5)))
        write_manifest(tmp_path / "manifest.txt", Manifest(
            spec=spec, entries=[ManifestEntry(f"c{c}.csv", str(c)) for c in range(2)]))
        cfg.write_text(f"[dataset]\nmode = manifest\nmanifest = {tmp_path / 'manifest.txt'}\n")
        command = ["train"]
    out = tmp_path / "never"
    assert main([*command, "--config", str(cfg), "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_plateau_train_without_a_validation_sample_logs_nan(tmp_path, capsys):
    # 4 images per class give up round(0.4) = 0 for validation
    cfg = _write_cfg(tmp_path, train_per_class=4)
    cfg.write_text(cfg.read_text().replace("schedule = cosine", "schedule = plateau"))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    epochs = [line for line in capsys.readouterr().out.splitlines() if line.startswith("epoch=")]
    assert len(epochs) == 3 and all(" val_acc=nan " in line for line in epochs)
    assert [row.split(",")[2] for row in (out / "history.csv").read_text().splitlines()[1:]] \
        == ["nan"] * 3
