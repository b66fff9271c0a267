"""Golden outputs: every file that acceptance criterion 10's config writes,
plus ``haar --device`` on that config, recorded as each file's SHA-256 and
its parsed numbers, next to the numpy, BLAS and CPU that wrote them.

``tests/test_golden.py`` reruns the commands and compares: bytes where the
numpy, BLAS and CPU match the record, and otherwise the text between the
numbers and every integer exactly and every float to a stated relative
tolerance. After a change that moves output bytes on purpose, rewrite the
record with

    PYTHONPATH=src python tests/golden_outputs.py

and list each changed file, and why, in CHANGES.md.
"""

import hashlib
import json
import re
import tempfile
from pathlib import Path

import numpy as np

# one JSON line of the stack and the config, then one line per file
GOLDEN = Path(__file__).with_name("golden") / "criterion10.jsonl"

# acceptance criterion 10's config
CONFIG = {
    "seed": 4242,
    "evolution": {"n_steps": 192},
    "sampling": {"count": 100},
    "haar": {"n_matrices": 5, "columns": 30},
}

# a number standing alone: not part of a word, such as a hex digest or a key
_NUMBER = re.compile(r"(?<![\w.])(?:-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|inf)|NaN|nan)"
                     r"(?![\w.])")
_SLOT = "@"                 # where a number stood in a file's text


def _commands(cfg, out):
    """(output directory, argv) of each command, in the order they run."""
    unitary, samples = out / "sim" / "unitary.json", out / "smp" / "samples.jsonl"
    return [
        ("sim", ["simulate", "--config", cfg]),
        ("smp", ["sample", "--config", cfg, "--unitary", unitary]),
        ("rec", ["reconstruct", "--config", cfg, "--unitary", unitary]),
        ("val", ["validate", "--config", cfg, "--unitary", unitary, "--samples", samples,
                 "--test", "uniform", "--ensemble", "25"]),
        ("haar", ["haar", "--config", cfg]),
        ("haar_device", ["haar", "--config", cfg, "--device"]),
        ("fp", ["footprint", "--config", cfg]),
    ]


def run_commands(workdir: Path) -> dict:
    """{"<directory>/<file>": bytes} of every file the commands write."""
    from photonlat.cli import main

    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    files = {}
    for sub, argv in _commands(cfg, workdir):
        assert main([str(a) for a in argv] + ["--out", str(workdir / sub)]) == 0, sub
        for path in sorted((workdir / sub).iterdir()):
            files[f"{sub}/{path.name}"] = path.read_bytes()
    return files


def record(data: bytes) -> dict:
    """A file's SHA-256, its text with each number replaced by ``_SLOT``,
    and its integers and floats in the order they appear."""
    text = data.decode()
    assert _SLOT not in text
    tokens = _NUMBER.findall(text)
    ints = [int(t) for t in tokens if t.lstrip("-").isdigit()]
    floats = [float(t) for t in tokens if not t.lstrip("-").isdigit()]
    return {"sha256": hashlib.sha256(data).hexdigest(), "text": _NUMBER.sub(_SLOT, text),
            "ints": ints, "floats": floats}


def stack() -> dict:
    """The numpy, BLAS and CPU that the bytes of the outputs depend on."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):       # a numpy without the dict form
        blas = "unknown"
    cpu = "unknown"
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    return {"numpy": np.__version__, "blas": blas, "cpu": cpu}


def mismatches(got: dict, want: dict, exact: bool, rtol: float, atol: float) -> list:
    """The names of the files of ``want`` that ``got`` lacks, adds or
    differs in, each by :func:`record`: with ``exact``, by SHA-256;
    otherwise by text and integers exactly and floats to ``rtol`` (and
    ``atol`` near 0)."""
    bad = sorted(set(got) ^ set(want))
    for name in sorted(set(got) & set(want)):
        a, b = got[name], want[name]
        if exact:
            same = a["sha256"] == b["sha256"]
        else:
            same = a["text"] == b["text"] and a["ints"] == b["ints"] and \
                len(a["floats"]) == len(b["floats"]) and \
                np.allclose(a["floats"], b["floats"], rtol=rtol, atol=atol, equal_nan=True)
        if not same:
            bad.append(name)
    return bad


def read_golden() -> dict:
    """The record :func:`main` writes: {"stack", "config", "files"}, with
    "files" mapping each file's name to its :func:`record`."""
    head, *lines = map(json.loads, GOLDEN.read_text().splitlines())
    return {**head, "files": {line.pop("name"): line for line in lines}}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        files = run_commands(Path(tmp))
    lines = [{"stack": stack(), "config": CONFIG}]
    lines += [{"name": name, **record(data)} for name, data in files.items()]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("".join(json.dumps(line) + "\n" for line in lines))
    print(f"wrote {len(files)} file records to {GOLDEN}")


if __name__ == "__main__":
    main()
