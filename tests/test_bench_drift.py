"""benchmarks/check_bench_drift.py: a file HEAD does not hold is named,
counted as stale, and the other files are still compared."""

import importlib.util
import json
import subprocess
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "check_bench_drift.py"


def _load():
    spec = importlib.util.spec_from_file_location("check_bench_drift", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_an_uncommitted_file_is_named_and_stale(tmp_path, monkeypatch, capsys):
    drift = _load()
    missing = drift.DETERMINISTIC[1]
    for name in drift.DETERMINISTIC:
        (tmp_path / name).write_text(json.dumps({"cycles": 1}), encoding="utf-8")

    def show(args, check=False, **kwargs):
        # ``git show HEAD:<file>``, as if HEAD held every file but one.
        name = args[-1].split(":", 1)[1]
        if name != missing:
            return subprocess.CompletedProcess(args, 0, json.dumps({"cycles": 1}), "")
        if check:
            raise subprocess.CalledProcessError(128, args)
        return subprocess.CompletedProcess(
            args, 128, "", f"fatal: path '{name}' does not exist in 'HEAD'"
        )

    monkeypatch.setattr(drift, "ROOT", tmp_path)
    monkeypatch.setattr(drift.subprocess, "run", show)
    assert drift.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert f"{missing}: not committed at HEAD" in lines
    for name in drift.DETERMINISTIC:
        if name != missing:
            assert f"{name}: matches the committed file" in lines
