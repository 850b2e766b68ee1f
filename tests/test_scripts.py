"""Smoke test: every script under scripts/ runs to exit 0 on small inputs."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from seplift.catalog import CURATED_SUITE

SCRIPT_DIR = Path(__file__).resolve().parent.parent / "scripts"

# Command-line arguments per script, chosen to keep each run around a second.
SCRIPT_ARGS = {
    "arity_scaling.py": ["--max-multiplicity", "1", "--locs", "2", "--gens", "2"],
    "layout_gallery.py": ["--witnesses"],
}


def _run_main(name: str, monkeypatch) -> int:
    spec = importlib.util.spec_from_file_location(
        f"script_{Path(name).stem}", SCRIPT_DIR / name
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(sys, "argv", [name, *SCRIPT_ARGS[name]])
    try:
        code = module.main()
    except SystemExit as exc:
        code = exc.code
    return code or 0


def test_every_script_has_arguments():
    assert sorted(p.name for p in SCRIPT_DIR.glob("*.py")) == sorted(SCRIPT_ARGS)


@pytest.mark.parametrize("name", sorted(SCRIPT_ARGS))
def test_script_exits_zero(name, monkeypatch, capsys):
    assert _run_main(name, monkeypatch) == 0
    out = capsys.readouterr().out
    assert out
    if name == "layout_gallery.py":
        # --witnesses prints one package per rejected curated entry
        rejected = [e for e in CURATED_SUITE if e.expected == "no_guarantee"]
        assert out.count("\n  instance: ") == len(rejected)
        assert "no witness package" not in out
