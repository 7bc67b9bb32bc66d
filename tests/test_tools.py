import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "out_bytes.py"


def load_out_bytes():
    spec = importlib.util.spec_from_file_location("out_bytes", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_out_bytes_relative_dest(tmp_path, monkeypatch):
    out_bytes = load_out_bytes()
    monkeypatch.setattr(out_bytes, "COMMANDS",
                        {"exact_limits": (["exact", "limits"], ".json")})
    monkeypatch.chdir(tmp_path)
    assert out_bytes.main(["rel"]) == 0
    assert (tmp_path / "rel" / "exact_limits.out").read_text().startswith("{")
    assert (tmp_path / "rel" / "exact_limits.code").read_text() == "0\n"


def test_readme_counts_the_commands():
    readme = (ROOT / "README.md").read_text()
    counts = re.findall(r"fixed list of (\d+)\s+commands", readme)
    assert counts == [str(len(load_out_bytes().COMMANDS))]
