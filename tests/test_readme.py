"""The README's library example runs as written."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_minimal_library_session_prints_a_rate(capsys):
    text = README.read_text(encoding="utf-8")
    example = text.split("A minimal library session", 1)[1]
    code = example.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert float(capsys.readouterr().out) > 0
