from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_use_example_runs(capsys):
    # the README's "Library use" block, run as written
    section = README.read_text().split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("(")  # the accumulated errors, first
