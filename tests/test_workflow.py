"""The packaging job of the CI workflow, replayed offline.

Every `run:` step of the `packaging` job in `.github/workflows/tier1.yml`
that installs nothing runs in workflow order under `bash -e -o pipefail`,
in one temporary RUNNER_TEMP, with `PYTHONPATH=src` and a `hypdiss` shim on
PATH that runs `python -m hypdiss.cli "$@"`.  The install step is replaced
by the check that `pyproject.toml` names the console script's entry point.
A step that calls a tool which is not installed is skipped by name.
"""

import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

yaml = pytest.importorskip("yaml", reason="parsing the workflow needs PyYAML")

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"
INSTALLS = re.compile(r"\bpip3? install\b|\bapt(-get)? install\b|\bconda install\b")
COMMAND_START = {"&&", "||", "|", ";", "(", "!"}
STEPS = [s for s in yaml.safe_load(WORKFLOW.read_text())["jobs"]["packaging"]["steps"]
         if "run" in s]


def commands(script):
    """Names in command position of a bash script: the first word of each
    line and the word after each operator, skipping here-document bodies,
    continuation lines and variable assignments."""
    names, heredoc, continued = [], None, False
    for line in script.splitlines():
        text = line.strip()
        if heredoc is not None:
            heredoc = None if text == heredoc else heredoc
            continue
        if text and not continued:
            lexer = shlex.shlex(text.removesuffix("\\"), posix=True, punctuation_chars=True)
            lexer.whitespace_split = True
            start = True
            for token in lexer:
                if start and "=" not in token and token not in COMMAND_START:
                    names.append(token)
                start = token in COMMAND_START or (start and "=" in token)
        match = re.search(r"<<-?\s*'?(\w+)'?", text)
        if match:
            heredoc = match.group(1)
        continued = text.endswith("\\")
    return names


def _bash_builtins():
    out = subprocess.run(["bash", "-c", "compgen -b; compgen -k"], capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


@pytest.fixture(scope="module")
def replay(tmp_path_factory):
    """Runs the steps once, in workflow order; step name -> (skip reason or
    None, completed process or None)."""
    runner_temp = tmp_path_factory.mktemp("runner_temp")
    shim_dir = tmp_path_factory.mktemp("bin")
    shim = shim_dir / "hypdiss"
    shim.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m hypdiss.cli "$@"\n')
    shim.chmod(0o755)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), RUNNER_TEMP=str(runner_temp),
               PATH=f"{shim_dir}{os.pathsep}{os.environ.get('PATH', '')}")
    builtins = _bash_builtins()
    results = {}
    for step in STEPS:
        script = step["run"]
        missing = sorted({c for c in commands(script)
                          if c not in builtins and shutil.which(c, path=env["PATH"]) is None})
        cwd = step.get("working-directory", str(ROOT)).replace("${{ runner.temp }}",
                                                               str(runner_temp))
        if INSTALLS.search(script):
            results[step["name"]] = ("installs from the network", None)
        elif missing:
            results[step["name"]] = (f"needs {', '.join(missing)}, not installed", None)
        else:
            proc = subprocess.run(["bash", "--noprofile", "--norc", "-e", "-o", "pipefail",
                                   "-c", script], cwd=cwd, env=env, capture_output=True,
                                  text=True, timeout=300)
            results[step["name"]] = (None, proc)
    return results


def test_commands_of_a_script():
    script = ("set +e\nhypdiss check --a 1 \\\n  --b 2 2> err\ncode=$?\n"
              "cat > m.json <<'JSON'\n{\"n\": 1}\nJSON\n"
              "tail -1 out | grep -q '\"x\": true' && test -s f; cmp a b\n")
    assert commands(script) == ["set", "hypdiss", "cat", "tail", "grep", "test", "cmp"]


@pytest.mark.parametrize("name", [s["name"] for s in STEPS])
def test_packaging_step(replay, name):
    reason, proc = replay[name]
    if reason is not None:
        pytest.skip(f"step {name!r} {reason}")
    assert proc.returncode == 0, (f"step {name!r} exited {proc.returncode}\n"
                                  f"stdout:\n{proc.stdout}\nstderr:\n{proc.stderr}")


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="tomllib is in the standard library from Python 3.11 on")
def test_console_script_names_the_cli():
    import tomllib

    from hypdiss.cli import main

    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    assert scripts == {"hypdiss": "hypdiss.cli:main"}
    assert callable(main)
