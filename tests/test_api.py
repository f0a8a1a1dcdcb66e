"""The package exports no dead names."""

import io
import tokenize
import types
from pathlib import Path

import continua

SRC = Path(continua.__file__).parent
TESTS = Path(__file__).parent


def _names(path: Path) -> set[str]:
    """Names the code of ``path`` uses or imports: comments, strings,
    attribute accesses, definitions and module-level assignment targets
    do not count."""
    toks = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    out = set()
    for i, tok in enumerate(toks):
        if tok.type != tokenize.NAME:
            continue
        prev = toks[i - 1].string if i else ""
        if prev in {".", "def", "class"}:
            continue
        if tok.start[1] == 0 and toks[i + 1].string == "=":
            continue
        out.add(tok.string)
    return out


def test_every_export_is_used():
    files = [p for p in SRC.glob("*.py") if p.name != "__init__.py"]
    files += [p for p in TESTS.glob("*.py") if p.name != Path(__file__).name]
    used = set().union(*(_names(p) for p in files))
    dead = [
        name
        for name in continua.__all__
        if not isinstance(getattr(continua, name), types.ModuleType) and name not in used
    ]
    assert dead == [], f"exported but used nowhere in src/ or tests/: {dead}"
