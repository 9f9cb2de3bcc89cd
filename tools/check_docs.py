#!/usr/bin/env python
"""Documentation checker: intra-repo links + executable code blocks.

Two failure modes make docs rot: a moved file breaks a relative link,
and an API change breaks a pasted example.  This tool fails the build
on both:

* every Markdown link/image target in the repo's ``*.md`` files that is
  neither absolute (``http(s)://``, ``mailto:``) nor a pure fragment
  must resolve to an existing file or directory relative to the file
  that links it;
* every fenced ``python`` code block in README.md is executed (with
  ``src/`` importable, a ``DeprecationWarning`` the block triggers
  raised as an error) and must run to completion.  Blocks that are
  illustrative rather than runnable should be fenced as ``text`` or
  ``bash`` instead;
* the rule table in docs/ARCHITECTURE.md must agree with the registered
  ``repro.analysis`` rule pack — every rule documented with its current
  name and severity, no ghost rows, none missing;
* the injection-site table in docs/ARCHITECTURE.md §9 must agree with
  the registered ``repro.faults.INJECTION_SITES`` — every site
  documented with its module and fault kinds, no ghost rows, none
  missing, and every site literal actually present in the module that
  claims it.

Run:  python tools/check_docs.py          (from the repo root or anywhere)
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: Markdown files whose links are checked.
MD_GLOBS = ["*.md", "docs/*.md"]

#: Vendored/auto-retrieved reference dumps — not maintained docs, their
#: (dead) figure links are upstream's problem.
EXCLUDE = {"PAPERS.md", "SNIPPETS.md"}

#: Files whose ``` ```python``` blocks must execute.
EXECUTABLE_BLOCKS = ["README.md"]

_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_RULE_ROW_RE = re.compile(r"^\|\s*((?:DET|NUM)\d+)\s*\|([^|]*)\|([^|]*)\|", re.MULTILINE)
_SITE_ROW_RE = re.compile(
    r"^\|\s*`([a-z][a-z.-]*)`\s*\|\s*`([^`]+\.py)`\s*\|([^|]*)\|", re.MULTILINE
)
_FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def iter_markdown_files() -> list[Path]:
    files: list[Path] = []
    for pattern in MD_GLOBS:
        files.extend(
            p for p in sorted(REPO.glob(pattern)) if p.name not in EXCLUDE
        )
    return files


def check_links() -> list[str]:
    """Return one error string per broken intra-repo link."""
    errors: list[str] = []
    for md in iter_markdown_files():
        for target in _LINK_RE.findall(md.read_text()):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            path = target.split("#", 1)[0]  # strip fragments
            if not path:
                continue
            resolved = (md.parent / path).resolve()
            if not resolved.exists():
                errors.append(
                    f"{md.relative_to(REPO)}: broken link -> {target}"
                )
    return errors


def check_code_blocks() -> list[str]:
    """Execute every fenced python block; return one error per failure."""
    errors: list[str] = []
    for name in EXECUTABLE_BLOCKS:
        md = REPO / name
        blocks = _FENCE_RE.findall(md.read_text())
        if not blocks:
            errors.append(f"{name}: no python code blocks found (expected some)")
        for i, block in enumerate(blocks):
            proc = subprocess.run(
                [sys.executable, "-W", "error::DeprecationWarning:__main__",
                 "-"],
                input=block,
                text=True,
                capture_output=True,
                cwd=REPO,
                env={
                    **__import__("os").environ,
                    "PYTHONPATH": f"{SRC}",
                },
            )
            if proc.returncode != 0:
                errors.append(
                    f"{name}: python block #{i + 1} failed:\n"
                    f"{proc.stderr.strip()}"
                )
    return errors


def check_rule_table() -> list[str]:
    """docs/ARCHITECTURE.md rule table vs the registered rule pack."""
    sys.path.insert(0, str(SRC))
    try:
        from repro.analysis import RULES
    finally:
        sys.path.pop(0)
    md = REPO / "docs" / "ARCHITECTURE.md"
    rows = {
        m.group(1): (m.group(2).strip(), m.group(3).strip())
        for m in _RULE_ROW_RE.finditer(md.read_text())
    }
    errors: list[str] = []
    for rule_id in sorted(set(rows) - set(RULES)):
        errors.append(
            f"docs/ARCHITECTURE.md: rule table documents {rule_id}, "
            f"which is not registered in repro.analysis.RULES"
        )
    for rule_id in sorted(set(RULES) - set(rows)):
        errors.append(
            f"docs/ARCHITECTURE.md: registered rule {rule_id} is missing "
            f"from the rule table"
        )
    for rule_id in sorted(set(rows) & set(RULES)):
        name, severity = rows[rule_id]
        rule = RULES[rule_id]
        if name != rule.name or severity != rule.severity:
            errors.append(
                f"docs/ARCHITECTURE.md: {rule_id} documented as "
                f"({name!r}, {severity!r}) but registered as "
                f"({rule.name!r}, {rule.severity!r})"
            )
    return errors


def check_fault_table() -> list[str]:
    """docs/ARCHITECTURE.md §9 site table vs ``INJECTION_SITES``."""
    sys.path.insert(0, str(SRC))
    try:
        from repro.faults import INJECTION_SITES
    finally:
        sys.path.pop(0)
    md = REPO / "docs" / "ARCHITECTURE.md"
    rows = {
        m.group(1): (m.group(2).strip(), m.group(3).strip())
        for m in _SITE_ROW_RE.finditer(md.read_text())
    }
    errors: list[str] = []
    for name in sorted(set(rows) - set(INJECTION_SITES)):
        errors.append(
            f"docs/ARCHITECTURE.md: site table documents {name!r}, which "
            f"is not registered in repro.faults.INJECTION_SITES"
        )
    for name in sorted(set(INJECTION_SITES) - set(rows)):
        errors.append(
            f"docs/ARCHITECTURE.md: registered injection site {name!r} is "
            f"missing from the site table"
        )
    for name in sorted(set(rows) & set(INJECTION_SITES)):
        module, kinds = rows[name]
        site = INJECTION_SITES[name]
        if module != site.module or kinds != ", ".join(site.kinds):
            errors.append(
                f"docs/ARCHITECTURE.md: site {name!r} documented as "
                f"({module!r}, {kinds!r}) but registered as "
                f"({site.module!r}, {', '.join(site.kinds)!r})"
            )
        source_file = SRC / "repro" / site.module
        if not source_file.exists():
            errors.append(
                f"repro.faults: site {name!r} claims module "
                f"{site.module!r}, which does not exist under src/repro/"
            )
        elif f'"{name}"' not in source_file.read_text():
            errors.append(
                f"src/repro/{site.module}: registered injection site "
                f"{name!r} never appears in its claimed module"
            )
    return errors


def main() -> int:
    link_errors = check_links()
    code_errors = check_code_blocks()
    rule_errors = check_rule_table()
    fault_errors = check_fault_table()
    for err in link_errors + code_errors + rule_errors + fault_errors:
        print(f"ERROR {err}", file=sys.stderr)
    n_md = len(iter_markdown_files())
    n_blocks = sum(
        len(_FENCE_RE.findall((REPO / name).read_text()))
        for name in EXECUTABLE_BLOCKS
    )
    if link_errors or code_errors or rule_errors or fault_errors:
        print(f"\ndocs check FAILED "
              f"({len(link_errors)} broken links, "
              f"{len(code_errors)} broken code blocks, "
              f"{len(rule_errors)} rule-table mismatches, "
              f"{len(fault_errors)} site-table mismatches)", file=sys.stderr)
        return 1
    print(f"docs check OK: {n_md} markdown files linked consistently, "
          f"{n_blocks} README python blocks executed, rule and "
          f"injection-site tables in sync")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
