"""Parity-pair registry: every batch kernel has a scalar twin + test.

The repo's performance story is "vectorize, keep the scalar loop as the
executable reference, pin them together within 1e-9".  That contract
has three checkable parts, each a rule:

* **PAR001** — a ``*_batch`` kernel with no discoverable scalar twin:
  neither ``name`` minus ``_batch``, nor ``_batch`` -> ``_scalar``, in
  the same class (then same module), nor an explicit
  :data:`~repro.lint.config.LintConfig.parity_twin_overrides` entry.  An
  override of the form ``tests/<path>.py::<name>`` names a test oracle:
  the twin is found only when that file defines ``<name>`` at top level.
  Exemptions live in ``parity_exempt`` with a justification string each.
* **PAR002** — no differential test: no file under ``tests/`` or
  ``benchmarks/`` names **both** halves of the pair (word-boundary
  match, so ``pm_cpu_batch`` does not count as naming ``pm_cpu``).
* **PAR003** — the contracts table in ``docs/API.md`` references a
  ``tests/...`` or ``benchmarks/...`` path that does not exist — the
  table is the human-facing registry, and a dangling row means the
  enforcement it promises is gone.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from .config import LintConfig
from .findings import Finding
from .walker import FileContext

__all__ = ["check_repo"]

_DOC_PATH_RE = re.compile(r"(?:tests|benchmarks)/[\w./-]+?\.py")


def _word_re(name: str) -> "re.Pattern":
    return re.compile(rf"(?<![\w]){re.escape(name)}(?![\w])")


def _batch_defs(ctx: FileContext) -> List[Tuple[str, str, ast.AST, List[str]]]:
    """(qualname, class prefix or "", def node, sibling names) per kernel."""
    out = []

    def walk(node, prefix: str, siblings_of: Dict[str, List[str]]):
        names = [c.name for c in ast.iter_child_nodes(node)
                 if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if child.name.endswith("_batch"):
                    qual = ".".join(p for p in (ctx.module, prefix,
                                                child.name) if p)
                    out.append((qual, prefix, child, names))
                walk(child, f"{prefix}.{child.name}" if prefix
                     else child.name, siblings_of)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}.{child.name}" if prefix
                     else child.name, siblings_of)

    walk(ctx.tree, "", {})
    return out


def _module_toplevel_names(ctx: FileContext) -> List[str]:
    return [c.name for c in ast.iter_child_nodes(ctx.tree)
            if isinstance(c, (ast.FunctionDef, ast.AsyncFunctionDef))]


def _twin_candidates(name: str) -> List[str]:
    base = name[:-len("_batch")]
    return [base, f"{base}_scalar"]


def _oracle_twin(root: Path, ref: str) -> Optional[str]:
    """``<name>`` of a ``<path>.py::<name>`` reference, if the file
    defines it at top level."""
    path, _sep, name = ref.partition("::")
    try:
        tree = ast.parse((root / path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, SyntaxError, ValueError):
        return None
    defined = {node.name for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))}
    return name if name in defined else None


def _find_twin(name: str, qual: str, siblings: List[str],
               toplevel: List[str], config: LintConfig,
               root: Path) -> Optional[str]:
    override = config.parity_twin_overrides.get(qual)
    if override and "::" in override:
        return _oracle_twin(root, override)
    candidates = [override] if override else _twin_candidates(name)
    for cand in candidates:
        if cand and (cand in siblings or cand in toplevel):
            return cand
    return None


def _test_corpus(root: Path, config: LintConfig) -> List[Tuple[str, str]]:
    corpus: List[Tuple[str, str]] = []
    for dirname in config.parity_test_dirs:
        base = root / dirname
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*.py")):
            try:
                corpus.append((path.relative_to(root).as_posix(),
                               path.read_text(encoding="utf-8")))
            except (OSError, UnicodeDecodeError):
                continue
    return corpus


def check_repo(contexts: Iterable[FileContext], root: Path,
               config: LintConfig) -> List[Finding]:
    findings: List[Finding] = []
    corpus: Optional[List[Tuple[str, str]]] = None

    for ctx in contexts:
        toplevel = _module_toplevel_names(ctx)
        for qual, prefix, node, siblings in _batch_defs(ctx):
            if qual in config.parity_exempt:
                continue
            symbol = qual
            twin = _find_twin(node.name, qual, siblings, toplevel, config,
                              root)
            if twin is None:
                override = config.parity_twin_overrides.get(qual, "")
                where = (f"({override} is not defined there)"
                         if "::" in override else
                         f"({' / '.join(_twin_candidates(node.name))}) "
                         f"in its class or module")
                findings.append(Finding(
                    path=ctx.relpath, line=node.lineno,
                    col=node.col_offset, rule="PAR001", severity="error",
                    symbol=symbol,
                    message=f"batch kernel {node.name} has no scalar "
                            f"twin {where}; add the reference "
                            f"implementation, a parity_twin_overrides "
                            f"entry, or a justified parity_exempt entry"))
                continue
            if corpus is None:
                corpus = _test_corpus(root, config)
            batch_re, twin_re = _word_re(node.name), _word_re(twin)
            if not any(batch_re.search(text) and twin_re.search(text)
                       for _p, text in corpus):
                findings.append(Finding(
                    path=ctx.relpath, line=node.lineno,
                    col=node.col_offset, rule="PAR002", severity="error",
                    symbol=symbol,
                    message=f"no differential test names both "
                            f"{node.name} and its scalar twin {twin} "
                            f"in one file under "
                            f"{'/'.join(config.parity_test_dirs)}"))

    doc_path = root / config.contracts_doc
    if doc_path.is_file():
        try:
            lines = doc_path.read_text(encoding="utf-8").splitlines()
        except (OSError, UnicodeDecodeError):
            lines = []
        for lineno, line in enumerate(lines, start=1):
            for match in _DOC_PATH_RE.finditer(line):
                ref = match.group(0)
                if not (root / ref).exists():
                    findings.append(Finding(
                        path=config.contracts_doc, line=lineno,
                        col=match.start(), rule="PAR003",
                        severity="error", symbol=config.contracts_doc,
                        message=f"contracts table references {ref}, "
                                f"which does not exist — the enforcement "
                                f"this row promises is gone"))
    return findings
