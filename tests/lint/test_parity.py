"""Tmp-repo fixtures for the parity-pair registry (PAR001-003)."""

import textwrap
from dataclasses import replace

import pytest

from repro.lint import run_lint
from repro.lint.config import DEFAULT_CONFIG


def make_repo(tmp_path, module_src, test_src=None, doc=None):
    pkg = tmp_path / "src" / "pkg"
    pkg.mkdir(parents=True)
    (pkg / "__init__.py").write_text("")
    (pkg / "kernels.py").write_text(textwrap.dedent(module_src))
    if test_src is not None:
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_kernels.py").write_text(textwrap.dedent(test_src))
    if doc is not None:
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "API.md").write_text(textwrap.dedent(doc))
    return tmp_path


def lint_repo(root):
    return run_lint(paths=[root / "src" / "pkg"], root=root)


def rules(findings):
    return [f.rule for f in findings]


class TestPAR001MissingTwin:
    def test_batch_without_twin_flagged(self, tmp_path):
        root = make_repo(tmp_path, """
            def score_batch(xs):
                return [x * 2 for x in xs]
        """)
        findings = lint_repo(root)
        assert rules(findings) == ["PAR001"]
        assert "score_batch" in findings[0].message

    def test_suffixless_twin_found(self, tmp_path):
        root = make_repo(tmp_path, """
            def score(x):
                return x * 2

            def score_batch(xs):
                return [score(x) for x in xs]
        """, test_src="""
            from pkg.kernels import score, score_batch

            def test_parity():
                assert score_batch([1]) == [score(1)]
        """)
        assert lint_repo(root) == []

    def test_scalar_suffix_twin_found(self, tmp_path):
        root = make_repo(tmp_path, """
            def pack_scalar(x):
                return x

            def pack_batch(xs):
                return xs
        """, test_src="""
            from pkg.kernels import pack_scalar, pack_batch
        """)
        assert lint_repo(root) == []

    def test_twin_in_same_class_found(self, tmp_path):
        root = make_repo(tmp_path, """
            class Model:
                def predict(self, x):
                    return x

                def predict_batch(self, xs):
                    return xs
        """, test_src="""
            def test_pair(model):
                assert model.predict_batch([1]) == [model.predict(1)]
        """)
        assert lint_repo(root) == []


class TestOracleTwins:
    """``parity_twin_overrides`` values of the form
    ``tests/<path>.py::<name>`` point a kernel at a test oracle."""

    KERNEL = """
        def pack_batch(xs):
            return xs
    """
    CONFIG = replace(DEFAULT_CONFIG, parity_twin_overrides={
        "pkg.kernels.pack_batch": "tests/oracle.py::pack_scalar"})

    def lint_with_oracle(self, tmp_path, oracle_src):
        root = make_repo(tmp_path, self.KERNEL, test_src="""
            from oracle import pack_scalar
            from pkg.kernels import pack_batch

            def test_parity():
                assert pack_batch([1]) == pack_scalar([1])
        """)
        (root / "tests" / "oracle.py").write_text(
            textwrap.dedent(oracle_src))
        return run_lint(paths=[root / "src" / "pkg"], root=root,
                        config=self.CONFIG)

    def test_oracle_defining_the_twin_passes(self, tmp_path):
        assert self.lint_with_oracle(tmp_path, """
            def pack_scalar(xs):
                return list(xs)
        """) == []

    def test_oracle_lacking_the_twin_flagged(self, tmp_path):
        findings = self.lint_with_oracle(tmp_path, """
            def other_helper(xs):
                # Mentions pack_scalar only in a comment.
                return xs
        """)
        assert rules(findings) == ["PAR001"]
        assert "tests/oracle.py::pack_scalar" in findings[0].message


class TestPAR002MissingDifferentialTest:
    def test_pair_without_shared_test_flagged(self, tmp_path):
        root = make_repo(tmp_path, """
            def score(x):
                return x

            def score_batch(xs):
                return xs
        """, test_src="""
            from pkg.kernels import score_batch

            def test_batch_only():
                assert score_batch([]) == []
        """)
        findings = lint_repo(root)
        assert rules(findings) == ["PAR002"]

    def test_word_boundary_matching(self, tmp_path):
        # ``score_batch`` occurring in the test must NOT count as naming
        # the scalar ``score``.
        root = make_repo(tmp_path, """
            def score(x):
                return x

            def score_batch(xs):
                return xs
        """, test_src="""
            import pkg.kernels

            def test_only_mentions_batch():
                assert pkg.kernels.score_batch([]) == []
        """)
        assert rules(lint_repo(root)) == ["PAR002"]


class TestPAR003DanglingDocRows:
    def test_missing_referenced_test_path_flagged(self, tmp_path):
        root = make_repo(tmp_path, """
            x = 1
        """, doc="""
            | contract | enforced by |
            |---|---|
            | parity | tests/test_gone.py |
        """)
        findings = lint_repo(root)
        assert rules(findings) == ["PAR003"]
        assert "tests/test_gone.py" in findings[0].message

    def test_existing_path_clean(self, tmp_path):
        root = make_repo(tmp_path, """
            x = 1
        """, test_src="""
            def test_ok():
                pass
        """, doc="""
            | parity | tests/test_kernels.py |
        """)
        assert lint_repo(root) == []

    def test_no_doc_skips_check(self, tmp_path):
        root = make_repo(tmp_path, """
            x = 1
        """)
        assert lint_repo(root) == []
