#!/usr/bin/env python
"""Docs drift gate: the documentation must cover the actual CLI and spec.

Checks (the CI ``docs`` job fails on any finding):

1. Every CLI verb registered in ``repro.cli.build_parser`` has a
   ``## repro <verb>`` section in ``docs/cli.md``, and every long option
   of every verb is mentioned somewhere in that file.
2. Every field of ``ExperimentSpec`` appears in ``docs/spec-reference.md``.
3. Every relative markdown link in ``docs/*.md``, ``README.md`` and
   ``CONTRIBUTING.md`` resolves: the target file exists, and when the
   link carries a ``#fragment`` the target contains a heading with that
   GitHub anchor.
4. Every backticked ``repro.<dotted>`` path in those files resolves: the
   longest prefix that imports is imported and the rest is looked up with
   ``getattr``, so names a package exports lazily resolve too.

Run it from the repository root::

    python tools/check_docs.py

The script needs only the repository itself (it inserts ``src/`` on
``sys.path``); it is intentionally conservative — a flag merely has to be
*mentioned*, prose quality stays a human concern.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import os
import re
import sys
from typing import Dict, List, Set, Tuple

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

DOCS_DIR = os.path.join(REPO, "docs")

#: argparse house-keeping options that need no documentation.
IGNORED_FLAGS = {"--help", "--version"}

LINK_RE = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
HEADING_RE = re.compile(r"^#{1,6}\s+(.*)$", re.MULTILINE)
MODULE_PATH_RE = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)`")


def read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def github_anchor(heading: str) -> str:
    """The anchor GitHub generates for a markdown heading."""
    text = re.sub(r"`([^`]*)`", r"\1", heading.strip().lower())
    text = re.sub(r"[^\w\- ]", "", text)
    return text.replace(" ", "-")


def collect_cli_surface() -> Dict[str, Set[str]]:
    """Every CLI verb and its long option strings, straight from argparse."""
    from repro.cli import build_parser

    parser = build_parser()
    surface: Dict[str, Set[str]] = {}
    for action in parser._actions:  # noqa: SLF001 (argparse has no public walk)
        if isinstance(action, argparse._SubParsersAction):
            for verb, sub in action.choices.items():
                flags = {
                    option
                    for sub_action in sub._actions
                    for option in sub_action.option_strings
                    if option.startswith("--") and option not in IGNORED_FLAGS
                }
                surface[verb] = flags
    return surface


def check_cli_docs(problems: List[str]) -> None:
    path = os.path.join(DOCS_DIR, "cli.md")
    if not os.path.exists(path):
        problems.append("docs/cli.md is missing")
        return
    text = read(path)
    for verb, flags in sorted(collect_cli_surface().items()):
        if f"## repro {verb}" not in text:
            problems.append(f"docs/cli.md: no section '## repro {verb}'")
        for flag in sorted(flags):
            if f"`{flag}" not in text and flag not in text:
                problems.append(f"docs/cli.md: flag {flag} of 'repro {verb}' is undocumented")


def check_spec_docs(problems: List[str]) -> None:
    from repro.experiments.pipeline import ExperimentSpec

    path = os.path.join(DOCS_DIR, "spec-reference.md")
    if not os.path.exists(path):
        problems.append("docs/spec-reference.md is missing")
        return
    text = read(path)
    for field in dataclasses.fields(ExperimentSpec):
        if f"`{field.name}`" not in text:
            problems.append(
                f"docs/spec-reference.md: ExperimentSpec field {field.name!r} is undocumented"
            )


def markdown_files() -> List[str]:
    """The pages checked: ``README.md``, ``CONTRIBUTING.md`` and ``docs/*.md``.

    ``ROADMAP.md`` and ``CHANGES.md`` stay out: their history names deleted
    modules on purpose.
    """
    files = [os.path.join(REPO, name) for name in ("README.md", "CONTRIBUTING.md")]
    if os.path.isdir(DOCS_DIR):
        files += sorted(
            os.path.join(DOCS_DIR, name)
            for name in os.listdir(DOCS_DIR)
            if name.endswith(".md")
        )
    return [path for path in files if os.path.exists(path)]


def split_link(target: str) -> Tuple[str, str]:
    if "#" in target:
        path, fragment = target.split("#", 1)
        return path, fragment
    return target, ""


def check_links(problems: List[str]) -> None:
    anchors: Dict[str, Set[str]] = {}

    def anchors_of(path: str) -> Set[str]:
        if path not in anchors:
            anchors[path] = {github_anchor(h) for h in HEADING_RE.findall(read(path))}
        return anchors[path]

    for source in markdown_files():
        rel_source = os.path.relpath(source, REPO)
        for target in LINK_RE.findall(read(source)):
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            path_part, fragment = split_link(target)
            if path_part:
                resolved = os.path.normpath(
                    os.path.join(os.path.dirname(source), path_part)
                )
                if not resolved.startswith(REPO + os.sep):
                    # GitHub-site-relative URL (e.g. the CI badge), not a file.
                    continue
                if not os.path.exists(resolved):
                    problems.append(f"{rel_source}: broken link {target!r}")
                    continue
            else:
                resolved = source  # same-page fragment
            if fragment and resolved.endswith(".md"):
                if fragment not in anchors_of(resolved):
                    problems.append(
                        f"{rel_source}: link {target!r} points at a missing anchor"
                    )


def unresolved_part(dotted: str) -> str:
    """Why ``dotted`` does not resolve, or ``""`` when it does."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for depth in range(cut, len(parts)):
            try:
                owner = getattr(owner, parts[depth])
            except AttributeError:
                return f"{'.'.join(parts[:depth])} has no attribute {parts[depth]!r}"
        return ""
    return f"no module {parts[0]!r}"


def check_module_paths(problems: List[str]) -> None:
    for source in markdown_files():
        rel_source = os.path.relpath(source, REPO)
        for dotted in sorted(set(MODULE_PATH_RE.findall(read(source)))):
            reason = unresolved_part(dotted)
            if reason:
                problems.append(f"{rel_source}: `{dotted}` does not resolve ({reason})")


def main() -> int:
    parser = argparse.ArgumentParser(description="Check docs/ against the code surface.")
    parser.parse_args()
    problems: List[str] = []
    check_cli_docs(problems)
    check_spec_docs(problems)
    check_links(problems)
    check_module_paths(problems)
    if problems:
        for problem in problems:
            print(f"DOCS DRIFT: {problem}", file=sys.stderr)
        print(f"{len(problems)} problem(s) found", file=sys.stderr)
        return 1
    surface = collect_cli_surface()
    flags = sum(len(v) for v in surface.values())
    print(
        f"docs OK: {len(surface)} CLI verbs, {flags} flags, "
        f"{len(markdown_files())} markdown files checked"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
