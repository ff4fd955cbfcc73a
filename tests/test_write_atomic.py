"""The one file writer: whole files or none, and no other writer in the package."""

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

from onebt.tensor import write_atomic
from conftest import disk_full

SRC = Path(__file__).resolve().parent.parent / "src" / "onebt"


@pytest.mark.parametrize("data", [b"abc\n", bytearray(b"abc\n"), [b"ab", memoryview(b"c\n")]])
def test_writes_bytes_or_chunks_over_the_target(tmp_path, data):
    path = tmp_path / "f"
    path.write_bytes(b"old contents")
    write_atomic(path, data)
    assert path.read_bytes() == b"abc\n"
    assert os.listdir(tmp_path) == ["f"]


@pytest.mark.parametrize("existed", [True, False])
def test_failed_write_leaves_target_as_it_was(tmp_path, existed):
    path = tmp_path / "f"
    if existed:
        path.write_bytes(b"old contents")
    with disk_full(), pytest.raises(OSError, match="No space left"):
        write_atomic(str(path), [b"new ", b"contents"])
    assert os.listdir(tmp_path) == (["f"] if existed else [])
    assert not existed or path.read_bytes() == b"old contents"


def test_two_writers_of_one_path_keep_their_own_temp_files(tmp_path):
    """Two threads each write one path 200 times, switching often: no write fails,
    the file ends whole as one writer's bytes, and no temp file is left."""
    path = tmp_path / "f"
    payloads = [bytes([i]) * (1 << 16) for i in (1, 2)]
    errors = []
    together = threading.Barrier(2)

    def writer(data):
        together.wait(timeout=60)
        try:
            for _ in range(200):
                write_atomic(path, data)
        except OSError as e:
            errors.append(e)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert path.read_bytes() in payloads
    assert os.listdir(tmp_path) == ["f"]


def _file_writes(path):
    """(file, enclosing function, call) for each write-mode open, os.replace
    and os.rename in a source file; an open whose mode is not a literal counts."""
    found = []

    def visit(node, fn):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name) and f.id == "open":
                mode = node.args[1] if len(node.args) > 1 else next(
                    (k.value for k in node.keywords if k.arg == "mode"), ast.Constant("r"))
                if not isinstance(mode, ast.Constant) or set(str(mode.value)) & set("wax"):
                    found.append((path.name, fn, "open"))
            elif (isinstance(f, ast.Attribute) and f.attr in ("replace", "rename")
                  and isinstance(f.value, ast.Name) and f.value.id == "os"):
                found.append((path.name, fn, f"os.{f.attr}"))
        for child in ast.iter_child_nodes(node):
            visit(child, fn)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_write_atomic_is_the_only_file_writer():
    found = [w for path in sorted(SRC.glob("*.py")) for w in _file_writes(path)]
    assert found == [("tensor.py", "write_atomic", "open"),
                     ("tensor.py", "write_atomic", "os.replace")]
