"""Machine-independent cost counters for the simulation hot path.

Both count work done inside the ``repro`` package or the stdlib
:mod:`random` module only, so the test harness and the rest of the
stdlib add nothing:

- :func:`profiled_calls` counts Python frames entered (``sys.setprofile``
  ``call`` events);
- :func:`traced_bytecodes` counts bytecode instructions executed
  (``sys.settrace`` with ``f_trace_opcodes``), which tracks host time
  far better than frames do: most of a request's cost is straight-line
  bytecode, not frame setup.
"""

import os
import random
import sys

import repro

_PACKAGE_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_RANDOM_FILE = os.path.abspath(random.__file__)


def _counted_filter():
    """A per-filename memo of "is this code ours or random's?"."""
    seen = {}

    def counted(code):
        filename = code.co_filename
        verdict = seen.get(filename)
        if verdict is None:
            path = os.path.abspath(filename)
            verdict = path.startswith(_PACKAGE_DIR) or path == _RANDOM_FILE
            seen[filename] = verdict
        return verdict

    return counted


def profiled_calls(fn):
    """The calls ``fn()`` made into repro or random, and its result."""
    counted = _counted_filter()
    calls = 0

    def profile(frame, event, _arg):
        nonlocal calls
        if event == "call" and counted(frame.f_code):
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn()
    finally:
        sys.setprofile(None)
    return calls, result


def traced_bytecodes(fn):
    """The bytecode instructions ``fn()`` executed in repro or random
    code, and its result."""
    counted = _counted_filter()
    executed = 0

    def per_opcode(_frame, event, _arg):
        nonlocal executed
        if event == "opcode":
            executed += 1
        return per_opcode

    def per_call(frame, _event, _arg):
        if not counted(frame.f_code):
            return None
        frame.f_trace_opcodes = True
        frame.f_trace_lines = False
        return per_opcode

    sys.settrace(per_call)
    try:
        result = fn()
    finally:
        sys.settrace(None)
    return executed, result
