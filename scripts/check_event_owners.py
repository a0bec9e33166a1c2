#!/usr/bin/env python3
"""Lifetime rule check: callbacks that capture `this` must be guarded.

A lambda that captures `this` and is handed to the simulation kernel
(Schedule, ScheduleAt, SchedulePeriodic, ...), to the overlay (Send) or to a
stored-callback setter (Set*Handler, Set*Observer, SetDeliveryProbe) can
fire after its object is destroyed. It must therefore be wrapped in the
owner's Liveness::Guard(...) (see src/sim/simulation.h). This script reads
each such call in src/ up to its matching parenthesis and reports every
`this`-capturing lambda in it that is not inside `Guard(`.

Exempt, because their callbacks point only at objects that outlive every
event:
  src/sim/                    the kernel: SchedulePeriodic re-arms through
                              the Simulation itself.
  src/net/overlay_network.cc  arrival events capture the overlay, which
                              every caller declares beside its Simulation.

Run from the repo root:  scripts/check_event_owners.py
Exits 1 and lists the offending call sites if any are found.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXEMPT = ("src/sim/", "src/net/overlay_network.cc")
CALL = re.compile(r"\b(?:Schedule\w*|Send|Set\w*Handler|Set\w*Observer|"
                  r"SetDeliveryProbe)\s*\(")
GUARD = re.compile(r"\bGuard\s*$")
LAMBDA = re.compile(r"\[([^\[\]]*)\]\s*(?:\(|\{|mutable)")
# Comments, string and char literals, blanked (same length) so that their
# contents neither match nor unbalance parentheses.
NOISE = re.compile(r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|'
                   r"'(?:\\.|[^'\\\n])'", re.S)


def offenders(text):
    """Yields the offset of each call holding an unguarded `this` lambda."""
    for call in CALL.finditer(text):
        guarded = []  # per open parenthesis: does it open a Guard(...)?
        i = call.end() - 1
        while i < len(text):
            if text[i] == "(":
                guarded.append(bool(GUARD.search(text, max(0, i - 40), i)))
            elif text[i] == ")":
                guarded.pop()
                if not guarded:
                    break
            elif text[i] == "[" and not any(guarded):
                lam = LAMBDA.match(text, i)
                if lam and re.search(r"\bthis\b", lam.group(1)):
                    yield call.start()
                    break
            i += 1


bad = []
for path in sorted((ROOT / "src").rglob("*")):
    rel = path.relative_to(ROOT).as_posix()
    if path.suffix not in (".cc", ".h") or rel.startswith(EXEMPT):
        continue
    text = NOISE.sub(lambda m: re.sub(r"[^\n]", " ", m.group()),
                     path.read_text())
    for pos in offenders(text):
        bad.append(f"{rel}:{text.count(chr(10), 0, pos) + 1}")

if bad:
    print("unguarded `this` callbacks (wrap them in liveness_.Guard):",
          file=sys.stderr)
    print("\n".join(bad), file=sys.stderr)
    sys.exit(1)
print("event owners: OK")
