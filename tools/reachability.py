#!/usr/bin/env python3
"""Report symfail:: functions that no shipped executable links.

Usage:
    tools/reachability.py BUILD_DIR

Configures the repository and perfbench/ under BUILD_DIR at
`-O0 -fno-inline -ffunction-sections -fdata-sections`, links with
`-Wl,--gc-sections`, and builds every executable under tools/, bench/ and
examples/ plus `perfbench`, but not the tests.  The linker then keeps
only the functions some executable reaches.  Optimized builds give false
hits: a function inlined at every call site loses its out-of-line copy.

The script diffs `nm` of the src/ libraries (libsymfail_*.a) against the
executables.  Only functions mangled inside namespace symfail count, so a
std:: template whose return type names a symfail type does not.
Deleting destructors (D0), lambdas and copy or move constructors are
dropped as noise: the last two are reached whenever their callers are.
A name counts as reached when any of its mangled variants (C1/C2, D1/D2)
is in some executable.

tools/reachability_keep.txt lists the unreached functions kept on
purpose, one per line as `demangled signature  # reason`.  The run fails
(exit 1) and lists the names when
  - an unreached symfail:: function is not in the keep list, or
  - a keep-list entry is reached by an executable or no longer exists.
"""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KEEP_FILE = ROOT / "tools" / "reachability_keep.txt"
SHIPPED_DIRS = ("tools", "bench", "examples")
FLAGS = "-O0 -fno-inline -ffunction-sections -fdata-sections"
CODE_TYPES = set("TtWw")
SYMFAIL_MANGLED = re.compile(r"^_ZN[KRO]*7symfail")
SPELLINGS = (
    ("std::__cxx11::basic_string<char, std::char_traits<char>, std::allocator<char> >",
     "std::string"),
    ("std::basic_string_view<char, std::char_traits<char> >", "std::string_view"),
    ("[abi:cxx11]", ""),
)
COPY_OR_MOVE = re.compile(r"::(\w+)::\1\((?:\w+::)*\1(?: const&|&&)\)$")


def log(message):
    print(f"reachability: {message}", file=sys.stderr, flush=True)


def configure(source, build):
    query = build / ".cmake" / "api" / "v1" / "query" / "codemodel-v2"
    query.parent.mkdir(parents=True, exist_ok=True)
    query.touch()
    command = ["cmake", "-S", str(source), "-B", str(build),
               "-DCMAKE_BUILD_TYPE=Debug",
               f"-DCMAKE_CXX_FLAGS_DEBUG={FLAGS}",
               "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
               "-DSYMFAIL_WERROR=OFF"]
    if shutil.which("ninja"):
        command += ["-G", "Ninja"]
    subprocess.run(command, check=True, stdout=sys.stderr)


def shipped_executables(build):
    """Executable targets under tools/, bench/ and examples/, from the
    CMake file API reply: {target name: artifact path}."""
    reply = build / ".cmake" / "api" / "v1" / "reply"
    index = json.loads(max(reply.glob("index-*.json")).read_text())
    codemodel = index["reply"]["codemodel-v2"]["jsonFile"]
    model = json.loads((reply / codemodel).read_text())
    found = {}
    for ref in model["configurations"][0]["targets"]:
        target = json.loads((reply / ref["jsonFile"]).read_text())
        top = Path(target["paths"]["source"]).parts[:1]
        if target["type"] == "EXECUTABLE" and top and top[0] in SHIPPED_DIRS:
            found[target["name"]] = build / target["artifacts"][0]["path"]
    return found


def build_targets(build, targets):
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(build), "-j", jobs, "--target", *targets],
                   check=True, stdout=sys.stderr)


def code_symbols(path):
    """{mangled name: size in bytes} of the functions defined in an
    object file, archive or executable."""
    out = subprocess.run(["nm", "--defined-only", "-S", str(path)], check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    symbols = {}
    for line in out.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[2] in CODE_TYPES:
            symbols[fields[3]] = int(fields[1], 16)
        elif len(fields) == 3 and fields[1] in CODE_TYPES:
            symbols.setdefault(fields[2], 0)
    return symbols


def demangle(names):
    """{mangled: demangled}, with libstdc++'s string spellings shortened."""
    out = subprocess.run(["c++filt"], input="\n".join(names), check=True,
                         stdout=subprocess.PIPE, text=True).stdout
    demangled = {}
    for mangled, name in zip(names, out.splitlines()):
        for long_form, short_form in SPELLINGS:
            name = name.replace(long_form, short_form)
        demangled[mangled] = name
    return demangled


def unreached_functions(libraries, executables):
    """({demangled name: bytes} of the symfail:: functions in the
    libraries that no executable keeps, every symfail:: name the
    libraries define)."""
    library_symbols = {}
    for library in libraries:
        library_symbols.update(code_symbols(library))
    reached = set()
    for executable in executables:
        reached.update(code_symbols(executable))
    names = demangle(sorted(library_symbols))
    by_name = {}
    for mangled, size in library_symbols.items():
        name = names[mangled]
        if not SYMFAIL_MANGLED.match(mangled) or mangled.endswith("D0Ev") \
                or "{lambda(" in name or COPY_OR_MOVE.search(name):
            continue
        entry = by_name.setdefault(name, [0, False])
        entry[0] = max(entry[0], size)
        entry[1] = entry[1] or mangled in reached
    return {name: size for name, (size, hit) in by_name.items() if not hit}, set(by_name)


def read_keep_list():
    keep = {}
    for number, line in enumerate(KEEP_FILE.read_text().splitlines(), 1):
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        name, _, reason = line.partition("  # ")
        if not reason.strip():
            sys.exit(f"{KEEP_FILE.name}:{number}: entry has no `  # reason`")
        keep[name.strip()] = reason.strip()
    return keep


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    build = Path(argv[1]).resolve()
    main_build, bench_build = build / "main", build / "perfbench"

    configure(ROOT, main_build)
    executables = shipped_executables(main_build)
    log(f"building {len(executables)} executables: {' '.join(sorted(executables))}")
    build_targets(main_build, sorted(executables))
    configure(ROOT / "perfbench", bench_build)
    build_targets(bench_build, ["perfbench"])

    libraries = sorted((main_build / "src").glob("*/libsymfail_*.a"))
    binaries = [*executables.values(), bench_build / "perfbench"]
    unreached, defined = unreached_functions(libraries, binaries)
    keep = read_keep_list()

    unlisted = sorted(set(unreached) - set(keep))
    reached = sorted(name for name in keep if name in defined and name not in unreached)
    gone = sorted(name for name in keep if name not in defined)
    print(f"reachability: {len(libraries)} libraries, {len(binaries)} executables; "
          f"{len(unreached)} unreached symfail:: functions, "
          f"{sum(unreached.values())} bytes of -O0 text; {len(keep)} kept on purpose")
    for title, names in (("unreached and not in the keep list", unlisted),
                         ("in the keep list but reached", reached),
                         ("in the keep list but no longer defined", gone)):
        if names:
            print(f"{len(names)} {title}:")
            for name in names:
                size = f"{unreached[name]:6d} B  " if name in unreached else ""
                print(f"  {size}{name}")
    if unlisted or reached or gone:
        return 1
    print("reachability: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
