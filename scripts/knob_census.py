#!/usr/bin/env python3
"""Census of every settable *Config field under src/.

For each field of each `struct <Name>Config` declared in src/ (outside
src/reference/), lists the files that assign it, split into experiment
files (src/, bench/, perfbench/, examples/) and tests (tests/):

  scripts/knob_census.py            # table + totals
  scripts/knob_census.py --check    # also exit 1 if a field has no setter

A file sets a field when it writes `<recv>.<field> =` (or `->`, or a
compound `op=`) or a designated initializer `.<field> =`, or names the
struct in a positional aggregate `<Name>Config{a, b}` (the first fields
in declaration order). The receiver is resolved to a config type through
the config members of other configs (`cfg.store.x` is an
ObjectStoreConfig field) and through the file's own declarations
(`ServiceConfig scfg`, `const ClientConfig& c`); an unresolved receiver
counts for every config with a field of that name, so a name shared with
an unrelated struct can only make a field look set, never unset.
"""
import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
EXPERIMENT_DIRS = ("src", "bench", "perfbench", "examples")
TEST_DIRS = ("tests",)

STRUCT_RE = re.compile(r"^struct (\w+Config) \{\s*$", re.M)
# One field declaration at struct depth: `type name = init;`, `type name;`
# or `type name{...};`. Member functions end in `)` or `{` and never match.
FIELD_RE = re.compile(
    r"^\s*(?!return\b|using\b|static\b|friend\b)([\w:<>,\s*&]+?)\s+(\w+)"
    r"\s*(?:=[^;]*|\{[^;]*\})?;")


def source_files(dirs):
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix not in (".cpp", ".hpp", ".h", ".cc"):
                continue
            rel = path.relative_to(ROOT).as_posix()
            if rel.startswith("src/reference/"):
                continue
            yield rel, path.read_text()


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group(0).count("\n"),
                  text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def parse_configs():
    """{struct: [(field, type)]}, fields in declaration order."""
    configs = {}
    for rel, text in source_files(("src",)):
        if not rel.endswith(".hpp"):
            continue
        code = strip_comments(text)
        for m in STRUCT_RE.finditer(code):
            name = m.group(1)
            body_start = m.end()
            depth, i = 1, body_start
            while depth:
                depth += {"{": 1, "}": -1}.get(code[i], 0)
                i += 1
            body = code[body_start:i - 1]
            fields, depth = [], 0
            for line in body.split("\n"):
                if depth == 0:
                    fm = FIELD_RE.match(line)
                    if fm and "(" not in line.split("=")[0]:
                        ftype = fm.group(1).split()[-1].split("::")[-1]
                        fields.append((fm.group(2), ftype))
                depth += line.count("{") - line.count("}")
            configs[name] = fields
    return configs


def census():
    configs = parse_configs()
    by_field = {}
    for struct, fields in configs.items():
        for field, _ in fields:
            by_field.setdefault(field, []).append(struct)
    # Config-typed members: `store` -> ObjectStoreConfig, ...
    member_type = {}
    for fields in configs.values():
        for field, ftype in fields:
            if ftype in configs:
                member_type.setdefault(field, set()).add(ftype)
    setters = {(s, f): {"experiment": set(), "test": set()}
               for s, fields in configs.items() for f, _ in fields}
    names = "|".join(sorted(by_field, key=len, reverse=True))
    assign_re = re.compile(
        r"(?:(\w+)\s*(?:\)\s*)?(?:\.|->)|(?<![\w)\]])\.)\s*(" + names +
        r")\s*(?:[-+*/]?=(?!=))")
    decl_re = re.compile(r"\b(\w+Config)\b\s*[&*]?\s*(\w+)\s*[;={(),]")
    # Not the definition itself: `struct XConfig {...}` is no aggregate.
    aggregate_re = re.compile(r"(?<!struct )\b(\w+Config)\s*\{([^{}]*)\}")

    for kind, dirs in (("experiment", EXPERIMENT_DIRS), ("test", TEST_DIRS)):
        for rel, text in source_files(dirs):
            code = strip_comments(text)
            var_type = {}
            for m in decl_re.finditer(code):
                if m.group(1) in configs:
                    var_type.setdefault(m.group(2), set()).add(m.group(1))
            for m in assign_re.finditer(code):
                recv, field = m.group(1), m.group(2)
                cands = set(by_field[field])
                if recv:
                    typed = member_type.get(recv) or var_type.get(recv)
                    if typed and typed & cands:
                        cands &= typed
                for struct in cands:
                    setters[(struct, field)][kind].add(rel)
            for m in aggregate_re.finditer(code):
                struct, args = m.group(1), m.group(2).strip()
                if struct not in configs or not args or args.startswith("."):
                    continue
                count = args.count(",") + 1
                for field, _ in configs[struct][:count]:
                    setters[(struct, field)][kind].add(rel)
    return configs, setters


def main():
    configs, setters = census()
    # A member that is itself a config (`PlatformConfig::store`) only
    # groups knobs; its own fields are counted instead.
    fields = [(struct, field) for struct in sorted(configs)
              for field, ftype in configs[struct] if ftype not in configs]
    unset_by_experiment = unset = 0
    for struct, field in fields:
        s = setters[(struct, field)]
        exp = ", ".join(sorted(s["experiment"])) or "-"
        tst = ", ".join(sorted(s["test"])) or "-"
        print(f"{struct}::{field}  experiments: {exp}  tests: {tst}")
        unset_by_experiment += not s["experiment"]
        unset += not s["experiment"] and not s["test"]
    print(f"\n{len(configs)} config structs, {len(fields)} settable fields, "
          f"{unset_by_experiment} set by no experiment, "
          f"{unset} set by nothing")
    if "--check" in sys.argv[1:] and unset:
        for struct, field in fields:
            if not any(setters[(struct, field)].values()):
                print(f"knob_census: {struct}::{field} has no setter; "
                      "make it a constant")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
