#!/usr/bin/env bash
# The mutation table: which test catches a break in each of the model's
# load-bearing lines. Every entry of scripts/mutants.txt names one production
# line (before its file's first `#[cfg(test)]`), a semantic replacement, and
# the test target that catches it; for each, the line is swapped in, `cargo
# test -q TARGET` runs, then — only if that passed — `cargo test -q
# --workspace` (fail-fast), and the file is restored from a saved copy. Any
# failing test, in either run, catches the mutant.
#
#   scripts/mutants.sh            run every entry
#   scripts/mutants.sh ID..       run only these entries
#   scripts/mutants.sh --check    validate the table: every `-` line is in its
#                                 file once, and every `+` line compiles there
#                                 (`cargo check` of the file's package); an
#                                 entry is compiled again only when it or its
#                                 file changed (stamps in target/mutants/checked)
#
# Prints `ID caught <what reruns the failing test binary>` (with `, not by
# its target` when only the workspace run failed), `ID missed` (the suite
# passed with the mutant in: no test guards that line) or `ID invalid` (the
# mutant does not compile, or its target names no test: a table bug), then
# `caught N/M`. Exits 1 if anything was missed or invalid. Logs land in
# target/mutants/ID.log.
#
# A change that deletes tests runs this before and after: the caught count
# must not fall, and a mutant caught before must still be caught.
set -euo pipefail
cd "$(dirname "$0")/.."
table=scripts/mutants.txt
timeout_s=1800

# The table, one entry per index: ids[i] files[i] targets[i] originals[i]
# replacements[i].
ids=() files=() targets=() originals=() replacements=()
while IFS= read -r line; do
    case $line in
    '= '*)
        read -r id file target <<<"${line#= }"
        ids+=("$id") files+=("$file") targets+=("$target") originals+=("") replacements+=("")
        ;;
    -*) originals[${#ids[@]} - 1]=${line:1} ;;
    +*) replacements[${#ids[@]} - 1]=${line:1} ;;
    '' | '#'*) ;;
    *) echo "$table: unreadable line: $line" >&2 && exit 1 ;;
    esac
done <"$table"

# The line number `originals[i]` sits at, or a reason the entry is broken.
locate() {
    local i=$1 file=${files[$1]} count at fence
    [[ -f $file ]] || { echo "no file $file" && return 1; }
    [[ -n ${originals[$i]} && -n ${replacements[$i]} ]] || { echo "needs a - and a + line" && return 1; }
    [[ ${originals[$i]} != "${replacements[$i]}" ]] || { echo "replacement equals the original" && return 1; }
    count=$(grep -cFx -- "${originals[$i]}" "$file" || true)
    [[ $count == 1 ]] || { echo "original line occurs $count times in $file" && return 1; }
    at=$(grep -nFx -- "${originals[$i]}" "$file" | cut -d: -f1)
    fence=$(grep -nxE '[[:space:]]*#\[cfg\(test\)\]' "$file" | head -1 | cut -d: -f1)
    [[ -z $fence || $at -lt $fence ]] || { echo "line $at is test code (first #[cfg(test)] at $fence)" && return 1; }
    [[ ${targets[$i]} =~ ^-p\ ([a-z0-9_-]+)\ (--lib|--test\ [a-z0-9_]+)$ ]] ||
        { echo "needs a target: = ID FILE -p PACKAGE --lib|--test NAME" && return 1; }
    grep -qxF "name = \"${BASH_REMATCH[1]}\"" Cargo.toml crates/*/Cargo.toml ||
        { echo "target names no package ${BASH_REMATCH[1]}" && return 1; }
    echo "$at"
}

# The manifest of the package `file` belongs to.
manifest() {
    local dir
    dir=$(dirname "$1")
    until [[ -f $dir/Cargo.toml || $dir == . ]]; do dir=$(dirname "$dir"); done
    echo "$dir/Cargo.toml"
}

saved=$(mktemp)
mutated=
restore() {
    # A plain copy, never `git checkout`: the file may carry uncommitted
    # work. The copy's fresh mtime also makes cargo rebuild the crate.
    if [[ -n $mutated ]]; then
        cp "$saved" "$mutated"
        mutated=
    fi
}
trap 'restore; rm -f "$saved"' EXIT
trap 'exit 130' INT TERM

# Swaps entry `i`'s replacement in at line `at` of its file, saving the file.
mutate() {
    local i=$1 at=$2 file=${files[$1]}
    cp "$file" "$saved"
    mutated=$file
    LINE=$at REPL=${replacements[$i]} awk 'NR == ENVIRON["LINE"] { print ENVIRON["REPL"]; next } { print }' \
        "$saved" >"$file"
}

logs=target/mutants

if [[ ${1:-} == --check ]]; then
    bad=0
    dupes=$(printf '%s\n' "${ids[@]}" | sort | uniq -d)
    [[ -z $dupes ]] || { echo "duplicate ids: $dupes" && bad=1; }
    mkdir -p "$logs/checked"
    compiled=0
    for i in "${!ids[@]}"; do
        id=${ids[$i]} file=${files[$i]}
        at=$(locate "$i") || { echo "$id: $at" && bad=1 && continue; }
        # The `+` half: does the mutant compile? Skipped while neither the
        # entry nor its package's sources have changed since it last did.
        package=$(dirname "$(manifest "$file")")
        stamp=$(printf '%s\n' "${targets[$i]}" "${originals[$i]}" "${replacements[$i]}" |
            cat - $(find "$package/src" -name '*.rs' | sort) | cksum)
        [[ -f $logs/checked/$id && $(<"$logs/checked/$id") == "$stamp" ]] && continue
        mutate "$i" "$at"
        code=0
        CARGO_TERM_COLOR=never cargo check -q --manifest-path "$(manifest "$file")" \
            >"$logs/$id.check.log" 2>&1 || code=$?
        restore
        compiled=$((compiled + 1))
        if [[ $code == 0 ]]; then
            echo "$stamp" >"$logs/checked/$id"
        else
            echo "$id: the replacement does not compile (see $logs/$id.check.log)"
            bad=1
        fi
    done
    [[ $bad == 0 ]] && echo "OK: ${#ids[@]} mutants, every original line unique and in production code, every replacement compiles ($compiled checked now)"
    exit $bad
fi

selected=()
if [[ $# -gt 0 ]]; then
    for want in "$@"; do
        found=
        for i in "${!ids[@]}"; do [[ ${ids[$i]} == "$want" ]] && selected+=("$i") && found=1; done
        [[ -n $found ]] || { echo "no mutant $want in $table" >&2 && exit 1; }
    done
else
    selected=("${!ids[@]}")
fi

mkdir -p "$logs"
# Runs `cargo test -q ARGS..` under the timeout, its output appended to LOG;
# prints its exit code.
run_tests() {
    local log=$1 code=0
    CARGO_TERM_COLOR=never timeout "$timeout_s" cargo test -q "${@:2}" >>"$log" 2>&1 || code=$?
    echo "$code"
}

caught=0 missed=0 invalid=0
for i in "${selected[@]}"; do
    id=${ids[$i]} log=$logs/$id.log
    if ! at=$(locate "$i"); then
        echo "$id invalid ($at)"
        invalid=$((invalid + 1))
        continue
    fi
    mutate "$i" "$at"
    : >"$log"
    read -ra target <<<"${targets[$i]}"
    code=$(run_tests "$log" "${target[@]}")
    where=
    if [[ $code == 0 ]]; then
        where=", not by its target"
        code=$(run_tests "$log" --workspace)
    fi
    restore
    binary=$(sed -n 's/.*failed, to rerun pass `\(.*\)`.*/\1/p' "$log" | head -1)
    if [[ $code == 0 ]]; then
        echo "$id missed"
        missed=$((missed + 1))
    elif grep -q '^error: could not compile' "$log"; then
        echo "$id invalid (does not compile; see $log)"
        invalid=$((invalid + 1))
    elif [[ $code == 124 ]]; then
        echo "$id caught (timeout after ${timeout_s}s$where)"
        caught=$((caught + 1))
    elif [[ -n $binary ]]; then
        echo "$id caught $binary$where"
        caught=$((caught + 1))
    else
        echo "$id invalid (exit $code and no failing test; see $log)"
        invalid=$((invalid + 1))
    fi
done
echo "caught $caught/${#selected[@]}"
[[ $missed == 0 && $invalid == 0 ]]
