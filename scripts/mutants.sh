#!/usr/bin/env bash
# The mutation table: which test catches a break in each of the model's
# load-bearing lines. Every entry of scripts/mutants.txt names one production
# line (before its file's first `#[cfg(test)]`) and a semantic replacement;
# for each, the line is swapped in, `cargo test -q --workspace` runs
# (fail-fast), and the file is restored from a saved copy.
#
#   scripts/mutants.sh            run every entry
#   scripts/mutants.sh ID..       run only these entries
#   scripts/mutants.sh --check    validate the table without building (< 1 s)
#
# Prints `ID caught <what reruns the failing test binary>`, `ID missed` (the
# suite passed with the mutant in: no test guards that line) or `ID invalid`
# (the mutant does not compile: a table bug), then `caught N/M`. Exits 1 if
# anything was missed or invalid. Logs land in target/mutants/ID.log.
#
# A change that deletes tests runs this before and after: the caught count
# must not fall, and a mutant caught before must still be caught.
set -euo pipefail
cd "$(dirname "$0")/.."
table=scripts/mutants.txt
timeout_s=1800

# The table, one entry per index: ids[i] files[i] originals[i] replacements[i].
ids=() files=() originals=() replacements=()
while IFS= read -r line; do
    case $line in
    '= '*)
        read -r id file <<<"${line#= }"
        ids+=("$id") files+=("$file") originals+=("") replacements+=("")
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
    echo "$at"
}

if [[ ${1:-} == --check ]]; then
    bad=0
    dupes=$(printf '%s\n' "${ids[@]}" | sort | uniq -d)
    [[ -z $dupes ]] || { echo "duplicate ids: $dupes" && bad=1; }
    for i in "${!ids[@]}"; do
        why=$(locate "$i") || { echo "${ids[$i]}: $why" && bad=1; }
    done
    [[ $bad == 0 ]] && echo "OK: ${#ids[@]} mutants, every original line unique and in production code"
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

logs=target/mutants
mkdir -p "$logs"
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

caught=0 missed=0 invalid=0
for i in "${selected[@]}"; do
    id=${ids[$i]} file=${files[$i]}
    if ! at=$(locate "$i"); then
        echo "$id invalid ($at)"
        invalid=$((invalid + 1))
        continue
    fi
    cp "$file" "$saved"
    mutated=$file
    LINE=$at REPL=${replacements[$i]} awk 'NR == ENVIRON["LINE"] { print ENVIRON["REPL"]; next } { print }' \
        "$saved" >"$file"
    code=0
    CARGO_TERM_COLOR=never timeout "$timeout_s" cargo test -q --workspace >"$logs/$id.log" 2>&1 || code=$?
    restore
    if [[ $code == 0 ]]; then
        echo "$id missed"
        missed=$((missed + 1))
    elif grep -q '^error: could not compile' "$logs/$id.log"; then
        echo "$id invalid (does not compile; see $logs/$id.log)"
        invalid=$((invalid + 1))
    elif [[ $code == 124 ]]; then
        echo "$id caught (timeout after ${timeout_s}s)"
        caught=$((caught + 1))
    else
        binary=$(sed -n 's/.*failed, to rerun pass `\(.*\)`.*/\1/p' "$logs/$id.log" | head -1)
        echo "$id caught ${binary:-(exit $code)}"
        caught=$((caught + 1))
    fi
done
echo "caught $caught/${#selected[@]}"
[[ $missed == 0 && $invalid == 0 ]]
