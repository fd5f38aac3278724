//! DESIGN.md's workspace inventory is checked against the workspace: a
//! crate added, folded or renamed without its row fails here, as a
//! README command line that no longer parses fails in `asynoc-cli`. The
//! release profile and the hasher of per-record maps are held here too.

use std::collections::BTreeMap;
use std::path::Path;

/// `crates/<dir>` → package name, for every row of DESIGN.md's inventory
/// table (`` | `crates/probe` (`asynoc-probe`) | … ``).
fn documented() -> BTreeMap<String, String> {
    include_str!("../DESIGN.md")
        .lines()
        .filter_map(|line| line.strip_prefix("| `crates/"))
        .map(|row| {
            let mut names = row.split('`');
            let dir = names.next().expect("a directory");
            let package = names.nth(1).expect("a package name in backquotes");
            (dir.to_string(), package.to_string())
        })
        .collect()
}

/// The same map read off the members `crates/*` of `Cargo.toml`.
fn members() -> BTreeMap<String, String> {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut members = BTreeMap::new();
    for entry in std::fs::read_dir(crates).expect("crates/ is readable") {
        let dir = entry.expect("a directory entry").path();
        let Ok(manifest) = std::fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let package = manifest
            .lines()
            .find_map(|line| line.strip_prefix("name = \""))
            .and_then(|rest| rest.strip_suffix('"'))
            .expect("a package name");
        let dir = dir.file_name().expect("a directory name");
        members.insert(dir.to_string_lossy().into_owned(), package.to_string());
    }
    members
}

#[test]
fn design_inventory_names_exactly_the_workspace_members() {
    assert!(include_str!("../Cargo.toml").contains("members = [\"crates/*\"]"));
    let (documented, members) = (documented(), members());
    assert!(members.len() >= 10, "{members:?}");
    assert_eq!(
        documented, members,
        "DESIGN.md §3 (left) vs crates/* (right)"
    );
}

/// The benchmark measures the release build of `asynoc-cli`, whose hot
/// path crosses seven crates per event: the profile must keep it one
/// optimisation unit, or the calls between them stop inlining unseen.
#[test]
fn the_release_profile_is_whole_program() {
    let manifest = include_str!("../Cargo.toml");
    let profile: Vec<&str> = manifest
        .lines()
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .map(str::trim)
        .collect();
    for setting in ["lto = \"fat\"", "codegen-units = 1"] {
        assert!(
            profile.contains(&setting),
            "Cargo.toml [profile.release] lacks `{setting}`: {profile:?}"
        );
    }
}

/// Every `.rs` file under `dir`, code only: line comments are cut.
fn sources(dir: &Path) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir).expect("a readable source directory") {
        let path = entry.expect("a directory entry").path();
        if path.is_dir() {
            files.extend(sources(&path));
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            let text = std::fs::read_to_string(&path).expect("a readable source file");
            let code: Vec<&str> = text
                .lines()
                .map(|line| line.split_once("//").map_or(line, |(code, _)| code))
                .collect();
            files.push((path.display().to_string(), code.join("\n")));
        }
    }
    files
}

/// The engine, telemetry and analysis crates look a map up per event or
/// per record: each of their maps hashes with the kernel's one hasher
/// (`asynoc_kernel::hash`), never std's default SipHash.
#[test]
fn no_per_record_map_hashes_with_std_default_hasher() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
    let defaults = [
        "RandomState",
        "HashMap::new(",
        "HashSet::new(",
        "HashMap::with_capacity(",
        "HashSet::with_capacity(",
    ];
    let mut offences = Vec::new();
    for krate in ["engine", "telemetry", "analysis"] {
        for (file, code) in sources(&crates.join(krate).join("src")) {
            // A `use` of std's maps, or a path to them.
            for statement in code.split(';') {
                let names_map = statement.contains("HashMap") || statement.contains("HashSet");
                if statement.contains("std::collections") && names_map {
                    offences.push(format!("{file}: {}", statement.trim()));
                }
            }
            let built = defaults.iter().filter(|default| code.contains(*default));
            offences.extend(built.map(|default| format!("{file}: {default}")));
        }
    }
    assert!(
        offences.is_empty(),
        "std's default hasher on a per-record path: {offences:#?}"
    );
}
