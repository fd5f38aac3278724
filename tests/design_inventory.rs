//! DESIGN.md's workspace inventory is checked against the workspace: a
//! crate added, folded or renamed without its row fails here, as a
//! README command line that no longer parses fails in `asynoc-cli`.

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
