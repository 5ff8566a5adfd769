//! Cargo reads profiles from the workspace root only, and this package is a
//! workspace of its own, so `Cargo.toml` repeats the repository's
//! `[profile.release]`. This script fails the build when the two tables
//! differ: the benchmark must time the code users build.

/// The `[profile.release]` table of a manifest, one `key=value` per entry,
/// sorted, without spacing or comments.
fn release_profile(manifest: &str) -> Vec<String> {
    let mut entries: Vec<String> = manifest
        .lines()
        .skip_while(|l| l.trim() != "[profile.release]")
        .skip(1)
        .map(str::trim)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect())
        .collect();
    entries.sort();
    entries
}

fn main() {
    // Build scripts run in the package directory.
    println!("cargo:rerun-if-changed=Cargo.toml");
    println!("cargo:rerun-if-changed=../Cargo.toml");
    let read = |path: &str| std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    let own = release_profile(&read("Cargo.toml"));
    let root = release_profile(&read("../Cargo.toml"));
    assert!(
        own == root,
        "benchmark/Cargo.toml [profile.release] {own:?} differs from the repository's {root:?}"
    );
}
