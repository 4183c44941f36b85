//! The one golden-snapshot implementation: byte-compare against a stored
//! file, or rewrite it when regeneration is requested (`UPDATE_GOLDEN=1` in
//! the environment, or `harness run --update-golden`). Shared by the
//! `golden_match` spec predicate and the workspace golden tests
//! (`tests/golden_reports.rs`, `tests/observability.rs`), which used to
//! carry duplicate copies of this logic.

use std::path::Path;

/// The outcome of one golden comparison.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GoldenStatus {
    /// `got` equals the snapshot byte for byte.
    Matches,
    /// Regeneration was requested and the snapshot was rewritten.
    Updated,
    /// The snapshot file is missing or unreadable (an artifact problem,
    /// not a regression).
    Missing(String),
    /// `got` differs from the snapshot (a regression — or an intentional
    /// change that needs regeneration).
    Differs,
}

/// True when the environment requests golden regeneration
/// (`UPDATE_GOLDEN` set to anything).
pub(crate) fn update_requested() -> bool {
    std::env::var_os("UPDATE_GOLDEN").is_some()
}

/// Compares `got` against the snapshot at `path`; when `update` is true,
/// rewrites the snapshot (creating parent directories) instead.
pub(crate) fn compare_or_update(path: &Path, got: &str, update: bool) -> GoldenStatus {
    if update {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    return GoldenStatus::Missing(format!("cannot create {}: {e}", dir.display()));
                }
            }
        }
        return match std::fs::write(path, got) {
            Ok(()) => GoldenStatus::Updated,
            Err(e) => GoldenStatus::Missing(format!("cannot write {}: {e}", path.display())),
        };
    }
    match std::fs::read_to_string(path) {
        Err(e) => GoldenStatus::Missing(format!("{}: {e}", path.display())),
        Ok(want) if want == got => GoldenStatus::Matches,
        Ok(_) => GoldenStatus::Differs,
    }
}

/// The line a `golden_hash` file holds for `text`: its 64-bit FNV-1a hash
/// in hex, tagged with the hash's name.
pub(crate) fn fnv1a64_line(text: &str) -> String {
    let hash = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    });
    format!("fnv1a64 {hash:016x}\n")
}

/// Test-harness entry point: compares (or regenerates under
/// `UPDATE_GOLDEN=1`) and panics with a regeneration hint on mismatch —
/// the behaviour the workspace golden tests share.
///
/// # Panics
///
/// Panics when the snapshot is missing or differs (unless regenerating).
pub fn assert_matches(path: &Path, got: &str, regen_hint: &str) {
    match compare_or_update(path, got, update_requested()) {
        GoldenStatus::Matches | GoldenStatus::Updated => {}
        GoldenStatus::Missing(e) => {
            panic!("missing golden snapshot ({e}); generate it with `{regen_hint}`")
        }
        GoldenStatus::Differs => {
            let want = std::fs::read_to_string(path).expect("snapshot was readable above");
            assert_eq!(
                got,
                want,
                "{} drifted from its golden snapshot; if the change is \
                 intentional, regenerate with `{regen_hint}` and review the diff",
                path.display()
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("sofa-harness-golden-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn update_then_match_then_differ() {
        let path = tmp("roundtrip.json");
        let _ = std::fs::remove_file(&path);
        assert!(matches!(
            compare_or_update(&path, "x", false),
            GoldenStatus::Missing(_)
        ));
        assert_eq!(compare_or_update(&path, "x", true), GoldenStatus::Updated);
        assert_eq!(compare_or_update(&path, "x", false), GoldenStatus::Matches);
        assert_eq!(compare_or_update(&path, "y", false), GoldenStatus::Differs);
    }

    #[test]
    fn fnv1a64_matches_the_reference_vectors() {
        assert_eq!(fnv1a64_line(""), "fnv1a64 cbf29ce484222325\n");
        assert_eq!(fnv1a64_line("a"), "fnv1a64 af63dc4c8601ec8c\n");
        assert_eq!(fnv1a64_line("foobar"), "fnv1a64 85944171f73967e8\n");
    }
}
