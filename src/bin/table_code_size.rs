//! T6 — §5.3's code-size claim.
//!
//! "The server was implemented in C++, using only around 2500 lines of
//! code. The client was implemented in C, using only around 400 lines of
//! code (excluding the GUI and the video display module). Without the
//! Transis services, such an application would have been far more
//! complicated, and the code size would have turned out significantly
//! larger."
//!
//! Counts the non-blank, non-comment, non-test lines of this workspace's
//! modules and checks the same *shape*: the application (server + client)
//! is small relative to the group-communication substrate it leans on
//! (the substrate carries more than half as many lines). Exits non-zero
//! when a check does not hold.
//! Then prints the same count for the whole workspace — per crate `src/`,
//! `src/bin/` and `tests/` — so a PR that claims to delete code can put a
//! before/after table in CHANGES.md.
//!
//! ```text
//! cargo run --release --bin table_code_size
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use ftvod_core::experiments::Report;

/// Counts effective source lines: skips blanks, `//` comments and
/// everything from the first `#[cfg(test)]` onward (unit-test blocks sit
/// at the bottom of each module in this workspace).
fn effective_lines(text: &str) -> usize {
    let mut count = 0;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        if trimmed.is_empty() || trimmed.starts_with("//") {
            continue;
        }
        count += 1;
    }
    count
}

/// The modules `file` pulls in with `#[cfg(test)] mod name;`, each as its
/// path without extension: `name.rs`, `name/mod.rs` and everything below
/// `name/` are test-only code in files of their own.
fn test_modules(file: &Path, text: &str) -> Vec<PathBuf> {
    let dir = match file.file_stem().and_then(|s| s.to_str()) {
        Some("lib" | "main" | "mod") => file.parent().unwrap_or(file).to_path_buf(),
        _ => file.with_extension(""),
    };
    let mut modules = Vec::new();
    let mut after_cfg_test = false;
    for line in text.lines() {
        let mut line = line.trim();
        if let Some(rest) = line.strip_prefix("#[cfg(test)]") {
            after_cfg_test = true;
            line = rest.trim();
        }
        if line.is_empty() {
            continue;
        }
        if after_cfg_test {
            if let Some(name) = line.strip_prefix("mod ").and_then(|r| r.strip_suffix(';')) {
                modules.push(dir.join(name.trim()));
            }
        }
        after_cfg_test = false;
    }
    modules
}

/// Effective lines of the `.rs` files under `dir`, as `[ordinary,
/// test-only]`; a file is test-only when a `#[cfg(test)] mod` under `dir`
/// pulls it in.
fn tree_lines(dir: &Path) -> [usize; 2] {
    let mut files = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let text = fs::read_to_string(&path).unwrap_or_default();
                files.push((path, text));
            }
        }
    }
    let test_only: Vec<PathBuf> = files
        .iter()
        .flat_map(|(path, text)| test_modules(path, text))
        .collect();
    let mut lines = [0; 2];
    for (path, text) in &files {
        let is_test = test_only
            .iter()
            .any(|m| *path == m.with_extension("rs") || path.starts_with(m));
        lines[usize::from(is_test)] += effective_lines(text);
    }
    lines
}

/// Tabulates the effective lines of every workspace package (the crates
/// in name order, then the root facade) under `src/` without `src/bin/`,
/// `src/bin/` and `tests/` (with the test-only files under `src/`), plus
/// a total row.
fn workspace_table(repo: &Path, report: &mut Report) {
    let mut packages: Vec<PathBuf> = fs::read_dir(repo.join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    packages.sort();
    packages.push(repo.to_path_buf());
    let row = |name: &str, r: [usize; 3]| {
        let sum: usize = r.iter().sum();
        format!("{name}\t{}\t{}\t{}\t{sum}", r[0], r[1], r[2])
    };
    let mut total = [0usize; 3];
    let mut rows = Vec::new();
    for dir in &packages {
        let [src, src_tests] = tree_lines(&dir.join("src"));
        let [bin, _] = tree_lines(&dir.join("src/bin"));
        let tests: usize = tree_lines(&dir.join("tests")).iter().sum();
        let lines = [src - bin, bin, tests + src_tests];
        match dir.strip_prefix(repo.join("crates")) {
            Ok(name) => rows.push(row(&name.to_string_lossy(), lines)),
            Err(_) => rows.push(row("ftvod (root)", lines)),
        }
        for (t, l) in total.iter_mut().zip(lines) {
            *t += l;
        }
    }
    rows.push(row("total", total));
    report.line("\n=== whole workspace: effective lines (same counting rule) ===\n");
    report.table("package\tsrc\tsrc/bin\ttests\ttotal", rows);
}

fn main() -> Result<(), String> {
    // This binary belongs to the root package.
    let repo = Path::new(env!("CARGO_MANIFEST_DIR"));
    let [server, _] = tree_lines(&repo.join("crates/core/src/server"));
    let [client, _] = tree_lines(&repo.join("crates/core/src/client"));
    let [gcs, _] = tree_lines(&repo.join("crates/gcs/src"));
    let [simnet, _] = tree_lines(&repo.join("crates/simnet/src"));

    let mut report = Report::default();
    report.line("=== T6: code size — the application vs its substrates ===\n");
    report.table(
        "module\tlines\tpaper analogue",
        [
            format!("VoD server (crates/core/src/server)\t{server}\t~2500 lines of C++"),
            format!("VoD client (crates/core/src/client)\t{client}\t~400 lines of C (excl. GUI/display)"),
            format!("group communication (crates/gcs)\t{gcs}\tTransis (not counted by the paper)"),
            format!("network substrate (crates/simnet)\t{simnet}\tthe physical network"),
        ],
    );

    report.check(
        "the server stays in the low thousands of lines",
        "≈ 2500",
        server,
        (500..4000).contains(&server),
    );
    report.check(
        "the client is the smaller half of the application",
        "≈ 400 (client < server)",
        format!("{client} (vs {server})"),
        client < server,
    );
    report.check(
        "the substrate is over half the application's size",
        "\"far more complicated\" without it",
        format!("gcs {gcs} vs half of app {}", (server + client) / 2),
        gcs > (server + client) / 2,
    );
    report.line(
        "\nlike the paper's Transis-based prototype, the service logic stays small\n\
         because membership, reliable multicast and failure detection live in the\n\
         substrate — the very point §5.3 argues.",
    );
    workspace_table(repo, &mut report);
    print!("{}", report.text());
    report.gate()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `node.rs` keeps a test-only module in `node/helper.rs`, the shape of
    /// `gcs/src/node/tick_differential.rs`: the helper counts as test code,
    /// `node.rs` up to its `#[cfg(test)]` as ordinary code.
    #[test]
    fn a_file_behind_cfg_test_mod_counts_as_tests() {
        let dir = std::env::temp_dir().join(format!("table_code_size_{}", std::process::id()));
        fs::create_dir_all(dir.join("node")).unwrap();
        fs::write(
            dir.join("node.rs"),
            "// a comment\npub fn f() {}\n\npub fn g() {}\n#[cfg(test)]\nmod helper;\n",
        )
        .unwrap();
        fs::write(
            dir.join("node/helper.rs"),
            "fn h() {}\nfn i() {}\nfn j() {}\n",
        )
        .unwrap();
        let lines = tree_lines(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(lines, [2, 3]);
    }

    #[test]
    fn test_modules_resolve_like_rustc() {
        let text =
            "#[cfg(test)]\nmod a;\n#[cfg(test)] mod b;\nmod c;\n#[cfg(test)]\nmod tests {\n}\n";
        assert_eq!(
            test_modules(Path::new("src/lib.rs"), text),
            [Path::new("src/a"), Path::new("src/b")]
        );
        assert_eq!(
            test_modules(Path::new("src/node.rs"), text),
            [Path::new("src/node/a"), Path::new("src/node/b")]
        );
    }
}
