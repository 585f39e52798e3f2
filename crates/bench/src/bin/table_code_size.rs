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
//! is small relative to the group-communication substrate it leans on.
//! Then prints the same count for the whole workspace — per crate `src/`,
//! `src/bin/` and `tests/` — so a PR that claims to delete code can put a
//! before/after table in CHANGES.md.
//!
//! ```text
//! cargo run -p ftvod-bench --bin table_code_size
//! ```

use std::fs;
use std::path::{Path, PathBuf};

use ftvod_bench::compare;

/// Counts effective source lines: skips blanks, `//` comments and
/// everything from the first `#[cfg(test)]` onward (unit-test blocks sit
/// at the bottom of each module in this workspace).
fn effective_lines(path: &Path) -> usize {
    let Ok(text) = fs::read_to_string(path) else {
        return 0;
    };
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

fn tree_lines(dir: &Path) -> usize {
    let mut total = 0;
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
                total += effective_lines(&path);
            }
        }
    }
    total
}

/// Prints the effective lines of every workspace package (the crates in
/// name order, then the root facade) under `src/` without `src/bin/`,
/// `src/bin/` and `tests/`, plus a total row.
fn workspace_table(repo: &Path) {
    let mut packages: Vec<PathBuf> = fs::read_dir(repo.join("crates"))
        .expect("crates/ is readable")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    packages.sort();
    packages.push(repo.to_path_buf());
    println!("\n=== whole workspace: effective lines (same counting rule) ===\n");
    println!(
        "{:<16} {:>8} {:>8} {:>8} {:>8}",
        "package", "src", "src/bin", "tests", "total"
    );
    let row = |name: &str, r: [usize; 3]| {
        let sum: usize = r.iter().sum();
        println!("{name:<16} {:>8} {:>8} {:>8} {sum:>8}", r[0], r[1], r[2]);
    };
    let mut total = [0usize; 3];
    for dir in &packages {
        let bin = tree_lines(&dir.join("src/bin"));
        let lines = [
            tree_lines(&dir.join("src")) - bin,
            bin,
            tree_lines(&dir.join("tests")),
        ];
        match dir.strip_prefix(repo.join("crates")) {
            Ok(name) => row(&name.to_string_lossy(), lines),
            Err(_) => row("ftvod (root)", lines),
        }
        for (t, l) in total.iter_mut().zip(lines) {
            *t += l;
        }
    }
    row("total", total);
}

fn main() {
    // The bench crate sits at <repo>/crates/bench.
    let repo: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .expect("repo root");
    let server = tree_lines(&repo.join("crates/core/src/server"));
    let client = tree_lines(&repo.join("crates/core/src/client"));
    let gcs = tree_lines(&repo.join("crates/gcs/src"));
    let simnet = tree_lines(&repo.join("crates/simnet/src"));

    println!("=== T6: code size — the application vs its substrates ===\n");
    println!("{:<42} {:>10}   paper analogue", "module", "lines");
    println!(
        "{:<42} {:>10}   ~2500 lines of C++",
        "VoD server (crates/core/src/server)", server
    );
    println!(
        "{:<42} {:>10}   ~400 lines of C (excl. GUI/display)",
        "VoD client (crates/core/src/client)", client
    );
    println!(
        "{:<42} {:>10}   Transis (not counted by the paper)",
        "group communication (crates/gcs)", gcs
    );
    println!(
        "{:<42} {:>10}   the physical network",
        "network substrate (crates/simnet)", simnet
    );

    println!();
    compare(
        "the server stays in the low thousands of lines",
        "≈ 2500",
        &server.to_string(),
        (500..4000).contains(&server),
    );
    compare(
        "the client is the smaller half of the application",
        "≈ 400 (client < server)",
        &format!("{client} (vs {server})"),
        client < server,
    );
    compare(
        "the substrate carries more code than the application",
        "\"far more complicated\" without it",
        &format!("gcs {gcs} vs app {}", server + client),
        gcs > (server + client) / 2,
    );
    println!(
        "\nlike the paper's Transis-based prototype, the service logic stays small\n\
         because membership, reliable multicast and failure detection live in the\n\
         substrate — the very point §5.3 argues."
    );
    workspace_table(&repo);
}
