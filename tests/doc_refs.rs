//! Docs and CI may only name things that exist.
//!
//! The files people and CI runners follow — README, DESIGN, EXPERIMENTS,
//! the verify skill and the workflow — are scanned for `--bin NAME`,
//! `--bench NAME`, `-p CRATE`, `--manifest-path PATH`, `tools/*.sh` and
//! `*.json` / `*.md` file names; each must resolve to a cargo target, a
//! package or a file in the checkout. A deleted binary or data file that is
//! still cited fails here, not in a nightly job that quietly skips it.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const SCANNED: [&str; 5] = [
    "README.md",
    "DESIGN.md",
    "EXPERIMENTS.md",
    ".claude/skills/verify/SKILL.md",
    ".github/workflows/ci.yml",
];

#[derive(Default)]
struct Targets {
    packages: BTreeSet<String>,
    bins: BTreeSet<String>,
    benches: BTreeSet<String>,
}

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn stems(dir: &Path) -> Vec<String> {
    let Ok(entries) = fs::read_dir(dir) else {
        return Vec::new();
    };
    entries
        .filter_map(|e| {
            e.ok()?
                .file_name()
                .to_str()?
                .strip_suffix(".rs")
                .map(String::from)
        })
        .collect()
}

/// Every package under the root, `crates/`, `shims/` and `benchmark/`, with
/// the bin and bench targets cargo would build for it: `[[bin]]` /
/// `[[bench]]` tables plus the auto-discovered `src/bin/*.rs`,
/// `src/main.rs` and `benches/*.rs`.
fn targets() -> Targets {
    let mut dirs = vec![root(), root().join("benchmark")];
    for group in ["crates", "shims"] {
        dirs.extend(
            fs::read_dir(root().join(group))
                .unwrap()
                .map(|e| e.unwrap().path()),
        );
    }
    let mut t = Targets::default();
    for dir in dirs {
        let Ok(manifest) = fs::read_to_string(dir.join("Cargo.toml")) else {
            continue;
        };
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
            } else if let Some(name) = line.strip_prefix("name = ") {
                let name = name.trim_matches('"').to_string();
                match section {
                    "[package]" => {
                        if dir.join("src/main.rs").exists() {
                            t.bins.insert(name.clone());
                        }
                        t.packages.insert(name);
                    }
                    "[[bin]]" => {
                        t.bins.insert(name);
                    }
                    "[[bench]]" => {
                        t.benches.insert(name);
                    }
                    _ => {}
                }
            }
        }
        t.bins.extend(stems(&dir.join("src/bin")));
        t.benches.extend(stems(&dir.join("benches")));
    }
    t
}

/// A token that is a pattern or a placeholder, not one name.
fn is_pattern(token: &str) -> bool {
    token.contains(['*', '{', '}', '<', '>', '$'])
}

#[test]
fn docs_and_ci_name_only_things_that_exist() {
    let t = targets();
    let mut missing = Vec::new();
    for file in SCANNED {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for (n, line) in text.lines().enumerate() {
            let tokens: Vec<&str> = line
                .split(|c: char| c.is_whitespace() || "`\"'()[]|;=,".contains(c))
                .map(|tok| tok.trim_end_matches(['.', ':']))
                .filter(|tok| !tok.is_empty())
                .collect();
            let mut complain = |what: &str, name: &str| {
                missing.push(format!("{file}:{}: {what} `{name}`", n + 1));
            };
            for (i, &tok) in tokens.iter().enumerate() {
                let next = tokens.get(i + 1).copied().filter(|v| !is_pattern(v));
                match (tok, next) {
                    ("--bin", Some(v)) if !t.bins.contains(v) => complain("no bin target", v),
                    ("--bench", Some(v)) if !t.benches.contains(v) => {
                        complain("no bench target", v)
                    }
                    // `mkdir -p DIR` is the one other `-p` these files use.
                    ("-p", Some(v))
                        if !t.packages.contains(v) && (i == 0 || tokens[i - 1] != "mkdir") =>
                    {
                        complain("no package", v)
                    }
                    ("--manifest-path", Some(v)) if !root().join(v).is_file() => {
                        complain("no manifest", v)
                    }
                    _ => {}
                }
                let script = tok.starts_with("tools/") && tok.ends_with(".sh");
                let data = tok.ends_with(".json") || tok.ends_with(".md");
                // Relative names only: `/tmp/...` and `~/...` are not ours.
                if (script || data)
                    && !is_pattern(tok)
                    && !tok.starts_with(['/', '~'])
                    && !root().join(tok).is_file()
                {
                    complain("no file", tok);
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs or CI name things that do not exist:\n{}",
        missing.join("\n")
    );
}
