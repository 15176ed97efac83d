//! Docs and CI may only name things that exist.
//!
//! The files people and CI runners follow — README, DESIGN, EXPERIMENTS,
//! the verify skill and the workflow — are scanned for `--bin NAME`,
//! `--bench NAME`, `-p CRATE`, `--manifest-path PATH`, `tools/*.sh` and
//! `*.json` / `*.md` file names; each must resolve to a cargo target, a
//! package or a file in the checkout. A deleted binary or data file that is
//! still cited fails here, not in a nightly job that quietly skips it.
//! Flags are held to the same rule: every `--flag` in one of README's flag
//! tables, or on a `-p swarm-chaos --` command line anywhere, must be a
//! string the CLI sources read. So is API: a back-ticked `Log::name` (or
//! `LogConfig::`, `ReadEngine::`, `ConnectionPool::`) must be a function or
//! public field in `swarm-log` or `swarm-net`.

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

/// Every string literal in the `.rs` files under `dir`, without a leading
/// `--`: `swarm-cli` reads `args.get_u64("client", ..)`, `swarm-chaos`
/// matches on `"--seeds"`.
fn string_literals(dir: &Path, out: &mut BTreeSet<String>) {
    for entry in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if entry.is_dir() {
            string_literals(&entry, out);
        } else if entry.extension().is_some_and(|ext| ext == "rs") {
            let text = fs::read_to_string(&entry).unwrap();
            // Odd pieces of a split on `"` are the insides of literals
            // (quotes in the CLI sources come in pairs, in comments too).
            for literal in text.split('"').skip(1).step_by(2) {
                out.insert(literal.trim_start_matches("--").to_string());
            }
        }
    }
}

/// The `--flag`s among `line`'s words.
fn flags(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter_map(|word| word.strip_prefix("--"))
        .filter(|flag| !flag.is_empty())
}

/// A documented flag is a flag the CLIs parse: the first cell of every row
/// of README's flag tables, and everything after `-p swarm-chaos --` on a
/// command line (continuation lines included) in any scanned file.
#[test]
fn documented_flags_are_flags_the_clis_read() {
    let mut known = BTreeSet::new();
    for cli in ["crates/swarm-cli/src", "crates/swarm-chaos/src"] {
        string_literals(&root().join(cli), &mut known);
    }
    let mut missing = Vec::new();
    for file in SCANNED {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        let mut continued = false;
        for (n, line) in text.lines().enumerate() {
            let table_cell = (file == "README.md" && line.starts_with("| `--"))
                .then(|| line.split('|').nth(1).unwrap_or(""));
            let command = match line.split_once("-p swarm-chaos --") {
                Some((_, rest)) => Some(rest),
                None => continued.then_some(line),
            };
            continued = command.is_some() && line.trim_end().ends_with('\\');
            for flag in table_cell.into_iter().chain(command).flat_map(flags) {
                if !known.contains(flag) {
                    missing.push(format!("{file}:{}: no CLI reads `--{flag}`", n + 1));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs or CI document flags that do not exist:\n{}",
        missing.join("\n")
    );
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// A back-ticked `Log::name`, `LogConfig::name`, `ReadEngine::name` or
/// `ConnectionPool::name` in the prose docs is a `fn name` or a `pub name:`
/// field in `swarm-log` or `swarm-net`. A name that is empty or ends in `_`
/// (`Log::append_*`, `Log::{read, read_many}`) is a glob and is skipped.
#[test]
fn documented_api_names_exist() {
    const TYPES: [&str; 4] = ["LogConfig::", "Log::", "ReadEngine::", "ConnectionPool::"];
    let mut code = String::new();
    for krate in ["crates/swarm-log/src", "crates/swarm-net/src"] {
        for entry in fs::read_dir(root().join(krate)).unwrap() {
            code.push_str(&fs::read_to_string(entry.unwrap().path()).unwrap());
        }
    }
    let defined = |name: &str| {
        [format!("fn {name}"), format!("pub {name}:")]
            .iter()
            .flat_map(|decl| code.match_indices(decl.as_str()))
            .any(|(at, decl)| !code[at + decl.len()..].starts_with(is_ident))
    };
    let mut missing = Vec::new();
    for file in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for ty in TYPES {
            for (at, tick) in text.match_indices(&format!("`{ty}")) {
                let name = text[at + tick.len()..].split(|c| !is_ident(c)).next();
                let name = name.unwrap_or("");
                if !(name.is_empty() || name.ends_with('_') || defined(name)) {
                    missing.push(format!("{file}: `{ty}{name}` is not in the source"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name API that does not exist:\n{}",
        missing.join("\n")
    );
}
