//! Docs and CI may only name things that exist.
//!
//! The files people and CI runners follow — README, DESIGN, EXPERIMENTS,
//! the verify skill and the workflow — are scanned for `--bin NAME`,
//! `--bench NAME`, `-p CRATE`, `--manifest-path PATH`, `tools/*.sh`,
//! `*.json` / `*.md` / `*.txt` file names and `dir/*.rs` source paths; each must
//! resolve to a cargo target, a package or a file in the checkout (a
//! source path from the root, from `crates/` or from inside a crate). A
//! deleted binary, data or source file that is still cited fails here, not
//! in a nightly job that quietly skips it.
//! Flags are held to the same rule: every `--flag` in one of README's flag
//! tables, or on a `-p swarm-chaos --` command line anywhere, must be a
//! string the CLI sources read. So is API: a back-ticked `Log::name` (or
//! `LogConfig::`, `ReadEngine::`, `ConnectionPool::`) must be a function or
//! public field in `swarm-log` or `swarm-net`, and a back-ticked
//! `swarm-crate::path` (or `swarm_crate::path`) must be a module or `pub`
//! item of that crate.

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
    // A source path may be written from the root, from `crates/` or from
    // inside one crate.
    let mut source_roots = vec![root(), root().join("crates")];
    source_roots.extend(
        fs::read_dir(root().join("crates"))
            .unwrap()
            .map(|e| e.unwrap().path()),
    );
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
                let data = [".json", ".md", ".txt"]
                    .iter()
                    .any(|ext| tok.ends_with(ext));
                let source = tok.ends_with(".rs") && tok.contains('/');
                let found = || {
                    if source {
                        source_roots.iter().any(|dir| dir.join(tok).is_file())
                    } else {
                        root().join(tok).is_file()
                    }
                };
                // Relative names only: `/tmp/...` and `~/...` are not ours,
                // and neither is build output under `target/`.
                if (script || data || source)
                    && !is_pattern(tok)
                    && !tok.starts_with(['/', '~'])
                    && !tok.starts_with("target/")
                    && !found()
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

/// The text of every `.rs` file under `dir`, recursively.
fn rust_sources(dir: &Path, out: &mut Vec<String>) {
    for entry in fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()) {
        if entry.is_dir() {
            rust_sources(&entry, out);
        } else if entry.extension().is_some_and(|ext| ext == "rs") {
            out.push(fs::read_to_string(&entry).unwrap());
        }
    }
}

/// Every string literal in the `.rs` files under `dir`, without a leading
/// `--`: `swarm-cli` reads `args.get_u64("client", ..)`, `swarm-chaos`
/// matches on `"--seeds"`.
fn string_literals(dir: &Path, out: &mut BTreeSet<String>) {
    let mut texts = Vec::new();
    rust_sources(dir, &mut texts);
    for text in texts {
        // Odd pieces of a split on `"` are the insides of literals
        // (quotes in the CLI sources come in pairs, in comments too).
        for literal in text.split('"').skip(1).step_by(2) {
            out.insert(literal.trim_start_matches("--").to_string());
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

/// Whether `code` declares `name` as a `pub` item: `pub fn name`, `pub
/// struct name`, ... or a `pub use` that brings `name` in.
fn declares_pub(code: &str, name: &str) -> bool {
    const KINDS: [&str; 8] = [
        "fn", "struct", "enum", "trait", "type", "const", "static", "mod",
    ];
    let whole = |text: &str, at: usize, len: usize| {
        !text[..at].ends_with(is_ident) && !text[at + len..].starts_with(is_ident)
    };
    let declared = KINDS.iter().any(|kind| {
        let decl = format!("pub {kind} {name}");
        code.match_indices(&decl)
            .any(|(at, _)| whole(code, at, decl.len()))
    });
    declared
        || code.match_indices("pub use ").any(|(at, _)| {
            let stmt = code[at..].split(';').next().unwrap_or("");
            stmt.match_indices(name)
                .any(|(i, _)| whole(stmt, i, name.len()))
        })
}

/// The source file of module `path` (`["pool"]`, `["a", "b"]`) under `src`.
fn module_file(src: &Path, path: &[&str]) -> Option<PathBuf> {
    let base = path
        .iter()
        .fold(src.to_path_buf(), |dir, seg| dir.join(seg));
    [base.with_extension("rs"), base.join("mod.rs")]
        .into_iter()
        .find(|f| f.is_file())
}

/// A back-ticked `swarm-log::writer`, `swarm_net::pool::WINDOW` or
/// `swarm_types::Bytes` in the prose docs names something in that crate:
/// a module file under its `src/`, or a `pub` item of the parent module's
/// file (for a top-level name, of any file in the crate, since `lib.rs`
/// re-exports). A path that
/// trails off into a glob (`swarm-sim::{a, b}`) is checked up to the glob.
#[test]
fn documented_crate_paths_exist() {
    let mut missing = Vec::new();
    for file in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = fs::read_to_string(root().join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        for prefix in ["`swarm-", "`swarm_"] {
            for (at, _) in text.match_indices(prefix) {
                let rest = &text[at + prefix.len()..];
                let krate = rest.split(|c| !is_ident(c)).next().unwrap_or("");
                let mut segs: Vec<&str> = Vec::new();
                let mut path = &rest[krate.len()..];
                while let Some(tail) = path.strip_prefix("::") {
                    let seg = tail.split(|c| !is_ident(c)).next().unwrap_or("");
                    if seg.is_empty() {
                        break;
                    }
                    segs.push(seg);
                    path = &tail[seg.len()..];
                }
                let Some((last, parents)) = segs.split_last() else {
                    continue;
                };
                let shown = format!("swarm-{krate}::{}", segs.join("::"));
                let src = root().join(format!("crates/swarm-{}/src", krate.replace('_', "-")));
                let parent_code = if parents.is_empty() {
                    let mut texts = Vec::new();
                    if src.is_dir() {
                        rust_sources(&src, &mut texts);
                    }
                    texts.concat()
                } else {
                    module_file(&src, parents)
                        .map(|f| fs::read_to_string(f).unwrap())
                        .unwrap_or_default()
                };
                if module_file(&src, &segs).is_none() && !declares_pub(&parent_code, last) {
                    missing.push(format!("{file}: `{shown}` is not in the source"));
                }
            }
        }
    }
    assert!(
        missing.is_empty(),
        "docs name crate paths that do not exist:\n{}",
        missing.join("\n")
    );
}
