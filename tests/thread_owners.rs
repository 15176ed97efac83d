//! No thread outlives its owner.
//!
//! The non-test source of `swarm-net`, `swarm-log`, `swarm-cleaner` and
//! `swarm-server` may start a thread only at the sites listed here, each of
//! which keeps the `JoinHandle` in a value whose `Drop` joins it.
//! Everything else that wants RPCs in flight at once holds pending calls
//! (`ConnectionPool::fan_out`). A new `thread::spawn` fails this test
//! until its owner is named below — which is the moment to ask who joins
//! it.

use std::fs;
use std::path::PathBuf;

/// (file, spawn sites, who joins them).
const OWNERS: [(&str, usize, &str); 4] = [
    ("swarm-net/src/reactor.rs", 1, "Reactor::drop"),
    ("swarm-net/src/workpool.rs", 1, "WorkerPool::drop"),
    ("swarm-log/src/writer.rs", 1, "WritePool::drop"),
    ("swarm-cleaner/src/cleaner.rs", 1, "CleanerHandle::drop"),
];

/// The crates under the rule. `swarm-server` starts no thread of its own:
/// its server's threads are `swarm-net`'s reactor and worker pool.
const CRATES: [&str; 4] = ["swarm-net", "swarm-log", "swarm-cleaner", "swarm-server"];

const STARTS: [&str; 3] = ["thread::spawn", "thread::Builder", "thread::scope"];

#[test]
fn threads_start_only_where_an_owner_joins_them() {
    let crates = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates");
    let mut wrong = Vec::new();
    for krate in CRATES {
        for entry in fs::read_dir(crates.join(krate).join("src")).unwrap() {
            let path = entry.unwrap().path();
            let name = format!(
                "{krate}/src/{}",
                path.file_name().unwrap().to_str().unwrap()
            );
            let Ok(source) = fs::read_to_string(&path) else {
                continue; // a directory
            };
            // Unit tests sit below the first `#[cfg(test)]`.
            let shipped = source.split("#[cfg(test)]").next().unwrap();
            let sites: Vec<usize> = shipped
                .lines()
                .enumerate()
                .filter(|(_, line)| !line.trim_start().starts_with("//"))
                .filter(|(_, line)| STARTS.iter().any(|start| line.contains(start)))
                .map(|(n, _)| n + 1)
                .collect();
            let allowed = OWNERS
                .iter()
                .find(|(file, ..)| *file == name)
                .map_or(0, |(_, count, _)| *count);
            if sites.len() != allowed {
                wrong.push(format!(
                    "{name}: {} thread start(s) at lines {sites:?}, {allowed} allowed",
                    sites.len()
                ));
            }
        }
    }
    assert!(
        wrong.is_empty(),
        "threads without a named, joining owner:\n{}",
        wrong.join("\n")
    );
}
