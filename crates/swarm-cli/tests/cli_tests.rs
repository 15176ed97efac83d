//! End-to-end tests of the CLI binaries: real `swarmd` processes on
//! localhost, driven by real `swarm-admin` invocations. Each `fs` call
//! is a separate process, so the self-hosting recovery path (mount =
//! checkpoint + rollforward from the cluster) runs every time.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, Command, Stdio};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let n = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos();
        let path = std::env::temp_dir().join(format!("swarm-cli-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&path).unwrap();
        TempDir(path)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_daemon(id: u32, dir: &std::path::Path) -> Daemon {
    spawn_daemon(&[
        "--id",
        &id.to_string(),
        "--dir",
        dir.to_str().unwrap(),
        "--durability",
        "none",
    ])
}

/// Starts `swarmd` with `flags` on an ephemeral port and waits for its
/// banner.
fn spawn_daemon(flags: &[&str]) -> Daemon {
    let mut child = Command::new(env!("CARGO_BIN_EXE_swarmd"))
        .args(["--listen", "127.0.0.1:0"])
        .args(flags)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn swarmd");
    // First stdout line: "swarmd N listening on ADDR".
    let stdout = child.stdout.take().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read banner");
    let addr = line
        .rsplit(' ')
        .next()
        .expect("address in banner")
        .trim()
        .to_string();
    Daemon { child, addr }
}

struct Cluster {
    daemons: Vec<Daemon>,
    _dirs: Vec<TempDir>,
}

impl Cluster {
    fn start(n: u32, tag: &str) -> Cluster {
        let mut daemons = Vec::new();
        let mut dirs = Vec::new();
        for i in 0..n {
            let dir = TempDir::new(&format!("{tag}-{i}"));
            daemons.push(start_daemon(i, &dir.0));
            dirs.push(dir);
        }
        Cluster {
            daemons,
            _dirs: dirs,
        }
    }

    fn servers_spec(&self) -> String {
        self.daemons
            .iter()
            .enumerate()
            .map(|(i, d)| format!("{i}={}", d.addr))
            .collect::<Vec<_>>()
            .join(",")
    }
}

fn admin(cluster: &Cluster, args: &[&str], stdin: Option<&[u8]>) -> (String, String, bool) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_swarm-admin"));
    cmd.args(args).args(["--servers", &cluster.servers_spec()]);
    cmd.stdin(if stdin.is_some() {
        Stdio::piped()
    } else {
        Stdio::null()
    });
    cmd.stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("spawn swarm-admin");
    if let Some(data) = stdin {
        child
            .stdin
            .as_mut()
            .expect("stdin piped")
            .write_all(data)
            .expect("feed stdin");
    }
    let out = child.wait_with_output().expect("admin exit");
    (
        String::from_utf8_lossy(&out.stdout).to_string(),
        String::from_utf8_lossy(&out.stderr).to_string(),
        out.status.success(),
    )
}

#[test]
fn ping_and_stat_cover_all_servers() {
    let cluster = Cluster::start(3, "ping");
    let (out, _err, ok) = admin(&cluster, &["ping"], None);
    assert!(ok, "{out}");
    for i in 0..3 {
        assert!(out.contains(&format!("s{i}: ok")), "{out}");
    }
    let (out, _err, ok) = admin(&cluster, &["stat"], None);
    assert!(ok, "{out}");
    assert!(out.contains("fragments"), "{out}");
}

#[test]
fn self_hosting_fs_round_trips_across_processes() {
    let cluster = Cluster::start(3, "fs");

    let (_o, e, ok) = admin(&cluster, &["fs", "mkdir", "/docs"], None);
    assert!(ok, "{e}");

    let payload = b"stored in a striped, parity-protected log via the shell";
    let (_o, e, ok) = admin(&cluster, &["fs", "write", "/docs/note.txt"], Some(payload));
    assert!(ok, "{e}");

    // A *separate* process reads it back (full recovery path).
    let (out, e, ok) = admin(&cluster, &["fs", "read", "/docs/note.txt"], None);
    assert!(ok, "{e}");
    assert_eq!(out.as_bytes(), payload);

    let (out, e, ok) = admin(&cluster, &["fs", "ls", "/"], None);
    assert!(ok, "{e}");
    assert!(out.contains("docs/"), "{out}");

    let (out, e, ok) = admin(&cluster, &["fs", "stat", "/docs/note.txt"], None);
    assert!(ok, "{e}");
    assert!(out.contains(&format!("size {}", payload.len())), "{out}");

    // Overwrite, remove, verify.
    let (_o, e, ok) = admin(&cluster, &["fs", "write", "/docs/note.txt"], Some(b"v2"));
    assert!(ok, "{e}");
    let (out, _e, ok) = admin(&cluster, &["fs", "read", "/docs/note.txt"], None);
    assert!(ok);
    assert_eq!(out, "v2");
    let (_o, e, ok) = admin(&cluster, &["fs", "rm", "/docs/note.txt"], None);
    assert!(ok, "{e}");
    let (_o, _e, ok) = admin(&cluster, &["fs", "read", "/docs/note.txt"], None);
    assert!(!ok, "reading a removed file must fail");
}

#[test]
fn fs_survives_daemon_restart() {
    let dir0 = TempDir::new("restart-0");
    let dir1 = TempDir::new("restart-1");
    let spec;
    {
        let d0 = start_daemon(0, &dir0.0);
        let d1 = start_daemon(1, &dir1.0);
        let cluster = Cluster {
            daemons: vec![d0, d1],
            _dirs: vec![],
        };
        let (_o, e, ok) = admin(
            &cluster,
            &["fs", "write", "/durable.txt"],
            Some(b"on real disks"),
        );
        assert!(ok, "{e}");
        spec = cluster.servers_spec();
        let _ = spec;
        // Daemons die here (Drop kills them).
    }
    // Restart from the same directories (new ports).
    let d0 = start_daemon(0, &dir0.0);
    let d1 = start_daemon(1, &dir1.0);
    let cluster = Cluster {
        daemons: vec![d0, d1],
        _dirs: vec![],
    };
    let (out, e, ok) = admin(&cluster, &["fs", "read", "/durable.txt"], None);
    assert!(ok, "{e}");
    assert_eq!(out, "on real disks");
}

#[test]
fn clean_command_reports_stats() {
    let cluster = Cluster::start(3, "clean");
    // Create churn.
    admin(&cluster, &["fs", "write", "/a"], Some(&[1u8; 8000]));
    admin(&cluster, &["fs", "write", "/a"], Some(&[2u8; 8000]));
    admin(&cluster, &["fs", "rm", "/a"], None);
    let (out, e, ok) = admin(&cluster, &["clean"], None);
    assert!(ok, "{e}");
    assert!(out.contains("cleaned"), "{out}");
    // The cluster still works afterwards.
    let (_o, e, ok) = admin(&cluster, &["fs", "write", "/b"], Some(b"post-clean"));
    assert!(ok, "{e}");
    let (out, _e, ok) = admin(&cluster, &["fs", "read", "/b"], None);
    assert!(ok);
    assert_eq!(out, "post-clean");
}

#[test]
fn bad_usage_fails_cleanly() {
    let cluster = Cluster::start(1, "usage");
    let (_o, err, ok) = admin(&cluster, &["frobnicate"], None);
    assert!(!ok);
    assert!(err.contains("unknown command"), "{err}");
    let (_o, err, ok) = admin(&cluster, &["fs", "write"], None);
    assert!(!ok);
    assert!(err.contains("missing"), "{err}");
}

/// A flag no command reads is refused by name before anything runs —
/// not parsed into a map nobody looks at while the default applies.
#[test]
fn misspelt_flag_is_refused_and_named() {
    // Old command lines say `--no-fsync` for `--durability none`: they
    // must fail, not quietly run `strict`.
    for flags in [&["--durabilty", "group"][..], &["--no-fsync"]] {
        let out = Command::new(env!("CARGO_BIN_EXE_swarmd"))
            .arg("--mem")
            .args(flags)
            .output()
            .expect("run swarmd");
        assert!(!out.status.success());
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("unknown option {}", flags[0])),
            "{err}"
        );
    }

    let cluster = Cluster::start(2, "misspelt");
    admin(&cluster, &["fs", "write", "/f"], Some(b"keep"));
    for args in [
        &["clean", "--max-stripe", "4"][..],
        &["fs", "rm", "/f", "--cilent", "1"],
        &["ping", "--geometry", "1+1"],
    ] {
        let (_o, err, ok) = admin(&cluster, args, None);
        assert!(!ok, "{args:?}");
        assert!(
            err.contains(&format!("unknown option {}", args[args.len() - 2])),
            "{err}"
        );
    }
    let (out, e, ok) = admin(&cluster, &["fs", "read", "/f"], None);
    assert!(ok, "{e}");
    assert_eq!(out, "keep", "a refused command must not have run");
}

/// Every flag README's tables document for `swarmd` and `swarm-admin` is
/// still accepted by the commands it is documented for.
#[test]
fn every_documented_flag_still_parses() {
    let dir = TempDir::new("flags");
    let dir_path = dir.0.to_str().unwrap();
    let daemons = vec![
        spawn_daemon(&["--id", "0", "--mem", "--capacity", "64", "--cache", "2"]),
        spawn_daemon(&["--id", "1", "--dir", dir_path, "--durability", "group:1"]),
        spawn_daemon(&["--id", "2", "--mem", "--read-deadline-ms", "5000"]),
    ];
    let cluster = Cluster {
        daemons,
        _dirs: vec![dir],
    };
    let log_flags = ["--client", "3", "--geometry", "2+1"];
    let mount_flags = [&log_flags[..], &["--fragment-size", "65536"]].concat();
    let run = |command: &[&str], flags: &[&str], stdin: Option<&[u8]>| {
        let (out, e, ok) = admin(&cluster, &[command, flags].concat(), stdin);
        assert!(ok, "{command:?}: {e}");
        out
    };
    run(&["fs", "write", "/f"], &mount_flags, Some(b"flagged"));
    assert_eq!(run(&["fs", "read", "/f"], &mount_flags, None), "flagged");
    let clean_flags = [
        &mount_flags[..],
        &["--policy", "greedy", "--max-stripes", "4"],
    ]
    .concat();
    assert!(run(&["clean"], &clean_flags, None).contains("cleaned"));
    assert!(run(&["log", "dump"], &log_flags, None).contains("log of c3"));
    assert!(run(&["frag", "locate", "0"], &["--client", "3"], None).contains("stripe"));
    assert!(run(&["ping"], &["--client", "3"], None).contains("ok"));
}

#[test]
fn log_dump_shows_the_recovered_log() {
    let cluster = Cluster::start(2, "dump");
    admin(&cluster, &["fs", "mkdir", "/d"], None);
    admin(&cluster, &["fs", "write", "/d/f"], Some(b"dump me"));
    let (out, e, ok) = admin(&cluster, &["log", "dump"], None);
    assert!(ok, "{e}");
    assert!(
        out.contains("CHECKPOINT") || out.contains("checkpoint"),
        "{out}"
    );
    assert!(out.contains("BLOCK"), "{out}");
    assert!(out.contains("RECORD"), "{out}");
}

#[test]
fn frag_locate_reports_stripe_membership() {
    let cluster = Cluster::start(3, "frag");
    admin(&cluster, &["fs", "write", "/x"], Some(&[7u8; 5000]));
    let (out, e, ok) = admin(&cluster, &["frag", "locate", "0"], None);
    assert!(ok, "{e}");
    assert!(out.contains("stripe"), "{out}");
    assert!(out.contains("group:"), "{out}");
    // A fragment that never existed.
    let (out, _e, ok) = admin(&cluster, &["frag", "locate", "999999"], None);
    assert!(ok);
    assert!(out.contains("not found"), "{out}");
    // Kill a daemon; its fragments report as reconstructible.
    let spec = cluster.servers_spec();
    let _ = spec;
}
