//! Command-line tooling for Swarm: argument parsing and the shared
//! cluster-connection logic behind the `swarmd` and `swarm-admin`
//! binaries.
//!
//! * `swarmd` — runs one storage server over TCP, backed by a directory
//!   (crash-atomic [`swarm_server::FileStore`]) or memory.
//! * `swarm-admin` — drives a running cluster: ping, stats, and a fully
//!   self-hosting Sting file system (`fs` subcommands). Self-hosting
//!   means the tool keeps **no local state**: every invocation recovers
//!   the client's log from the cluster (checkpoint + rollforward), does
//!   its work, checkpoints, and exits — exactly the paper's recovery
//!   machinery, exercised every time you run a command.
//!
//! Argument parsing is hand-rolled (`--key value` pairs) to keep the
//! workspace's dependency set minimal.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::sync::Arc;

use swarm_net::tcp::TcpTransport;
use swarm_types::{Result, ServerId, SwarmError};

/// Parsed command line: positional words plus `--key value` options.
#[derive(Debug, Default, Clone)]
pub struct Args {
    /// Positional arguments in order.
    pub positional: Vec<String>,
    /// `--key value` options (later occurrences win).
    pub options: BTreeMap<String, String>,
}

impl Args {
    /// Parses `argv[1..]`. A `--flag` followed by another `--flag` (or
    /// nothing) is treated as a boolean `"true"`.
    pub fn parse(argv: impl IntoIterator<Item = String>) -> Args {
        let mut args = Args::default();
        let mut iter = argv.into_iter().peekable();
        while let Some(word) = iter.next() {
            if let Some(key) = word.strip_prefix("--") {
                let value = match iter.peek() {
                    Some(next) if !next.starts_with("--") => iter.next().expect("peeked"),
                    _ => "true".to_string(),
                };
                args.options.insert(key.to_string(), value);
            } else {
                args.positional.push(word);
            }
        }
        args
    }

    /// Refuses any option not in `known` (keys without the `--`): a
    /// misspelt or retired flag is an error, not a silent default. Call
    /// it before acting on the command.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] naming every unknown flag.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<()> {
        let unknown: Vec<String> = (self.options.keys())
            .filter(|key| !known.contains(&key.as_str()))
            .map(|key| format!("--{key}"))
            .collect();
        if unknown.is_empty() {
            return Ok(());
        }
        Err(SwarmError::invalid(format!(
            "unknown option {} (known: --{})",
            unknown.join(", "),
            known.join(", --")
        )))
    }

    /// Fetches a required option.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] naming the missing key.
    pub fn require(&self, key: &str) -> Result<&str> {
        self.options
            .get(key)
            .map(|s| s.as_str())
            .ok_or_else(|| SwarmError::invalid(format!("missing required option --{key}")))
    }

    /// Fetches an option with a default.
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(|s| s.as_str()).unwrap_or(default)
    }

    /// Parses an integer option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`SwarmError::InvalidArgument`] on a malformed number.
    pub fn get_u64(&self, key: &str, default: u64) -> Result<u64> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| SwarmError::invalid(format!("--{key} expects a number, got {v:?}"))),
        }
    }
}

/// Parses a `--servers` spec: `0=127.0.0.1:7700,1=127.0.0.1:7701,…`
///
/// # Errors
///
/// Returns [`SwarmError::InvalidArgument`] on malformed entries.
pub fn parse_servers(spec: &str) -> Result<Vec<(ServerId, SocketAddr)>> {
    let mut out = Vec::new();
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (id, addr) = part.split_once('=').ok_or_else(|| {
            SwarmError::invalid(format!("bad server entry {part:?} (want id=host:port)"))
        })?;
        let id: u32 = id
            .parse()
            .map_err(|_| SwarmError::invalid(format!("bad server id {id:?}")))?;
        let addr: SocketAddr = addr
            .parse()
            .map_err(|_| SwarmError::invalid(format!("bad server address {addr:?}")))?;
        out.push((ServerId::new(id), addr));
    }
    if out.is_empty() {
        return Err(SwarmError::invalid("--servers lists no servers"));
    }
    Ok(out)
}

/// Builds a TCP transport for the given `--servers` spec.
///
/// # Errors
///
/// Propagates [`parse_servers`] errors.
pub fn transport_for(spec: &str) -> Result<Arc<TcpTransport>> {
    let servers = parse_servers(spec)?;
    Ok(Arc::new(TcpTransport::with_servers(servers)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Args {
        Args::parse(words.iter().map(|s| s.to_string()))
    }

    #[test]
    fn positional_and_options_mix() {
        let a = parse(&[
            "fs",
            "write",
            "--servers",
            "0=1.2.3.4:5",
            "/path",
            "--client",
            "7",
        ]);
        assert_eq!(a.positional, vec!["fs", "write", "/path"]);
        assert_eq!(a.require("servers").unwrap(), "0=1.2.3.4:5");
        assert_eq!(a.get_u64("client", 1).unwrap(), 7);
    }

    #[test]
    fn bare_flags_become_true() {
        let a = parse(&["--mem", "--dir", "/x", "--verbose"]);
        assert_eq!(a.get_or("mem", "false"), "true");
        assert_eq!(a.get_or("verbose", "false"), "true");
        assert_eq!(a.require("dir").unwrap(), "/x");
    }

    #[test]
    fn missing_required_option_is_an_error() {
        let a = parse(&[]);
        assert!(a.require("servers").is_err());
        assert!(parse(&["--n", "abc"]).get_u64("n", 0).is_err());
    }

    #[test]
    fn unknown_options_are_named_in_the_error() {
        let a = parse(&["clean", "--servers", "0=1.2.3.4:5", "--max-stripe", "4"]);
        a.reject_unknown(&["servers", "max-stripe"]).unwrap();
        let err = a.reject_unknown(&["servers", "max-stripes"]).unwrap_err();
        assert!(matches!(err, SwarmError::InvalidArgument(_)), "{err}");
        assert!(err.to_string().contains("--max-stripe (known"), "{err}");
    }

    #[test]
    fn server_spec_parsing() {
        let servers = parse_servers("0=127.0.0.1:7700,2=127.0.0.1:7702").unwrap();
        assert_eq!(servers.len(), 2);
        assert_eq!(servers[0].0, ServerId::new(0));
        assert_eq!(servers[1].0, ServerId::new(2));
        assert!(parse_servers("").is_err());
        assert!(parse_servers("nonsense").is_err());
        assert!(parse_servers("0=not-an-addr").is_err());
    }
}
