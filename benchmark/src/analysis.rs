//! Per-layer metrics from the spans of a traced measured phase.
//!
//! A layer's self time is its span's duration minus the part of that
//! interval its child spans cover. A child is matched to its parent by
//! what both can see — client, server, request kind, fragment id — plus
//! containment of the child's interval in the parent's, all on the one
//! in-process clock. Parallel children are unioned, not summed.

use std::collections::{HashMap, HashSet};

use crate::stats::{cover, mean, percentile, ratio, Interval};
use crate::trace::{Layer, RpcKind, Span};

/// A per-layer metric: name, unit, value.
pub type Metric = (String, &'static str, f64);

/// Sorted (by start) span indices per client or per server.
type ByOwner = HashMap<u32, Vec<usize>>;

struct Index<'a> {
    spans: &'a [Span],
    rpcs: ByOwner,
    handles: ByOwner,
    stores: ByOwner,
}

impl<'a> Index<'a> {
    /// `spans` must be sorted by start (as `Tracer::drain` returns them).
    fn new(spans: &'a [Span]) -> Index<'a> {
        let mut ix = Index {
            spans,
            rpcs: HashMap::new(),
            handles: HashMap::new(),
            stores: HashMap::new(),
        };
        for (i, s) in spans.iter().enumerate() {
            match s.layer {
                Layer::Rpc => ix.rpcs.entry(s.client).or_default().push(i),
                Layer::Handle | Layer::FastHandle => {
                    ix.handles.entry(s.server).or_default().push(i)
                }
                Layer::StoreStore | Layer::StoreRead => {
                    ix.stores.entry(s.server).or_default().push(i)
                }
                _ => {}
            }
        }
        ix
    }

    /// Spans of `list` that start inside `[from, to]`.
    fn starting_in(&self, list: Option<&'a Vec<usize>>, from: u64, to: u64) -> &'a [usize] {
        let Some(list) = list else { return &[] };
        let lo = list.partition_point(|&i| self.spans[i].start < from);
        let hi = list.partition_point(|&i| self.spans[i].start <= to);
        &list[lo..hi]
    }

    /// This client's RPCs wholly inside `parent` (same fragment, when the
    /// parent names one).
    fn rpcs_in(&self, parent: &Span, same_fid: bool) -> Vec<&'a Span> {
        self.starting_in(self.rpcs.get(&parent.client), parent.start, parent.end)
            .iter()
            .map(|&i| &self.spans[i])
            .filter(|c| c.end <= parent.end)
            .filter(|c| !same_fid || parent.fid == 0 || c.fid == parent.fid)
            .collect()
    }

    /// The server-side span that served `rpc`: same server, client, kind
    /// and fragment, wholly inside the RPC.
    fn handle_of(&self, rpc: &Span) -> Option<&'a Span> {
        self.starting_in(self.handles.get(&rpc.server), rpc.start, rpc.end)
            .iter()
            .map(|&i| &self.spans[i])
            .find(|h| {
                h.end <= rpc.end && h.client == rpc.client && h.kind == rpc.kind && h.fid == rpc.fid
            })
    }

    /// Store calls made while serving `handle`: same server and client,
    /// wholly inside it, and the same fragment unless the request was a
    /// batch over several.
    fn stores_in(&self, handle: &Span) -> Vec<&'a Span> {
        self.starting_in(self.stores.get(&handle.server), handle.start, handle.end)
            .iter()
            .map(|&i| &self.spans[i])
            .filter(|c| c.end <= handle.end && c.client == handle.client)
            .filter(|c| handle.kind == RpcKind::ReadBatch || c.fid == handle.fid)
            .collect()
    }
}

fn interval(s: &Span) -> Interval {
    (s.start, s.end)
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn ms(ns: f64) -> f64 {
    ns / 1e6
}

/// What the traced run knows besides its spans.
pub struct Context {
    /// The measured phase on the run's clock.
    pub t0: u64,
    pub t1: u64,
    pub clients: usize,
    pub live_servers: usize,
    /// Commit latency samples of the measured phase: (completed at, ms).
    pub commits: Vec<(u64, f64)>,
}

/// Everything `analysis` derives from spans, in output order.
pub fn per_layer(spans: &[Span], ctx: &Context) -> Vec<Metric> {
    let ix = Index::new(spans);
    let wall = (ctx.t1 - ctx.t0) as f64;
    let of = |layer: Layer| spans.iter().filter(move |s| s.layer == layer);
    let mut out: Vec<Metric> = Vec::new();
    let mut put = |name: &str, unit: &'static str, v: f64| out.push((name.to_string(), unit, v));

    // --- net and server: every RPC against the span that served it ------
    let mut rpc_self: HashMap<RpcKind, Vec<f64>> = HashMap::new();
    let mut rpc_dur: HashMap<RpcKind, Vec<f64>> = HashMap::new();
    let mut conns: HashSet<(u32, u32)> = HashSet::new();
    let mut rpc_time = 0.0;
    for rpc in of(Layer::Rpc) {
        let served = ix.handle_of(rpc).map_or(0, Span::dur);
        rpc_self
            .entry(rpc.kind)
            .or_default()
            .push((rpc.dur() - served.min(rpc.dur())) as f64);
        rpc_dur.entry(rpc.kind).or_default().push(rpc.dur() as f64);
        conns.insert((rpc.client, rpc.server));
        rpc_time += rpc.dur() as f64;
    }
    let mut handle_self: HashMap<RpcKind, Vec<f64>> = HashMap::new();
    let mut handles_per_server: HashMap<u32, u64> = HashMap::new();
    let mut handle_time = 0.0;
    let mut store_time_in_read_handles = 0.0;
    for h in of(Layer::Handle).chain(of(Layer::FastHandle)) {
        let kids = ix.stores_in(h);
        let covered = cover(interval(h), kids.into_iter().map(interval));
        if h.kind == RpcKind::Read {
            store_time_in_read_handles += covered as f64;
        }
        handle_self
            .entry(h.kind)
            .or_default()
            .push((h.dur() - covered) as f64);
        *handles_per_server.entry(h.server).or_default() += 1;
        handle_time += h.dur() as f64;
    }
    let mean_of = |m: &HashMap<RpcKind, Vec<f64>>, k: RpcKind| m.get(&k).map_or(0.0, |v| mean(v));
    let count_of =
        |m: &HashMap<RpcKind, Vec<f64>>, k: RpcKind| m.get(&k).map_or(0, Vec::len) as f64;

    // --- log: workload reads and flushes against this client's RPCs ------
    let reads: Vec<&Span> = of(Layer::LogRead).chain(of(Layer::DiskRead)).collect();
    let plain: Vec<&&Span> = reads.iter().filter(|r| !r.flag).collect();
    let mut read_self = Vec::new();
    let mut plain_rpcs = 0usize;
    for r in &plain {
        let kids = ix.rpcs_in(r, true);
        plain_rpcs += kids.len();
        read_self.push((r.dur() - cover(interval(r), kids.into_iter().map(interval))) as f64);
    }
    let all_rpcs_in_reads: usize = reads.iter().map(|r| ix.rpcs_in(r, false).len()).sum();
    let raw_read = reads.first().is_some_and(|r| r.layer == Layer::LogRead);
    let reconstructing: Vec<f64> = reads
        .iter()
        .filter(|r| r.flag)
        .map(|r| r.dur() as f64)
        .collect();

    let flushes: Vec<&Span> = of(Layer::Flush).collect();
    let mut flush_self = Vec::new();
    let mut flush_cover = Vec::new();
    for f in &flushes {
        // A store may have been submitted before the flush began (the
        // writers ship fragments as they seal), so look back as well.
        let kids = ix
            .starting_in(
                ix.rpcs.get(&f.client),
                f.start.saturating_sub(2_000_000_000),
                f.end,
            )
            .iter()
            .map(|&i| &spans[i])
            .filter(|c| c.kind == RpcKind::Store && c.end > f.start)
            .map(interval);
        let covered = cover(interval(f), kids);
        flush_cover.push(covered as f64);
        flush_self.push((f.dur() - covered) as f64);
    }

    put("log.flush_self_ms", "ms", ms(mean(&flush_self)));
    put(
        "log.read_self_us",
        "us",
        if raw_read { us(mean(&read_self)) } else { 0.0 },
    );
    put(
        "log.rpcs_per_read",
        "ratio",
        ratio(all_rpcs_in_reads as f64, reads.len() as f64),
    );
    put(
        "log.rpcs_per_flush",
        "ratio",
        ratio(count_of(&rpc_dur, RpcKind::Store), flushes.len() as f64),
    );
    put("log.reconstruct_ms_mean", "ms", ms(mean(&reconstructing)));

    for k in [RpcKind::Store, RpcKind::Read, RpcKind::ReadBatch] {
        put(
            &format!("net.rpc_self_us.{}", k.name()),
            "us",
            us(mean_of(&rpc_self, k)),
        );
    }
    for k in [
        RpcKind::Store,
        RpcKind::Read,
        RpcKind::ReadBatch,
        RpcKind::Other,
    ] {
        put(
            &format!("net.rpc_count.{}", k.name()),
            "count",
            count_of(&rpc_dur, k),
        );
    }
    put(
        "net.inflight_mean",
        "ratio",
        ratio(rpc_time, wall * conns.len() as f64),
    );

    put(
        "server.handle_self_us.store",
        "us",
        us(mean_of(&handle_self, RpcKind::Store)),
    );
    put(
        "server.handle_self_us.read",
        "us",
        us(mean_of(&handle_self, RpcKind::Read)),
    );
    let fast = of(Layer::FastHandle)
        .filter(|h| h.kind == RpcKind::Read)
        .count() as f64;
    put(
        "server.fast_path_ratio",
        "ratio",
        ratio(fast, count_of(&handle_self, RpcKind::Read)),
    );
    put(
        "server.busy_ratio",
        "ratio",
        ratio(handle_time, wall * ctx.live_servers as f64),
    );
    let per_server: Vec<f64> = handles_per_server.values().map(|&n| n as f64).collect();
    put(
        "server.skew",
        "ratio",
        ratio(
            per_server.iter().cloned().fold(0.0, f64::max),
            mean(&per_server),
        ),
    );

    // --- store ------------------------------------------------------------
    let mut store_us: Vec<f64> = of(Layer::StoreStore).map(|s| s.dur() as f64).collect();
    store_us.sort_by(f64::total_cmp);
    let store_read: Vec<f64> = of(Layer::StoreRead).map(|s| s.dur() as f64).collect();
    put("store.store_us_mean", "us", us(mean(&store_us)));
    put("store.store_us_p99", "us", us(percentile(&store_us, 0.99)));
    put("store.read_us_mean", "us", us(mean(&store_read)));

    // --- services, cleaner --------------------------------------------------
    put(
        "services.disk_read_self_us",
        "us",
        if raw_read { 0.0 } else { us(mean(&read_self)) },
    );
    let checkpoints: Vec<f64> = of(Layer::Checkpoint).map(|s| s.dur() as f64).collect();
    put("services.checkpoint_ms_mean", "ms", ms(mean(&checkpoints)));
    let passes: Vec<&Span> = of(Layer::CleanPass).collect();
    let pass_ns: Vec<f64> = passes.iter().map(|s| s.dur() as f64).collect();
    put("cleaner.pass_ms_mean", "ms", ms(mean(&pass_ns)));
    // A pass still running when the phase ends counts up to the end only.
    let pass_in_phase: f64 = passes
        .iter()
        .map(|p| p.end.min(ctx.t1).saturating_sub(p.start) as f64)
        .fold(0.0, |a, b| a + b);
    put(
        "cleaner.busy_ratio",
        "ratio",
        ratio(pass_in_phase, wall * ctx.clients as f64),
    );
    // Commits that completed while a cleaner pass was running against
    // those that did not.
    let in_pass = |t: u64| passes.iter().any(|p| p.start <= t && t <= p.end);
    let (mut during, mut outside): (Vec<f64>, Vec<f64>) = (Vec::new(), Vec::new());
    for &(t, v) in &ctx.commits {
        if in_pass(t) {
            during.push(v);
        } else {
            outside.push(v);
        }
    }
    during.sort_by(f64::total_cmp);
    outside.sort_by(f64::total_cmp);
    put(
        "cleaner.commit_inflation",
        "ratio",
        ratio(percentile(&during, 0.5), percentile(&outside, 0.5)),
    );

    // --- closure: do the layer means add up to what the caller saw? ------
    // A read is its own self time plus, per RPC it makes, the wire's, the
    // server's and the store's share. The means are over each layer's own
    // population of block reads, so a matching failure at any level — or
    // block reads the workload did not issue — shows as a sum that no
    // longer closes.
    let plain_dur: Vec<f64> = plain.iter().map(|r| r.dur() as f64).collect();
    let read_handles = count_of(&handle_self, RpcKind::Read);
    let per_rpc = mean_of(&rpc_self, RpcKind::Read)
        + mean_of(&handle_self, RpcKind::Read)
        + ratio(store_time_in_read_handles, read_handles);
    put(
        "gen.closure.read",
        "ratio",
        ratio(
            mean(&read_self) + ratio(plain_rpcs as f64, plain.len() as f64) * per_rpc,
            mean(&plain_dur),
        ),
    );
    // A flush is its self time plus the time its stores cover, and a
    // store RPC is the wire's, the server's and the store's share.
    let store_chain = mean_of(&rpc_self, RpcKind::Store)
        + mean_of(&handle_self, RpcKind::Store)
        + mean(&store_us);
    let flush_dur: Vec<f64> = flushes.iter().map(|f| f.dur() as f64).collect();
    put(
        "gen.closure.flush",
        "ratio",
        ratio(
            mean(&flush_self)
                + mean(&flush_cover) * ratio(store_chain, mean_of(&rpc_dur, RpcKind::Store)),
            mean(&flush_dur),
        ),
    );
    put("gen.spans", "count", spans.len() as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::NO_SERVER;

    fn span(layer: Layer, kind: RpcKind, client: u32, server: u32, fid: u64, t: Interval) -> Span {
        Span {
            layer,
            kind,
            client,
            server,
            fid,
            start: t.0,
            end: t.1,
            flag: false,
        }
    }

    fn get(metrics: &[Metric], name: &str) -> f64 {
        metrics
            .iter()
            .find(|m| m.0 == name)
            .unwrap_or_else(|| panic!("no metric {name}"))
            .2
    }

    fn ctx() -> Context {
        Context {
            t0: 0,
            t1: 1_000_000,
            clients: 1,
            live_servers: 2,
            commits: vec![],
        }
    }

    #[test]
    fn a_read_decomposes_into_four_layers() {
        // read 0..100us; rpc 10..90; handle 30..70; store read 40..60.
        let k = 1000;
        let mut spans = vec![
            span(Layer::LogRead, RpcKind::Read, 7, NO_SERVER, 5, (0, 100 * k)),
            span(Layer::Rpc, RpcKind::Read, 7, 1, 5, (10 * k, 90 * k)),
            span(Layer::Handle, RpcKind::Read, 7, 1, 5, (30 * k, 70 * k)),
            span(Layer::StoreRead, RpcKind::Other, 7, 1, 5, (40 * k, 60 * k)),
            // Another client's traffic on the same server at the same
            // time must not be attributed to client 7.
            span(Layer::Rpc, RpcKind::Read, 8, 1, 9, (20 * k, 95 * k)),
            span(Layer::Handle, RpcKind::Read, 8, 1, 9, (35 * k, 65 * k)),
        ];
        spans.sort_by_key(|s| (s.start, s.end));
        let m = per_layer(&spans, &ctx());
        assert_eq!(get(&m, "log.read_self_us"), 20.0);
        assert_eq!(get(&m, "log.rpcs_per_read"), 1.0);
        // (40 + 45) / 2: each RPC minus its own handle.
        assert_eq!(get(&m, "net.rpc_self_us.read"), 42.5);
        // Client 7's handle has a 20us store child; client 8's has none.
        assert_eq!(get(&m, "server.handle_self_us.read"), 25.0);
        assert_eq!(get(&m, "store.read_us_mean"), 20.0);
        assert_eq!(get(&m, "net.rpc_count.read"), 2.0);
        assert_eq!(get(&m, "server.skew"), 1.0);
    }

    #[test]
    fn closure_is_one_when_the_layers_nest() {
        let k = 1000;
        let mut spans = Vec::new();
        for i in 0..10u64 {
            let t = i * 200 * k;
            spans.push(span(
                Layer::LogRead,
                RpcKind::Read,
                7,
                NO_SERVER,
                i + 1,
                (t, t + 100 * k),
            ));
            spans.push(span(
                Layer::Rpc,
                RpcKind::Read,
                7,
                0,
                i + 1,
                (t + 10 * k, t + 90 * k),
            ));
            spans.push(span(
                Layer::Handle,
                RpcKind::Read,
                7,
                0,
                i + 1,
                (t + 30 * k, t + 70 * k),
            ));
            spans.push(span(
                Layer::StoreRead,
                RpcKind::Other,
                7,
                0,
                i + 1,
                (t + 40 * k, t + 60 * k),
            ));
        }
        spans.sort_by_key(|s| (s.start, s.end));
        let m = per_layer(&spans, &ctx());
        assert!((get(&m, "gen.closure.read") - 1.0).abs() < 1e-9);
        // Lose the handle spans' fragment ids (a matching failure): the
        // RPCs keep their whole duration as self time and the sum no
        // longer closes.
        for s in spans.iter_mut().filter(|s| s.layer == Layer::Handle) {
            s.fid = 999;
        }
        let m = per_layer(&spans, &ctx());
        assert!(get(&m, "gen.closure.read") > 1.3);
    }

    #[test]
    fn flush_self_time_unions_parallel_stores() {
        let k = 1000;
        // flush 100..200; stores to two servers overlap each other, one
        // began before the flush did.
        let mut spans = vec![
            span(
                Layer::Flush,
                RpcKind::Store,
                7,
                NO_SERVER,
                0,
                (100 * k, 200 * k),
            ),
            span(Layer::Rpc, RpcKind::Store, 7, 0, 1, (80 * k, 150 * k)),
            span(Layer::Rpc, RpcKind::Store, 7, 1, 2, (120 * k, 180 * k)),
            // Not this client's.
            span(Layer::Rpc, RpcKind::Store, 8, 1, 3, (100 * k, 200 * k)),
        ];
        spans.sort_by_key(|s| (s.start, s.end));
        let m = per_layer(&spans, &ctx());
        // Covered 100..180, so 20us of the flush is the log's own.
        assert_eq!(get(&m, "log.flush_self_ms"), 0.02);
        assert_eq!(get(&m, "log.rpcs_per_flush"), 3.0);
    }

    #[test]
    fn fast_path_and_reconstructing_reads_are_told_apart() {
        let k = 1000;
        let mut recon = span(
            Layer::LogRead,
            RpcKind::Read,
            7,
            NO_SERVER,
            5,
            (0, 5000 * k),
        );
        recon.flag = true;
        let mut spans = vec![
            recon,
            span(
                Layer::LogRead,
                RpcKind::Read,
                7,
                NO_SERVER,
                6,
                (6000 * k, 6100 * k),
            ),
            span(Layer::Rpc, RpcKind::Read, 7, 0, 6, (6010 * k, 6090 * k)),
            span(
                Layer::FastHandle,
                RpcKind::Read,
                7,
                0,
                6,
                (6040 * k, 6050 * k),
            ),
        ];
        spans.sort_by_key(|s| (s.start, s.end));
        let m = per_layer(&spans, &ctx());
        assert_eq!(get(&m, "log.reconstruct_ms_mean"), 5.0);
        // The reconstructing read does not count towards read self time.
        assert_eq!(get(&m, "log.read_self_us"), 20.0);
        assert_eq!(get(&m, "server.fast_path_ratio"), 1.0);
        assert_eq!(get(&m, "net.rpc_self_us.read"), 70.0);
    }
}
