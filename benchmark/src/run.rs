//! One run of one workload: set-up, measured phase, crash check, and the
//! metrics computed from what they observed.

use std::sync::atomic::Ordering;

use swarm_types::{Result, SwarmError};

use crate::analysis::{self, Metric};
use crate::client::{Client, Mode};
use crate::cluster::{out_dir, Cluster};
use crate::kernels;
use crate::stats::{median, percentile, ratio, windowed_percentile, windowed_rate, Timed};
use crate::trace::{now_ns, write_trace, Layer, Tracer};
use crate::workloads::{crash_check, measure, setup, Plan, Rig, CLIENTS, SETUPS};

/// End-to-end metrics, in output order: name, unit, whether lower is
/// better. Measured with tracing off. `BENCHMARK.json` carries the bounds.
/// (`failed_ops_ratio` is the result object's `failed` ÷ `attempted`.)
pub const END_TO_END: [(&str, &str, bool); 7] = [
    ("setup_s", "s", true),
    ("write_mbps", "MB/s", false),
    ("ops_per_s", "1/s", false),
    ("read_p50_us", "us", true),
    ("commit_p50_ms", "ms", true),
    ("commit_p99_ms", "ms", true),
    ("space_amp", "ratio", true),
];

/// Per-layer metrics, in output order: name, unit, whether lower is
/// better. Measured over the measured phase of a traced run; they carry
/// no bound. A metric that does not apply to a workload reads 0 there.
pub const PER_LAYER: [(&str, &str, bool); 60] = [
    ("log.append_us_mean", "us", true),
    ("log.flush_self_ms", "ms", true),
    ("log.read_self_us", "us", true),
    ("log.rpcs_per_read", "ratio", true),
    ("log.rpcs_per_flush", "ratio", true),
    ("log.wire_bytes_per_user_byte", "ratio", true),
    ("log.reconstructions", "count", true),
    ("log.reconstruct_ms_mean", "ms", true),
    ("log.seal_ns_per_kib", "ns/KiB", true),
    ("log.parity_ns_per_kib.4p1", "ns/KiB", true),
    ("log.parity_ns_per_kib.3p2", "ns/KiB", true),
    ("log.decode_ns_per_kib.3p2", "ns/KiB", true),
    ("net.rpc_self_us.store", "us", true),
    ("net.rpc_self_us.read", "us", true),
    ("net.rpc_self_us.read_batch", "us", true),
    ("net.rpc_count.store", "count", true),
    ("net.rpc_count.read", "count", true),
    ("net.rpc_count.read_batch", "count", true),
    ("net.rpc_count.other", "count", true),
    ("net.bytes_out", "bytes", true),
    ("net.bytes_in", "bytes", true),
    ("net.inflight_mean", "ratio", false),
    ("net.busy_replies", "count", true),
    ("net.connects", "count", true),
    ("net.errors", "count", true),
    ("server.handle_self_us.store", "us", true),
    ("server.handle_self_us.read", "us", true),
    ("server.fast_path_ratio", "ratio", false),
    ("server.cache_hit_ratio", "ratio", false),
    ("server.busy_ratio", "ratio", true),
    ("server.skew", "ratio", true),
    ("store.store_us_mean", "us", true),
    ("store.store_us_p99", "us", true),
    ("store.read_us_mean", "us", true),
    ("store.fsyncs", "count", true),
    ("store.batch_size_mean", "ratio", false),
    ("store.bytes_written", "bytes", true),
    ("store.bytes_per_live_byte", "ratio", true),
    ("services.disk_read_self_us", "us", true),
    ("services.disk_write_us_mean", "us", true),
    ("services.checkpoints", "count", true),
    ("services.checkpoint_ms_mean", "ms", true),
    ("cleaner.passes", "count", false),
    ("cleaner.pass_ms_mean", "ms", true),
    ("cleaner.busy_ratio", "ratio", true),
    ("cleaner.stripes_cleaned", "count", false),
    ("cleaner.bytes_moved", "bytes", true),
    ("cleaner.bytes_moved_per_byte_reclaimed", "ratio", true),
    ("cleaner.commit_inflation", "ratio", true),
    ("gen.late_p99_us", "us", true),
    ("gen.late_ratio", "ratio", true),
    ("gen.samples.read", "count", false),
    ("gen.samples.commit", "count", false),
    ("gen.samples.recover", "count", false),
    ("gen.spans", "count", true),
    ("gen.traced_ops_per_s", "1/s", false),
    ("gen.closure.flush", "ratio", true),
    ("gen.closure.read", "ratio", true),
    // End-to-end in intent, but their run-to-run spread on the builder's
    // box exceeded the widest bound a gate may have (see README.md), so
    // they are reported here instead of gating.
    ("gen.unstable.read_p99_us", "us", true),
    ("gen.unstable.recover_ms", "ms", true),
];

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

pub struct RunOutput {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Sample counts behind the percentiles, for the human-readable lines.
    pub samples: Vec<(&'static str, usize)>,
}

impl RunOutput {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }
}

/// Client-side counters read before and after the measured phase.
#[derive(Clone, Copy, Default)]
struct Snapshot {
    bytes_shipped: u64,
    reconstructions: u64,
    checkpoints: u64,
    journal_fsyncs: u64,
    journal_batches: u64,
    cache_hits: u64,
    cache_probes: u64,
}

fn snapshot(cluster: &Cluster, clients: &[Client]) -> Snapshot {
    let mut s = Snapshot::default();
    for c in clients {
        let stats = c.log().stats();
        s.bytes_shipped += stats.bytes_shipped;
        s.reconstructions += stats.reconstructions;
        s.checkpoints += stats.checkpoints;
    }
    (s.journal_fsyncs, s.journal_batches) = cluster.journal_counts();
    (s.cache_hits, s.cache_probes) = cluster.cache_counts();
    s
}

/// p50 and p99 of `main` over the measured phase's windows, or — when the
/// measured phase has no sample of this kind — of the crash check's.
fn percentiles(main: &[Timed], check: &[Timed], t0: u64, t1: u64) -> (f64, f64, usize) {
    if !main.is_empty() {
        return (
            windowed_percentile(main, t0, t1, 0.5),
            windowed_percentile(main, t0, t1, 0.99),
            main.len(),
        );
    }
    let mut v: Vec<f64> = check.iter().map(|s| s.1).collect();
    v.sort_by(f64::total_cmp);
    (percentile(&v, 0.5), percentile(&v, 0.99), v.len())
}

pub fn run_once(opts: &RunOpts) -> Result<RunOutput> {
    let plan = Plan::named(&opts.workload, opts.smoke)
        .ok_or_else(|| SwarmError::other(format!("unknown workload {:?}", opts.workload)))?;
    let tracer = opts.trace.then(Tracer::new);

    // Set-up, several times over; each is torn down (untimed) before the
    // next begins, and the last one is the one measured on.
    let mut setup_s = Vec::new();
    let mut rig: Option<Rig> = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let start = now_ns();
        rig = Some(setup(&plan, opts.seed, tracer.clone())?);
        setup_s.push((now_ns() - start) as f64 / 1e9);
    }
    let mut rig = rig.expect("SETUPS is at least 1");

    if let Some(i) = plan.stop_server {
        rig.cluster.stop_server(i);
    }
    let before = snapshot(&rig.cluster, &rig.clients);
    let measured = measure(&plan, &mut rig, opts.seed, opts.seconds, &tracer);
    let after = snapshot(&rig.cluster, &rig.clients);
    let live_servers = rig.cluster.live_servers();
    let (write_ns, writes) = rig
        .clients
        .iter()
        .fold((0, 0), |(ns, n), c| (ns + c.write_ns, n + c.writes));
    let spans = tracer.as_ref().map(|t| t.drain()).unwrap_or_default();

    let (rig, check) = crash_check(&plan, rig, opts.seed)?;
    drop(rig);

    let (t0, t1) = (measured.t0, measured.t1);
    let main = &measured.samples;
    let ops_per_s = windowed_rate(&main.ops, t0, t1);
    let mut out = RunOutput {
        metrics: Vec::new(),
        attempted: main.attempted + check.attempted,
        failed: main.failed + check.failed,
        samples: Vec::new(),
    };

    if !opts.trace {
        let write_mbps = if main.acked.is_empty() {
            median(
                &check
                    .bursts
                    .iter()
                    .map(|(b, s)| b / s / 1e6)
                    .collect::<Vec<_>>(),
            )
        } else {
            windowed_rate(&main.acked, t0, t1) / 1e6
        };
        let (read_p50, _, reads) = percentiles(&main.reads, &check.reads, t0, t1);
        let (commit_p50, commit_p99, commits) = percentiles(&main.commits, &check.commits, t0, t1);
        let values = [
            median(&setup_s),
            write_mbps,
            ops_per_s,
            read_p50,
            commit_p50,
            commit_p99,
            measured.space_amp,
        ];
        for ((name, unit, _), v) in END_TO_END.iter().zip(values) {
            out.metrics.push((name.to_string(), unit, v));
        }
        out.samples = vec![
            ("setup_s", setup_s.len()),
            ("read_p50_us", reads),
            ("commit_p50_ms", commits),
            ("commit_p99_ms", commits),
        ];
        return Ok(out);
    }

    // Traced run: per-layer metrics of the measured phase.
    let tracer = tracer.expect("a traced run has a tracer");
    let ctx = analysis::Context {
        t0,
        t1,
        clients: CLIENTS,
        live_servers,
        commits: main.commits.clone(),
    };
    out.metrics = analysis::per_layer(&spans, &ctx);
    out.metrics.extend(kernels::run()?);

    let n = &tracer.counts;
    let count = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed) as f64;
    let acked_bytes: f64 = main.acked.iter().map(|a| a.1).sum();
    let write_us = ratio(write_ns as f64 / 1e3, writes as f64);
    let stores = spans
        .iter()
        .filter(|s| s.layer == Layer::StoreStore)
        .count() as f64;
    let cleaned = &measured.cleaner;
    let mut late = main.late.clone();
    late.sort_by(f64::total_cmp);
    let late_over_1ms = late.iter().filter(|&&l| l > 1000.0).count() as f64;
    let raw = plan.mode == Mode::Raw;
    let mut put =
        |name: &str, unit: &'static str, v: f64| out.metrics.push((name.to_string(), unit, v));
    put("log.append_us_mean", "us", if raw { write_us } else { 0.0 });
    put(
        "log.wire_bytes_per_user_byte",
        "ratio",
        ratio(
            (after.bytes_shipped - before.bytes_shipped) as f64,
            acked_bytes,
        ),
    );
    put(
        "log.reconstructions",
        "count",
        (after.reconstructions - before.reconstructions) as f64,
    );
    put("net.bytes_out", "bytes", count(&n.bytes_out));
    put("net.bytes_in", "bytes", count(&n.bytes_in));
    put("net.busy_replies", "count", count(&n.busy_replies));
    put("net.connects", "count", count(&n.connects));
    put("net.errors", "count", count(&n.errors));
    put(
        "server.cache_hit_ratio",
        "ratio",
        ratio(
            (after.cache_hits - before.cache_hits) as f64,
            (after.cache_probes - before.cache_probes) as f64,
        ),
    );
    put(
        "store.fsyncs",
        "count",
        (after.journal_fsyncs - before.journal_fsyncs) as f64,
    );
    put(
        "store.batch_size_mean",
        "ratio",
        ratio(
            stores,
            (after.journal_batches - before.journal_batches) as f64,
        ),
    );
    put("store.bytes_written", "bytes", count(&n.store_bytes));
    put("store.bytes_per_live_byte", "ratio", measured.space_amp);
    put(
        "services.disk_write_us_mean",
        "us",
        if raw { 0.0 } else { write_us },
    );
    put(
        "services.checkpoints",
        "count",
        (after.checkpoints - before.checkpoints) as f64,
    );
    put("cleaner.passes", "count", cleaned.passes as f64);
    put(
        "cleaner.stripes_cleaned",
        "count",
        cleaned.stripes_cleaned as f64,
    );
    put("cleaner.bytes_moved", "bytes", cleaned.bytes_moved as f64);
    put(
        "cleaner.bytes_moved_per_byte_reclaimed",
        "ratio",
        ratio(cleaned.bytes_moved as f64, cleaned.bytes_reclaimed as f64),
    );
    put("gen.late_p99_us", "us", percentile(&late, 0.99));
    put(
        "gen.late_ratio",
        "ratio",
        ratio(late_over_1ms, late.len() as f64),
    );
    let or_check = |m: usize, c: usize| if m > 0 { m } else { c } as f64;
    put(
        "gen.samples.read",
        "count",
        or_check(main.reads.len(), check.reads.len()),
    );
    put(
        "gen.samples.commit",
        "count",
        or_check(main.commits.len(), check.commits.len()),
    );
    put(
        "gen.samples.recover",
        "count",
        check.recoveries.len() as f64,
    );
    put("gen.traced_ops_per_s", "1/s", ops_per_s);
    put(
        "gen.unstable.read_p99_us",
        "us",
        percentiles(&main.reads, &check.reads, t0, t1).1,
    );
    put("gen.unstable.recover_ms", "ms", median(&check.recoveries));

    // Output in the table's order; the table is what BENCHMARK.json lists,
    // so a metric computed but not listed (or the reverse) is a bug here.
    let mut computed = std::mem::take(&mut out.metrics);
    for (name, unit, _) in PER_LAYER {
        let i = computed
            .iter()
            .position(|m| m.0 == name && m.1 == unit)
            .ok_or_else(|| {
                SwarmError::other(format!("per-layer metric {name} was not computed"))
            })?;
        out.metrics.push(computed.swap_remove(i));
    }
    if let Some(extra) = computed.first() {
        return Err(SwarmError::other(format!(
            "per-layer metric {} is not in PER_LAYER",
            extra.0
        )));
    }

    let path = out_dir().join(format!("trace-{}.json", plan.name));
    write_trace(&path, plan.name, opts.seed, &spans)?;
    Ok(out)
}
