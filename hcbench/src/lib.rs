//! End-to-end benchmark of the HCache functional stack.
//!
//! Each workload drives the stack (`hc-cachectl` → `hc-restore` →
//! `hc-storage`, with `hc-model` and `hc-tensor` underneath) through the
//! same public calls `HCacheSystem::round` makes, timing each from
//! outside. An untraced run reports the end-to-end metrics; a traced run
//! records a span around every call, profiles the lower layers directly,
//! and reports the per-layer metrics. See `README.md` next to this crate.

pub mod chat;
pub mod common;
pub mod long_context;
pub mod profile;
pub mod restore_burst;
pub mod trace;

use common::{median, pct, ratio, Report, RunOpts};
use profile::{RestoreGroup, RestoreProfile, SaveProfile};
use trace::Tracer;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["chat", "long_context", "restore_burst"];

/// End-to-end metrics, as `BENCHMARK.json` lists them.
pub const END_TO_END: [&str; 9] = [
    "ttft_ms.p50",
    "ttft_ms.p90",
    "ttfr_ms.p50",
    "ttfr_ms.p90",
    "round_ms.p50",
    "round_ms.p90",
    "restore_tokens_per_s",
    "storage_bytes_per_token",
    "setup_s",
];

/// Per-layer metrics, as `BENCHMARK.json` lists them.
pub const PER_LAYER: [&str; 29] = [
    "core.round_self_ms.p50",
    "model.prefill_ms.p50",
    "model.decode_step_ms.p50",
    "model.attention_gflops",
    "tensor.proj_gemm_gflops",
    "restore.io_h_ms",
    "restore.io_kv_ms",
    "restore.c_h_ms",
    "restore.c_token_ms",
    "restore.overlap_ratio",
    "sched.makespan_model_ratio",
    "storage.read_bytes_per_restored_token",
    "storage.front_hit_ratio",
    "storage.device_busy_ratio.max",
    "storage.device_busy_ratio.mean",
    "storage.save_batch_us.p50",
    "storage.flush_ms.p50",
    "storage.write_amplification",
    "storage.chunk_writes_per_round",
    "storage.reactor.ios_per_restore",
    "storage.reactor.peak_inflight",
    "storage.io_errors",
    "cachectl.hit_ratio",
    "cachectl.demotions",
    "cachectl.recompute_layers_per_restore",
    "cachectl.on_saved_us.p50",
    "trace.overhead_ratio",
    "trace.round_coverage",
    "process.peak_rss_mb",
];

/// Runs one workload.
pub fn run(workload: &str, opts: &RunOpts) -> Result<Report, String> {
    std::fs::create_dir_all(&opts.run_dir).map_err(|e| format!("run dir: {e}"))?;
    match workload {
        "chat" => chat::run(opts),
        "long_context" => long_context::run(opts),
        "restore_burst" => restore_burst::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Backend counter deltas over a workload's timed loop.
#[derive(Debug, Clone, Default)]
pub struct StorageDelta {
    /// Chunk reads reaching the backend.
    pub chunk_reads: u64,
    /// Chunk writes reaching the backend.
    pub chunk_writes: u64,
    /// Bytes read from the backend.
    pub bytes_read: u64,
    /// Bytes written to the backend.
    pub bytes_written: u64,
}

impl StorageDelta {
    /// `after − before` of two store snapshots.
    pub fn between(
        before: &hc_storage::backend::StoreStats,
        after: &hc_storage::backend::StoreStats,
    ) -> Self {
        Self {
            chunk_reads: after.total_reads() - before.total_reads(),
            chunk_writes: after.total_writes() - before.total_writes(),
            bytes_read: after.total_bytes_read() - before.total_bytes_read(),
            bytes_written: after.total_bytes_written() - before.total_bytes_written(),
        }
    }

    /// Accumulates another delta.
    pub fn add(&mut self, o: &StorageDelta) {
        self.chunk_reads += o.chunk_reads;
        self.chunk_writes += o.chunk_writes;
        self.bytes_read += o.bytes_read;
        self.bytes_written += o.bytes_written;
    }

    /// This delta without `o` (IO the benchmark's own checks caused).
    pub fn minus(&self, o: &StorageDelta) -> Self {
        Self {
            chunk_reads: self.chunk_reads - o.chunk_reads,
            chunk_writes: self.chunk_writes - o.chunk_writes,
            bytes_read: self.bytes_read - o.bytes_read,
            bytes_written: self.bytes_written - o.bytes_written,
        }
    }
}

/// What a workload hands to [`put_per_layer`] after its traced run.
pub struct LayerInputs<'a> {
    /// The traced loop's spans.
    pub tracer: &'a Tracer,
    /// The lower-layer profile.
    pub profile: &'a RestoreProfile,
    /// Save-path profile, for workloads whose loop never saves.
    pub save: Option<SaveProfile>,
    /// The traced loop's restores, grouped by measured wall time.
    pub groups: &'a [RestoreGroup],
    /// TTFR samples of traced operations, ms.
    pub ttfr_traced: &'a [f64],
    /// TTFR samples of the interleaved untraced operations, ms.
    pub ttfr_untraced: &'a [f64],
    /// Share of reads that reached the device tier (1 without a front).
    pub io_scale: f64,
    /// Backend counters over the loop.
    pub storage: StorageDelta,
    /// Row bytes the loop saved (f16), the write-amplification base.
    pub row_bytes_saved: u64,
    /// History tokens the loop restored.
    pub restored_tokens: u64,
    /// Operations (rounds, queries, batches) the loop ran.
    pub ops: u64,
    /// Restores the loop ran.
    pub restores: u64,
    /// DRAM-front hit ratio over the loop (0 without a front).
    pub front_hit_ratio: f64,
    /// Per-device busy time ÷ loop wall time (empty without a latency model).
    pub device_busy: Vec<f64>,
    /// Reactor IOs submitted over the loop and its peak in-flight restores.
    pub reactor: Option<(u64, u64)>,
    /// Device-health errors and stalls.
    pub io_errors: u64,
    /// Share of restores served with at least one cached layer.
    pub hit_ratio: f64,
    /// Controller demotions so far.
    pub demotions: u64,
    /// Mean recompute-prefix length of the loop's restores.
    pub recompute_layers_per_restore: f64,
}

/// Puts every per-layer metric, under the same names on every workload.
pub fn put_per_layer(r: &mut Report, x: LayerInputs<'_>) {
    let tr = x.tracer;
    r.breakdown = tr.breakdown();
    let rounds = tr.root_and_children("core.round");
    let self_ms: Vec<f64> = rounds.iter().map(|(d, c)| d - c).collect();
    r.put(
        "core.round_self_ms.p50",
        median(&self_ms),
        "ms",
        self_ms.len(),
    );

    let prefill = tr.durations("model.prefill");
    r.put(
        "model.prefill_ms.p50",
        median(&prefill),
        "ms",
        prefill.len(),
    );
    let decode = tr.durations("model.decode_step");
    if decode.is_empty() {
        r.put(
            "model.decode_step_ms.p50",
            x.profile.decode_step_ms,
            "ms",
            1,
        );
    } else {
        r.put(
            "model.decode_step_ms.p50",
            median(&decode),
            "ms",
            decode.len(),
        );
    }

    x.profile.put(r, x.groups, x.ttfr_traced, x.io_scale);

    r.put(
        "storage.read_bytes_per_restored_token",
        ratio(x.storage.bytes_read as f64, x.restored_tokens as f64),
        "B/token",
        1,
    );
    r.put("storage.front_hit_ratio", x.front_hit_ratio, "ratio", 1);
    let busy_max = x.device_busy.iter().copied().fold(0.0, f64::max);
    let busy_mean = common::mean(&x.device_busy);
    r.put("storage.device_busy_ratio.max", busy_max, "ratio", 1);
    r.put("storage.device_busy_ratio.mean", busy_mean, "ratio", 1);

    let (save_us, flush_ms, on_saved_us) = match &x.save {
        Some(p) => (
            p.save_batch_us.clone(),
            p.flush_ms.clone(),
            p.on_saved_us.clone(),
        ),
        None => (
            tr.durations("storage.save_batch")
                .iter()
                .map(|ms| ms * 1e3)
                .collect(),
            tr.durations("storage.barrier_and_flush"),
            tr.durations("cachectl.on_saved")
                .iter()
                .map(|ms| ms * 1e3)
                .collect(),
        ),
    };
    r.put(
        "storage.save_batch_us.p50",
        median(&save_us),
        "us",
        save_us.len(),
    );
    r.put(
        "storage.flush_ms.p50",
        median(&flush_ms),
        "ms",
        flush_ms.len(),
    );
    r.put(
        "storage.write_amplification",
        ratio(x.storage.bytes_written as f64, x.row_bytes_saved as f64),
        "ratio",
        1,
    );
    r.put(
        "storage.chunk_writes_per_round",
        ratio(x.storage.chunk_writes as f64, x.ops as f64),
        "count",
        x.ops as usize,
    );
    let (ios, peak) = x.reactor.unwrap_or((0, 0));
    r.put(
        "storage.reactor.ios_per_restore",
        ratio(ios as f64, x.restores as f64),
        "count",
        x.restores as usize,
    );
    r.put("storage.reactor.peak_inflight", peak as f64, "count", 1);
    r.put("storage.io_errors", x.io_errors as f64, "count", 1);

    r.put(
        "cachectl.hit_ratio",
        x.hit_ratio,
        "ratio",
        x.restores as usize,
    );
    r.put("cachectl.demotions", x.demotions as f64, "count", 1);
    r.put(
        "cachectl.recompute_layers_per_restore",
        x.recompute_layers_per_restore,
        "count",
        x.restores as usize,
    );
    r.put(
        "cachectl.on_saved_us.p50",
        median(&on_saved_us),
        "us",
        on_saved_us.len(),
    );

    r.put(
        "trace.overhead_ratio",
        ratio(median(x.ttfr_traced), median(x.ttfr_untraced)),
        "ratio",
        x.ttfr_traced.len(),
    );
    let (root, children) = rounds
        .iter()
        .fold((0.0, 0.0), |(a, b), (d, c)| (a + d, b + c));
    r.put(
        "trace.round_coverage",
        ratio(children, root),
        "ratio",
        rounds.len(),
    );
    r.put("process.peak_rss_mb", common::peak_rss_mb(), "MiB", 1);
}

/// Puts the end-to-end metrics every workload reports.
#[allow(clippy::too_many_arguments)]
pub fn put_end_to_end(
    r: &mut Report,
    ttft_ms: &[f64],
    ttfr_ms: &[f64],
    round_ms: &[f64],
    restored_tokens: u64,
    restore_wall_ms: f64,
    storage_bytes_per_token: f64,
    setup_s: &[f64],
) {
    r.put_pcts("ttft_ms", ttft_ms, "ms");
    r.put_pcts("ttfr_ms", ttfr_ms, "ms");
    r.put_pcts("round_ms", round_ms, "ms");
    r.put(
        "restore_tokens_per_s",
        ratio(restored_tokens as f64, restore_wall_ms / 1e3),
        "tokens/s",
        ttfr_ms.len(),
    );
    r.put(
        "storage_bytes_per_token",
        storage_bytes_per_token,
        "B/token",
        1,
    );
    let attempted = r.attempted.max(1) as f64;
    r.put(
        "failed_ratio",
        r.failed as f64 / attempted,
        "ratio",
        r.attempted as usize,
    );
    r.put("setup_s", pct(setup_s, 50.0), "s", setup_s.len());
    r.put("peak_rss_mb", common::peak_rss_mb(), "MiB", 1);
}
