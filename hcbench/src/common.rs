//! Pieces every workload shares: the benchmark model, run options, the
//! pausable stopwatch that keeps correctness checks out of the timed
//! figures, percentile helpers, a device model with varying service
//! times, and the report the runner prints.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_model::{ModelConfig, NormKind, PosKind};
use hc_storage::backend::{ChunkStore, StoreStats};
use hc_storage::chunk::ChunkKey;
use hc_storage::manager::StorageManager;
use hc_storage::{StorageError, StreamId};
use hc_workload::rng::Rng;

/// Weight seed of the benchmark model. Fixed: the weights are part of the
/// program under test, not of the workload inputs the `--seed` varies.
pub const WEIGHT_SEED: u64 = 0x4843_6163_6865;

/// Number of simulated storage devices every workload stripes over.
pub const N_DEVICES: usize = 4;

/// Minimum number of samples of each timed metric per run, so that p90
/// has at least ten samples beyond it.
pub const MIN_SAMPLES: usize = 110;

/// How many times a run builds its workload's initial state; `setup_s` is
/// the median of these.
pub const SETUP_REPEATS: usize = 5;

/// The benchmark model: Llama-structured (RMSNorm, RoPE, SwiGLU-width FFN)
/// at dimensions a CPU serves in milliseconds per token. Four layers is
/// what the fixed 3-hidden + 1-KV scheme of `long_context` needs.
pub fn model_config() -> ModelConfig {
    ModelConfig {
        name: "HCBench-Llama".into(),
        n_layers: 4,
        d_model: 128,
        n_heads: 4,
        d_ff: 344,
        vocab_size: 256,
        max_seq_len: 4096,
        norm: NormKind::RmsNorm,
        pos: PosKind::Rope,
        elem_bytes: 2,
        param_count: 0,
    }
}

/// When a run's timed loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Run for this many seconds, and past them until every timed metric
    /// has [`MIN_SAMPLES`] samples.
    Seconds(f64),
    /// Run exactly this many operations (rounds, queries or batches):
    /// the deterministic mode the determinism test uses.
    Ops(usize),
}

impl Budget {
    /// True once the loop that started at `start` has done enough, having
    /// completed `ops` operations and gathered `samples` samples of its
    /// sparsest timed metric.
    pub fn done(&self, start: Instant, ops: usize, samples: usize) -> bool {
        match *self {
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s && samples >= MIN_SAMPLES,
            Budget::Ops(n) => ops >= n,
        }
    }
}

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Loop length.
    pub budget: Budget,
    /// Traced run: spans around every call, per-layer metrics, profile.
    pub trace: bool,
    /// Scratch directory for durable stores and the span dump.
    pub run_dir: PathBuf,
}

/// A stopwatch that can exclude intervals (correctness checks) from the
/// time it reports.
pub struct Stopwatch {
    start: Instant,
    paused: Duration,
    pause_start: Option<Instant>,
}

impl Stopwatch {
    /// Starts counting now.
    pub fn start() -> Self {
        Self {
            start: Instant::now(),
            paused: Duration::ZERO,
            pause_start: None,
        }
    }

    /// Stops counting until [`Stopwatch::resume`].
    pub fn pause(&mut self) {
        self.pause_start = Some(Instant::now());
    }

    /// Counts again.
    pub fn resume(&mut self) {
        if let Some(p) = self.pause_start.take() {
            self.paused += p.elapsed();
        }
    }

    /// Counted time so far, in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.start.elapsed() - self.paused).as_secs_f64() * 1e3
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// there are none.
pub fn pct(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(xs: &[f64]) -> f64 {
    pct(xs, 50.0)
}

/// Mean of samples; 0 when there are none.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Radical inverse of `i` in `base` (the van der Corput sequence): every
/// prefix of `vdc(0..n)` spreads evenly over `[0, 1)`.
pub fn vdc(mut i: u64, base: u64) -> f64 {
    let (mut x, mut scale) = (0.0, 1.0 / base as f64);
    while i > 0 {
        x += (i % base) as f64 * scale;
        i /= base;
        scale /= base as f64;
    }
    x
}

/// A quasi-random sampler of a generated distribution: the `i`-th draw is
/// the value at quantile `vdc(i, base)` (shifted by a seed-drawn offset)
/// of the sorted generated values. Each draw comes from the seeded
/// generator's output, but any run-length prefix of draws covers the
/// distribution evenly, so runs of different seeds see the same shape.
pub struct Quantiles {
    sorted: Vec<usize>,
    base: u64,
    offset: f64,
}

impl Quantiles {
    /// Sorts `values`; the offset is drawn from `rng`.
    pub fn new(values: Vec<usize>, base: u64, rng: &mut Rng) -> Self {
        Self::sorted_by(values, |&v| v, base, rng)
    }

    /// Sorts `values` by `key` (e.g. indices by what they index); the
    /// offset is drawn from `rng`.
    pub fn sorted_by<K: Ord>(
        mut values: Vec<usize>,
        key: impl FnMut(&usize) -> K,
        base: u64,
        rng: &mut Rng,
    ) -> Self {
        assert!(!values.is_empty(), "no values to sample");
        values.sort_by_key(key);
        Self {
            sorted: values,
            base,
            offset: rng.uniform(),
        }
    }

    /// Sorts `values`, with a fixed offset instead of a drawn one: the
    /// `i`-th draw is then at the same quantile for every seed.
    pub fn fixed(mut values: Vec<usize>, base: u64, offset: f64) -> Self {
        assert!(!values.is_empty(), "no values to sample");
        values.sort_unstable();
        Self {
            sorted: values,
            base,
            offset,
        }
    }

    /// The `i`-th draw.
    pub fn get(&self, i: u64) -> usize {
        let u = (vdc(i, self.base) + self.offset).fract();
        self.sorted[((u * self.sorted.len() as f64) as usize).min(self.sorted.len() - 1)]
    }
}

/// Fisher–Yates shuffle driven by the workload's generator.
pub fn shuffle<T>(xs: &mut [T], rng: &mut Rng) {
    for i in (1..xs.len()).rev() {
        xs.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `n` prompt tokens drawn from the workload's token stream.
pub fn draw_tokens(rng: &mut Rng, n: usize, vocab: usize) -> Vec<u32> {
    (0..n).map(|_| rng.below(vocab as u64) as u32).collect()
}

/// A store that adds to every chunk read and write an extra service time
/// drawn from an exponential law of the given mean (cut at six means), as
/// a real device's service times vary. Under a fixed per-chunk time a
/// restore's duration is a step function of its chunk count, and a
/// percentile sitting on a step jumps by a whole step when the workload's
/// mix shifts slightly; spread this wide, the steps overlap. The draws
/// come from a fixed sequence indexed by request number, not from the
/// chunk key: a session re-reads its early chunks every round, and a
/// per-key time would weigh a few keys' draws many times over.
pub struct JitterStore<B: ChunkStore> {
    inner: Arc<B>,
    read_mean: Duration,
    write_mean: Duration,
    requests: AtomicU64,
}

impl<B: ChunkStore> JitterStore<B> {
    /// Wraps `inner`, adding on average `read_mean` per read and
    /// `write_mean` per write.
    pub fn new(inner: Arc<B>, read_mean: Duration, write_mean: Duration) -> Self {
        Self {
            inner,
            read_mean,
            write_mean,
            requests: AtomicU64::new(0),
        }
    }

    fn delay(&self, mean: Duration) {
        // Relaxed: the counter only indexes the draw sequence.
        let n = self.requests.fetch_add(1, Ordering::Relaxed);
        let u = (splitmix64(n) >> 11) as f64 / (1u64 << 53) as f64;
        let extra = mean.mul_f64((-(1.0 - u).ln()).min(6.0));
        if !extra.is_zero() {
            std::thread::sleep(extra);
        }
    }
}

impl<B: ChunkStore> ChunkStore for JitterStore<B> {
    fn write_chunk(&self, key: ChunkKey, data: &[u8]) -> Result<(), StorageError> {
        self.delay(self.write_mean);
        self.inner.write_chunk(key, data)
    }

    fn read_chunk(&self, key: ChunkKey) -> Result<Vec<u8>, StorageError> {
        self.delay(self.read_mean);
        self.inner.read_chunk(key)
    }

    fn contains(&self, key: ChunkKey) -> bool {
        self.inner.contains(key)
    }

    fn delete_stream(&self, stream: StreamId) -> u64 {
        self.inner.delete_stream(stream)
    }

    fn n_devices(&self) -> usize {
        self.inner.n_devices()
    }

    fn chunk_in_fast_tier(&self, key: ChunkKey) -> bool {
        self.inner.chunk_in_fast_tier(key)
    }

    fn delete_chunk(&self, key: ChunkKey) -> u64 {
        self.inner.delete_chunk(key)
    }

    fn chunk_keys(&self) -> Vec<ChunkKey> {
        self.inner.chunk_keys()
    }

    fn warm_chunk(&self, key: ChunkKey, data: &[u8]) -> u64 {
        self.inner.warm_chunk(key, data)
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }
}

/// SplitMix64 finaliser: a well-mixed 64-bit value for each input.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Sum of every device's error and stall counters in a manager's
/// device-health registry.
pub fn io_errors<S: ChunkStore>(mgr: &StorageManager<S>) -> u64 {
    let health = mgr.device_health();
    (0..health.n_devices())
        .map(|d| {
            let (errors, stalls, _trips) = health.counters(d);
            errors + stalls
        })
        .sum()
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Samples behind the value (1 for counts and ratios of totals).
    pub samples: usize,
}

/// Everything one run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (rounds, queries, or per-client restores).
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// Correctness checks that failed, described.
    pub check_failures: Vec<String>,
    /// Correctness checks run.
    pub checks: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Exact counts the determinism test compares across runs.
    pub counts: BTreeMap<&'static str, u64>,
    /// Traced run: calls and total ms per span name.
    pub breakdown: Vec<(&'static str, usize, f64)>,
}

impl Report {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            samples,
        });
    }

    /// Adds p50 and p90 of `xs` under `base.p50` / `base.p90`.
    pub fn put_pcts(&mut self, base: &str, xs: &[f64], unit: &'static str) {
        self.put(&format!("{base}.p50"), pct(xs, 50.0), unit, xs.len());
        self.put(&format!("{base}.p90"), pct(xs, 90.0), unit, xs.len());
    }

    /// Records a failed correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.check_failures.push(what());
        }
    }

    /// True when no operation failed and every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.check_failures.is_empty()
    }
}
