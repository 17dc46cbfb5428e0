//! The traced run's profile of the lower layers, taken from outside after
//! the timed loop by calling their public functions directly on the
//! workload's own stores: the paper's four per-layer restore quantities
//! (§4.1.2: `IO_H`, `IO_KV`, `C_H`, `C_Token`), the attention and
//! projection kernels' rates, and — for workloads whose loop never calls
//! them — the decode step and the save path.
//!
//! The profile also checks the analytic pipeline model
//! (`hc_sched::pipeline`) against the measured restores instead of
//! trusting it.

use std::time::Instant;

use hc_cachectl::CacheController;
use hc_model::{layer, KvCache, Model};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_sched::pipeline::{simulate, LayerTask};
use hc_storage::backend::ChunkStore;
use hc_storage::manager::StorageManager;
use hc_storage::two_stage::StateSaver;
use hc_storage::{StorageError, StreamId};
use hc_tensor::gemm::matmul_nt_par;
use hc_tensor::{ParallelConfig, Tensor2};

use crate::common::{mean, median, ratio, Report};

/// Repetitions of each cheap profiled call (the median is kept).
const REPEATS: usize = 3;

/// Query rows of the profiled attention call.
const ATTN_QUERY_ROWS: usize = 64;

/// Measured per-layer restore costs at `n_tokens`, plus kernel rates.
#[derive(Debug, Clone)]
pub struct RestoreProfile {
    /// Tokens each profiled call covered.
    pub n_tokens: usize,
    /// `read_rows` of one layer's hidden stream, ms, per layer.
    pub io_h_ms: Vec<f64>,
    /// `read_rows` of one layer's key and value streams, ms, per layer.
    pub io_kv_ms: Vec<f64>,
    /// `Model::restore_layer_kv_par` (hidden → K/V projection), ms.
    pub c_h_ms: Vec<f64>,
    /// `layer_forward_par` (token recomputation of one layer), ms.
    pub c_token_ms: Vec<f64>,
    /// Causal attention at the workload's context length, GFLOP/s.
    pub attention_gflops: f64,
    /// The K/V projection GEMM shape (`n × D · D × D`), GFLOP/s.
    pub proj_gemm_gflops: f64,
    /// One `decode_step` on top of an `n_tokens` cache, ms.
    pub decode_step_ms: f64,
    /// Per-layer hidden states of the profiled tokens (for the save probe).
    pub hidden: Vec<Tensor2>,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64() * 1e3)
}

fn median_ms<T>(mut f: impl FnMut() -> T) -> f64 {
    let xs: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let (out, ms) = time_ms(&mut f);
            std::hint::black_box(out);
            ms
        })
        .collect();
    median(&xs)
}

/// Profiles restoration of `tokens` on `io_mgr`: one timed forward pass
/// per layer (`C_Token`, which also yields every layer's hidden states and
/// K/V), the hidden→KV projection (`C_H`), and reads of probe streams
/// written under session id `probe` (`IO_H`, `IO_KV`), which are deleted
/// afterwards. The forward pass runs twice and the faster is kept.
pub fn profile_restore<S: ChunkStore>(
    model: &Model,
    io_mgr: &StorageManager<S>,
    tokens: &[u32],
    probe: u64,
    par: &ParallelConfig,
) -> Result<RestoreProfile, StorageError> {
    let cfg = &model.cfg;
    let n = tokens.len();
    let d = cfg.d_model;
    let empty = Tensor2::zeros(0, d);
    let mut hidden = Vec::with_capacity(cfg.n_layers);
    let mut keys = Vec::with_capacity(cfg.n_layers);
    let mut values = Vec::with_capacity(cfg.n_layers);
    let mut c_token_ms = vec![f64::INFINITY; cfg.n_layers];
    for pass in 0..2 {
        let mut h = model.embed_tokens(tokens, 0);
        for (l, lw) in model.layers.iter().enumerate() {
            let ((next, k, v), ms) =
                time_ms(|| layer::layer_forward_par(cfg, lw, &h, &empty, &empty, 0, par));
            c_token_ms[l] = c_token_ms[l].min(ms);
            if pass == 0 {
                hidden.push(h);
                keys.push(k);
                values.push(v);
            }
            h = next;
        }
    }

    let c_h_ms: Vec<f64> = (0..cfg.n_layers)
        .map(|l| median_ms(|| model.restore_layer_kv_par(l, &hidden[l], 0, par)))
        .collect();

    for l in 0..cfg.n_layers {
        let l32 = l as u32;
        io_mgr.append_rows(StreamId::hidden(probe, l32), &hidden[l])?;
        io_mgr.append_rows(StreamId::key(probe, l32), &keys[l])?;
        io_mgr.append_rows(StreamId::value(probe, l32), &values[l])?;
    }
    io_mgr.flush_session(probe)?;
    let n64 = n as u64;
    let mut io_h_ms = Vec::with_capacity(cfg.n_layers);
    let mut io_kv_ms = Vec::with_capacity(cfg.n_layers);
    for l in 0..cfg.n_layers as u32 {
        let mut err = None;
        io_h_ms.push(median_ms(|| {
            if let Err(e) = io_mgr.read_rows(StreamId::hidden(probe, l), 0, n64) {
                err = Some(e);
            }
        }));
        io_kv_ms.push(median_ms(|| {
            for s in [StreamId::key(probe, l), StreamId::value(probe, l)] {
                if let Err(e) = io_mgr.read_rows(s, 0, n64) {
                    err = Some(e);
                }
            }
        }));
        if let Some(e) = err {
            io_mgr.delete_session(probe);
            return Err(e);
        }
    }
    io_mgr.delete_session(probe);

    let q_rows = ATTN_QUERY_ROWS.min(n);
    let start = n - q_rows;
    let q = keys[0].slice_rows(start, n);
    let visible: u64 = (0..q_rows as u64).map(|i| start as u64 + i + 1).sum();
    let attn_flops = 4 * d as u64 * visible;
    let attn_ms = median_ms(|| layer::attention_par(cfg, &q, &keys[0], &values[0], start, par));
    let proj_flops = 2 * (n * d * d) as u64;
    let proj_ms = median_ms(|| matmul_nt_par(&hidden[0], &model.layers[0].wk, par));

    let mut kv = KvCache::new(cfg);
    for l in 0..cfg.n_layers {
        kv.append(l, &keys[l], &values[l]);
    }
    let decode: Vec<f64> = (0..2 * REPEATS as u32 + 1)
        .map(|t| time_ms(|| model.decode_step(t % cfg.vocab_size as u32, &mut kv, false)).1)
        .collect();

    Ok(RestoreProfile {
        n_tokens: n,
        io_h_ms,
        io_kv_ms,
        c_h_ms,
        c_token_ms,
        attention_gflops: attn_flops as f64 / (attn_ms * 1e6),
        proj_gemm_gflops: proj_flops as f64 / (proj_ms * 1e6),
        decode_step_ms: median(&decode),
        hidden,
    })
}

/// One restore the loop measured: its length and method mix.
#[derive(Debug, Clone)]
pub struct RestoreShape {
    /// History tokens restored.
    pub n_tokens: usize,
    /// The mix it restored under.
    pub methods: Vec<LayerMethod>,
}

/// Restores that share one measured wall time: a single restore on the
/// one-client workloads, a reactor batch on `restore_burst`.
#[derive(Debug, Clone)]
pub struct RestoreGroup {
    /// The restores.
    pub restores: Vec<RestoreShape>,
    /// Their measured wall time, ms.
    pub wall_ms: f64,
}

impl RestoreProfile {
    /// Per-layer cost of `method` for `n` tokens, split into (io, compute)
    /// ms, scaling the profiled values linearly in tokens. `io_scale`
    /// multiplies the IO term (the share of reads that reach the device).
    fn layer_cost(&self, l: usize, method: LayerMethod, n: usize, io_scale: f64) -> (f64, f64) {
        let s = n as f64 / self.n_tokens.max(1) as f64;
        match method {
            LayerMethod::Hidden => (self.io_h_ms[l] * s * io_scale, self.c_h_ms[l] * s),
            LayerMethod::KvOffload => (self.io_kv_ms[l] * s * io_scale, 0.0),
            LayerMethod::Recompute => (0.0, self.c_token_ms[l] * s),
        }
    }

    /// Predicted makespan (ms) of one restore from the two-stream pipeline
    /// model fed with the measured per-layer costs.
    pub fn predicted_ms(&self, r: &RestoreShape, io_scale: f64) -> f64 {
        let tasks: Vec<LayerTask> = r
            .methods
            .iter()
            .enumerate()
            .map(|(l, &m)| {
                let (io, compute) = self.layer_cost(l, m, r.n_tokens, io_scale);
                LayerTask {
                    io,
                    compute,
                    compute_needs_io: m == LayerMethod::Hidden,
                }
            })
            .collect();
        simulate(&tasks).total
    }

    /// Puts the `restore.*`, `sched.*`, `model.attention_gflops` and
    /// `tensor.proj_gemm_gflops` metrics. `groups` are the traced loop's
    /// restores and `ttfr_ms` its TTFR samples.
    pub fn put(&self, r: &mut Report, groups: &[RestoreGroup], ttfr_ms: &[f64], io_scale: f64) {
        let per_1k = |v: &[f64]| mean(v) * 1000.0 / self.n_tokens.max(1) as f64;
        r.put("restore.io_h_ms", per_1k(&self.io_h_ms), "ms", REPEATS);
        r.put("restore.io_kv_ms", per_1k(&self.io_kv_ms), "ms", REPEATS);
        r.put("restore.c_h_ms", per_1k(&self.c_h_ms), "ms", REPEATS);
        r.put("restore.c_token_ms", per_1k(&self.c_token_ms), "ms", 2);

        let overlaps: Vec<f64> = groups
            .iter()
            .map(|g| {
                let (mut io, mut c) = (0.0, 0.0);
                for rs in &g.restores {
                    for (l, &m) in rs.methods.iter().enumerate() {
                        let (i, k) = self.layer_cost(l, m, rs.n_tokens, io_scale);
                        io += i;
                        c += k;
                    }
                }
                ratio(io + c - g.wall_ms, io.min(c))
            })
            .collect();
        r.put(
            "restore.overlap_ratio",
            median(&overlaps),
            "ratio",
            overlaps.len(),
        );

        let predicted: Vec<f64> = groups
            .iter()
            .flat_map(|g| g.restores.iter())
            .map(|rs| self.predicted_ms(rs, io_scale))
            .collect();
        r.put(
            "sched.makespan_model_ratio",
            ratio(median(&predicted), median(ttfr_ms)),
            "ratio",
            predicted.len(),
        );
        r.put(
            "model.attention_gflops",
            self.attention_gflops,
            "GFLOP/s",
            REPEATS,
        );
        r.put(
            "tensor.proj_gemm_gflops",
            self.proj_gemm_gflops,
            "GFLOP/s",
            REPEATS,
        );
    }
}

/// Save-path timings of [`profile_save`].
#[derive(Debug, Clone, Default)]
pub struct SaveProfile {
    /// `StateSaver::save_batch` of one decoded token's rows, µs.
    pub save_batch_us: Vec<f64>,
    /// `StateSaver::barrier_and_flush`, ms.
    pub flush_ms: Vec<f64>,
    /// `CacheController::on_saved`, µs.
    pub on_saved_us: Vec<f64>,
}

/// Profiles the save path of a workload whose loop never saves: a probe
/// session is admitted pure-hidden, then its rows are saved one token at a
/// time the way decoding saves them, flushed, reconciled, and closed.
pub fn profile_save<S: ChunkStore>(
    saver: &StateSaver<S>,
    ctl: &CacheController<S>,
    hidden: &[Tensor2],
    probe: u64,
    rounds: usize,
) -> Result<SaveProfile, String> {
    let n_layers = hidden.len();
    let rows = hidden[0].rows();
    let per_round = rows / rounds.max(1);
    let mut p = SaveProfile::default();
    ctl.open_session(probe, &PartitionScheme::pure_hidden(n_layers));
    let mut saved = 0usize;
    for _ in 0..rounds {
        for t in saved..saved + per_round {
            let items: Vec<(StreamId, &[f32])> = (0..n_layers)
                .map(|l| (StreamId::hidden(probe, l as u32), hidden[l].row(t)))
                .collect();
            let (res, ms) = time_ms(|| saver.save_batch(&items));
            res.map_err(|e| e.to_string())?;
            p.save_batch_us.push(ms * 1e3);
        }
        saved += per_round;
        let (res, ms) = time_ms(|| saver.barrier_and_flush(probe));
        res.map_err(|e| e.to_string())?;
        p.flush_ms.push(ms);
        let (res, ms) = time_ms(|| ctl.on_saved(probe, saved as u64));
        res.map_err(|e| e.to_string())?;
        p.on_saved_us.push(ms * 1e3);
    }
    ctl.close_session(probe).map_err(|e| e.to_string())?;
    Ok(p)
}
