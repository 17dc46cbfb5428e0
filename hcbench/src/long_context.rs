//! `long_context`: L-Eval-like queries over shared long contexts — the
//! workload where restore is most of TTFT.
//!
//! [`N_CONTEXTS`] contexts (QuALITY row of Table 1, every length divided
//! by [`LENGTH_SCALE`]) are saved under a fixed 3-hidden + 1-KV scheme on
//! a DRAM front ([`TieredStore`], a quarter of the working set) over a
//! per-chunk latency model of four devices. One client sends queries whose
//! context is chosen by Zipf popularity: restore the context, prefill a
//! short instruction, generate 1–4 tokens. Nothing is saved per query.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_cachectl::{CacheController, ControllerConfig};
use hc_model::{KvCache, Model};
use hc_restore::engine::{kv_max_error, restore_session_with_methods, save_session_state};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::{MemStore, StoreStats};
use hc_storage::latency::LatencyStore;
use hc_storage::manager::StorageManager;
use hc_storage::tiered::TieredStore;
use hc_storage::two_stage::{SaveMode, StateSaver};
use hc_tensor::ParallelConfig;
use hc_workload::leval::{generate_requests, SubTask, QUALITY};
use hc_workload::rng::Rng;
use hc_workload::zipf::Zipf;

use crate::common::{
    draw_tokens, io_errors, median, model_config, ratio, vdc, Quantiles, Report, RunOpts,
    Stopwatch, N_DEVICES, SETUP_REPEATS, WEIGHT_SEED,
};
use crate::profile::{profile_restore, profile_save, RestoreGroup, RestoreShape};
use crate::trace::Tracer;
use crate::{put_end_to_end, put_per_layer, LayerInputs, StorageDelta};

/// Every Table 1 length is divided by this (QuALITY's 7,054-token mean
/// context becomes ~880 tokens).
pub const LENGTH_SCALE: f64 = 8.0;
/// Distinct contexts (the working set).
pub const N_CONTEXTS: usize = 64;
/// Longest context, and the length of the token pattern every context is
/// a prefix of (one prefill in setup serves all contexts).
pub const MAX_CONTEXT: u32 = 1280;
/// Generated context lengths per context kept.
const STRATUM: usize = 8;
/// Zipf exponent of context popularity.
pub const ZIPF_ALPHA: f64 = 0.8;
/// DRAM front capacity as a share of the working set's bytes.
pub const FRONT_SHARE: f64 = 0.25;
/// Per-chunk read service time of the device tier. Long enough that a
/// missed context's restore is IO-bound (IO_KV > IO_H > C_H per layer)
/// on the 2-vCPU virtual machine the benchmark was defined on, whose
/// compute speed drifts by a third over minutes: at the paper's balanced
/// regime (IO_KV > C_H > IO_H, 250 µs here) that drift moved TTFR by more
/// than its bound.
pub const READ_LATENCY: Duration = Duration::from_micros(2000);
/// Most output tokens a query generates.
pub const MAX_OUTPUT: usize = 4;
/// Untimed queries after setup that let the front cache fill.
const WARMUP_QUERIES: usize = 48;
/// Generated queries (a power of two, so the quasi-random rank draws
/// stratify the whole cycle); the loop cycles through them.
const QUERIES: usize = 8192;
/// Every `ORACLE_EVERY`-th restore is checked against the sequential oracle.
const ORACLE_EVERY: u64 = 16;
/// Session ids of the profile's probes.
const PROBE_SESSION: u64 = u64::MAX - 1;
const SAVE_PROBE_SESSION: u64 = u64::MAX - 2;

type Device = LatencyStore<MemStore>;
type Store = TieredStore<Device>;

fn task() -> SubTask {
    SubTask {
        name: "QuALITY/8",
        context_mean: QUALITY.context_mean / LENGTH_SCALE,
        input_mean: QUALITY.input_mean / LENGTH_SCALE,
        output_mean: QUALITY.output_mean / LENGTH_SCALE,
    }
}

/// The 3-hidden + 1-KV scheme every context is saved under.
fn scheme() -> PartitionScheme {
    PartitionScheme {
        l_h: 3,
        l_o: 1,
        complement: LayerMethod::KvOffload,
    }
}

struct Query {
    context: usize,
    instruction: Vec<u32>,
    outputs: usize,
}

/// Context lengths by popularity rank: rank `k` takes the quasi-random
/// quantile `k` of a generated pool, so every block of consecutive ranks
/// (and the hottest ranks above all) spans the pool's whole length
/// distribution instead of a few arbitrary draws. The quantiles are the
/// same for every seed (the hottest context at the median, the next at the
/// shortest stratum, ...): a drawn offset gave the hottest contexts, and
/// so the TTFR median, a length that changed with the seed.
fn context_lengths(seed: u64) -> Vec<usize> {
    let pool = generate_requests(&task(), N_CONTEXTS * STRATUM, MAX_CONTEXT, seed)
        .iter()
        .map(|r| r.history_tokens as usize)
        .collect();
    let lengths = Quantiles::fixed(pool, 2, 0.5 + 0.5 / N_CONTEXTS as f64);
    (0..N_CONTEXTS as u64).map(|k| lengths.get(k)).collect()
}

/// The query stream: popularity ranks by quasi-random inverse-CDF draws of
/// the Zipf law, instruction and output lengths as quasi-random quantiles
/// of a generated pool.
fn queries(seed: u64) -> Vec<Query> {
    let zipf = Zipf::new(N_CONTEXTS, ZIPF_ALPHA);
    let cdf: Vec<f64> = (0..N_CONTEXTS)
        .scan(0.0, |acc, k| {
            *acc += zipf.pmf(k);
            Some(*acc)
        })
        .collect();
    let pool = generate_requests(&task(), QUERIES, MAX_CONTEXT, seed ^ 0x7175_6572);
    let mut rng = Rng::new(seed ^ 0x7a69_7066);
    let rank_offset = rng.uniform();
    let inputs = Quantiles::new(
        pool.iter().map(|r| r.input_tokens as usize).collect(),
        3,
        &mut rng,
    );
    let outputs = Quantiles::new(
        pool.iter()
            .map(|r| (r.output_tokens as usize).clamp(1, MAX_OUTPUT))
            .collect(),
        5,
        &mut rng,
    );
    let mut tokens = Rng::new(seed ^ 0x696e_7374);
    (0..QUERIES as u64)
        .map(|i| {
            let u = (vdc(i, 2) + rank_offset).fract();
            Query {
                context: cdf.partition_point(|&c| c < u).min(N_CONTEXTS - 1),
                instruction: draw_tokens(&mut tokens, inputs.get(i), 256),
                outputs: outputs.get(i),
            }
        })
        .collect()
}

struct Stack {
    model: Model,
    device: Arc<Device>,
    tiered: Arc<Store>,
    mgr: Arc<StorageManager<Store>>,
    ctl: CacheController<Store>,
    pattern: Vec<u32>,
    lengths: Vec<usize>,
}

impl Stack {
    fn session(context: usize) -> u64 {
        context as u64 + 1
    }
}

fn setup(seed: u64, par: &ParallelConfig) -> Result<Stack, String> {
    let cfg = model_config();
    let lengths = context_lengths(seed);
    let pattern = draw_tokens(&mut Rng::new(seed ^ 0x7061_7474), MAX_CONTEXT as usize, 256);
    let sch = scheme();
    let per_token = sch.storage_bytes_per_token(cfg.d_model, cfg.elem_bytes);
    let working_set = lengths.iter().map(|&n| n as u64 * per_token).sum::<u64>();
    let device = Arc::new(LatencyStore::new(
        Arc::new(MemStore::new(N_DEVICES)),
        READ_LATENCY,
        Duration::ZERO,
    ));
    let tiered = Arc::new(TieredStore::new(
        Arc::clone(&device),
        (working_set as f64 * FRONT_SHARE) as u64,
    ));
    let mgr = Arc::new(StorageManager::new(Arc::clone(&tiered), cfg.d_model));
    let model = Model::new(&cfg, WEIGHT_SEED);
    let ctl = CacheController::new(
        Arc::clone(&mgr),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::unlimited(),
    );

    let mut kv_all = KvCache::new(&cfg);
    let out = model.prefill_par(&pattern, &mut kv_all, true, par);
    let hidden = out
        .hidden_per_layer
        .expect("prefill captures hidden states");
    for (c, &n) in lengths.iter().enumerate() {
        let id = Stack::session(c);
        ctl.open_session(id, &sch);
        let h: Vec<_> = hidden.iter().map(|t| t.slice_rows(0, n)).collect();
        let mut kv = KvCache::new(&cfg);
        for l in 0..cfg.n_layers {
            kv.append(
                l,
                &kv_all.keys(l).slice_rows(0, n),
                &kv_all.values(l).slice_rows(0, n),
            );
        }
        save_session_state(&model, &mgr, id, &h, &kv, &sch).map_err(|e| e.to_string())?;
        ctl.on_saved(id, n as u64).map_err(|e| e.to_string())?;
    }
    Ok(Stack {
        model,
        device,
        tiered,
        mgr,
        ctl,
        pattern,
        lengths,
    })
}

struct QueryOut {
    ttfr_ms: f64,
    ttft_ms: f64,
    round_ms: f64,
    restored: usize,
    methods: Vec<LayerMethod>,
    generated: Vec<u32>,
}

/// Counters the oracle check moved, so they can be taken out of the loop's.
#[derive(Default)]
struct Excluded {
    storage: StorageDelta,
    front_hits: u64,
    front_misses: u64,
}

fn query(
    st: &Stack,
    q: &Query,
    par: &ParallelConfig,
    tr: &mut Tracer,
    oracle: Option<(&mut Report, &mut Excluded)>,
) -> Result<QueryOut, String> {
    let mut sw = Stopwatch::start();
    tr.open("core.round");
    let id = Stack::session(q.context);
    let n = st.lengths[q.context];
    let tokens = &st.pattern[..n];
    let methods = tr
        .span("cachectl.session_methods", || st.ctl.session_methods(id))
        .ok_or_else(|| format!("context {id} unknown to the controller"))?;
    let (mut kv, _report) = tr
        .span("cachectl.restore_with_report", || {
            st.ctl.restore_with_report(&st.model, id, tokens, par)
        })
        .map_err(|e| format!("restore of context {id}: {e}"))?;
    let ttfr_ms = sw.ms();
    if let Some((report, excluded)) = oracle {
        sw.pause();
        tr.open("bench.oracle_check");
        let (before, hits, misses) = (
            st.mgr.stats(),
            st.tiered.front_hits(),
            st.tiered.front_misses(),
        );
        let want = restore_session_with_methods(&st.model, &st.mgr, id, tokens, n, &methods)
            .map_err(|e| format!("oracle restore of context {id}: {e}"))?;
        excluded
            .storage
            .add(&StorageDelta::between(&before, &st.mgr.stats()));
        excluded.front_hits += st.tiered.front_hits() - hits;
        excluded.front_misses += st.tiered.front_misses() - misses;
        let err = kv_max_error(&kv, &want);
        report.check(err == 0.0, || {
            format!(
                "long_context: context {id} restore differs from the sequential oracle by {err}"
            )
        });
        tr.close();
        sw.resume();
    }
    let out = tr.span("model.prefill", || {
        st.model.prefill_par(&q.instruction, &mut kv, false, par)
    });
    let mut last_row = out.final_hidden.row(q.instruction.len() - 1).to_vec();
    let mut generated = Vec::with_capacity(q.outputs);
    let mut ttft_ms = 0.0;
    for i in 0..q.outputs {
        let next = tr.span("model.greedy_next_token", || {
            st.model.greedy_next_token(&last_row)
        });
        if i == 0 {
            ttft_ms = sw.ms();
        }
        generated.push(next);
        if i + 1 < q.outputs {
            last_row = tr
                .span("model.decode_step", || {
                    st.model.decode_step(next, &mut kv, false)
                })
                .0;
        }
    }
    tr.close();
    Ok(QueryOut {
        ttfr_ms,
        ttft_ms,
        round_ms: sw.ms(),
        restored: n,
        methods,
        generated,
    })
}

fn busy(device: &Device) -> Vec<Duration> {
    (0..N_DEVICES).map(|d| device.reserved_busy(d)).collect()
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let par = ParallelConfig::serial();
    let qs = queries(opts.seed);
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(opts.seed, &par)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let st = built.expect("setup ran");

    let mut tr = Tracer::new();
    let mut next_query = 0usize;
    for _ in 0..WARMUP_QUERIES {
        query(&st, &qs[next_query % QUERIES], &par, &mut tr, None)?;
        next_query += 1;
    }

    let (mut ttft, mut ttfr, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ttfr_traced, mut groups) = (Vec::new(), Vec::new());
    let (mut restored, mut restore_ms) = (0u64, 0.0);
    let mut generated = Vec::new();
    let mut excluded = Excluded::default();
    let before: StoreStats = st.mgr.stats();
    let (hits0, misses0) = (st.tiered.front_hits(), st.tiered.front_misses());
    let busy0 = busy(&st.device);
    let mut coin = Rng::new(opts.seed ^ 0x636f_696e);
    let t_loop = Instant::now();
    let mut ops = 0usize;
    while !opts
        .budget
        .done(t_loop, ops, ttfr.len() + ttfr_traced.len())
    {
        // A coin, not the query index: the quasi-random rank draws split
        // by index parity into the low and high halves of the law.
        let traced = opts.trace && coin.below(2) == 0;
        tr.set_on(traced);
        tr.next_op();
        let q = &qs[next_query % QUERIES];
        next_query += 1;
        let oracle = (ops as u64)
            .is_multiple_of(ORACLE_EVERY)
            .then_some((&mut report, &mut excluded));
        let res = query(&st, q, &par, &mut tr, oracle);
        report.attempted += 1;
        match res {
            Ok(out) => {
                generated.extend_from_slice(&out.generated);
                if traced {
                    ttfr_traced.push(out.ttfr_ms);
                    groups.push(RestoreGroup {
                        restores: vec![RestoreShape {
                            n_tokens: out.restored,
                            methods: out.methods,
                        }],
                        wall_ms: out.ttfr_ms,
                    });
                } else {
                    ttfr.push(out.ttfr_ms);
                    ttft.push(out.ttft_ms);
                    rounds.push(out.round_ms);
                    restored += out.restored as u64;
                    restore_ms += out.ttfr_ms;
                }
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("long_context: {e}"));
            }
        }
        ops += 1;
    }
    tr.set_on(false);
    let loop_s = t_loop.elapsed().as_secs_f64();
    let delta = StorageDelta::between(&before, &st.mgr.stats()).minus(&excluded.storage);
    let hits = st.tiered.front_hits() - hits0 - excluded.front_hits;
    let misses = st.tiered.front_misses() - misses0 - excluded.front_misses;
    let front_hit_ratio = ratio(hits as f64, (hits + misses) as f64);
    let device_busy: Vec<f64> = busy(&st.device)
        .iter()
        .zip(&busy0)
        .map(|(b, b0)| (*b - *b0).as_secs_f64() / loop_s)
        .collect();
    let context: u64 = st.lengths.iter().map(|&n| n as u64).sum();
    let resident = st.mgr.total_resident_bytes();
    let metrics = st.ctl.metrics();

    if opts.trace {
        let n_probe = median(
            &groups
                .iter()
                .map(|g| g.restores[0].n_tokens as f64)
                .collect::<Vec<_>>(),
        )
        .max(64.0) as usize;
        // IO is profiled on the device tier itself (a manager of its own
        // over the latency model), so front hits do not mask IO_H / IO_KV.
        let device_mgr = StorageManager::new(Arc::clone(&st.device), st.model.cfg.d_model);
        let profile = profile_restore(
            &st.model,
            &device_mgr,
            &st.pattern[..n_probe],
            PROBE_SESSION,
            &par,
        )
        .map_err(|e| format!("profile: {e}"))?;
        let saver = StateSaver::new(Arc::clone(&st.mgr), SaveMode::TwoStage);
        let save = profile_save(&saver, &st.ctl, &profile.hidden, SAVE_PROBE_SESSION, 4)?;
        drop(saver);
        let restores = (ttfr.len() + ttfr_traced.len()) as u64;
        put_per_layer(
            &mut report,
            LayerInputs {
                tracer: &tr,
                profile: &profile,
                save: Some(save),
                groups: &groups,
                ttfr_traced: &ttfr_traced,
                ttfr_untraced: &ttfr,
                io_scale: 1.0 - front_hit_ratio,
                storage: delta.clone(),
                row_bytes_saved: 0,
                restored_tokens: restored
                    + groups
                        .iter()
                        .map(|g| g.restores[0].n_tokens as u64)
                        .sum::<u64>(),
                ops: ops as u64,
                restores,
                front_hit_ratio,
                device_busy,
                reactor: None,
                io_errors: io_errors(&st.mgr),
                hit_ratio: metrics.hit_ratio().unwrap_or(0.0),
                demotions: metrics.demotions,
                recompute_layers_per_restore: 0.0,
            },
        );
        let path = opts
            .run_dir
            .join(format!("trace-long_context-{}.jsonl", opts.seed));
        tr.write_jsonl(&path)
            .map_err(|e| format!("span dump: {e}"))?;
    } else {
        put_end_to_end(
            &mut report,
            &ttft,
            &ttfr,
            &rounds,
            restored,
            restore_ms,
            resident as f64 / context as f64,
            &setup_s,
        );
    }
    report.put("loop_s", loop_s, "s", ops);
    report.counts.insert("queries", ops as u64);
    report
        .counts
        .insert("generated_tokens", generated.len() as u64);
    report
        .counts
        .insert("generated_hash", crate::chat::fnv(&generated));
    report.counts.insert("resident_bytes", resident);
    report.counts.insert("context_tokens", context);
    report.counts.insert("chunk_reads", delta.chunk_reads);
    report.counts.insert("chunk_writes", delta.chunk_writes);
    report.counts.insert("front_hits", hits);
    report.counts.insert("front_misses", misses);
    report.counts.insert("restore_hits", metrics.restore_hits);
    report
        .counts
        .insert("restore_fallbacks", metrics.restore_fallbacks);
    Ok(report)
}
