//! `restore_burst`: many clients restoring at once through the IO reactor
//! — the only concurrent workload.
//!
//! A pool of [`POOL`] short sessions is saved pure-hidden on a per-chunk
//! latency model of four devices, under a controller quota of
//! [`QUOTA_SHARE`] of the pool's bytes, so the controller demotes some
//! sessions' layers to recomputation. Each batch, [`CLIENTS`] clients each
//! restore one session: one `restore_sessions_reactor` call with
//! `max_inflight = CLIENTS` (no admission wait), under the controller's
//! method snapshot. Each client then prefills a short prompt on its
//! restored cache and takes its first token. The next batch starts when
//! every client of this one is done (closed loop).

use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_cachectl::{CacheController, ControllerConfig};
use hc_model::{KvCache, Model};
use hc_restore::engine::{
    kv_max_error, restore_session_with_methods, save_session_state, RestoreRequest,
};
use hc_restore::reactor::restore_sessions_reactor;
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::MemStore;
use hc_storage::latency::LatencyStore;
use hc_storage::manager::StorageManager;
use hc_storage::reactor::Reactor;
use hc_storage::two_stage::{SaveMode, StateSaver};
use hc_tensor::ParallelConfig;
use hc_workload::leval::{generate_requests, SubTask};
use hc_workload::rng::Rng;

use crate::common::{
    draw_tokens, io_errors, median, model_config, ratio, shuffle, Quantiles, Report, RunOpts,
    N_DEVICES, SETUP_REPEATS, WEIGHT_SEED,
};
use crate::profile::{profile_restore, profile_save, RestoreGroup, RestoreShape};
use crate::trace::Tracer;
use crate::{put_end_to_end, put_per_layer, LayerInputs, StorageDelta};

/// Clients per batch.
pub const CLIENTS: usize = 64;
/// Sessions in the pool (the working set).
pub const POOL: usize = 192;
/// Mean session length in tokens.
pub const MEAN_TOKENS: f64 = 256.0;
/// Longest session, and the length of the pattern every session is a
/// prefix of.
pub const MAX_TOKENS: u32 = 512;
/// Controller quota as a share of the pool's pure-hidden bytes.
pub const QUOTA_SHARE: f64 = 0.85;
/// Mean prompt tokens a client sends after its restore.
pub const PROMPT_MEAN: u64 = 8;
/// Compute workers of the reactor restore (and its thread budget).
pub const WORKERS: usize = 2;
/// Reads in flight per device.
pub const IODEPTH: usize = 4;
/// Per-chunk read service time of each device.
pub const READ_LATENCY: Duration = Duration::from_micros(4000);
/// Session ids of the profile's probes.
const PROBE_SESSION: u64 = u64::MAX - 1;
const SAVE_PROBE_SESSION: u64 = u64::MAX - 2;

type Device = LatencyStore<MemStore>;

fn task() -> SubTask {
    SubTask {
        name: "burst",
        context_mean: MEAN_TOKENS,
        input_mean: PROMPT_MEAN as f64,
        output_mean: 1.0,
    }
}

struct Stack {
    model: Model,
    device: Arc<Device>,
    reactor: Arc<Reactor>,
    mgr: Arc<StorageManager<Device>>,
    ctl: CacheController<Device>,
    pattern: Vec<u32>,
    lengths: Vec<usize>,
    demotions_at_setup: u64,
    /// The pool in [`CLIENTS`] equal strata of restore work (recompute
    /// layers after the controller's demotions, then length).
    strata: Vec<Vec<usize>>,
}

fn setup(seed: u64) -> Result<Stack, String> {
    let cfg = model_config();
    // Session `i` takes the quasi-random quantile `i` of a generated pool,
    // so every prefix of the pool — the coldest sessions the quota drops
    // first — spans the whole length distribution.
    let generated = generate_requests(&task(), 4 * POOL, MAX_TOKENS, seed)
        .iter()
        .map(|r| r.history_tokens as usize)
        .collect();
    let quantiles = Quantiles::new(generated, 2, &mut Rng::new(seed ^ 0x6c65_6e73));
    let lengths: Vec<usize> = (0..POOL as u64).map(|i| quantiles.get(i)).collect();
    let pattern = draw_tokens(&mut Rng::new(seed ^ 0x6275_7273), MAX_TOKENS as usize, 256);
    let sch = PartitionScheme::pure_hidden(cfg.n_layers);
    let per_token = sch.storage_bytes_per_token(cfg.d_model, cfg.elem_bytes);
    let pool_bytes = lengths.iter().map(|&n| n as u64 * per_token).sum::<u64>();
    let device = Arc::new(LatencyStore::new(
        Arc::new(MemStore::new(N_DEVICES)),
        READ_LATENCY,
        Duration::ZERO,
    ));
    let reactor = Reactor::new(N_DEVICES, IODEPTH);
    let mgr = Arc::new(
        StorageManager::new(Arc::clone(&device), cfg.d_model).with_reactor(Arc::clone(&reactor)),
    );
    let model = Model::new(&cfg, WEIGHT_SEED);
    let quota = (pool_bytes as f64 * QUOTA_SHARE) as u64;
    let ctl = CacheController::new(
        Arc::clone(&mgr),
        cfg.n_layers,
        cfg.d_model,
        ControllerConfig::with_quota(quota).with_expected_tokens(MEAN_TOKENS as u64),
    );
    let mut kv_all = KvCache::new(&cfg);
    let out = model.prefill(&pattern, &mut kv_all, true);
    let hidden = out
        .hidden_per_layer
        .expect("prefill captures hidden states");
    for (s, &n) in lengths.iter().enumerate() {
        let id = s as u64 + 1;
        ctl.open_session(id, &sch);
        let h: Vec<_> = hidden.iter().map(|t| t.slice_rows(0, n)).collect();
        save_session_state(&model, &mgr, id, &h, &KvCache::new(&cfg), &sch)
            .map_err(|e| e.to_string())?;
        ctl.on_saved(id, n as u64).map_err(|e| e.to_string())?;
    }
    let demotions_at_setup = ctl.metrics().demotions;
    let mut by_work: Vec<usize> = (0..POOL).collect();
    by_work.sort_by_key(|&s| {
        let methods = ctl.session_methods(s as u64 + 1).unwrap_or_default();
        let recompute = methods
            .iter()
            .filter(|m| **m == LayerMethod::Recompute)
            .count();
        (recompute, lengths[s], s)
    });
    let strata = by_work
        .chunks(POOL / CLIENTS)
        .map(<[usize]>::to_vec)
        .collect();
    Ok(Stack {
        model,
        device,
        reactor,
        mgr,
        ctl,
        pattern,
        lengths,
        demotions_at_setup,
        strata,
    })
}

/// One batch's clients, in a shuffled order: one session from each
/// stratum of the pool, each with a short prompt.
fn batch(st: &Stack, rng: &mut Rng) -> Vec<(usize, Vec<u32>)> {
    let mut picks: Vec<usize> = st
        .strata
        .iter()
        .map(|s| s[rng.below(s.len() as u64) as usize])
        .collect();
    shuffle(&mut picks, rng);
    picks
        .into_iter()
        .map(|s| {
            let n = 1 + rng.below(2 * PROMPT_MEAN - 1) as usize;
            (s, draw_tokens(rng, n, 256))
        })
        .collect()
}

struct BatchOut {
    ttfr_ms: Vec<f64>,
    ttft_ms: Vec<f64>,
    round_ms: f64,
    restore_wall_ms: f64,
    shapes: Vec<RestoreShape>,
    generated: Vec<u32>,
    failed: u64,
}

fn run_batch(
    st: &Stack,
    clients: &[(usize, Vec<u32>)],
    tr: &mut Tracer,
    oracle_pick: usize,
    report: &mut Report,
    excluded: &mut StorageDelta,
) -> BatchOut {
    let serial = ParallelConfig::serial();
    tr.open("core.round");
    let requests: Vec<RestoreRequest> = tr.span("cachectl.session_methods", || {
        clients
            .iter()
            .map(|(s, _)| {
                let id = *s as u64 + 1;
                let n = st.lengths[*s];
                RestoreRequest {
                    session: id,
                    tokens: st.pattern[..n].to_vec(),
                    n_tokens: st.ctl.session_tokens(id).map_or(n, |t| t as usize),
                    methods: st
                        .ctl
                        .session_methods(id)
                        .unwrap_or_else(|| vec![LayerMethod::Recompute; st.model.cfg.n_layers]),
                }
            })
            .collect()
    });
    let submit = Instant::now();
    let outcomes = tr.span("restore.restore_sessions_reactor", || {
        restore_sessions_reactor(
            &st.model,
            &st.mgr,
            &requests,
            WORKERS,
            CLIENTS,
            &ParallelConfig::new(WORKERS),
        )
    });
    let restore_wall_ms = submit.elapsed().as_secs_f64() * 1e3;
    let mut out = BatchOut {
        ttfr_ms: Vec::with_capacity(CLIENTS),
        ttft_ms: Vec::with_capacity(CLIENTS),
        round_ms: 0.0,
        restore_wall_ms,
        shapes: Vec::with_capacity(CLIENTS),
        generated: Vec::with_capacity(CLIENTS),
        failed: 0,
    };
    // Time spent in the oracle check, which the clients behind it would
    // not have waited for.
    let mut paused = Duration::ZERO;
    let since_submit = |paused: Duration| (submit.elapsed() - paused).as_secs_f64() * 1e3;
    let mut kvs = Vec::with_capacity(CLIENTS);
    for (o, req) in outcomes.into_iter().zip(&requests) {
        match o.result {
            Ok(kv) => {
                out.ttfr_ms.push(o.latency.as_secs_f64() * 1e3);
                out.shapes.push(RestoreShape {
                    n_tokens: req.n_tokens,
                    methods: req.methods.clone(),
                });
                kvs.push(Some(kv));
            }
            Err(e) => {
                out.failed += 1;
                report.check(false, || {
                    format!("restore_burst: session {}: {e}", req.session)
                });
                kvs.push(None);
            }
        }
    }
    for (i, ((_, prompt), kv)) in clients.iter().zip(kvs.iter_mut()).enumerate() {
        let Some(kv) = kv.as_mut() else { continue };
        if i == oracle_pick {
            let req = &requests[i];
            tr.open("bench.oracle_check");
            let t = Instant::now();
            let before = st.mgr.stats();
            let want = restore_session_with_methods(
                &st.model,
                &st.mgr,
                req.session,
                &req.tokens,
                req.n_tokens,
                &req.methods,
            );
            excluded.add(&StorageDelta::between(&before, &st.mgr.stats()));
            let err = want
                .map(|w| kv_max_error(kv, &w))
                .map_err(|e| e.to_string());
            report.check(err == Ok(0.0), || {
                format!(
                    "restore_burst: session {} restore vs sequential oracle: {err:?}",
                    req.session
                )
            });
            tr.close();
            paused += t.elapsed();
        }
        let o = tr.span("model.prefill", || {
            st.model.prefill_par(prompt, kv, false, &serial)
        });
        let tok = tr.span("model.greedy_next_token", || {
            st.model
                .greedy_next_token(o.final_hidden.row(prompt.len() - 1))
        });
        out.ttft_ms.push(since_submit(paused));
        out.generated.push(tok);
    }
    out.round_ms = since_submit(paused);
    tr.close();
    out
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(opts.seed)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let st = built.expect("setup ran");

    let mut rng = Rng::new(opts.seed ^ 0x636c_6965);
    let mut tr = Tracer::new();
    let (mut ttft, mut ttfr, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ttfr_traced, mut groups) = (Vec::new(), Vec::new());
    let (mut restored, mut restore_ms) = (0u64, 0.0);
    let (mut restores, mut dropped_restores, mut recompute_layers) = (0u64, 0u64, 0u64);
    let mut generated = Vec::new();
    let mut excluded = StorageDelta::default();
    let before = st.mgr.stats();
    let ios0 = st.reactor.ios_submitted();
    let busy0: Vec<Duration> = (0..N_DEVICES).map(|d| st.device.reserved_busy(d)).collect();
    let t_loop = Instant::now();
    let mut ops = 0usize;
    while !opts
        .budget
        .done(t_loop, ops, ttfr.len() + ttfr_traced.len())
    {
        let traced = opts.trace && ops.is_multiple_of(2);
        tr.set_on(traced);
        tr.next_op();
        let clients = batch(&st, &mut rng);
        let pick = rng.below(CLIENTS as u64) as usize;
        let out = run_batch(&st, &clients, &mut tr, pick, &mut report, &mut excluded);
        report.attempted += CLIENTS as u64;
        report.failed += out.failed;
        generated.extend_from_slice(&out.generated);
        for s in &out.shapes {
            restores += 1;
            let prefix = s
                .methods
                .iter()
                .take_while(|m| **m == LayerMethod::Recompute)
                .count();
            recompute_layers += prefix as u64;
            if prefix == s.methods.len() {
                dropped_restores += 1;
            }
        }
        if traced {
            ttfr_traced.extend_from_slice(&out.ttfr_ms);
            groups.push(RestoreGroup {
                restores: out.shapes,
                wall_ms: out.restore_wall_ms,
            });
        } else {
            restored += out.shapes.iter().map(|s| s.n_tokens as u64).sum::<u64>();
            restore_ms += out.restore_wall_ms;
            ttfr.extend_from_slice(&out.ttfr_ms);
            ttft.extend_from_slice(&out.ttft_ms);
            rounds.extend(std::iter::repeat_n(out.round_ms, out.ttft_ms.len()));
        }
        ops += 1;
    }
    tr.set_on(false);
    let loop_s = t_loop.elapsed().as_secs_f64();
    let delta = StorageDelta::between(&before, &st.mgr.stats()).minus(&excluded);
    let device_busy: Vec<f64> = (0..N_DEVICES)
        .map(|d| (st.device.reserved_busy(d) - busy0[d]).as_secs_f64() / loop_s)
        .collect();
    let context: u64 = st.lengths.iter().map(|&n| n as u64).sum();
    let resident = st.mgr.total_resident_bytes();
    let ios = st.reactor.ios_submitted() - ios0;

    if opts.trace {
        let n_probe = median(
            &groups
                .iter()
                .flat_map(|g| g.restores.iter().map(|r| r.n_tokens as f64))
                .collect::<Vec<_>>(),
        )
        .max(64.0) as usize;
        let profile = profile_restore(
            &st.model,
            &st.mgr,
            &st.pattern[..n_probe],
            PROBE_SESSION,
            &ParallelConfig::new(WORKERS),
        )
        .map_err(|e| format!("profile: {e}"))?;
        let saver = StateSaver::new(Arc::clone(&st.mgr), SaveMode::TwoStage);
        let save = profile_save(&saver, &st.ctl, &profile.hidden, SAVE_PROBE_SESSION, 4)?;
        drop(saver);
        put_per_layer(
            &mut report,
            LayerInputs {
                tracer: &tr,
                profile: &profile,
                save: Some(save),
                groups: &groups,
                ttfr_traced: &ttfr_traced,
                ttfr_untraced: &ttfr,
                io_scale: 1.0,
                storage: delta.clone(),
                row_bytes_saved: 0,
                restored_tokens: restored
                    + groups
                        .iter()
                        .flat_map(|g| g.restores.iter().map(|r| r.n_tokens as u64))
                        .sum::<u64>(),
                ops: ops as u64,
                restores,
                front_hit_ratio: 0.0,
                device_busy,
                reactor: Some((ios, st.reactor.peak_restores_in_flight())),
                io_errors: io_errors(&st.mgr),
                hit_ratio: ratio((restores - dropped_restores) as f64, restores as f64),
                demotions: st.demotions_at_setup,
                recompute_layers_per_restore: ratio(recompute_layers as f64, restores as f64),
            },
        );
        let path = opts
            .run_dir
            .join(format!("trace-restore_burst-{}.jsonl", opts.seed));
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
    report.counts.insert("batches", ops as u64);
    report
        .counts
        .insert("generated_tokens", generated.len() as u64);
    report
        .counts
        .insert("generated_hash", crate::chat::fnv(&generated));
    report.counts.insert("resident_bytes", resident);
    report.counts.insert("chunk_reads", delta.chunk_reads);
    report.counts.insert("chunk_writes", delta.chunk_writes);
    report.counts.insert("reactor_ios", ios);
    report.counts.insert("demotions", st.demotions_at_setup);
    report.counts.insert("recompute_layers", recompute_layers);
    report.counts.insert("dropped_restores", dropped_restores);
    Ok(report)
}
