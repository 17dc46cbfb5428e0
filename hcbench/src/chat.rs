//! `chat`: ShareGPT-like multi-round conversations — the only workload
//! that writes.
//!
//! One client runs rounds round-robin over [`LIVE_SESSIONS`] sessions; a
//! session that has played all its rounds is closed and replaced by the
//! next generated one. Every round is driven through the same public calls
//! `HCacheSystem::round` makes, in the same order, each timed from
//! outside: restore (history > 0) → prefill → first token → decode with a
//! two-stage save of every token → flush → quota reconcile.
//!
//! The store is a per-chunk latency model of four devices rather than the
//! fsync'd durable `FileStore`: on the 2-vCPU virtual machine the
//! benchmark was defined on, fsync latency made the same seed's TTFR p90
//! vary by ±25% from run to run. Each chunk read or write costs a fixed
//! [`READ_LATENCY`] / [`WRITE_LATENCY`] plus a per-chunk extra
//! ([`JitterStore`], mean [`READ_JITTER`] / [`WRITE_JITTER`]). The device
//! times are long enough that they, not compute, make up most of every
//! timed figure: that host's compute speed drifts by a third over minutes,
//! and a compute-bound round would drift with it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use hc_cachectl::{CacheController, ControllerConfig};
use hc_model::{KvCache, Model};
use hc_restore::engine::{kv_max_error, restore_session_with_methods};
use hc_sched::partition::{LayerMethod, PartitionScheme};
use hc_storage::backend::MemStore;
use hc_storage::latency::LatencyStore;
use hc_storage::manager::StorageManager;
use hc_storage::two_stage::{SaveMode, StateSaver};
use hc_storage::StreamId;
use hc_tensor::ParallelConfig;
use hc_workload::rng::Rng;
use hc_workload::sharegpt::{generate_sessions, ShareGptConfig};
use hcache::HCacheSystem;

use crate::common::{
    draw_tokens, io_errors, median, model_config, JitterStore, Quantiles, Report, RunOpts,
    Stopwatch, N_DEVICES, SETUP_REPEATS, WEIGHT_SEED,
};
use crate::profile::{profile_restore, RestoreGroup, RestoreShape};
use crate::trace::Tracer;
use crate::{put_end_to_end, put_per_layer, LayerInputs, StorageDelta};

/// Every ShareGPT length (input, output, and so history) is divided by
/// this, keeping the paper's shape at a size a CPU serves.
pub const LENGTH_SCALE: f64 = 4.0;
/// Fixed service time of one chunk read on its device.
pub const READ_LATENCY: Duration = Duration::from_micros(1000);
/// Mean per-chunk extra read time, on top of [`READ_LATENCY`].
pub const READ_JITTER: Duration = Duration::from_micros(3000);
/// Fixed service time of one chunk write on its device.
pub const WRITE_LATENCY: Duration = Duration::from_micros(1000);
/// Mean per-chunk extra write time, on top of [`WRITE_LATENCY`].
pub const WRITE_JITTER: Duration = Duration::from_micros(3000);
/// Most output tokens a round generates (after scaling): decode is
/// compute, and an uncapped ShareGPT tail would make the round p90 a
/// measure of host compute speed.
pub const MAX_OUTPUT: usize = 8;
/// Mean rounds per generated session (the generator's default is 8).
/// Longer sessions make the rounds whose whole history still fits in the
/// manager's in-memory tail chunk (restores with no device IO, so a
/// second, much faster TTFT cluster) a small share of all rounds, keeping
/// the TTFT median away from the gap between the clusters.
pub const MEAN_ROUNDS: f64 = 16.0;
/// Most rounds a session plays: the generator's geometric tail would
/// leave the TTFR p90 to the few longest sessions a run happens to draw.
pub const MAX_ROUNDS: usize = 16;
/// Sessions the client interleaves.
pub const LIVE_SESSIONS: usize = 16;
/// Generated sessions the played ones are drawn from (a power of two, so
/// the quasi-random order visits each once before repeating).
const POOL: usize = 2048;
/// Every `ORACLE_EVERY`-th restore is checked against the sequential oracle.
const ORACLE_EVERY: u64 = 8;
/// Session id of the profile's probe streams.
const PROBE_SESSION: u64 = u64::MAX - 1;

/// The conversations the client plays, drawn from one seeded
/// `generate_sessions` pool: sessions in a quasi-random order over their
/// round counts, and every played round's (input, output) lengths as
/// quasi-random quantiles of all the pool's rounds, divided by
/// [`LENGTH_SCALE`] (outputs capped at [`MAX_OUTPUT`]).
struct Trace {
    rounds: Vec<usize>,
    order: Quantiles,
    inputs: Quantiles,
    outputs: Quantiles,
}

impl Trace {
    fn new(seed: u64) -> Self {
        let cfg = ShareGptConfig {
            mean_rounds: MEAN_ROUNDS,
            ..ShareGptConfig::default()
        };
        let sessions = generate_sessions(POOL, &cfg, seed);
        let scale = |n: u32| (n as f64 / LENGTH_SCALE).round().max(1.0) as usize;
        let all = || sessions.iter().flat_map(|s| s.rounds.iter());
        let rounds: Vec<usize> = sessions
            .iter()
            .map(|s| s.rounds.len().min(MAX_ROUNDS))
            .collect();
        let mut rng = Rng::new(seed ^ 0x7472_6163);
        Self {
            order: Quantiles::sorted_by((0..POOL).collect(), |&i| (rounds[i], i), 2, &mut rng),
            rounds,
            inputs: Quantiles::new(all().map(|r| scale(r.input_tokens)).collect(), 3, &mut rng),
            outputs: Quantiles::new(
                all()
                    .map(|r| scale(r.output_tokens).min(MAX_OUTPUT))
                    .collect(),
                5,
                &mut rng,
            ),
        }
    }
}

/// One logged round of the gate session: prompt, tokens asked, tokens got.
type LoggedRound = (Vec<u32>, usize, Vec<u32>);

struct Live {
    id: u64,
    n_rounds: usize,
    next_round: usize,
    tokens: Vec<u32>,
    log: Option<Vec<LoggedRound>>,
}

type Store = LatencyStore<JitterStore<MemStore>>;

struct Stack {
    model: Model,
    mgr: Arc<StorageManager<Store>>,
    saver: StateSaver<Store>,
    ctl: CacheController<Store>,
}

struct Client {
    trace: Trace,
    prompts: Rng,
    /// Sessions opened so far.
    next_session: u64,
    /// Rounds played so far (including setup's).
    next_round: u64,
    next_id: u64,
    live: Vec<Live>,
    /// The gate session's finished log, once it has closed.
    gate_log: Option<Vec<LoggedRound>>,
}

impl Client {
    fn open(&mut self, st: &Stack, logged: bool) -> Live {
        let id = self.next_id;
        self.next_id += 1;
        st.ctl
            .open_session(id, &PartitionScheme::pure_hidden(st.model.cfg.n_layers));
        let pick = self.trace.order.get(self.next_session % POOL as u64);
        self.next_session += 1;
        Live {
            id,
            n_rounds: self.trace.rounds[pick],
            next_round: 0,
            tokens: Vec::new(),
            log: logged.then(Vec::new),
        }
    }
}

struct RoundOut {
    ttfr_ms: Option<f64>,
    ttft_ms: f64,
    round_ms: f64,
    restored: usize,
    methods: Vec<LayerMethod>,
    rows_saved: u64,
}

/// One round, making the calls `HCacheSystem::round` makes in its order.
#[allow(clippy::too_many_arguments)]
fn round(
    st: &Stack,
    live: &mut Live,
    prompt: &[u32],
    n_gen: usize,
    par: &ParallelConfig,
    tr: &mut Tracer,
    oracle: Option<&mut StorageDelta>,
    report: &mut Report,
) -> Result<(RoundOut, Vec<u32>), String> {
    let mut sw = Stopwatch::start();
    tr.open("core.round");
    let history = live.tokens.len();
    let id = live.id;
    let methods = tr
        .span("cachectl.session_methods", || st.ctl.session_methods(id))
        .ok_or_else(|| format!("session {id} unknown to the controller"))?;

    let mut ttfr_ms = None;
    let mut kv = if history > 0 {
        let (kv, _report) = tr
            .span("cachectl.restore_with_report", || {
                st.ctl.restore_with_report(&st.model, id, &live.tokens, par)
            })
            .map_err(|e| format!("restore of session {id}: {e}"))?;
        ttfr_ms = Some(sw.ms());
        if let Some(excluded) = oracle {
            sw.pause();
            tr.open("bench.oracle_check");
            let before = st.mgr.stats();
            let want = restore_session_with_methods(
                &st.model,
                &st.mgr,
                id,
                &live.tokens,
                history,
                &methods,
            )
            .map_err(|e| format!("oracle restore of session {id}: {e}"))?;
            excluded.add(&StorageDelta::between(&before, &st.mgr.stats()));
            let err = kv_max_error(&kv, &want);
            report.check(err == 0.0, || {
                format!("chat: session {id} restore differs from the sequential oracle by {err}")
            });
            tr.close();
            sw.resume();
        }
        kv
    } else {
        KvCache::new(&st.model.cfg)
    };

    let out = tr.span("model.prefill", || {
        st.model.prefill_par(prompt, &mut kv, true, par)
    });
    let hidden = out
        .hidden_per_layer
        .expect("prefill captures hidden states");
    let hidden_layers: Vec<usize> = (0..methods.len())
        .filter(|&l| methods[l] == LayerMethod::Hidden)
        .collect();
    let items: Vec<(StreamId, &[f32])> = hidden_layers
        .iter()
        .map(|&l| (StreamId::hidden(id, l as u32), hidden[l].as_slice()))
        .collect();
    tr.span("storage.save_batch", || st.saver.save_batch(&items))
        .map_err(|e| e.to_string())?;
    let upto = history + prompt.len();
    save_kv_rows(st, tr, id, &methods, &kv, history, upto)?;

    let mut ttft_ms = 0.0;
    let mut generated = Vec::with_capacity(n_gen);
    let mut last_row = out.final_hidden.row(prompt.len() - 1).to_vec();
    for i in 0..n_gen {
        let next = tr.span("model.greedy_next_token", || {
            st.model.greedy_next_token(&last_row)
        });
        if i == 0 {
            ttft_ms = sw.ms();
        }
        let (row, captured) = tr.span("model.decode_step", || {
            st.model.decode_step(next, &mut kv, true)
        });
        let per_layer = captured.expect("decode captures hidden states");
        let items: Vec<(StreamId, &[f32])> = hidden_layers
            .iter()
            .map(|&l| (StreamId::hidden(id, l as u32), per_layer[l].as_slice()))
            .collect();
        tr.span("storage.save_batch", || st.saver.save_batch(&items))
            .map_err(|e| e.to_string())?;
        generated.push(next);
        last_row = row;
    }
    save_kv_rows(st, tr, id, &methods, &kv, upto, kv.n_tokens())?;
    tr.span("storage.barrier_and_flush", || {
        st.saver.barrier_and_flush(id)
    })
    .map_err(|e| e.to_string())?;
    live.tokens.extend_from_slice(prompt);
    live.tokens.extend_from_slice(&generated);
    let context = live.tokens.len() as u64;
    tr.span("cachectl.on_saved", || st.ctl.on_saved(id, context))
        .map_err(|e| e.to_string())?;
    tr.close();
    let rows_saved = ((prompt.len() + n_gen) * hidden_layers.len()) as u64;
    Ok((
        RoundOut {
            ttfr_ms,
            ttft_ms,
            round_ms: sw.ms(),
            restored: history,
            methods,
            rows_saved,
        },
        generated,
    ))
}

/// Appends K/V rows `[start, end)` of KV-offload layers, as
/// `HCacheSystem::round` does (none under this workload's pure-hidden mix).
fn save_kv_rows(
    st: &Stack,
    tr: &mut Tracer,
    id: u64,
    methods: &[LayerMethod],
    kv: &KvCache,
    start: usize,
    end: usize,
) -> Result<(), String> {
    if start >= end {
        return Ok(());
    }
    for (l, m) in methods.iter().enumerate() {
        if *m == LayerMethod::KvOffload {
            let k = kv.keys(l).slice_rows(start, end);
            let v = kv.values(l).slice_rows(start, end);
            tr.span("storage.append_rows", || {
                st.mgr.append_rows(StreamId::key(id, l as u32), &k)?;
                st.mgr.append_rows(StreamId::value(id, l as u32), &v)
            })
            .map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Plays the next round of `slot`, logging it for the gate session and
/// replacing the session once it has played every round.
#[allow(clippy::too_many_arguments)]
fn step(
    st: &Stack,
    d: &mut Client,
    slot: usize,
    par: &ParallelConfig,
    tr: &mut Tracer,
    oracle: Option<&mut StorageDelta>,
    report: &mut Report,
    generated_log: &mut Vec<u32>,
) -> Result<RoundOut, String> {
    let input = d.trace.inputs.get(d.next_round);
    let output = d.trace.outputs.get(d.next_round);
    d.next_round += 1;
    let prompt = draw_tokens(&mut d.prompts, input, st.model.cfg.vocab_size);
    let live = &mut d.live[slot];
    let res = round(st, live, &prompt, output, par, tr, oracle, report);
    live.next_round += 1;
    if let Ok((_, generated)) = &res {
        generated_log.extend_from_slice(generated);
        if let Some(log) = live.log.as_mut() {
            log.push((prompt, output, generated.clone()));
        }
    }
    if live.next_round == live.n_rounds {
        let id = live.id;
        if let Some(log) = live.log.take() {
            d.gate_log = Some(log);
        }
        st.ctl
            .close_session(id)
            .map_err(|e| format!("close of session {id}: {e}"))?;
        d.live[slot] = d.open(st, false);
    }
    res.map(|(out, _)| out)
}

/// Builds the stack and plays every live session's first round, so the
/// timed loop starts with history to restore.
fn setup(
    opts: &RunOpts,
    par: &ParallelConfig,
    report: &mut Report,
) -> Result<(Stack, Client), String> {
    let cfg = model_config();
    let device = LatencyStore::new(
        Arc::new(JitterStore::new(
            Arc::new(MemStore::new(N_DEVICES)),
            READ_JITTER,
            WRITE_JITTER,
        )),
        READ_LATENCY,
        WRITE_LATENCY,
    );
    let mgr = Arc::new(StorageManager::new(Arc::new(device), cfg.d_model));
    let st = Stack {
        model: Model::new(&cfg, WEIGHT_SEED),
        saver: StateSaver::new(Arc::clone(&mgr), SaveMode::TwoStage),
        ctl: CacheController::new(
            Arc::clone(&mgr),
            cfg.n_layers,
            cfg.d_model,
            ControllerConfig::unlimited(),
        ),
        mgr,
    };
    let mut d = Client {
        trace: Trace::new(opts.seed),
        prompts: Rng::new(opts.seed ^ 0x6368_6174),
        next_session: 0,
        next_round: 0,
        next_id: 1,
        live: Vec::with_capacity(LIVE_SESSIONS),
        gate_log: None,
    };
    let gate_slot = (opts.seed % LIVE_SESSIONS as u64) as usize;
    for slot in 0..LIVE_SESSIONS {
        let live = d.open(&st, slot == gate_slot);
        d.live.push(live);
    }
    let mut tr = Tracer::new();
    let mut sink = Vec::new();
    for slot in 0..LIVE_SESSIONS {
        step(&st, &mut d, slot, par, &mut tr, None, report, &mut sink)?;
    }
    Ok((st, d))
}

/// Replays the gate session through `HCacheSystem::round` on an
/// identically seeded in-memory system and compares every token.
fn gate_against_system(log: &[LoggedRound], report: &mut Report) {
    let cfg = model_config();
    let mut sys = HCacheSystem::in_memory(&cfg, WEIGHT_SEED, N_DEVICES)
        .with_cache_controller(ControllerConfig::unlimited());
    let id = sys.open_session();
    for (i, (prompt, n_gen, want)) in log.iter().enumerate() {
        let got = sys.round(id, prompt, *n_gen).map_err(|e| e.to_string());
        report.check(got.as_ref() == Ok(want), || {
            format!("chat: round {i} of the gate session: HCacheSystem::round generated {got:?}, this benchmark's rounds {want:?}")
        });
    }
}

/// Runs the workload.
pub fn run(opts: &RunOpts) -> Result<Report, String> {
    let par = ParallelConfig::serial();
    let mut report = Report::default();
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut built: Option<(Stack, Client)> = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        let t = Instant::now();
        let mut scratch = Report::default();
        built = Some(setup(opts, &par, &mut scratch)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (st, mut d) = built.expect("setup ran");

    let mut tr = Tracer::new();
    let (mut ttft, mut ttfr, mut rounds) = (Vec::new(), Vec::new(), Vec::new());
    let (mut ttfr_traced, mut groups) = (Vec::new(), Vec::new());
    let (mut restored, mut restore_ms, mut rows_saved) = (0u64, 0.0, 0u64);
    let mut restores = 0u64;
    let mut generated = Vec::new();
    let mut excluded = StorageDelta::default();
    let before = st.mgr.stats();
    let t_loop = Instant::now();
    let mut ops = 0usize;
    while !opts
        .budget
        .done(t_loop, ops, ttfr.len() + ttfr_traced.len())
    {
        let traced = opts.trace && (ops / LIVE_SESSIONS).is_multiple_of(2);
        tr.set_on(traced);
        tr.next_op();
        let slot = ops % LIVE_SESSIONS;
        let oracle = (!d.live[slot].tokens.is_empty() && restores.is_multiple_of(ORACLE_EVERY))
            .then_some(&mut excluded);
        report.attempted += 1;
        match step(
            &st,
            &mut d,
            slot,
            &par,
            &mut tr,
            oracle,
            &mut report,
            &mut generated,
        ) {
            Ok(out) => {
                rows_saved += out.rows_saved;
                if let Some(ms) = out.ttfr_ms {
                    restores += 1;
                    if traced {
                        ttfr_traced.push(ms);
                        groups.push(RestoreGroup {
                            restores: vec![RestoreShape {
                                n_tokens: out.restored,
                                methods: out.methods.clone(),
                            }],
                            wall_ms: ms,
                        });
                    } else {
                        ttfr.push(ms);
                        restored += out.restored as u64;
                        restore_ms += ms;
                    }
                }
                if !traced {
                    ttft.push(out.ttft_ms);
                    rounds.push(out.round_ms);
                }
            }
            Err(e) => {
                report.failed += 1;
                report.check(false, || format!("chat: {e}"));
            }
        }
        ops += 1;
    }
    tr.set_on(false);
    let loop_s = t_loop.elapsed().as_secs_f64();
    let delta = StorageDelta::between(&before, &st.mgr.stats()).minus(&excluded);
    let context: u64 = d.live.iter().map(|l| l.tokens.len() as u64).sum();
    let resident = st.mgr.total_resident_bytes();
    let bytes_per_token = resident as f64 / context.max(1) as f64;

    match d
        .gate_log
        .take()
        .or_else(|| d.live.iter_mut().find_map(|l| l.log.take()))
    {
        Some(log) => gate_against_system(&log, &mut report),
        None => report.check(false, || "chat: gate session was never played".into()),
    }

    let metrics = st.ctl.metrics();
    if opts.trace {
        let n_probe = median(
            &groups
                .iter()
                .map(|g: &RestoreGroup| g.restores[0].n_tokens as f64)
                .collect::<Vec<_>>(),
        )
        .max(64.0) as usize;
        let probe_tokens = draw_tokens(&mut Rng::new(opts.seed ^ 0x7072_6f62), n_probe, 256);
        let profile = profile_restore(&st.model, &st.mgr, &probe_tokens, PROBE_SESSION, &par)
            .map_err(|e| format!("profile: {e}"))?;
        put_per_layer(
            &mut report,
            LayerInputs {
                tracer: &tr,
                profile: &profile,
                save: None,
                groups: &groups,
                ttfr_traced: &ttfr_traced,
                ttfr_untraced: &ttfr,
                io_scale: 1.0,
                storage: delta.clone(),
                row_bytes_saved: rows_saved * st.model.cfg.hidden_bytes_per_token_layer() as u64,
                restored_tokens: restored
                    + groups
                        .iter()
                        .map(|g| g.restores[0].n_tokens as u64)
                        .sum::<u64>(),
                ops: ops as u64,
                restores,
                front_hit_ratio: 0.0,
                device_busy: Vec::new(),
                reactor: None,
                io_errors: io_errors(&st.mgr),
                hit_ratio: metrics.hit_ratio().unwrap_or(0.0),
                demotions: metrics.demotions,
                recompute_layers_per_restore: 0.0,
            },
        );
        let path = opts.run_dir.join(format!("trace-chat-{}.jsonl", opts.seed));
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
            bytes_per_token,
            &setup_s,
        );
    }
    report.put("loop_s", loop_s, "s", ops);
    report.counts.insert("rounds", ops as u64);
    report
        .counts
        .insert("generated_tokens", generated.len() as u64);
    report.counts.insert("generated_hash", fnv(&generated));
    report.counts.insert("resident_bytes", resident);
    report.counts.insert("context_tokens", context);
    report.counts.insert("chunk_reads", delta.chunk_reads);
    report.counts.insert("chunk_writes", delta.chunk_writes);
    report.counts.insert("bytes_written", delta.bytes_written);
    report.counts.insert("row_bytes_saved", rows_saved);
    report.counts.insert("restore_hits", metrics.restore_hits);
    report
        .counts
        .insert("restore_fallbacks", metrics.restore_fallbacks);
    Ok(report)
}

/// FNV-1a over a token sequence: an exact fingerprint of what was generated.
pub fn fnv(tokens: &[u32]) -> u64 {
    tokens.iter().fold(0xcbf2_9ce4_8422_2325, |h, &t| {
        (h ^ t as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}
