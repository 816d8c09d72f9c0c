//! The traced run: per-layer attribution, read from outside the
//! program.
//!
//! It switches `bbncg_obs` on, reads the program's existing counters
//! (`counter_value`) and spans (a `MemoryTraceSink`), and times the
//! scenario sink through a wrapper and phase boundaries through
//! `on_phase_end`. Best-response and kernel time come from a replay:
//! every dynamics phase is re-run from its start state (the previous
//! phase's `Checkpoint.state`) through `exact_best_response_with` /
//! `best_swap_response_with`, one timed call per activation, with
//! `DeviationScratch::begin` timed on a twin engine. The replay must
//! land on the program's own per-phase `state_hash`, or the run fails.
//! Nothing is added inside the program; end-to-end metrics never come
//! from this run.

use crate::batch::{self, DigestSink};
use crate::gen::{self, BatchInput};
use crate::out::{Outcome, PER_LAYER};
use crate::serve::{self, Done, Kind, Point};
use crate::stats;
use bbncg_core::{
    best_swap_response_with, exact_best_response_with, DeviationScratch, DynamicsConfig,
    PlayerOrder, Realization, ResponseRule,
};
use bbncg_graph::NodeId;
use bbncg_obs::{Counter, MemoryTraceSink, TraceRecord};
use bbncg_scenario::{
    run_scenario, run_sweep, state_hash, Checkpoint, MetricRecord, MetricSink, PhaseSpec,
    ScenarioSpec,
};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Times every `record` call of the sink it wraps. The total is shared
/// so a phase hook can read it while the run holds the sink.
struct TimingSink<S> {
    inner: S,
    busy_ns: Arc<AtomicU64>,
}

impl<S> TimingSink<S> {
    fn new(inner: S) -> Self {
        TimingSink {
            inner,
            busy_ns: Arc::new(AtomicU64::new(0)),
        }
    }

    fn busy_s(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9
    }
}

impl<S: MetricSink> MetricSink for TimingSink<S> {
    fn record(&mut self, rec: &MetricRecord) {
        let t0 = Instant::now();
        self.inner.record(rec);
        self.busy_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }

    fn flush(&mut self) {
        self.inner.flush();
    }
}

/// Program-side counters, summed over kernel tiers.
#[derive(Clone, Copy, Default)]
struct Counters {
    priced: u64,
    pruned: u64,
    base_bfs: u64,
    evals: u64,
    commits: u64,
    discards: u64,
}

impl Counters {
    fn now() -> Counters {
        let c = bbncg_obs::counter_value;
        Counters {
            priced: c(Counter::KernelPricedQueue)
                + c(Counter::KernelPricedBitset)
                + c(Counter::KernelPricedSparse),
            pruned: c(Counter::KernelPruneSkipQueue)
                + c(Counter::KernelPruneSkipBitset)
                + c(Counter::KernelPruneSkipSparse),
            base_bfs: c(Counter::KernelBaseBfs),
            evals: c(Counter::RoundsEvals),
            commits: c(Counter::RoundsCommits),
            discards: c(Counter::RoundsDiscards),
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            priced: self.priced - before.priced,
            pruned: self.pruned - before.pruned,
            base_bfs: self.base_bfs - before.base_bfs,
            evals: self.evals - before.evals,
            commits: self.commits - before.commits,
            discards: self.discards - before.discards,
        }
    }
}

/// A dynamics phase to replay: where it started and where the program
/// says it ended.
struct PhaseCase {
    spec: Arc<ScenarioSpec>,
    phase: usize,
    start: Realization,
    end_hash: u64,
}

/// What the replay measured.
#[derive(Default)]
struct Replay {
    activation_us: Vec<f64>,
    begin_us: Vec<f64>,
    busy_s: f64,
    priced: u64,
    mismatches: Vec<String>,
}

fn phase_config(spec: &ScenarioSpec, phase: &PhaseSpec) -> DynamicsConfig {
    let d = spec.defaults;
    match phase {
        PhaseSpec::Dynamics {
            rounds,
            model,
            rule,
            order,
        } => DynamicsConfig {
            model: model.unwrap_or(d.model),
            rule: rule.unwrap_or(d.rule),
            order: order.unwrap_or(d.order),
            max_rounds: rounds.unwrap_or(d.max_rounds),
            executor: d.executor,
        },
        _ => d,
    }
}

/// Replay one dynamics phase activation by activation (round-robin
/// only: the benchmark's specs never shuffle), one engine for the
/// phase plus a twin for timing `begin` alone.
fn replay_phase(case: &PhaseCase, out: &mut Replay) {
    let cfg = phase_config(&case.spec, &case.spec.phases[case.phase]);
    assert_eq!(
        cfg.order,
        PlayerOrder::RoundRobin,
        "replay needs round-robin order"
    );
    let mut state = case.start.clone();
    let mut engine = DeviationScratch::with_kernel(&state, case.spec.kernel);
    let mut twin = DeviationScratch::with_kernel(&state, case.spec.kernel);
    let mut seen = HashSet::from([state_hash(&state)]);
    let before = Counters::now();
    for _round in 0..cfg.max_rounds {
        let mut moved = 0;
        for i in 0..state.n() {
            let u = NodeId::new(i);
            if state.graph().out_degree(u) == 0 {
                continue;
            }
            let t0 = Instant::now();
            twin.begin(&state, u, cfg.model);
            out.begin_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let t0 = Instant::now();
            let best = match cfg.rule {
                ResponseRule::ExactBest => {
                    Some(exact_best_response_with(&mut engine, &state, u, cfg.model))
                }
                ResponseRule::BestSwap => {
                    best_swap_response_with(&mut engine, &state, u, cfg.model)
                }
                other => panic!("replay does not cover rule {other:?}"),
            };
            let improved = best.filter(|b| b.cost < engine.cost_of(state.strategy(u)));
            let dt = t0.elapsed().as_secs_f64();
            out.busy_s += dt;
            out.activation_us.push(dt * 1e6);
            if let Some(b) = improved {
                state.set_strategy(u, b.targets);
                moved += 1;
            }
        }
        if moved == 0 || !seen.insert(state_hash(&state)) {
            break;
        }
    }
    // The twin's sessions are priced nowhere but its `begin`, whose
    // base BFS is not a candidate: the priced delta is the engine's.
    out.priced += Counters::now().since(before).priced;
    let got = state_hash(&state);
    if got != case.end_hash {
        out.mismatches.push(format!(
            "{} phase {}: replay {got:016x} != program {:016x}",
            case.spec.name, case.phase, case.end_hash
        ));
    }
}

/// Run one seed with `on_phase_end` hooked: its dynamics phases (start
/// state + end hash) and its phases' durations by kind (dynamics,
/// event), net of sink time.
fn traced_seed(
    spec: &Arc<ScenarioSpec>,
    seed: u64,
    sink: &mut TimingSink<DigestSink>,
    cases: &mut Vec<PhaseCase>,
    phase_ms: &mut [f64; 2],
) -> Result<(), String> {
    let initial = run_scenario(
        spec,
        seed,
        None,
        &mut bbncg_scenario::NullSink,
        Some(0),
        |_| (),
    )?;
    let mut prev_state = initial.state;
    let busy = Arc::clone(&sink.busy_ns);
    let mut sink_before = busy.load(Ordering::Relaxed);
    let mut boundary = Instant::now();
    let mut on_phase_end = |ck: &Checkpoint| {
        let now = Instant::now();
        let phase = ck.next_phase - 1;
        let dynamics = matches!(spec.phases[phase], PhaseSpec::Dynamics { .. });
        let sink_now = busy.load(Ordering::Relaxed);
        let sink_s = (sink_now - sink_before) as f64 / 1e9;
        sink_before = sink_now;
        phase_ms[usize::from(!dynamics)] += ((now - boundary).as_secs_f64() - sink_s) * 1e3;
        if dynamics {
            cases.push(PhaseCase {
                spec: Arc::clone(spec),
                phase,
                start: prev_state.clone(),
                end_hash: state_hash(&ck.state),
            });
        }
        prev_state = ck.state.clone();
        boundary = Instant::now();
    };
    run_scenario(spec, seed, None, sink, None, &mut on_phase_end)?;
    Ok(())
}

/// Span totals: `phase` spans split dynamics/event, `sweep-seed` spans.
fn span_times(records: &[TraceRecord]) -> ([f64; 2], Vec<f64>, usize) {
    let mut phase_ms = [0.0; 2];
    let mut seed_ms = Vec::new();
    let mut phases = 0;
    for r in records {
        let kind = r
            .fields
            .iter()
            .find(|(k, _)| *k == "kind")
            .map(|(_, v)| v.as_str());
        match r.span {
            "phase" => {
                phases += 1;
                phase_ms[usize::from(kind != Some("dynamics"))] += r.dur_us as f64 / 1e3;
            }
            "sweep-seed" => seed_ms.push(r.dur_us as f64 / 1e3),
            _ => {}
        }
    }
    (phase_ms, seed_ms, phases)
}

/// Whole cycles over `specs` for at least `secs` seconds; returns the
/// mean cycle time and whether every stream matched.
fn cycles(workload: &str, inputs: &[BatchInput], specs: &[ScenarioSpec], secs: f64) -> (f64, bool) {
    let expected = batch::expected(workload);
    let t0 = Instant::now();
    let (mut n, mut ok) = (0usize, true);
    while n == 0 || t0.elapsed().as_secs_f64() < secs {
        for (input, spec) in inputs.iter().zip(specs) {
            let res = batch::run_op(workload, spec);
            ok &= matches!(&res, Ok(s) if expected.get(&input.key) == Some(&s.digest.hex()));
        }
        n += 1;
    }
    (t0.elapsed().as_secs_f64() / n as f64, ok)
}

/// Per-layer metrics of scenario runs in this process: the traced
/// program pass over `specs` (every seed of each), then the replay.
struct CoreLayers {
    dynamics_ms: f64,
    event_ms: f64,
    sink_ms: f64,
    phases: usize,
    counters: Counters,
    activations: u64,
    seed_ms: Vec<f64>,
    sweep_wall_s: f64,
    replay: Replay,
    failed: bool,
}

fn core_layers(
    workload: &str,
    inputs: &[BatchInput],
    specs: &[ScenarioSpec],
    expected: &HashMap<String, String>,
) -> CoreLayers {
    let spans = Arc::new(Mutex::new(Vec::new()));
    bbncg_obs::enable();
    bbncg_obs::install_tracer(Box::new(MemoryTraceSink {
        records: Arc::clone(&spans),
    }));
    let before = Counters::now();
    let mut sink = TimingSink::new(DigestSink::default());
    let mut activations = 0;
    let mut cases = Vec::new();
    let mut phase_ms = [0.0; 2];
    let mut failed = false;
    let mut sweep_wall_s = 0.0;
    let sweeps = workload == "swap-sweep";
    for (input, spec) in inputs.iter().zip(specs) {
        let spec = Arc::new(spec.clone());
        sink.inner = DigestSink::default();
        if sweeps {
            let t0 = Instant::now();
            failed |= run_sweep(&spec, &mut sink).iter().any(Result::is_err);
            sweep_wall_s += t0.elapsed().as_secs_f64();
        } else {
            failed |= traced_seed(&spec, spec.seed, &mut sink, &mut cases, &mut phase_ms).is_err();
        }
        failed |= expected.get(&input.key) != Some(&sink.inner.digest.hex());
        activations += sink.inner.activations;
    }
    let counters = Counters::now().since(before);
    bbncg_obs::flush_tracer();
    let records = std::mem::take(&mut *spans.lock().expect("trace sink poisoned"));
    let (span_phase_ms, seed_ms, span_phases) = span_times(&records);
    if sweeps {
        // run_sweep exposes no phase hook: phase time comes from the
        // program's own `phase` spans, and replay cases from per-seed
        // runs of the same specs (outside the timed pass).
        phase_ms = span_phase_ms;
        let mut scratch_sink = TimingSink::new(DigestSink::default());
        for spec in specs {
            let spec = Arc::new(spec.clone());
            for i in 0..spec.seeds {
                let mut ignored = [0.0; 2];
                failed |= traced_seed(
                    &spec,
                    spec.seed + i as u64,
                    &mut scratch_sink,
                    &mut cases,
                    &mut ignored,
                )
                .is_err();
            }
        }
    }
    let mut replay = Replay::default();
    for case in &cases {
        replay_phase(case, &mut replay);
    }
    failed |= !replay.mismatches.is_empty();
    CoreLayers {
        dynamics_ms: phase_ms[0],
        event_ms: phase_ms[1],
        sink_ms: sink.busy_s() * 1e3,
        phases: span_phases,
        counters,
        activations,
        seed_ms,
        sweep_wall_s,
        replay,
        failed,
    }
}

fn set_core(out: &mut Outcome, c: &CoreLayers) {
    let r = &c.replay;
    let busy_ms = r.busy_s * 1e3;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    out.set("scenario.dynamics_ms", c.dynamics_ms);
    out.set("scenario.event_ms", c.event_ms);
    out.set("scenario.sink_ms", c.sink_ms);
    out.set("scenario.phases", c.phases as f64);
    out.set("round.evals", c.counters.evals as f64);
    out.set("round.commits", c.counters.commits as f64);
    out.set("round.discards", c.counters.discards as f64);
    out.set(
        "round.commit_rate",
        ratio(c.counters.commits as f64, c.counters.evals as f64),
    );
    out.set("round.overhead_ms", c.dynamics_ms - busy_ms);
    out.set("br.activations", c.activations as f64);
    out.set("br.busy_ms", busy_ms);
    out.set(
        "br.activation_us_p50",
        stats::median(&r.activation_us).unwrap_or(0.0),
    );
    out.set(
        "br.activation_us_p90",
        stats::p90(&r.activation_us).unwrap_or(0.0),
    );
    out.set(
        "kernel.begin_us_p50",
        stats::median(&r.begin_us).unwrap_or(0.0),
    );
    out.set("kernel.priced", c.counters.priced as f64);
    out.set("kernel.pruned", c.counters.pruned as f64);
    out.set(
        "kernel.prune_hit_rate",
        ratio(
            c.counters.pruned as f64,
            (c.counters.priced + c.counters.pruned) as f64,
        ),
    );
    out.set(
        "kernel.priced_per_activation",
        ratio(c.counters.priced as f64, c.activations as f64),
    );
    out.set("kernel.price_ns", ratio(r.busy_s * 1e9, r.priced as f64));
    out.set("kernel.base_bfs", c.counters.base_bfs as f64);
    out.set(
        "sweep.seed_ms_p50",
        stats::median(&c.seed_ms).unwrap_or(0.0),
    );
    out.set(
        "sweep.seed_ms_max",
        c.seed_ms.iter().copied().fold(0.0, f64::max),
    );
    let workers = bbncg_par::max_threads() as f64;
    out.set(
        "sweep.utilization",
        ratio(
            c.seed_ms.iter().sum::<f64>() / 1e3,
            workers * c.sweep_wall_s,
        ),
    );
    for m in &r.mismatches {
        out.note("replay_mismatch", m);
    }
}

/// Every per-layer metric this run did not measure reads 0: the
/// workload does not exercise that layer.
fn zero_rest(out: &mut Outcome) {
    for &(name, _) in PER_LAYER {
        if !out.metrics.iter().any(|(n, _)| *n == name) {
            out.set(name, 0.0);
        }
    }
}

pub fn run_batch(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = gen::batch_inputs(workload, seed);
    let specs = batch::parse_all(&inputs);
    // Untraced cycles first: observability is one-way for the process.
    let (plain_s, plain_ok) = cycles(workload, &inputs, &specs, seconds as f64 / 3.0);
    let t0 = Instant::now();
    let core = core_layers(workload, &inputs, &specs, &batch::expected(workload));
    let traced_first = t0.elapsed().as_secs_f64();
    let (traced_s, traced_ok) = cycles(workload, &inputs, &specs, seconds as f64 / 3.0);
    set_core(&mut out, &core);
    out.set("trace.overhead_share", traced_s / plain_s - 1.0);
    out.note("traced_pass_s", format!("{traced_first:.3}"));
    out.note("replayed_phases", core.replay.activation_us.len());
    out.attempted = 3;
    out.failed = [plain_ok, !core.failed, traced_ok]
        .iter()
        .filter(|ok| !**ok)
        .count() as u64;
    out.correct = out.failed == 0;
    zero_rest(&mut out);
    out
}

/// Sum of a Prometheus counter family's samples.
fn prom_counter(page: &str, family: &str) -> f64 {
    page.lines()
        .filter(|l| l.starts_with(family) && !l.starts_with('#'))
        .filter(|l| l[family.len()..].starts_with([' ', '{']))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum()
}

/// p90 upper bound of an endpoint's request-duration histogram.
fn prom_p90(page: &str, endpoint: &str) -> f64 {
    let prefix = format!("bbncg_http_request_duration_us_bucket{{endpoint=\"{endpoint}\",le=\"");
    let buckets: Vec<(f64, f64)> = page
        .lines()
        .filter_map(|l| l.strip_prefix(&prefix))
        .filter_map(|rest| {
            let (le, count) = rest.split_once("\"} ")?;
            let le = if le == "+Inf" {
                f64::INFINITY
            } else {
                le.parse().ok()?
            };
            Some((le, count.trim().parse().ok()?))
        })
        .collect();
    let total = buckets.last().map_or(0.0, |b| b.1);
    buckets
        .iter()
        .find(|b| b.1 >= 0.9 * total && total > 0.0)
        .map_or(0.0, |b| if b.0.is_finite() { b.0 } else { 0.0 })
}

fn job_stat(done: &[&Done], kind: Kind, f: impl Fn(&Done) -> Option<f64>) -> Vec<f64> {
    done.iter()
        .filter(|d| d.kind == kind)
        .filter_map(|d| f(d))
        .collect()
}

pub fn run_serve(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    // The same requests against a plain server, then an `--obs` one.
    let plain = serve::session(seed, seconds / 2, false, false, false);
    let traced = serve::session(seed, seconds / 2, true, false, true);
    let ((_, plain), (plan, s)) = match (plain, traced) {
        (Ok(p), Ok(t)) => (p, t),
        (Err(e), _) | (_, Err(e)) => {
            out.note("error", e);
            return out;
        }
    };
    let mean_fresh = |points: &[&Point]| {
        let v: Vec<f64> = points
            .iter()
            .flat_map(|p| &p.done)
            .filter(|d| d.kind == Kind::Fresh)
            .map(|d| d.service_ms)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    let plain_points: Vec<&Point> = plain.low.iter().chain(&plain.mid).collect();
    let plain_failed: usize = plain_points.iter().map(|p| p.failed()).sum();
    let plain_attempted: usize = plain_points.iter().map(|p| p.done.len()).sum();
    let plain_mean = mean_fresh(&plain_points);
    let plain_warm_failed = plain.warm_failed;
    plain.server.stop();

    let points: Vec<&Point> = s.low.iter().chain(&s.mid).collect();
    let done: Vec<&Done> = points.iter().flat_map(|p| &p.done).collect();
    let jobs: Vec<&Done> = done
        .iter()
        .copied()
        .filter(|d| matches!(d.kind, Kind::Fresh | Kind::Repeat | Kind::Verify))
        .collect();
    let receipts: Vec<f64> = jobs.iter().filter_map(|d| d.receipt_ms).collect();
    let queue_wait: Vec<f64> = job_stat(&done, Kind::Fresh, |d| d.queue_wait_ms);
    let run_ms: Vec<f64> = job_stat(&done, Kind::Fresh, |d| d.job_run_ms);
    let audit_ms: Vec<f64> = job_stat(&done, Kind::Verify, |d| d.job_run_ms);
    let streams: Vec<f64> = jobs.iter().filter_map(|d| d.stream_ms).collect();
    let lags: Vec<f64> = done.iter().map(|d| d.gen_lag_ms).collect();
    let window_s: f64 = points.iter().map(|p| p.seconds).sum();
    let busy_ms: f64 = run_ms.iter().chain(&audit_ms).sum();
    let workers = s
        .server
        .get("/healthz")
        .and_then(|h| crate::http::json_u64(&h, "workers"))
        .unwrap_or(1) as f64;
    let health = s.server.get("/healthz").unwrap_or_default();
    let page = s.server.get("/metrics").unwrap_or_default();
    let h = |k| crate::http::json_u64(&health, k).unwrap_or(0) as f64;
    let lookups = h("cache_hits") + h("cache_coalesced") + h("cache_misses");

    out.set(
        "serve.receipt_ms_p50",
        stats::median(&receipts).unwrap_or(0.0),
    );
    out.set("serve.receipt_ms_p90", stats::p90(&receipts).unwrap_or(0.0));
    out.set(
        "serve.queue_wait_ms_p50",
        stats::median(&queue_wait).unwrap_or(0.0),
    );
    out.set(
        "serve.queue_wait_ms_p90",
        stats::p90(&queue_wait).unwrap_or(0.0),
    );
    out.set("serve.run_ms_p50", stats::median(&run_ms).unwrap_or(0.0));
    out.set(
        "serve.stream_ms_p50",
        stats::median(&streams).unwrap_or(0.0),
    );
    out.set(
        "serve.cache_hit_share",
        if lookups > 0.0 {
            (h("cache_hits") + h("cache_coalesced")) / lookups
        } else {
            0.0
        },
    );
    out.set("serve.cache_coalesced", h("cache_coalesced"));
    out.set(
        "serve.rejected_429",
        done.iter().filter(|d| d.status_429).count() as f64,
    );
    let requests = prom_counter(&page, "bbncg_http_requests_total");
    out.set(
        "serve.keepalive_reuse_share",
        if requests > 0.0 {
            prom_counter(&page, "bbncg_http_keepalive_reuses_total") / requests
        } else {
            0.0
        },
    );
    out.set(
        "serve.worker_busy_share",
        busy_ms / 1e3 / (workers * window_s),
    );
    out.set("serve.http_submit_us_p90", prom_p90(&page, "submit"));
    out.set("serve.http_stream_us_p90", prom_p90(&page, "stream"));
    out.set(
        "verify.audit_ms_p50",
        stats::median(&audit_ms).unwrap_or(0.0),
    );
    out.set("loadgen.lag_ms_p90", stats::p90(&lags).unwrap_or(0.0));
    out.set(
        "trace.overhead_share",
        mean_fresh(&points) / plain_mean - 1.0,
    );
    let failed: usize = points.iter().map(|p| p.failed()).sum::<usize>() + plain_failed;
    out.note("healthz", &health);
    s.server.stop();

    // The scenario and core layers of the served job mix, attributed
    // in-process on the first fresh specs the server ran.
    let sample: Vec<BatchInput> = plan
        .fresh
        .iter()
        .take(96)
        .enumerate()
        .map(|(i, f)| BatchInput {
            key: format!("serve-mixed/{i}"),
            text: f.text.clone(),
        })
        .collect();
    let specs = batch::parse_all(&sample);
    let expected = sample
        .iter()
        .zip(&plan.fresh)
        .map(|(i, f)| (i.key.clone(), f.digest.hex()))
        .collect();
    let core = core_layers("serve-mixed", &sample, &specs, &expected);
    set_core(&mut out, &core);
    out.attempted = (done.len() + plain_attempted) as u64 + 1;
    out.failed = failed as u64 + u64::from(core.failed);
    out.correct = out.failed == 0 && s.warm_failed == 0 && plain_warm_failed == 0;
    zero_rest(&mut out);
    out
}
