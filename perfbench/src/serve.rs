//! `serve-mixed`: a `bbncg serve` child process at defaults, driven by
//! one open-loop generator process.
//!
//! The generator uses at most `nproc` threads, one keep-alive
//! connection each. Requests follow a seeded, evenly spaced schedule;
//! a request's latency runs from its due time (not its send time) to
//! the last byte of its answer, so a server that falls behind pays for
//! the requests it delayed. The generator's own lag — a free thread
//! starting a due request late — is measured separately, and a rate
//! point where it exceeds [`GEN_LAG_LIMIT_MS`] is marked invalid.
//! In fixed-rate blocks, generator threads wait for due times and
//! answers by polling, never by sleeping, so the CPUs stay busy (see
//! [`crate::http::Polled`]).

use crate::http::{json_u64, Conn};
use crate::out::Outcome;
use crate::stats::{self, Digest};
use bbncg_core::{audit_equilibrium, parse_realization, CostModel};
use bbncg_scenario::{parse_spec, run_scenario, MemorySink, MetricRecord, ScenarioSpec};
use std::io::{BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// First argument that turns the harness binary into the server child.
pub const CHILD_MODE: &str = "serve-child";

/// The low and mid rate points (requests/s), fixed absolute rates at
/// about ¼ and ½ of the capacity measured on a 2-CPU host.
pub const LOW_RPS: f64 = 200.0;
pub const MID_RPS: f64 = 400.0;

/// The `max_ok_rate_rps` ladder, climbed until a step fails. Steps are
/// about 1.4× apart, so a server that loses even the top step reads
/// 29% lower, past the metric's 0.25 bound. The top step sits well
/// below capacity (see the README), so the metric flags a server that
/// can no longer sustain 800 requests/s; a smaller loss or a gain does
/// not show in it.
pub const LADDER_RPS: [f64; 4] = [290.0, 410.0, 570.0, 800.0];

/// A ladder step passes when its p90 latency stays under this limit…
pub const P90_LIMIT_MS: f64 = 20.0;

/// …and the lateness of its last quarter of requests exceeds that of
/// its first quarter by no more than this (no growing backlog).
pub const BACKLOG_GROWTH_MS: f64 = 10.0;

/// A rate point is invalid when the generator's own p90 lag exceeds
/// this: then the generator, not the server, fell behind.
pub const GEN_LAG_LIMIT_MS: f64 = 2.0;

/// Shares of the request mix, per block of 20 requests. No record of
/// real traffic exists to take them from, so they are an assumption:
/// scenario jobs, the server's main work, are the largest share (9);
/// one resubmission per three fresh jobs (3) gives the default result
/// cache hits and coalescing to serve; equilibrium audits, the other
/// job type, come next (4); job-status and health polls, the cheap
/// reads a client or monitor makes, share the rest (2 + 2).
const MIX: [(Kind, usize); 5] = [
    (Kind::Fresh, 9),
    (Kind::Repeat, 3),
    (Kind::Verify, 4),
    (Kind::PollJob, 2),
    (Kind::Health, 2),
];

/// Set-ups per run (each spawns a server); `setup_s` is their median.
const SETUPS: usize = 5;

/// Requests of the closed-loop warm-up inside each set-up.
const WARMUP: usize = 500;

/// Repeats resubmit one of the last this-many fresh jobs, well inside
/// the server's default result cache of 128 entries.
const REPEAT_WINDOW: usize = 32;

/// Distinct fresh specs (and, separately, audit profiles) a run cycles
/// through. A fresh spec comes back only after this many other fresh
/// submissions, long after the default 128-entry result cache has
/// dropped it, so the server computes it anew; the offline references
/// are built once per pool entry instead of once per request.
pub const INPUT_POOL: usize = 1024;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Fresh,
    Repeat,
    Verify,
    PollJob,
    Health,
}

/// One scheduled request; `input` indexes the fresh or verify inputs.
#[derive(Clone, Copy, Debug)]
pub struct Req {
    pub kind: Kind,
    pub input: usize,
}

pub struct FreshJob {
    pub text: String,
    pub digest: Digest,
    pub activations: u64,
}

pub struct VerifyJob {
    pub profile: String,
    pub model: CostModel,
    pub expected: String,
}

/// A run's whole request sequence plus offline references for every
/// answer it expects.
pub struct Plan {
    pub reqs: Vec<Req>,
    /// Fresh jobs only, for the closed-loop throughput blocks.
    pub sat: Vec<Req>,
    pub fresh: Vec<FreshJob>,
    pub verify: Vec<VerifyJob>,
}

/// A fresh small scenario job (n ≤ 32), unique per `(seed, idx)`. The
/// shapes cycle through a fixed list, so every run serves the same mix
/// of job sizes; only the start graphs differ.
pub fn fresh_spec(seed: u64, idx: usize) -> String {
    let mut rng = crate::gen::SplitMix::new(seed.wrapping_mul(0x1000_0000) ^ idx as u64);
    let model = ["sum", "max"][idx % 2];
    let (rule, b, n) = [("exact", 1, 24), ("exact", 2, 16), ("swap", 2, 24)][(idx / 2) % 3];
    format!(
        "[scenario]\nname = \"serve-mixed-{idx}\"\nseed = {}\n\n\
         [init]\nfamily = \"uniform\"\nn = {n}\nbudget = {b}\n\n\
         [dynamics]\nmodel = \"{model}\"\nrule = \"{rule}\"\norder = \"round-robin\"\nmax_rounds = 200\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n\
         [[phase]]\nkind = \"arrive\"\ncount = 2\nbudget = {b}\n\n\
         [[phase]]\nkind = \"dynamics\"\n",
        rng.next_u64() >> 16,
    )
}

/// A random profile (n = 24, budgets 1–2) for a `?type=verify` audit.
pub fn verify_profile(seed: u64, idx: usize) -> (String, CostModel) {
    let mut rng = crate::gen::SplitMix::new(seed.wrapping_mul(0x2000_0000) ^ idx as u64);
    let n = 24;
    let mut text = format!("bbncg v1\nn {n}\nbudgets");
    let budgets: Vec<usize> = (0..n).map(|_| 1 + rng.below(2) as usize).collect();
    for b in &budgets {
        text.push_str(&format!(" {b}"));
    }
    text.push_str("\narcs\n");
    for (u, &b) in budgets.iter().enumerate() {
        let mut targets: Vec<usize> = Vec::new();
        while targets.len() < b {
            let v = rng.below(n as u64) as usize;
            if v != u && !targets.contains(&v) {
                targets.push(v);
            }
        }
        targets.sort_unstable();
        for v in targets {
            text.push_str(&format!("{u} {v}\n"));
        }
    }
    let model = [CostModel::Sum, CostModel::Max][idx % 2];
    (text, model)
}

fn model_param(m: CostModel) -> &'static str {
    match m {
        CostModel::Sum => "sum",
        CostModel::Max => "max",
    }
}

/// The request sequence for `count` requests: the mix in exact shares,
/// shuffled per block; fresh jobs and audits cycle through
/// [`INPUT_POOL`] inputs each.
pub fn plan_requests(seed: u64, count: usize) -> Vec<Req> {
    let mut rng = crate::gen::SplitMix::new(seed ^ 0x5e7e);
    let mut block: Vec<Kind> = MIX
        .iter()
        .flat_map(|&(k, c)| std::iter::repeat_n(k, c))
        .collect();
    let (mut fresh, mut verify) = (0usize, 0usize);
    let mut reqs = Vec::with_capacity(count);
    while reqs.len() < count {
        rng.shuffle(&mut block);
        for &kind in &block {
            let input = match kind {
                Kind::Fresh => {
                    fresh += 1;
                    (fresh - 1) % INPUT_POOL
                }
                // Nothing to repeat yet: the first repeats become fresh.
                Kind::Repeat if fresh == 0 => {
                    fresh += 1;
                    reqs.push(Req {
                        kind: Kind::Fresh,
                        input: 0,
                    });
                    continue;
                }
                Kind::Repeat => {
                    let back = rng.below(fresh.min(REPEAT_WINDOW) as u64) as usize;
                    (fresh - 1 - back) % INPUT_POOL
                }
                Kind::Verify => {
                    verify += 1;
                    (verify - 1) % INPUT_POOL
                }
                Kind::PollJob | Kind::Health => 0,
            };
            reqs.push(Req { kind, input });
        }
    }
    reqs.truncate(count);
    reqs
}

/// `count` mixed requests and `sat` further fresh jobs (cycling through
/// a pool of their own), with offline references: each fresh spec run
/// in-process, each profile audited in-process (harness work, done
/// before any timing).
pub fn build_plan(seed: u64, count: usize, sat: usize) -> Plan {
    let reqs = plan_requests(seed, count);
    let mixed_fresh = reqs
        .iter()
        .filter(|r| r.kind == Kind::Fresh)
        .map(|r| r.input + 1)
        .max()
        .unwrap_or(0);
    let sat_pool = sat.min(INPUT_POOL);
    let n_fresh = mixed_fresh + sat_pool;
    let sat = (0..sat)
        .map(|i| Req {
            kind: Kind::Fresh,
            input: mixed_fresh + i % sat_pool,
        })
        .collect();
    let n_verify = reqs
        .iter()
        .filter(|r| r.kind == Kind::Verify)
        .map(|r| r.input + 1)
        .max()
        .unwrap_or(0);
    let fresh = bbncg_par::par_map_index(n_fresh, |i| {
        let text = fresh_spec(seed, i);
        let spec = parse_spec(&text).expect("generated spec parses");
        let (digest, activations) = offline_stream(&spec);
        FreshJob {
            text,
            digest,
            activations,
        }
    });
    let verify = bbncg_par::par_map_index(n_verify, |i| {
        let (profile, model) = verify_profile(seed, i);
        let r = parse_realization(&profile).expect("generated profile parses");
        let audit = audit_equilibrium(&r, model);
        let expected = format!(
            "{{\"kind\":\"verify\",\"model\":\"{}\",\"n\":{},\"nash\":{},\"gap\":{},\"violators\":{},\"social_cost\":{}}}",
            model.label(),
            r.n(),
            audit.is_nash(),
            audit.gap(),
            audit.violations().len(),
            r.social_diameter(),
        );
        VerifyJob {
            profile,
            model,
            expected,
        }
    });
    Plan {
        reqs,
        sat,
        fresh,
        verify,
    }
}

/// Digest and activation count of a spec's offline record stream.
pub fn offline_stream(spec: &ScenarioSpec) -> (Digest, u64) {
    let mut sink = MemorySink::default();
    run_scenario(spec, spec.seed, None, &mut sink, None, |_| ()).expect("offline reference run");
    let lines: Vec<String> = sink.records.iter().map(MetricRecord::to_json).collect();
    let activations = sink
        .records
        .iter()
        .filter(|r| r.kind == "dynamics")
        .map(|r| (r.rounds * r.n) as u64)
        .sum();
    (
        Digest::of_lines(lines.iter().map(String::as_str)),
        activations,
    )
}

/// A running server child. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawn `bbncg serve` at defaults on a free port and wait for its
    /// `/healthz` to answer 200.
    pub fn spawn(obs: bool) -> Result<Server, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(exe);
        cmd.args([CHILD_MODE, "--addr", "127.0.0.1:0"]);
        if obs {
            cmd.arg("--obs");
        }
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn server: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let _ = stdout.read_line(&mut banner);
        let addr = banner
            .split_whitespace()
            .nth(3)
            .filter(|a| a.contains(':'))
            .map(str::to_string);
        let mut server = Server {
            child,
            _stdout: stdout,
            addr: addr.unwrap_or_default(),
        };
        if server.addr.is_empty() {
            return Err(format!("server did not announce its address: {banner:?}"));
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(r) = Conn::new(&server.addr).request("GET", "/healthz", b"") {
                if r.status == 200 {
                    return Ok(server);
                }
            }
            if Instant::now() > deadline {
                server.kill();
                return Err("server never answered /healthz".into());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn get(&self, target: &str) -> Option<String> {
        Conn::new(&self.addr)
            .request("GET", target, b"")
            .ok()
            .filter(|r| r.status == 200)
            .map(|r| r.text())
    }

    /// Drain via `POST /shutdown` and reap; kill if it lingers.
    pub fn stop(mut self) {
        let _ = Conn::new(&self.addr).request("POST", "/shutdown", b"");
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.kill();
        }
    }
}

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Done {
    pub kind: Kind,
    pub ok: bool,
    pub error: Option<String>,
    /// Due → last byte.
    pub latency_ms: f64,
    /// Send → last byte.
    pub service_ms: f64,
    /// Send start − due (queueing behind busy generator threads counts).
    pub late_ms: f64,
    /// Send start − max(due, moment a thread was free for it).
    pub gen_lag_ms: f64,
    /// POST → 202 receipt (job submissions).
    pub receipt_ms: Option<f64>,
    /// First → last stream byte (job submissions).
    pub stream_ms: Option<f64>,
    pub job: Option<u64>,
    pub activations: u64,
    pub status_429: bool,
    /// Server-reported queue wait and run time (`GET /jobs/{id}`),
    /// fetched after the request completes in traced runs only.
    pub queue_wait_ms: Option<f64>,
    pub job_run_ms: Option<f64>,
}

/// Shared by a point's generator threads.
struct Run<'a> {
    plan: &'a Plan,
    reqs: &'a [Req],
    start: Instant,
    /// Seconds between due times; `None` runs a closed loop.
    spacing: Option<f64>,
    next: AtomicUsize,
    last_job: &'a AtomicU64,
    /// Fetch each job's server-side timings once it completes.
    poll_status: bool,
}

/// One rate point's outcome.
pub struct Point {
    pub rate: Option<f64>,
    pub done: Vec<Done>,
    pub seconds: f64,
    /// CPU share the hypervisor withheld during the point.
    pub steal: f64,
}

impl Point {
    pub fn latencies(&self) -> Vec<f64> {
        self.done.iter().map(|d| d.latency_ms).collect()
    }

    pub fn gen_lag_p90(&self) -> f64 {
        let lags: Vec<f64> = self.done.iter().map(|d| d.gen_lag_ms).collect();
        stats::quantile(&lags, 0.9).unwrap_or(0.0)
    }

    pub fn valid(&self) -> bool {
        self.gen_lag_p90() <= GEN_LAG_LIMIT_MS
    }

    /// Lateness of the last quarter over the first: a backlog that grew.
    pub fn backlog_growth_ms(&self) -> f64 {
        let late: Vec<f64> = self.done.iter().map(|d| d.late_ms).collect();
        let q = late.len() / 4;
        if q == 0 {
            return 0.0;
        }
        let first = stats::median(&late[..q]).unwrap_or(0.0);
        let last = stats::median(&late[late.len() - q..]).unwrap_or(0.0);
        last - first
    }

    pub fn failed(&self) -> usize {
        self.done.iter().filter(|d| !d.ok).count()
    }

    /// Activations of the fresh jobs served correctly.
    pub fn fresh_activations(&self) -> u64 {
        self.done
            .iter()
            .filter(|d| d.ok && d.kind == Kind::Fresh)
            .map(|d| d.activations)
            .sum()
    }

    /// The ladder's pass rule.
    pub fn passes(&self) -> bool {
        self.valid()
            && self.failed() == 0
            && self.backlog_growth_ms() <= BACKLOG_GROWTH_MS
            && stats::quantile(&self.latencies(), 0.9).is_some_and(|p| p <= P90_LIMIT_MS)
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `reqs` at `rate` (or as a closed loop) over `conns`, one thread
/// per connection.
pub fn run_point(
    conns: &mut [Conn],
    plan: &Plan,
    reqs: &[Req],
    rate: Option<f64>,
    last_job: &AtomicU64,
    poll_status: bool,
) -> Point {
    let steal = stats::StealMeter::start();
    let run = Run {
        plan,
        reqs,
        start: Instant::now() + Duration::from_millis(5),
        spacing: rate.map(|r| 1.0 / r),
        next: AtomicUsize::new(0),
        last_job,
        poll_status,
    };
    let mut done: Vec<(usize, Done)> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .iter_mut()
            .map(|conn| {
                let run = &run;
                s.spawn(move || {
                    conn.set_polling(run.spacing.is_some());
                    let mut mine = Vec::new();
                    loop {
                        let i = run.next.fetch_add(1, Ordering::Relaxed);
                        if i >= run.reqs.len() {
                            return mine;
                        }
                        let free = Instant::now();
                        let due = match run.spacing {
                            Some(sp) => run.start + Duration::from_secs_f64(sp * i as f64),
                            None => free,
                        };
                        // Wait by polling, as the connections do.
                        while Instant::now() < due {
                            std::thread::yield_now();
                        }
                        mine.push((i, execute(conn, run, run.reqs[i], due, free)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("generator thread"))
            .collect()
    });
    let seconds = run.start.elapsed().as_secs_f64();
    done.sort_by_key(|(i, _)| *i);
    Point {
        rate,
        done: done.into_iter().map(|(_, d)| d).collect(),
        seconds,
        steal: steal.share(),
    }
}

fn execute(conn: &mut Conn, run: &Run, req: Req, due: Instant, free: Instant) -> Done {
    let send = Instant::now();
    let mut d = Done {
        kind: req.kind,
        ok: false,
        error: None,
        latency_ms: 0.0,
        service_ms: 0.0,
        late_ms: ms(send.saturating_duration_since(due)),
        gen_lag_ms: ms(send.saturating_duration_since(due.max(free))),
        receipt_ms: None,
        stream_ms: None,
        job: None,
        activations: 0,
        status_429: false,
        queue_wait_ms: None,
        job_run_ms: None,
    };
    let result = exchange(conn, run, req, send, &mut d);
    let end = Instant::now();
    d.latency_ms = ms(end.saturating_duration_since(due));
    d.service_ms = ms(end - send);
    match result {
        Ok(()) => d.ok = true,
        Err(e) => d.error = Some(e),
    }
    if let (true, Some(id), Kind::Fresh | Kind::Verify) = (run.poll_status && d.ok, d.job, d.kind) {
        if let Ok(r) = conn.request("GET", &format!("/jobs/{id}"), b"") {
            let doc = r.text();
            let us = |k| json_u64(&doc, k).map(|v| v as f64 / 1e3);
            d.queue_wait_ms = us("queue_wait_us");
            d.job_run_ms = us("run_us");
        }
    }
    d
}

fn exchange(
    conn: &mut Conn,
    run: &Run,
    req: Req,
    send: Instant,
    d: &mut Done,
) -> Result<(), String> {
    let plan = run.plan;
    let (target, body, want_digest, want_line) = match req.kind {
        Kind::Fresh | Kind::Repeat => {
            let job = &plan.fresh[req.input];
            d.activations = job.activations;
            (
                "/jobs".to_string(),
                job.text.as_bytes(),
                Some(job.digest),
                None,
            )
        }
        Kind::Verify => {
            let job = &plan.verify[req.input];
            (
                format!("/jobs?type=verify&model={}", model_param(job.model)),
                job.profile.as_bytes(),
                None,
                Some(&job.expected),
            )
        }
        Kind::PollJob => {
            let id = run.last_job.load(Ordering::Relaxed);
            let (target, want) = if id == 0 {
                ("/healthz".to_string(), "\"status\":\"ok\"".to_string())
            } else {
                (format!("/jobs/{id}"), format!("\"job\":{id},"))
            };
            let r = conn.request("GET", &target, b"")?;
            return (r.status == 200 && r.text().contains(&want))
                .then_some(())
                .ok_or_else(|| format!("GET {target}: {} {}", r.status, r.text()));
        }
        Kind::Health => {
            let r = conn.request("GET", "/healthz", b"")?;
            return (r.status == 200 && r.text().contains("\"status\":\"ok\""))
                .then_some(())
                .ok_or_else(|| format!("healthz: {} {}", r.status, r.text()));
        }
    };
    let receipt = conn.request("POST", &target, body)?;
    d.receipt_ms = Some(ms(receipt.done - send));
    if receipt.status != 202 {
        d.status_429 = receipt.status == 429;
        return Err(format!(
            "POST {target}: {} {}",
            receipt.status,
            receipt.text()
        ));
    }
    let id = json_u64(&receipt.text(), "job").ok_or("receipt without a job id")?;
    d.job = Some(id);
    let stream = conn.request("GET", &format!("/jobs/{id}/stream"), b"")?;
    if let Some(first) = stream.first_byte {
        d.stream_ms = Some(ms(stream.done - first));
    }
    if stream.status != 200 {
        return Err(format!("stream {id}: status {}", stream.status));
    }
    let text = stream.text();
    let matches = match (want_digest, want_line) {
        (Some(want), _) => stream_matches(&text, want),
        (_, Some(line)) => text == format!("{line}\n"),
        _ => false,
    };
    if !matches {
        return Err(format!(
            "job {id}: stream differs from the offline reference"
        ));
    }
    run.last_job.fetch_max(id, Ordering::Relaxed);
    Ok(())
}

/// Does a served JSONL body (every line newline-terminated) hash to the
/// offline reference digest?
pub fn stream_matches(body: &str, want: Digest) -> bool {
    body.ends_with('\n') && Digest::of_lines(body.lines()) == want
}

/// Generator threads (and connections): one per CPU.
pub fn generator_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |p| p.get())
}

/// Rounds of interleaved low and mid blocks. Every latency metric
/// pools the samples of the rounds the hypervisor left undisturbed.
/// Short rounds let that choice skip brief bursts of steal.
pub const ROUNDS: usize = 20;

/// Rounds a disturbed window may stretch to.
pub const MAX_ROUNDS: usize = 2 * ROUNDS;

/// Fewest rounds the latency metrics pool: the undisturbed ones when
/// there are this many (holding a p90's worth of fresh jobs), else the
/// least disturbed, as many as make up both numbers.
pub const MIN_ROUNDS_USED: usize = 5;

/// Requests of each closed-loop block of fresh jobs, one after every
/// [`SAT_EVERY`] rounds when capacity is measured;
/// `activations_per_s` comes from them.
pub const SAT_BLOCK: usize = 300;
pub const SAT_EVERY: usize = 2;

/// Sub-blocks per ladder step; a step passes when most of them do.
pub const STEP_BLOCKS: usize = 3;

/// Requests per block for a `seconds`-long window: 30% of it at low,
/// 30% at mid, 40% across the ladder. A ladder sub-block,
/// which has a p90 of its own, never has fewer requests than a p90
/// needs; low and mid blocks are pooled over rounds.
pub struct Layout {
    pub low: usize,
    pub mid: usize,
    /// Per ladder step, requests in each of its sub-blocks.
    pub step: Vec<usize>,
}

pub fn layout(seconds: u64) -> Layout {
    let s = seconds as f64;
    let block_s = 0.3 * s / ROUNDS as f64;
    let sub_s = 0.4 * s / (LADDER_RPS.len() * STEP_BLOCKS) as f64;
    let n = |rate: f64, secs: f64| ((rate * secs).round() as usize).max(1);
    Layout {
        low: n(LOW_RPS, block_s),
        mid: n(MID_RPS, block_s),
        step: LADDER_RPS
            .iter()
            .map(|&r| n(r, sub_s).max(stats::MIN_P90_SAMPLES))
            .collect(),
    }
}

/// Most of a ladder step's sub-blocks pass.
/// Sub-blocks the hypervisor disturbed do not vote while others can.
pub fn step_passes(step: &[Point]) -> bool {
    let clean: Vec<&Point> = step
        .iter()
        .filter(|p| p.steal <= stats::STEAL_LIMIT)
        .collect();
    let voters = if clean.is_empty() {
        step.iter().collect()
    } else {
        clean
    };
    2 * voters.iter().filter(|p| p.passes()).count() > voters.len()
}

/// Requests per second a step sustained.
pub fn achieved_rps(step: &[Point]) -> f64 {
    let n: usize = step.iter().map(|p| p.done.len()).sum();
    n as f64 / step.iter().map(|p| p.seconds).sum::<f64>()
}

/// Everything a run measures, before it is turned into metrics.
pub struct Session {
    pub setups: Vec<f64>,
    pub warm_failed: usize,
    pub low: Vec<Point>,
    pub mid: Vec<Point>,
    /// Closed-loop blocks of fresh jobs, and the server's CPU seconds
    /// during each.
    pub sat: Vec<Point>,
    pub sat_cpu_s: Vec<Option<f64>>,
    pub ladder: Vec<Vec<Point>>,
    pub server: Server,
}

impl Session {
    pub fn points(&self) -> impl Iterator<Item = &Point> {
        self.low
            .iter()
            .chain(&self.mid)
            .chain(&self.sat)
            .chain(self.ladder.iter().flatten())
    }
}

/// Set up (several times, each on a new server), then run the low/mid
/// rounds and, when capacity is asked for, a closed-loop block after
/// every [`SAT_EVERY`] rounds and the ladder.
pub fn session(
    seed: u64,
    seconds: u64,
    obs: bool,
    capacity: bool,
    poll_status: bool,
) -> Result<(Plan, Session), String> {
    let lay = layout(seconds);
    let ladder_n: usize = lay.step.iter().map(|n| n * STEP_BLOCKS).sum();
    let timed = MAX_ROUNDS * (lay.low + lay.mid) + if capacity { 2 * ladder_n } else { 0 };
    let sat_n = if capacity {
        MAX_ROUNDS / SAT_EVERY * SAT_BLOCK
    } else {
        0
    };
    let plan = build_plan(seed, SETUPS * WARMUP + timed, sat_n);
    let last_job = AtomicU64::new(0);
    let mut setups = Vec::new();
    let mut warm_failed = 0;
    let mut live = None;
    for k in 0..SETUPS {
        let t0 = Instant::now();
        let server = Server::spawn(obs)?;
        let mut conns: Vec<Conn> = (0..generator_threads())
            .map(|_| Conn::new(&server.addr))
            .collect();
        last_job.store(0, Ordering::Relaxed);
        let warm = &plan.reqs[k * WARMUP..(k + 1) * WARMUP];
        warm_failed += run_point(&mut conns, &plan, warm, None, &last_job, false).failed();
        setups.push(t0.elapsed().as_secs_f64());
        if let Some((old, _)) = live.replace((server, conns)) {
            Server::stop(old);
        }
    }
    let (server, mut conns) = live.expect("at least one set-up");
    let mut at = SETUPS * WARMUP;
    let mut block = |conns: &mut [Conn], n: usize, rate: f64| {
        let p = run_point(
            conns,
            &plan,
            &plan.reqs[at..at + n],
            Some(rate),
            &last_job,
            poll_status,
        );
        at += n;
        p
    };
    let (mut low, mut mid, mut sat, mut sat_cpu_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    // Extra rounds while fewer than MIN_ROUNDS_USED were undisturbed;
    // the rounds, 60% of the window, may stretch to all of it.
    let cap = Instant::now() + Duration::from_secs(seconds);
    let clean = |low: &[Point], mid: &[Point]| {
        low.iter()
            .zip(mid)
            .filter(|(l, m)| l.steal.max(m.steal) <= stats::STEAL_LIMIT)
            .count()
    };
    while low.len() < ROUNDS
        || (clean(&low, &mid) < MIN_ROUNDS_USED && low.len() < MAX_ROUNDS && Instant::now() < cap)
    {
        low.push(block(&mut conns, lay.low, LOW_RPS));
        mid.push(block(&mut conns, lay.mid, MID_RPS));
        if capacity && low.len() % SAT_EVERY == 0 {
            let reqs = &plan.sat[sat.len() * SAT_BLOCK..][..SAT_BLOCK];
            let cpu0 = stats::cpu_seconds(server.pid());
            sat.push(run_point(
                &mut conns,
                &plan,
                reqs,
                None,
                &last_job,
                poll_status,
            ));
            sat_cpu_s.push(
                cpu0.zip(stats::cpu_seconds(server.pid()))
                    .map(|(a, b)| b - a),
            );
        }
    }
    let mut steps = Vec::new();
    if capacity {
        // A step that fails while every sub-block was disturbed is run
        // once more, time allowing: it measured the host, not the server.
        let ladder_cap = Instant::now() + Duration::from_secs_f64(0.75 * seconds as f64);
        for (&rate, &n) in LADDER_RPS.iter().zip(&lay.step) {
            let mut pass = false;
            for attempt in 0..2 {
                let step: Vec<Point> = (0..STEP_BLOCKS)
                    .map(|_| block(&mut conns, n, rate))
                    .collect();
                pass = step_passes(&step);
                let disturbed = step.iter().all(|p| p.steal > stats::STEAL_LIMIT);
                steps.push(step);
                if pass || !disturbed || attempt == 1 || Instant::now() > ladder_cap {
                    break;
                }
            }
            if !pass {
                break;
            }
        }
    }
    Ok((
        plan,
        Session {
            setups,
            warm_failed,
            low,
            mid,
            sat,
            sat_cpu_s,
            ladder: steps,
            server,
        },
    ))
}

fn note_point(out: &mut Outcome, name: &str, p: &Point) {
    out.note(
        &format!("point {name}"),
        format!(
            "rate={} requests={} seconds={:.3} steal={:.3} failed={} valid={} gen_lag_p90_ms={:.3} backlog_growth_ms={:.3} p90_ms={:.3}",
            p.rate.unwrap_or(0.0),
            p.done.len(),
            p.seconds,
            p.steal,
            p.failed(),
            p.valid(),
            p.gen_lag_p90(),
            p.backlog_growth_ms(),
            stats::quantile(&p.latencies(), 0.9).unwrap_or(0.0),
        ),
    );
    for d in p.done.iter().filter(|d| !d.ok).take(3) {
        out.note(
            "failure",
            format!("{:?}: {}", d.kind, d.error.as_deref().unwrap_or("?")),
        );
    }
}

/// Served scenario jobs as the client sees them — send → last byte of
/// the stream — for the fresh jobs of a round's low and mid blocks.
fn job_ms(low: &Point, mid: &Point) -> Vec<f64> {
    low.done
        .iter()
        .chain(&mid.done)
        .filter(|d| d.kind == Kind::Fresh)
        .map(|d| d.service_ms)
        .collect()
}

pub fn run(seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let (_plan, s) = match session(seed, seconds, false, true, false) {
        Ok(x) => x,
        Err(e) => {
            out.note("error", e);
            return out;
        }
    };
    let attempted: usize = s.points().map(|p| p.done.len()).sum();
    let failed: usize = s.points().map(Point::failed).sum();
    out.attempted = attempted as u64;
    out.failed = failed as u64;
    out.correct = failed == 0 && s.warm_failed == 0;
    out.set("setup_s", stats::median(&s.setups).unwrap_or(0.0));
    let setup_list: Vec<String> = s.setups.iter().map(|s| format!("{s:.3}")).collect();
    out.note("setups_s", setup_list.join(" "));

    // Rounds the hypervisor disturbed are left out while enough others
    // remain; every latency metric pools the samples of the rest.
    let round_steal: Vec<f64> = s
        .low
        .iter()
        .zip(&s.mid)
        .map(|(l, m)| l.steal.max(m.steal))
        .collect();
    let round_jobs: Vec<Vec<f64>> = s
        .low
        .iter()
        .zip(&s.mid)
        .map(|(l, m)| job_ms(l, m))
        .collect();
    let sizes: Vec<usize> = round_jobs.iter().map(Vec::len).collect();
    let rounds = stats::least_disturbed(
        &round_steal,
        &sizes,
        MIN_ROUNDS_USED,
        stats::MIN_P90_SAMPLES,
    );
    let pooled = |blocks: &[Point]| -> Vec<f64> {
        rounds.iter().flat_map(|&i| blocks[i].latencies()).collect()
    };
    let (low, mid) = (pooled(&s.low), pooled(&s.mid));
    let jobs: Vec<f64> = rounds.iter().flat_map(|&i| round_jobs[i].clone()).collect();
    type Stat = fn(&[f64]) -> Option<f64>;
    let metrics: [(&str, &[f64], Stat); 6] = [
        ("latency_p50_ms.low", &low, stats::median),
        ("latency_p90_ms.low", &low, stats::p90),
        ("latency_p50_ms.mid", &mid, stats::median),
        ("latency_p90_ms.mid", &mid, stats::p90),
        ("run_ms_p50", &jobs, stats::median),
        ("run_ms_p90", &jobs, stats::p90),
    ];
    for (name, samples, stat) in metrics {
        if let Some(v) = stat(samples) {
            out.set(name, v);
        }
    }
    out.note(
        "rounds_used",
        format!("{} of {}", rounds.len(), s.low.len()),
    );
    // The fixed-rate blocks serve what the schedule offers whatever the
    // server's speed, so the rate comes from the closed-loop blocks: the
    // activations served per second of the server's CPU time. Their wall
    // time was seen to differ by up to 1.6× between runs on a quiet
    // 2-CPU host, with client and server threads sharing both CPUs.
    let sat_steal: Vec<f64> = s.sat.iter().map(|p| p.steal).collect();
    let no_sizes = vec![0; sat_steal.len()];
    let used = stats::least_disturbed(&sat_steal, &no_sizes, stats::MIN_UNDISTURBED, 0);
    let activations: u64 = used.iter().map(|&i| s.sat[i].fresh_activations()).sum();
    let cpu_s: Option<f64> = used.iter().map(|&i| s.sat_cpu_s[i]).sum();
    if let Some(cpu_s) = cpu_s.filter(|&c| c > 0.0) {
        out.set("activations_per_s", activations as f64 / cpu_s);
    }

    // The rate the highest passing step actually sustained.
    let mut max_ok = 0.0;
    for step in &s.ladder {
        if step_passes(step) {
            max_ok = achieved_rps(step);
        }
    }
    out.set("max_ok_rate_rps", max_ok);
    out.set(
        "ok_share",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    if let Some(rss) = stats::peak_rss_mib(&s.server.pid().to_string()) {
        out.set("peak_rss_mib", rss);
    }
    for (i, (l, m)) in s.low.iter().zip(&s.mid).enumerate() {
        note_point(&mut out, &format!("low{i}"), l);
        note_point(&mut out, &format!("mid{i}"), m);
    }
    for (i, (p, cpu)) in s.sat.iter().zip(&s.sat_cpu_s).enumerate() {
        note_point(&mut out, &format!("sat{i}"), p);
        out.note(
            &format!("sat{i} activations/cpu_s"),
            format!("{}/{:.2}", p.fresh_activations(), cpu.unwrap_or(0.0)),
        );
    }
    for (i, step) in s.ladder.iter().enumerate() {
        for (j, p) in step.iter().enumerate() {
            note_point(&mut out, &format!("ladder{i}.{j}"), p);
        }
    }
    out.note("generator_threads", generator_threads());
    out.note("healthz", s.server.get("/healthz").unwrap_or_default());
    s.server.stop();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn served_stream_gate_rejects_corruption() {
        let spec = parse_spec(&fresh_spec(3, 0)).unwrap();
        let (want, _) = offline_stream(&spec);
        let mut sink = MemorySink::default();
        run_scenario(&spec, spec.seed, None, &mut sink, None, |_| ()).unwrap();
        let body: String = sink.records.iter().map(|r| r.to_json() + "\n").collect();
        assert!(stream_matches(&body, want));
        assert!(!stream_matches(
            &body.replacen("\"n\":", "\"n\":9", 1),
            want
        ));
        assert!(
            !stream_matches(body.trim_end(), want),
            "a truncated stream fails"
        );
        let first_line = body.split_inclusive('\n').next().unwrap();
        assert!(!stream_matches(first_line, want), "a short stream fails");
    }

    #[test]
    fn plan_has_the_mix_and_depends_on_the_seed() {
        let a = plan_requests(1, 400);
        assert_eq!(a.len(), 400);
        let count = |k| a.iter().filter(|r| r.kind == k).count();
        assert_eq!(count(Kind::Verify), 80);
        assert_eq!(count(Kind::Fresh) + count(Kind::Repeat), 240);
        assert_eq!(fresh_spec(1, 3), fresh_spec(1, 3));
        assert_ne!(fresh_spec(1, 3), fresh_spec(2, 3));
        assert_ne!(verify_profile(1, 0).0, verify_profile(2, 0).0);
        for i in 0..12 {
            parse_spec(&fresh_spec(9, i)).unwrap();
            parse_realization(&verify_profile(9, i).0).unwrap();
        }
    }

    #[test]
    fn fresh_inputs_come_back_only_after_the_cache_has_turned_over() {
        // A spec's last use (fresh or repeat) before it is sent as fresh
        // again lies this many distinct fresh specs back, far beyond the
        // server's default 128-entry cache.
        let reqs = plan_requests(5, 6 * INPUT_POOL);
        let mut fresh_seen = 0usize;
        let mut last_use = vec![None; INPUT_POOL];
        for r in &reqs {
            match r.kind {
                Kind::Fresh => {
                    if let Some(at) = last_use[r.input] {
                        assert!(fresh_seen - at >= INPUT_POOL - REPEAT_WINDOW);
                    }
                    fresh_seen += 1;
                    last_use[r.input] = Some(fresh_seen);
                }
                Kind::Repeat => last_use[r.input] = Some(fresh_seen),
                _ => {}
            }
        }
        assert!(fresh_seen > 2 * INPUT_POOL, "the pool is cycled");
    }
}
