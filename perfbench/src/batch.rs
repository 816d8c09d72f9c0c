//! The closed-loop batch workloads: `exact-churn` (single-seed
//! `run_scenario` calls) and `swap-sweep` (`run_sweep` calls), back to
//! back at default settings, each call's record stream checked against
//! the committed digest of its pool entry.

use crate::gen::{self, BatchInput};
use crate::out::Outcome;
use crate::stats::{self, Digest};
use bbncg_core::{CostKernel, RoundExecutor};
use bbncg_scenario::{parse_spec, run_scenario, run_sweep, MetricRecord, MetricSink, ScenarioSpec};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The window runs past `--seconds` while its undisturbed cycles are
/// too few or hold too few runs for a p90, up to this multiple of it.
pub const WINDOW_STRETCH: f64 = 1.6;

/// Digests the record stream and counts activations (Σ `rounds × n`
/// over dynamics records) — nothing else, so sink cost stays out of
/// the measurement as far as it can.
#[derive(Default)]
pub struct DigestSink {
    pub digest: Digest,
    pub activations: u64,
}

impl MetricSink for DigestSink {
    fn record(&mut self, rec: &MetricRecord) {
        self.digest.line(&rec.to_json());
        if rec.kind == "dynamics" {
            self.activations += (rec.rounds * rec.n) as u64;
        }
    }
}

/// One cycle of the run: one variant of every shape.
#[derive(Default)]
struct Cycle {
    run_ms: Vec<f64>,
    ok: u64,
    activations: u64,
    seconds: f64,
    steal: f64,
}

/// Committed expected digests: `key<TAB>digest` lines.
pub fn expected(workload: &str) -> HashMap<String, String> {
    let text = match workload {
        "exact-churn" => include_str!("../expected/exact-churn.tsv"),
        "swap-sweep" => include_str!("../expected/swap-sweep.tsv"),
        _ => "",
    };
    text.lines()
        .filter_map(|l| l.split_once('\t'))
        .map(|(k, d)| (k.to_string(), d.to_string()))
        .collect()
}

/// One batch operation: run the spec through the program at default
/// settings. A returned error or a panic is a failed operation.
pub fn run_op(workload: &str, spec: &ScenarioSpec) -> Result<DigestSink, String> {
    let mut sink = DigestSink::default();
    let result = catch_unwind(AssertUnwindSafe(|| match workload {
        "swap-sweep" => run_sweep(spec, &mut sink)
            .into_iter()
            .find_map(Result::err)
            .map_or(Ok(()), Err),
        _ => run_scenario(spec, spec.seed, None, &mut sink, None, |_| ()).map(|_| ()),
    }));
    match result {
        Ok(Ok(())) => Ok(sink),
        Ok(Err(e)) => Err(e),
        Err(_) => Err("panic".into()),
    }
}

/// Parse every input (a bad spec is a harness bug, not a program
/// failure).
pub fn parse_all(inputs: &[BatchInput]) -> Vec<ScenarioSpec> {
    inputs
        .iter()
        .map(|i| parse_spec(&i.text).unwrap_or_else(|e| panic!("{}: {e}", i.key)))
        .collect()
}

/// The executor a spec's dynamics resolve to at its initial size, in
/// the context the workload runs it in (sweep seeds run inside a
/// parallel worker, where Auto never nests).
pub fn resolved(workload: &str, spec: &ScenarioSpec) -> (CostKernel, RoundExecutor) {
    let n = initial_n(spec);
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    let nested = workload == "swap-sweep";
    (
        spec.kernel.resolve(n),
        spec.defaults
            .executor
            .resolve_with(n, bbncg_par::max_threads(), cpus, nested),
    )
}

/// Players in the spec's initial state (built by the program itself: a
/// zero-phase run).
pub fn initial_n(spec: &ScenarioSpec) -> usize {
    run_scenario(
        spec,
        spec.seed,
        None,
        &mut bbncg_scenario::NullSink,
        Some(0),
        |_| (),
    )
    .map_or(0, |o| o.state.n())
}

pub fn run(workload: &str, seed: u64, seconds: u64) -> Outcome {
    let mut out = Outcome::default();
    let inputs = gen::batch_cycles(workload, seed);
    let expected = expected(workload);
    let check = |input: &BatchInput, res: &Result<DigestSink, String>| -> bool {
        matches!(res, Ok(s) if expected.get(&input.key) == Some(&s.digest.hex()))
    };

    // Set-up: parse every input and run the fixed warm-up inputs,
    // several times; the median is `setup_s`.
    let warmup = gen::warmup_inputs(workload);
    let mut setups = Vec::new();
    let mut warm_ok = true;
    let mut specs: Vec<Vec<ScenarioSpec>> = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        specs = inputs.iter().map(|c| parse_all(c)).collect();
        for (input, spec) in warmup.iter().zip(parse_all(&warmup)) {
            warm_ok &= check(input, &run_op(workload, &spec));
        }
        setups.push(t0.elapsed().as_secs_f64());
    }

    // Resolution depends on the shape only: the first cycle has them all.
    for (input, spec) in inputs[0].iter().zip(&specs[0]) {
        let (k, e) = resolved(workload, spec);
        out.note(
            &format!("resolved {}", input.key),
            format!("kernel={} rounds={}", k.label(), e.label()),
        );
    }

    // Timed window: a closed loop of whole cycles (every cycle runs one
    // variant of every shape; the cycles repeat once all have run)
    // until the window has lasted `seconds` and holds enough
    // undisturbed cycles, with enough runs between them for a p90.
    // Rates are the median over cycles, so a burst of host noise that
    // spoils one cycle cannot move them; cycles the hypervisor disturbed
    // are left out while enough others remain.
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut ok = 0u64;
    let mut attempted = 0u64;
    let mut failures: Vec<String> = Vec::new();
    let t0 = Instant::now();
    let cap = Duration::from_secs_f64(seconds as f64 * WINDOW_STRETCH);
    let short = |cycles: &[Cycle]| {
        let clean: Vec<&Cycle> = cycles
            .iter()
            .filter(|c| c.steal <= stats::STEAL_LIMIT)
            .collect();
        let runs: usize = clean.iter().map(|c| c.run_ms.len()).sum();
        clean.len() < stats::MIN_UNDISTURBED || runs < stats::MIN_P90_SAMPLES
    };
    while t0.elapsed() < Duration::from_secs(seconds) || short(&cycles) && t0.elapsed() < cap {
        let steal = stats::StealMeter::start();
        let cycle_t0 = Instant::now();
        let mut c = Cycle::default();
        let k = cycles.len() % inputs.len();
        for (input, spec) in inputs[k].iter().zip(&specs[k]) {
            let op_t0 = Instant::now();
            let res = run_op(workload, spec);
            c.run_ms.push(op_t0.elapsed().as_secs_f64() * 1e3);
            if check(input, &res) {
                c.ok += 1;
                c.activations += res.map_or(0, |s| s.activations);
            } else if failures.len() < 5 {
                failures.push(match res {
                    Ok(s) => format!("{}: digest {} != expected", input.key, s.digest.hex()),
                    Err(e) => format!("{}: {e}", input.key),
                });
            }
        }
        c.seconds = cycle_t0.elapsed().as_secs_f64();
        c.steal = steal.share();
        attempted += c.run_ms.len() as u64;
        ok += c.ok;
        cycles.push(c);
    }
    let window_s = t0.elapsed().as_secs_f64();
    let steal: Vec<f64> = cycles.iter().map(|c| c.steal).collect();
    let runs: Vec<usize> = cycles.iter().map(|c| c.run_ms.len()).collect();
    let used: Vec<&Cycle> = stats::least_disturbed(
        &steal,
        &runs,
        stats::MIN_UNDISTURBED,
        stats::MIN_P90_SAMPLES,
    )
    .into_iter()
    .map(|i| &cycles[i])
    .collect();
    let run_ms: Vec<f64> = used.iter().flat_map(|c| c.run_ms.iter().copied()).collect();

    out.attempted = attempted;
    out.failed = attempted - ok;
    out.correct = warm_ok && out.failed == 0;
    for f in failures {
        out.note("failure", f);
    }
    out.set("setup_s", stats::median(&setups).unwrap_or(0.0));
    let setup_list: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    out.note("setups_s", setup_list.join(" "));
    let rate = |f: fn(&Cycle) -> f64| stats::median(&used.iter().map(|c| f(c)).collect::<Vec<_>>());
    out.set(
        "activations_per_s",
        rate(|c| c.activations as f64 / c.seconds).unwrap_or(0.0),
    );
    let p50 = stats::median(&run_ms);
    let p90 = stats::p90(&run_ms);
    // A closed loop has one load level and no due times: an operation's
    // latency is its run time, at the low and the mid point alike.
    for (name, v) in [
        ("run_ms_p50", p50),
        ("run_ms_p90", p90),
        ("latency_p50_ms.low", p50),
        ("latency_p90_ms.low", p90),
        ("latency_p50_ms.mid", p50),
        ("latency_p90_ms.mid", p90),
    ] {
        if let Some(v) = v {
            out.set(name, v);
        }
    }
    // The closed loop runs at the highest rate the program sustains.
    out.set(
        "max_ok_rate_rps",
        rate(|c| c.ok as f64 / c.seconds).unwrap_or(0.0),
    );
    out.set("ok_share", ok as f64 / attempted.max(1) as f64);
    if let Some(rss) = stats::peak_rss_mib("self") {
        out.set("peak_rss_mib", rss);
    }
    out.note("window_s", format!("{window_s:.3}"));
    let per_cycle: Vec<String> = cycles
        .iter()
        .map(|c| format!("{:.0}@{:.3}", c.activations as f64 / c.seconds, c.steal))
        .collect();
    out.note("cycle_activations_per_s@steal", per_cycle.join(" "));
    out.note("cycles_used", format!("{} of {}", used.len(), cycles.len()));
    out
}

/// Recompute the committed digests of a pool through a reference
/// configuration (queue kernel, sequential rounds), and insist that the
/// default configuration agrees before writing them.
pub fn write_expected(workload: &str, path: &str) -> Result<(), String> {
    let mut lines = Vec::new();
    for input in gen::pool(workload) {
        let spec = parse_spec(&input.text).map_err(|e| format!("{}: {e}", input.key))?;
        let mut reference = spec.clone();
        reference.kernel = CostKernel::Queue;
        reference.defaults.executor = RoundExecutor::Sequential;
        let want = run_op(workload, &reference).map_err(|e| format!("{}: {e}", input.key))?;
        let got = run_op(workload, &spec).map_err(|e| format!("{}: {e}", input.key))?;
        if want.digest != got.digest {
            return Err(format!(
                "{}: default run {} differs from reference {}",
                input.key,
                got.digest.hex(),
                want.digest.hex()
            ));
        }
        eprintln!(
            "{}\t{}\t{} activations",
            input.key,
            want.digest.hex(),
            want.activations
        );
        lines.push(format!("{}\t{}\n", input.key, want.digest.hex()));
    }
    std::fs::write(path, lines.concat()).map_err(|e| format!("{path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_pool_entry_has_a_committed_digest() {
        for w in ["exact-churn", "swap-sweep"] {
            let exp = expected(w);
            for input in gen::pool(w) {
                assert!(exp.contains_key(&input.key), "{} has no digest", input.key);
            }
        }
    }

    #[test]
    fn digest_gate_rejects_a_corrupted_stream() {
        // The smallest exact-churn entry, run for real: its stream
        // matches the committed digest, and one changed byte does not.
        let input = gen::exact_churn_entry(6, 0);
        let spec = parse_spec(&input.text).unwrap();
        let mut records = bbncg_scenario::MemorySink::default();
        run_scenario(&spec, spec.seed, None, &mut records, None, |_| ()).unwrap();
        let lines: Vec<String> = records.records.iter().map(MetricRecord::to_json).collect();
        let want = expected("exact-churn")[&input.key].clone();
        assert_eq!(
            Digest::of_lines(lines.iter().map(String::as_str)).hex(),
            want
        );
        let mut corrupted = lines.clone();
        corrupted[0] = corrupted[0].replacen("\"steps\":", "\"steps\":1", 1);
        assert_ne!(
            Digest::of_lines(corrupted.iter().map(String::as_str)).hex(),
            want
        );
        let mut truncated = lines;
        truncated.pop();
        assert_ne!(
            Digest::of_lines(truncated.iter().map(String::as_str)).hex(),
            want
        );
    }
}
