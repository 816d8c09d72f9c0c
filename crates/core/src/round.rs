//! Round executors: how one dynamics round turns activations into
//! committed moves.
//!
//! A round activates every player once in the configured order. The
//! classic executor does this **sequentially** — each activation prices
//! its whole candidate space against the profile left by the previous
//! one — so `--threads` never helps inside a round, only across
//! seeds/jobs. The **speculative** executor evaluates a window of
//! upcoming activations in parallel against the window's start state
//! (one worker-local [`DeviationScratch`] per worker via
//! [`bbncg_par::par_map_init`], any [`CostKernel`]), then commits the
//! proposals sequentially in activation order, discarding and
//! re-evaluating exactly the proposals an earlier commit invalidated.
//!
//! # The step-identity invariant
//!
//! Speculative rounds are **step-identical** to sequential rounds for
//! every rule/order/kernel combination: same moves in the same order,
//! same step and round counts, same [`DynamicsReport`], bit-identical
//! checkpoints and scenario record streams at any thread count. The
//! invariant holds by construction, not by luck:
//!
//! * every committed proposal was evaluated against a state whose
//!   undirected **edge presence** equals the commit-time state's, and
//! * a player's decision under any rule is a pure function of the
//!   presence graph minus its own arcs, its own strategy, and its
//!   budget — costs come from BFS distances, component structure and
//!   deduplicated in-neighbour counts, all presence functions, and
//!   candidate enumeration order is state-independent.
//!
//! A commit that changes presence therefore invalidates every later
//! proposal in the window (they are discarded and re-evaluated in the
//! next window — wasted work, never wrong answers), while a commit
//! that only shuffles brace multiplicities invalidates nothing
//! ([`OwnedDigraph::move_changes_presence`], mirrored by
//! [`PatchableCsr::presence_epoch`](bbncg_graph::PatchableCsr::presence_epoch)
//! on patch sessions). Nothing weaker than presence equality is sound
//! here: a presence change even in a *different component* moves the
//! cost of candidates linking into that component, so component-based
//! affected sets cannot certify an unchanged best response.
//!
//! The window width adapts to the observed invalidation density —
//! halving when commits land early in the window, doubling after a
//! clean window — so dense early rounds degrade gracefully toward
//! sequential cost while quiet late rounds (and the final convergence
//! check, which every run pays) evaluate all players in one parallel
//! sweep. Enforced by `tests/round_parity.rs` and the CI byte-diff of
//! `--threads 1` vs `--threads 8` scenario record streams.

use crate::best_response::{
    best_swap_response_with, exact_best_response_with, first_improving_response_with,
    greedy_best_response_with,
};
use crate::deviation::DeviationScratch;
use crate::dynamics::{DynamicsConfig, ResponseRule};
use crate::kernel::CostKernel;
use crate::realization::Realization;
use bbncg_graph::NodeId;
use bbncg_obs::{Counter, Histogram};
use std::sync::Mutex;

/// How activations inside one dynamics round are executed. Executors
/// are **step-identical**: the choice can never change a trajectory, a
/// report, a checkpoint or a record stream — only wall-clock.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum RoundExecutor {
    /// One activation at a time, each against the latest profile.
    Sequential,
    /// Windowed parallel proposal evaluation with presence-based
    /// revalidation at commit time (see the module docs). Used only
    /// when asked for explicitly.
    Speculative,
    /// Always sequential. Speculative rounds have not beaten
    /// sequential ones on any measured workload: on a 2-CPU host the
    /// `exact-churn` benchmark ran 7–27% fewer activations per second
    /// under speculation, and a traced run evaluated 57,295 proposals
    /// for 51,607 activations while discarding 14,285 of them.
    #[default]
    Auto,
}

impl RoundExecutor {
    /// The concrete executor used for an `n`-player instance (never
    /// returns [`RoundExecutor::Auto`]): `Auto` is sequential, explicit
    /// choices stand.
    pub fn resolve(self, n: usize) -> RoundExecutor {
        self.resolve_with(n, 1, 1, false)
    }

    /// [`RoundExecutor::resolve`] with the instance size, thread budget,
    /// host CPU count and nesting flag spelled out. None of them
    /// changes the verdict any more; the signature stays for callers
    /// that pass them.
    pub fn resolve_with(
        self,
        _n: usize,
        _threads: usize,
        _host_cpus: usize,
        _nested: bool,
    ) -> RoundExecutor {
        match self {
            RoundExecutor::Auto => RoundExecutor::Sequential,
            k => k,
        }
    }

    /// Spec/CLI label (`"sequential"`, `"speculative"`, `"auto"`).
    pub fn label(self) -> &'static str {
        match self {
            RoundExecutor::Sequential => "sequential",
            RoundExecutor::Speculative => "speculative",
            RoundExecutor::Auto => "auto",
        }
    }

    /// Parse a spec/CLI label.
    pub fn parse(s: &str) -> Result<RoundExecutor, String> {
        match s {
            "sequential" => Ok(RoundExecutor::Sequential),
            "speculative" => Ok(RoundExecutor::Speculative),
            "auto" => Ok(RoundExecutor::Auto),
            other => Err(format!(
                "unknown round executor {other:?} (sequential|speculative|auto)"
            )),
        }
    }
}

impl std::fmt::Display for RoundExecutor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The decision one activation of player `u` makes against `state`:
/// `Some(targets)` iff the player moves (rule dispatch plus the
/// strict-improvement gate). This is **the** per-activation body — the
/// sequential loop and the speculative proposal evaluator both call
/// it, so the two executors cannot drift apart.
pub(crate) fn respond(
    scratch: &mut DeviationScratch,
    state: &Realization,
    u: NodeId,
    cfg: &DynamicsConfig,
) -> Option<Vec<NodeId>> {
    if state.graph().out_degree(u) == 0 {
        return None;
    }
    let candidate = match cfg.rule {
        ResponseRule::ExactBest => Some(exact_best_response_with(scratch, state, u, cfg.model)),
        ResponseRule::FirstImproving => first_improving_response_with(scratch, state, u, cfg.model),
        ResponseRule::Greedy => Some(greedy_best_response_with(scratch, state, u, cfg.model)),
        ResponseRule::BestSwap => best_swap_response_with(scratch, state, u, cfg.model),
    }?;
    // FirstImproving only returns strictly improving strategies; the
    // other rules may hand back the current cost, so price the
    // incumbent through the still-open session to compare.
    let improved = cfg.rule == ResponseRule::FirstImproving
        || candidate.cost < scratch.cost_of(state.strategy(u));
    improved.then_some(candidate.targets)
}

/// A worker's checked-out engine: popped from the round's shared pool
/// at worker start (or built fresh on a pool miss) and pushed back on
/// drop, so windows and rounds reuse warm engines instead of
/// rebuilding per `par_map_init` call. Reuse is sound because
/// [`DeviationScratch::begin`] re-syncs its mirror to the passed
/// profile by diffing — a pooled engine that is several commits behind
/// pays exactly the diff, nothing more. For the sparse kernel the
/// pooled engine also carries its retained base-distance tree and the
/// repair journal that records those diffs: when a worker's next
/// activation lands on the same source (re-evaluation after an
/// invalidated window, revalidation sweeps), the base is *repaired*
/// from the journalled presence deltas instead of re-BFS'd, and any
/// unjournalled or oversized damage falls back to a full rebase — so
/// pooling changes cost, never pricing.
pub(crate) struct PooledEngine<'a> {
    pool: &'a Mutex<Vec<DeviationScratch>>,
    engine: Option<DeviationScratch>,
}

impl<'a> PooledEngine<'a> {
    pub(crate) fn checkout(
        pool: &'a Mutex<Vec<DeviationScratch>>,
        basis: &Realization,
        kernel: CostKernel,
    ) -> Self {
        let engine = pool
            .lock()
            .expect("engine pool poisoned")
            .pop()
            .unwrap_or_else(|| DeviationScratch::with_kernel(basis, kernel));
        PooledEngine {
            pool,
            engine: Some(engine),
        }
    }

    pub(crate) fn engine(&mut self) -> &mut DeviationScratch {
        self.engine.as_mut().expect("engine checked out")
    }
}

impl Drop for PooledEngine<'_> {
    fn drop(&mut self) {
        if let Some(engine) = self.engine.take() {
            if let Ok(mut pool) = self.pool.lock() {
                pool.push(engine);
            }
        }
    }
}

/// One speculative round over `order`: evaluate windows of upcoming
/// activations in parallel against the window's start state, commit in
/// activation order, and discard the window tail the moment a commit
/// changes edge presence. Returns the number of applied moves.
///
/// The committed trajectory is identical to the sequential executor's
/// at any thread count and any window schedule; window width only
/// moves wasted work. `window_hint` carries the adapted width across
/// rounds (dense rounds shrink it toward the thread count, quiet
/// rounds grow it toward `n`), and `pool` carries warm worker engines
/// across windows and rounds.
pub(crate) fn run_round_speculative(
    state: &mut Realization,
    cfg: &DynamicsConfig,
    order: &[usize],
    kernel: CostKernel,
    window_hint: &mut usize,
    pool: &Mutex<Vec<DeviationScratch>>,
) -> usize {
    let len = order.len();
    if len == 0 {
        return 0;
    }
    let min_w = bbncg_par::max_threads().clamp(1, len);
    let mut window = (*window_hint).clamp(min_w, len);
    let mut improvements = 0usize;
    let mut pos = 0usize;
    while pos < len {
        let w = window.min(len - pos);
        let batch = &order[pos..pos + w];
        // Window-granularity observability (a handful of relaxed
        // loads per window — noise next to the w parallel BFS below).
        bbncg_obs::counter_inc(Counter::RoundsWindows);
        bbncg_obs::counter_add(Counter::RoundsEvals, w as u64);
        bbncg_obs::observe(Histogram::WindowWidth, w as u64);
        // Parallel proposal evaluation against the window-start state;
        // one pooled engine per worker, re-synced to the basis by
        // diffing on first use.
        let proposals = {
            let basis: &Realization = state;
            bbncg_par::par_map_init(
                w,
                || PooledEngine::checkout(pool, basis, kernel),
                |slot, j| respond(slot.engine(), basis, NodeId::new(batch[j]), cfg),
            )
        };
        // Sequential commit scan: a `None` proposal (and any proposal
        // after presence-preserving commits only) is exactly what the
        // sequential executor would have decided; the first
        // presence-changing commit invalidates the rest of the window.
        let mut consumed = 0usize;
        let mut presence_commit = false;
        for (j, proposal) in proposals.into_iter().enumerate() {
            consumed = j + 1;
            let Some(targets) = proposal else { continue };
            let u = NodeId::new(batch[j]);
            let presence_changed = state.graph().move_changes_presence(u, &targets);
            state.set_strategy(u, targets);
            improvements += 1;
            bbncg_obs::counter_inc(Counter::RoundsCommits);
            if presence_changed {
                presence_commit = true;
                break;
            }
        }
        if presence_commit {
            // Everything evaluated past the presence-changing commit
            // is thrown away and re-evaluated in the next window.
            bbncg_obs::counter_inc(Counter::RoundsInvalidations);
            bbncg_obs::counter_add(Counter::RoundsDiscards, (w - consumed) as u64);
        }
        pos += consumed;
        // Width adaptation: grow only on evidence of quietness (a
        // whole window with no presence-changing commit), halve when a
        // commit killed the window in its first half. A window that
        // was fully consumed *because its last slot committed* is
        // dense, not quiet — growing on it makes dense rounds
        // oscillate and waste half their evaluations. Affects
        // throughput only — never outcomes.
        if presence_commit {
            if consumed * 2 <= w {
                window = (window / 2).max(min_w);
            }
        } else {
            window = (window * 2).min(len);
        }
    }
    *window_hint = window;
    improvements
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_roundtrip() {
        for e in [
            RoundExecutor::Sequential,
            RoundExecutor::Speculative,
            RoundExecutor::Auto,
        ] {
            assert_eq!(RoundExecutor::parse(e.label()), Ok(e));
            assert_eq!(format!("{e}"), e.label());
        }
        assert!(RoundExecutor::parse("warp").is_err());
    }

    #[test]
    fn auto_resolves_to_sequential() {
        // Auto is sequential at every size, whatever the thread budget.
        for n in [0, 2, 64, 10_000] {
            assert_eq!(RoundExecutor::Auto.resolve(n), RoundExecutor::Sequential);
        }
        // Explicit choices are size-independent.
        assert_eq!(
            RoundExecutor::Sequential.resolve(10_000),
            RoundExecutor::Sequential
        );
        assert_eq!(
            RoundExecutor::Speculative.resolve(2),
            RoundExecutor::Speculative
        );
    }

    #[test]
    fn auto_ignores_threads_cpus_and_nesting() {
        let auto = RoundExecutor::Auto;
        // Big instance, thread budget, CPUs, not nested: still
        // sequential (speculation has to be asked for).
        assert_eq!(
            auto.resolve_with(64, 8, 8, false),
            RoundExecutor::Sequential
        );
        assert_eq!(
            auto.resolve_with(64, 8, 1, false),
            RoundExecutor::Sequential
        );
        assert_eq!(auto.resolve_with(64, 8, 8, true), RoundExecutor::Sequential);
        // Explicit choices ignore the environment entirely.
        assert_eq!(
            RoundExecutor::Speculative.resolve_with(2, 1, 1, true),
            RoundExecutor::Speculative
        );
        assert_eq!(
            RoundExecutor::Sequential.resolve_with(64, 8, 8, false),
            RoundExecutor::Sequential
        );
    }
}
