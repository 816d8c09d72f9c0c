//! Batched exact best response for the bitset tier: every candidate of
//! one activation priced from one all-sources BFS.
//!
//! In a session for player `u`, let `G'` be the profile without `u`'s
//! own arcs, `H = G' − u`, and `base(v)` the BFS distance from `u` in
//! `G'`. A shortest path from `u` never returns to `u`, so under the
//! strategy `T` it either starts with an edge of `G'` or with a new
//! edge `{u, t}`, and
//!
//! ```text
//! dist_T(u, v) = min(base(v), 1 + min_{t ∈ T} d_H(t, v)).
//! ```
//!
//! One [`AllSourcesBfs`] over `H` gives `d_H(t, ·)` for every `t` at
//! once; the costs follow from it per rule:
//!
//! * **b = 1, SUM** — `cost(t) = Σ base − gain(t)`, where
//!   `gain(t) = Σ_v #{k ≤ base(v) − 2 : d_H(t, v) ≤ k}` (an unreached
//!   `v` has `base = C_inf`). Distances are symmetric, so lane `t`'s
//!   row at level `k` is also the set of vertices within `k` of `t`:
//!   each level adds to `gain(t)` one masked popcount of that row
//!   (mask: the vertices with `base ≥ k + 2`), and the levels past the
//!   last change add a closed-form tail.
//! * **b = 1, MAX** — candidate `t` has eccentricity `≤ r` exactly when
//!   `d_H(t, v) ≤ r − 1` for every `v` with `base(v) > r`: its row at
//!   level `r − 1` covers the mask of those vertices.
//! * **b ≥ 2** — a byte table of `1 + d_H(t, v)` (255 = unreached) and
//!   an `O(n)` branch-free min/sum (SUM) or min/max (MAX) per candidate,
//!   with the running minimum of the strategy's leading targets cached
//!   across candidates that share them (the odometer changes the last
//!   target most often).
//!
//! Costs are exactly what [`cost_from_bfs`](crate::cost::cost_from_bfs)
//! gives for the patched BFS of the same candidate, so the search loops
//! keep their order, tie-breaks and early exits unchanged.

use crate::cost::{c_inf, CostModel};
use bbncg_graph::{Adjacency, AllSourcesBfs, BfsScratch, NodeId, UNREACHED};

/// Working-memory ceiling of the batched path: the three bit matrices
/// of the all-sources BFS (`3·n²/8` bytes) plus, for budgets ≥ 2, the
/// `n²`-byte distance table. Larger instances price per candidate.
pub(crate) const BATCH_MAX_BYTES: usize = 32 << 20;

/// Table value for "unreached"; finite entries are `1 + d ≤ 254`.
const FAR: u8 = u8::MAX;

/// MAX-model lane cost for a candidate that leaves some vertex
/// unreached (priced from the component count instead).
const UNPRICED: u64 = u64::MAX;

/// Session-scoped batched pricing tables (see the module docs).
#[derive(Debug, Default)]
pub(crate) struct ExactBatch {
    /// Strategy size the live tables price; `None` outside a batched
    /// session.
    b: Option<usize>,
    n: usize,
    max_model: bool,
    ms: AllSourcesBfs,
    /// `base(v)`, [`UNREACHED`] for other components.
    base: Vec<u32>,
    /// Every vertex but the player, deepest `base` first (unreached
    /// first of all).
    order: Vec<NodeId>,
    /// b = 1: cost per candidate target (lane `u` is the empty move).
    lane_cost: Vec<u64>,
    /// b = 1: the vertices deeper than the current level, as a bit row.
    mask: Vec<u64>,
    /// b = 1, MAX: per lane, how many of those it has reached.
    within: Vec<u64>,
    /// b ≥ 2: row `t` holds `1 + d_H(t, v)` per `v` ([`FAR`] when
    /// unreached; row `u` is all [`FAR`]).
    table: Vec<u8>,
    /// b ≥ 2: row 0 is `base` as bytes (`0` at the player), row `j` the
    /// running minimum after the first `j` targets of `prefix_of`.
    prefix: Vec<u8>,
    prefix_of: Vec<NodeId>,
}

impl ExactBatch {
    /// Does an `n`-vertex, budget-`b` session fit [`BATCH_MAX_BYTES`]?
    pub(crate) fn fits(n: usize, b: usize) -> bool {
        let table = if b >= 2 { n * n + b * n } else { 0 };
        AllSourcesBfs::bytes_for(n) + table <= BATCH_MAX_BYTES
    }

    /// Drop the tables' validity (a new session begins).
    #[inline]
    pub(crate) fn invalidate(&mut self) {
        self.b = None;
    }

    /// Do the live tables price strategies of `len` targets?
    #[inline]
    pub(crate) fn prices(&self, len: usize) -> bool {
        self.b == Some(len)
    }

    /// Build the tables for player `u`'s session over `g` (the profile
    /// with `u`'s arcs detached). `comp_label`/`comp_sizes` label the
    /// components of `g`. Returns `false` — tables stay dead, pricing
    /// falls back to one BFS per candidate — when a budget ≥ 2 table
    /// cannot hold the distances (a path longer than 253).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn build<A: Adjacency + ?Sized>(
        &mut self,
        g: &A,
        bfs: &mut BfsScratch,
        u: NodeId,
        model: CostModel,
        b: usize,
        comp_label: &[u32],
        comp_sizes: &[usize],
    ) -> bool {
        let n = g.n();
        self.b = None;
        self.n = n;
        self.max_model = model == CostModel::Max;
        bfs.run(g, u);
        self.base.clear();
        self.base
            .extend((0..n).map(|v| bfs.dist_or_unreached(NodeId::new(v))));
        // Deepest first without a sort: the unreached vertices, then
        // the BFS order reversed (minus `u`, which it starts with).
        self.order.clear();
        self.order.extend(
            (0..n)
                .map(NodeId::new)
                .filter(|v| self.base[v.index()] == UNREACHED),
        );
        self.order.extend(bfs.reached()[1..].iter().rev());
        self.ms.start(g, Some(u));
        let built = match (b, model) {
            (1, CostModel::Sum) => {
                self.sum_single(g, u, comp_label, comp_sizes);
                true
            }
            (1, CostModel::Max) => {
                self.max_single(g);
                true
            }
            _ => self.fill_table(g, u, b),
        };
        if built {
            self.b = Some(b);
        }
        built
    }

    /// Reset `mask` to every vertex but the player (all of `order`).
    fn deep_reset(&mut self) -> usize {
        self.mask.clear();
        self.mask.resize(self.ms.words(), 0);
        for v in &self.order {
            self.mask[v.index() >> 6] |= 1u64 << (v.index() & 63);
        }
        self.order.len()
    }

    /// Shrink `mask` to the vertices with `base ≥ depth`: `order[..cut]`
    /// are the members, deepest first, so the shallow ones leave from
    /// the back as `depth` grows.
    fn deep_shrink(&mut self, cut: &mut usize, depth: u32) {
        while let Some(&v) = self.order[..*cut].last() {
            if self.base[v.index()] >= depth {
                break;
            }
            self.mask[v.index() >> 6] &= !(1u64 << (v.index() & 63));
            *cut -= 1;
        }
    }

    /// b = 1, SUM: by symmetry lane `t`'s row is also the set of
    /// vertices within `k` of `t`, so level `k` adds to `gain(t)` the
    /// popcount of that row over the vertices with `base ≥ k + 2`.
    fn sum_single<A: Adjacency + ?Sized>(
        &mut self,
        g: &A,
        u: NodeId,
        comp_label: &[u32],
        comp_sizes: &[usize],
    ) {
        let n = self.n;
        let cinf = c_inf(n);
        let far = self
            .order
            .first()
            .is_some_and(|v| self.base[v.index()] == UNREACHED);
        let max_fin = self
            .order
            .iter()
            .map(|v| self.base[v.index()])
            .find(|&d| d != UNREACHED)
            .unwrap_or(0);
        let base_sum: u64 = self
            .order
            .iter()
            .map(|v| match self.base[v.index()] {
                UNREACHED => cinf,
                d => d as u64,
            })
            .sum();
        self.lane_cost.clear();
        self.lane_cost.resize(n, 0);
        let mut cut = self.deep_reset();
        let mut k = 0u32;
        loop {
            self.deep_shrink(&mut cut, k + 2);
            if cut > 0 {
                self.ms.add_reached_within(&self.mask, &mut self.lane_cost);
            }
            k += 1;
            // A finite-base vertex wants the levels up to `base − 2`, an
            // unreached one every level until the rows stop changing.
            // Rows that stop changing are past every finite base too: a
            // vertex at base `d` is `d − 1` from an in-neighbour in `H`.
            if (!far && k + 2 > max_fin) || self.ms.step(g) == 0 {
                break;
            }
        }
        // Levels k.. up to C_inf − 2 repeat the final rows: a vertex of
        // another component gains one per level from every lane in its
        // component.
        let tail = cinf - 1 - k as u64;
        let lu = comp_label[u.index()];
        for (t, cost) in self.lane_cost.iter_mut().enumerate() {
            let lt = comp_label[t];
            if lt != lu {
                *cost += tail * comp_sizes[lt as usize] as u64;
            }
            *cost = base_sum - *cost;
        }
    }

    /// b = 1, MAX: candidate `t` has eccentricity `≤ r` iff its row
    /// (the vertices within `r − 1` of `t`) covers every vertex with
    /// `base > r`.
    fn max_single<A: Adjacency + ?Sized>(&mut self, g: &A) {
        let n = self.n;
        self.lane_cost.clear();
        self.lane_cost.resize(n, UNPRICED);
        let mut open = n;
        let mut cut = self.deep_reset();
        let mut r = 1u32;
        loop {
            self.deep_shrink(&mut cut, r + 1);
            self.within.clear();
            self.within.resize(n, 0);
            self.ms.add_reached_within(&self.mask, &mut self.within);
            let need = cut as u64;
            for (cost, &within) in self.lane_cost.iter_mut().zip(&self.within) {
                if *cost == UNPRICED && within == need {
                    *cost = r as u64;
                    open -= 1;
                }
            }
            // Rows that stop changing are past every finite base (a
            // vertex at base `d` is `d − 1` from an in-neighbour in `H`),
            // so the mask then holds unreached vertices only and no open
            // lane can close any more.
            if open == 0 || self.ms.step(g) == 0 {
                break;
            }
            r += 1;
        }
    }

    /// b ≥ 2: the byte distance table, filled from each level's fresh
    /// rows (distances are symmetric, so row `v`'s fresh lanes `t` are
    /// the entries `1 + d_H(t, v)` of the table's row `v`).
    fn fill_table<A: Adjacency + ?Sized>(&mut self, g: &A, u: NodeId, b: usize) -> bool {
        let n = self.n;
        self.table.clear();
        self.table.resize(n * n, FAR);
        for v in (0..n).filter(|&v| v != u.index()) {
            self.table[v * n + v] = 1;
        }
        while self.ms.step(g) != 0 {
            let k = self.ms.level();
            if k + 1 >= FAR as u32 {
                return false;
            }
            for v in (0..n).filter(|&v| v != u.index()) {
                let row = &mut self.table[v * n..(v + 1) * n];
                for (w, &word) in self.ms.fresh(NodeId::new(v)).iter().enumerate() {
                    let mut bits = word;
                    while bits != 0 {
                        row[(w << 6) | bits.trailing_zeros() as usize] = (k + 1) as u8;
                        bits &= bits - 1;
                    }
                }
            }
        }
        if self.base.iter().any(|&d| d != UNREACHED && d >= FAR as u32) {
            return false;
        }
        self.prefix.clear();
        self.prefix.resize(b * n, 0);
        for (p, &d) in self.prefix.iter_mut().zip(&self.base) {
            *p = d.min(FAR as u32) as u8;
        }
        self.prefix_of.clear();
        true
    }

    /// Cost of `targets` (of the live size) for the session's player;
    /// `kappa` is the component count after the move, read only for a
    /// MAX candidate that leaves a vertex unreached.
    pub(crate) fn price(&mut self, targets: &[NodeId], kappa: usize) -> u64 {
        let n = self.n;
        let cinf = c_inf(n);
        let disconnected = kappa as u64 * cinf;
        let (last, lead) = targets
            .split_last()
            .expect("batched strategies are non-empty");
        if lead.is_empty() {
            return match self.lane_cost[last.index()] {
                UNPRICED => disconnected,
                c => c,
            };
        }
        // Reuse the cached running minimum of the shared leading
        // targets; recompute from the first difference.
        if self.prefix_of != lead {
            let mut j = self
                .prefix_of
                .iter()
                .zip(lead)
                .take_while(|(a, b)| a == b)
                .count();
            self.prefix_of.truncate(j);
            while j < lead.len() {
                let (done, rest) = self.prefix.split_at_mut((j + 1) * n);
                let prev = &done[j * n..];
                let row = &self.table[lead[j].index() * n..][..n];
                for ((o, &p), &r) in rest[..n].iter_mut().zip(prev).zip(row) {
                    *o = p.min(r);
                }
                self.prefix_of.push(lead[j]);
                j += 1;
            }
        }
        let acc = &self.prefix[lead.len() * n..][..n];
        let row = &self.table[last.index() * n..][..n];
        if self.max_model {
            match acc.iter().zip(row).fold(0, |mx, (&a, &r)| mx.max(a.min(r))) {
                FAR => disconnected,
                m => m as u64,
            }
        } else {
            let (sum, far) = min_sum(acc, row);
            sum - far * FAR as u64 + far * cinf
        }
    }
}

/// `(Σ_v min(a[v], b[v]), #{v : min(a[v], b[v]) = FAR})`. The sum runs
/// in `u16` over blocks of 256 bytes (the widest that cannot overflow)
/// next to a running maximum, which the compiler vectorizes well; the
/// FAR count needs a second pass only when the maximum is FAR.
fn min_sum(a: &[u8], b: &[u8]) -> (u64, u64) {
    let (mut sum, mut mx) = (0u64, 0u8);
    for (xs, ys) in a.chunks(256).zip(b.chunks(256)) {
        let mut block = 0u16;
        for (&x, &y) in xs.iter().zip(ys) {
            let m = x.min(y);
            block += m as u16;
            mx = mx.max(m);
        }
        sum += block as u64;
    }
    let far = if mx == FAR {
        a.iter().zip(b).filter(|&(&x, &y)| x.min(y) == FAR).count() as u64
    } else {
        0
    };
    (sum, far)
}
