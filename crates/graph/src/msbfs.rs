//! All-sources bit-parallel BFS: every vertex is a source, one bit lane
//! each.
//!
//! Exact best response prices every candidate target `t` of a player by
//! the distances `d(t, ·)` in the graph without that player. Running one
//! BFS per candidate repeats the same memory traffic `n` times; the
//! multi-source BFS of Then et al. ("The More the Merrier: Efficient
//! Multi-Source Graph Traversal", PVLDB 2014) shares it instead. Vertex
//! `v` carries a bit row with one lane per source: after level `k`, lane
//! `t` of `v`'s row is set iff `d(t, v) ≤ k`. Each level ORs the
//! *frontier* rows (lanes that reached a vertex exactly at the previous
//! level) of a vertex's neighbours into its own row, so one pass over
//! the adjacency advances all `n` traversals by one level.
//!
//! One vertex may be excluded: it is no source, its row stays empty and
//! paths never pass through it. That is the graph `H = G' − u` the
//! deviation engine needs, where `G'` is the profile without player
//! `u`'s arcs.
//!
//! Memory is three `n × ⌈n/64⌉` bit matrices (reached, frontier, next
//! frontier). Distances are symmetric, so row `v` read as a set of
//! sources is also the set of targets within distance `k` *of* `v`.

use crate::adjacency::Adjacency;
use crate::node::NodeId;

/// Reusable state for an all-sources bit-parallel BFS.
#[derive(Clone, Debug, Default)]
pub struct AllSourcesBfs {
    n: usize,
    words: usize,
    /// Row `v`: lanes `t` with `d(t, v) ≤ level`.
    reach: Vec<u64>,
    /// Row `v`: lanes `t` with `d(t, v) == level`.
    frontier: Vec<u64>,
    /// Scratch for the next level's frontier.
    next: Vec<u64>,
    /// `live[v]` iff `v`'s frontier row is non-empty (lets a level over
    /// wide rows skip neighbours that have nothing new to pass on).
    live: Vec<bool>,
    next_live: Vec<bool>,
    level: u32,
    excluded: Option<NodeId>,
}

impl AllSourcesBfs {
    /// Empty scratch; [`Self::start`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes the three bit matrices take for an `n`-vertex graph.
    pub fn bytes_for(n: usize) -> usize {
        3 * n * n.div_ceil(64) * 8
    }

    /// Reset to level 0 over `g`: every vertex except `excluded` has
    /// reached exactly itself.
    ///
    /// # Panics
    /// Panics if `excluded` is out of range.
    pub fn start<A: Adjacency + ?Sized>(&mut self, g: &A, excluded: Option<NodeId>) {
        let n = g.n();
        if let Some(x) = excluded {
            assert!(x.index() < n, "excluded vertex {x} out of range (n = {n})");
        }
        let words = n.div_ceil(64);
        self.n = n;
        self.words = words;
        self.excluded = excluded;
        self.level = 0;
        for buf in [&mut self.reach, &mut self.frontier, &mut self.next] {
            buf.clear();
            buf.resize(n * words, 0);
        }
        self.live.clear();
        self.live.resize(n, true);
        self.next_live.clear();
        self.next_live.resize(n, false);
        for v in 0..n {
            let bit = 1u64 << (v & 63);
            self.reach[v * words + (v >> 6)] = bit;
            self.frontier[v * words + (v >> 6)] = bit;
        }
        if let Some(x) = excluded {
            let x = x.index();
            self.reach[x * words + (x >> 6)] = 0;
            self.frontier[x * words + (x >> 6)] = 0;
            self.live[x] = false;
        }
    }

    /// Advance every traversal by one level over `g` (the graph passed
    /// to [`Self::start`]). Returns the number of `(source, vertex)`
    /// pairs reached at the new level; 0 means every traversal has
    /// finished and further steps change nothing.
    pub fn step<A: Adjacency + ?Sized>(&mut self, g: &A) -> u64 {
        // Rows of up to four words (n ≤ 256) get a fixed-width body the
        // compiler can unroll, where ORing an empty row is cheaper than
        // testing for it; wider rows share one generic loop that skips
        // neighbours with an empty frontier.
        let newly = match self.words {
            1 => self.step_fixed::<1, A>(g),
            2 => self.step_fixed::<2, A>(g),
            3 => self.step_fixed::<3, A>(g),
            4 => self.step_fixed::<4, A>(g),
            _ => self.step_wide(g),
        };
        std::mem::swap(&mut self.frontier, &mut self.next);
        self.level += 1;
        newly
    }

    fn step_fixed<const W: usize, A: Adjacency + ?Sized>(&mut self, g: &A) -> u64 {
        let reach = self.reach.as_chunks_mut::<W>().0;
        let frontier = self.frontier.as_chunks::<W>().0;
        let next = self.next.as_chunks_mut::<W>().0;
        let excluded = self.excluded.map(NodeId::index);
        let mut newly = 0u64;
        for v in 0..self.n {
            let mut acc = [0u64; W];
            if Some(v) != excluded {
                for &w in g.neighbors(NodeId::new(v)) {
                    let row = &frontier[w.index()];
                    for i in 0..W {
                        acc[i] |= row[i];
                    }
                }
            }
            for i in 0..W {
                let fresh = acc[i] & !reach[v][i];
                reach[v][i] |= fresh;
                next[v][i] = fresh;
                newly += fresh.count_ones() as u64;
            }
        }
        newly
    }

    fn step_wide<A: Adjacency + ?Sized>(&mut self, g: &A) -> u64 {
        let words = self.words;
        let excluded = self.excluded.map(NodeId::index);
        let mut newly = 0u64;
        for v in 0..self.n {
            let lo = v * words;
            let acc = &mut self.next[lo..lo + words];
            acc.fill(0);
            if Some(v) != excluded {
                for &w in g.neighbors(NodeId::new(v)) {
                    let w = w.index();
                    if self.live[w] {
                        let row = &self.frontier[w * words..(w + 1) * words];
                        for (a, r) in acc.iter_mut().zip(row) {
                            *a |= r;
                        }
                    }
                }
            }
            let mut any = 0u64;
            for (a, r) in acc.iter_mut().zip(&mut self.reach[lo..lo + words]) {
                *a &= !*r;
                *r |= *a;
                any |= *a;
                newly += a.count_ones() as u64;
            }
            self.next_live[v] = any != 0;
        }
        std::mem::swap(&mut self.live, &mut self.next_live);
        newly
    }

    /// Add to `counts[v]`, for every vertex `v`, how many sources of the
    /// bit row `mask` have reached `v` — by symmetry, how many `mask`
    /// vertices lie within distance `level` of `v`.
    ///
    /// # Panics
    /// Panics unless `mask` is one row ([`Self::words`]) wide and
    /// `counts` holds one entry per vertex.
    pub fn add_reached_within(&self, mask: &[u64], counts: &mut [u64]) {
        assert_eq!(mask.len(), self.words, "mask must be one row wide");
        assert_eq!(counts.len(), self.n, "one count per vertex");
        match self.words {
            0 => {}
            1 => self.add_within_fixed::<1>(mask, counts),
            2 => self.add_within_fixed::<2>(mask, counts),
            3 => self.add_within_fixed::<3>(mask, counts),
            4 => self.add_within_fixed::<4>(mask, counts),
            _ => {
                for (row, c) in self.reach.chunks_exact(self.words).zip(counts) {
                    *c += row
                        .iter()
                        .zip(mask)
                        .map(|(r, m)| (r & m).count_ones() as u64)
                        .sum::<u64>();
                }
            }
        }
    }

    fn add_within_fixed<const W: usize>(&self, mask: &[u64], counts: &mut [u64]) {
        let mask: &[u64; W] = mask.try_into().expect("mask is one row wide");
        for (row, c) in self.reach.as_chunks::<W>().0.iter().zip(counts) {
            let mut k = 0;
            for i in 0..W {
                k += (row[i] & mask[i]).count_ones();
            }
            *c += k as u64;
        }
    }

    /// Levels advanced since [`Self::start`].
    #[inline]
    pub fn level(&self) -> u32 {
        self.level
    }

    /// Words per row (`⌈n/64⌉`).
    #[inline]
    pub fn words(&self) -> usize {
        self.words
    }

    /// Sources within distance `level` of `v` (bit `t` set iff
    /// `d(t, v) ≤ level`).
    #[inline]
    pub fn reached(&self, v: NodeId) -> &[u64] {
        let lo = v.index() * self.words;
        &self.reach[lo..lo + self.words]
    }

    /// Sources at distance exactly `level` from `v`.
    #[inline]
    pub fn fresh(&self, v: NodeId) -> &[u64] {
        let lo = v.index() * self.words;
        &self.frontier[lo..lo + self.words]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::BfsScratch;
    use crate::csr::Csr;

    fn v(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn has(row: &[u64], t: usize) -> bool {
        row[t >> 6] & (1u64 << (t & 63)) != 0
    }

    #[test]
    fn path_levels_match_distances() {
        let csr = Csr::from_edges(5, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let mut ms = AllSourcesBfs::new();
        ms.start(&csr, None);
        let mut bfs = BfsScratch::new(5);
        loop {
            let k = ms.level();
            for s in 0..5 {
                bfs.run(&csr, v(s));
                for t in 0..5 {
                    let d = bfs.dist(v(t)).unwrap();
                    assert_eq!(has(ms.reached(v(t)), s), d <= k, "{s}->{t} level {k}");
                    assert_eq!(has(ms.fresh(v(t)), s), d == k, "{s}->{t} level {k}");
                }
            }
            if ms.step(&csr) == 0 {
                break;
            }
        }
        assert_eq!(ms.level(), 5);
    }

    #[test]
    fn excluded_vertex_cuts_paths() {
        // Excluding the middle of a path splits it in two.
        let csr = Csr::from_edges(3, &[(0, 1), (1, 2)]);
        let mut ms = AllSourcesBfs::new();
        ms.start(&csr, Some(v(1)));
        while ms.step(&csr) != 0 {}
        assert_eq!(ms.reached(v(0)), &[0b001]);
        assert_eq!(ms.reached(v(1)), &[0]);
        assert_eq!(ms.reached(v(2)), &[0b100]);
    }

    #[test]
    fn empty_graph_is_fine() {
        let csr = Csr::from_edges(0, &[]);
        let mut ms = AllSourcesBfs::new();
        ms.start(&csr, None);
        assert_eq!(ms.step(&csr), 0);
        assert_eq!(ms.words(), 0);
        ms.add_reached_within(&[], &mut []);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_exclusion_panics() {
        let csr = Csr::from_edges(2, &[(0, 1)]);
        AllSourcesBfs::new().start(&csr, Some(v(2)));
    }
}
