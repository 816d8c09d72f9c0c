//! Seeded workload inputs.
//!
//! The program only ever sees what this module generates: scenario spec
//! texts (TOML) and, for `serve-mixed`, HTTP request bodies. The batch
//! workloads draw from fixed pools of (shape, variant) entries whose
//! record-stream digests are committed under `expected/`. A run cycles
//! through the whole pool, one variant of every shape per cycle; the
//! workload seed picks which variants share a cycle and the order, so
//! the work mix (and with it the throughput) does not drift with the
//! seed.

/// SplitMix64: a tiny, stable PRNG for input generation (the harness
/// must not depend on the program's own RNG to make its inputs).
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// One batch operation's input: a pool key (digest lookup) and the spec
/// text handed to the program.
#[derive(Clone, Debug)]
pub struct BatchInput {
    pub key: String,
    pub text: String,
}

/// Batch workload shapes: (model, budget, n).
pub type Shape = (&'static str, usize, usize);

/// `exact-churn`: exact best response, SUM/MAX, unit budgets at
/// n = 128–192 and budget 2 at n = 48–64, on `churn.toml`'s timeline.
pub const EXACT_CHURN_SHAPES: [Shape; 12] = [
    ("sum", 1, 128),
    ("sum", 1, 160),
    ("sum", 1, 192),
    ("max", 1, 128),
    ("max", 1, 160),
    ("max", 1, 192),
    ("sum", 2, 48),
    ("sum", 2, 56),
    ("sum", 2, 64),
    ("max", 2, 48),
    ("max", 2, 56),
    ("max", 2, 64),
];

/// `swap-sweep`: best-swap, budget 2, 8-seed sweeps with arrival and
/// budget-shock phases.
pub const SWAP_SWEEP_SHAPES: [Shape; 6] = [
    ("sum", 2, 96),
    ("sum", 2, 112),
    ("sum", 2, 128),
    ("max", 2, 72),
    ("max", 2, 88),
    ("max", 2, 104),
];

/// Seeds per `swap-sweep` sweep.
pub const SWEEP_SEEDS: usize = 8;

/// Variants per shape in each pool (the committed digests cover all).
pub const VARIANTS: u64 = 16;

/// The program seed of pool entry (shape, variant): fixed, so the
/// committed digests stay valid.
fn entry_seed(shape: usize, variant: u64) -> u64 {
    1_000 + 100 * shape as u64 + variant
}

pub fn exact_churn_entry(shape: usize, variant: u64) -> BatchInput {
    let (model, b, n) = EXACT_CHURN_SHAPES[shape];
    let churn = n / 16;
    let key = format!("exact-churn/{model}-b{b}-n{n}/v{variant}");
    let text = format!(
        "[scenario]\nname = \"{key}\"\nseed = {seed}\n\n\
         [init]\nfamily = \"uniform\"\nn = {n}\nbudget = {b}\n\n\
         [dynamics]\nmodel = \"{model}\"\nrule = \"exact\"\norder = \"round-robin\"\nmax_rounds = 400\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n\
         [[phase]]\nkind = \"arrive\"\ncount = {churn}\nbudget = {b}\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n\
         [[phase]]\nkind = \"depart\"\ncount = {churn}\n\n\
         [[phase]]\nkind = \"dynamics\"\n",
        seed = entry_seed(shape, variant),
    );
    BatchInput { key, text }
}

pub fn swap_sweep_entry(shape: usize, variant: u64) -> BatchInput {
    let (model, b, n) = SWAP_SWEEP_SHAPES[shape];
    let churn = n / 16;
    let key = format!("swap-sweep/{model}-b{b}-n{n}/v{variant}");
    let text = format!(
        "[scenario]\nname = \"{key}\"\nseed = {seed}\nseeds = {SWEEP_SEEDS}\n\n\
         [init]\nfamily = \"uniform\"\nn = {n}\nbudget = {b}\n\n\
         [dynamics]\nmodel = \"{model}\"\nrule = \"swap\"\norder = \"round-robin\"\nmax_rounds = 200\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n\
         [[phase]]\nkind = \"arrive\"\ncount = {churn}\nbudget = {b}\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n\
         [[phase]]\nkind = \"budget-shock\"\ncount = {churn}\ndelta = 1\n\n\
         [[phase]]\nkind = \"dynamics\"\n\n\
         [[phase]]\nkind = \"budget-shock\"\ncount = {churn}\ndelta = -1\n\n\
         [[phase]]\nkind = \"dynamics\"\n",
        seed = 100 * entry_seed(shape, variant),
    );
    BatchInput { key, text }
}

/// A batch workload's shape count, pool-entry constructor, and how
/// many cycles its traced run replays (about 5 s of untraced work).
fn family(workload: &str) -> (usize, fn(usize, u64) -> BatchInput, usize) {
    match workload {
        "exact-churn" => (EXACT_CHURN_SHAPES.len(), exact_churn_entry, 6),
        "swap-sweep" => (SWAP_SWEEP_SHAPES.len(), swap_sweep_entry, 3),
        other => panic!("no batch inputs for workload {other}"),
    }
}

/// Every entry of a batch workload's pool, in a fixed order.
pub fn pool(workload: &str) -> Vec<BatchInput> {
    let (shapes, entry, _) = family(workload);
    (0..shapes)
        .flat_map(|s| (0..VARIANTS).map(move |v| entry(s, v)))
        .collect()
}

/// The set-up's warm-up inputs, the same on every seed: variant 0 of
/// the first shape of each group of three (one per model and budget).
pub fn warmup_inputs(workload: &str) -> Vec<BatchInput> {
    let (shapes, entry, _) = family(workload);
    (0..shapes).step_by(3).map(|s| entry(s, 0)).collect()
}

/// One run's cycles: cycle `j` holds one variant of every shape, and
/// the cycles together hold every pool entry once. The seed picks the
/// variants of each cycle and the order within it.
pub fn batch_cycles(workload: &str, seed: u64) -> Vec<Vec<BatchInput>> {
    let (shapes, entry, _) = family(workload);
    let mut rng = SplitMix::new(seed);
    let perms: Vec<Vec<u64>> = (0..shapes)
        .map(|_| {
            let mut variants: Vec<u64> = (0..VARIANTS).collect();
            rng.shuffle(&mut variants);
            variants
        })
        .collect();
    (0..VARIANTS as usize)
        .map(|j| {
            let mut cycle: Vec<BatchInput> = perms
                .iter()
                .enumerate()
                .map(|(s, p)| entry(s, p[j]))
                .collect();
            rng.shuffle(&mut cycle);
            cycle
        })
        .collect()
}

/// The traced run's inputs: the first few cycles, as one list.
pub fn batch_inputs(workload: &str, seed: u64) -> Vec<BatchInput> {
    let (_, _, traced) = family(workload);
    batch_cycles(workload, seed)
        .into_iter()
        .take(traced)
        .flatten()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs() {
        for w in ["exact-churn", "swap-sweep"] {
            let a: Vec<String> = batch_inputs(w, 7).into_iter().map(|i| i.text).collect();
            let b: Vec<String> = batch_inputs(w, 7).into_iter().map(|i| i.text).collect();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn different_seed_different_inputs_same_shapes() {
        for w in ["exact-churn", "swap-sweep"] {
            let a = batch_inputs(w, 1);
            let b = batch_inputs(w, 2);
            let keys = |v: &[BatchInput]| {
                let mut k: Vec<String> = v.iter().map(|i| i.key.clone()).collect();
                k.sort();
                k
            };
            assert_ne!(keys(&a), keys(&b), "{w}: seed must change the inputs");
            let shapes = |v: &[BatchInput]| {
                let mut s: Vec<String> = v
                    .iter()
                    .map(|i| i.key.rsplit_once('/').unwrap().0.to_string())
                    .collect();
                s.sort();
                s
            };
            assert_eq!(shapes(&a), shapes(&b), "{w}: every run covers every shape");
        }
    }

    #[test]
    fn cycles_cover_the_pool_once() {
        for w in ["exact-churn", "swap-sweep"] {
            let mut keys: Vec<String> = batch_cycles(w, 5)
                .into_iter()
                .flatten()
                .map(|i| i.key)
                .collect();
            keys.sort();
            let mut pool: Vec<String> = pool(w).into_iter().map(|i| i.key).collect();
            pool.sort();
            assert_eq!(keys, pool);
        }
    }

    #[test]
    fn every_input_parses() {
        for w in ["exact-churn", "swap-sweep"] {
            for input in pool(w) {
                bbncg_scenario::parse_spec(&input.text)
                    .unwrap_or_else(|e| panic!("{}: {e}", input.key));
            }
        }
    }
}
