//! Seeded benchmark inputs.
//!
//! Every single-graph workload cycles through the same four families in a
//! fixed order: dense `G(n, 0.3)`, sparse `G(n, 2/n)`, a path and a star.
//! Path and star are the diameter extremes (pointer-jump depth `n - 1`
//! versus a single hub of degree `n - 1`); their node labels are shuffled by
//! a seeded permutation, so the seed changes every family and no label order
//! favours the min-reductions. The program under test only ever receives the
//! finished [`AdjacencyMatrix`].

use gca_graphs::{generators, AdjacencyMatrix};

/// One input family of the fixed cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Family {
    /// `G(n, 0.3)`: one giant component, `m = Θ(n²)`.
    Dense,
    /// `G(n, 2/n)`: just above the giant-component threshold, many small
    /// components.
    Sparse,
    /// A path over shuffled labels: diameter `n - 1`.
    Path,
    /// A star over shuffled labels: diameter 2, maximal degree.
    Star,
}

impl Family {
    /// The order every workload cycles through.
    pub const CYCLE: [Family; 4] = [Family::Dense, Family::Sparse, Family::Path, Family::Star];

    /// Stable name for reports.
    pub fn name(self) -> &'static str {
        match self {
            Family::Dense => "dense",
            Family::Sparse => "sparse",
            Family::Path => "path",
            Family::Star => "star",
        }
    }
}

/// One step of SplitMix64.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The seed of the `index`-th graph of a stream started from `seed`.
fn graph_seed(seed: u64, index: usize) -> u64 {
    let mut state = seed ^ (index as u64).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    splitmix64(&mut state)
}

/// A uniformly random permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    perm
}

/// One graph of `family` on `n ≥ 2` nodes.
pub fn family_graph(family: Family, n: usize, seed: u64) -> AdjacencyMatrix {
    match family {
        Family::Dense => generators::gnp(n, 0.3, seed),
        Family::Sparse => generators::gnp(n, 2.0 / n as f64, seed),
        Family::Path => generators::path(n).permute(&permutation(n, seed)),
        Family::Star => generators::star(n).permute(&permutation(n, seed)),
    }
}

/// The family of the `index`-th graph of every stream.
pub fn family_of(index: usize) -> Family {
    Family::CYCLE[index % Family::CYCLE.len()]
}

/// The first `count` graphs of the stream of `n`-node inputs for `seed`.
pub fn stream(n: usize, seed: u64, count: usize) -> Vec<AdjacencyMatrix> {
    (0..count)
        .map(|i| family_graph(family_of(i), n, graph_seed(seed, i)))
        .collect()
}
