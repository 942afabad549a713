//! Bridge between the static Table-1 derivation and the fused kernels'
//! closed-form read footprints.
//!
//! The fused paths never materialize a dense per-target read-count plane
//! in a plain `Counts` run: every statically addressed generation reports
//! one δ over a strided target grid, and the metrics log is built from
//! that closed form. [`schedule::derive_row`] re-derives each row's exact
//! δ grouping from the reference rule alone, by enumerating every cell's
//! access over every admissible state. This test checks the kernels
//! against the analyzer directly (not only against the generic engine):
//! for every statically addressed `(generation, sub-generation)` the
//! logged `congestion_groups` of a fused-swar `Counts` run must equal the
//! derived [`ReadSetBound::Exact`] groups, at sizes on both sides of one
//! packed adjacency word.

use gca_analysis::schedule::{self, ReadSetBound};
use gca_engine::Engine;
use gca_graphs::generators;
use gca_hirschberg::{iteration_schedule, ExecPath, Gen, Machine};
use std::collections::{BTreeMap, BTreeSet};

#[test]
fn static_footprints_equal_derived_table1_rows() {
    for n in [1usize, 3, 64, 65, 100] {
        let g = generators::gnp(n, 0.05, n as u64);
        let mut m = Machine::with_engine(&g, Engine::sequential())
            .unwrap()
            .with_exec(ExecPath::fused_swar());
        m.init().unwrap();
        // The batched driver: it takes the fused broadcast+filter sweeps.
        m.run_iterations(1).unwrap();
        let mut covered = BTreeSet::new();
        for entry in m.metrics().entries() {
            let gen = Gen::from_number(entry.ctx.phase).unwrap();
            if matches!(gen, Gen::PointerJump | Gen::FinalMin) {
                continue;
            }
            let sub = entry.ctx.subgeneration;
            let row = schedule::derive_row(n, gen, sub);
            let ReadSetBound::Exact { groups } = row.reads else {
                panic!("n={n} {gen:?}/{sub}: static generation derived as data-dependent");
            };
            let derived: BTreeMap<u32, usize> =
                groups.into_iter().map(|(d, c)| (d, c as usize)).collect();
            assert_eq!(entry.congestion_groups, derived, "n={n} {gen:?}/{sub} groups");
            assert_eq!(entry.active_cells as u64, row.active, "n={n} {gen:?}/{sub} active");
            covered.insert((gen.number(), sub));
        }
        let statics: BTreeSet<(u32, u32)> = iteration_schedule(n)
            .into_iter()
            .filter(|(gen, _)| !matches!(gen, Gen::PointerJump | Gen::FinalMin))
            .map(|(gen, sub)| (gen.number(), sub))
            .chain([(Gen::Init.number(), 0)])
            .collect();
        assert_eq!(covered, statics, "n={n}: every static row must be logged");
    }
}
