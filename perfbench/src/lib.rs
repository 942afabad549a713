//! End-to-end and per-layer benchmark of the Hirschberg GCA library.
//!
//! The benchmark drives only the library's public API, from outside, the
//! way `HirschbergGca::run` does. See `README.md` in this directory for
//! the workloads, the metric names and the command that prints them.

pub mod checks;
pub mod e2e;
pub mod graphs;
pub mod report;
pub mod trace;
pub mod traced;
pub mod workload;
