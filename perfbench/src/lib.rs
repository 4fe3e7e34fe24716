//! # perfbench
//!
//! The repository's benchmark: three seeded, closed-loop workloads over
//! the amos-pdiff engine and server (`point-commit`, `bulk-commit`,
//! `server-ledger`), their correctness checks, and a traced run that
//! splits transaction time across the program's layers. See
//! `perfbench/README.md` for what each workload exercises and how to
//! read the metrics.

pub mod inventory;
pub mod layers;
pub mod ledger;
pub mod report;
pub mod rng;
pub mod stats;
pub mod trace;
pub mod workloads;
