//! # ftbb-e2ebench — the end-to-end benchmark
//!
//! Time to proven optimum on real loopback clusters of `ftbb-noded`
//! processes, set against the sequential solve (`ftbb_bnb::solve`) of the
//! same instance, under a SIGKILL, and at the paper's 100-processor scale
//! in the discrete-event simulator. Every solve is checked against the
//! sequential optimum. A separate traced pass explains each workload's
//! wall time layer by layer (`bnb`, `core`, `runtime`, `tree`, `wire`,
//! `gossip`, `des`, `sim`), timing the layers from outside through their
//! public functions.
//!
//! Run it from the repository root with
//! `python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>`;
//! `run.py` builds `ftbb-noded` and this package first.

#![warn(missing_docs)]

pub mod instances;
pub mod layers;
pub mod output;
pub mod procmem;
pub mod spans;
pub mod stats;
pub mod workloads;
