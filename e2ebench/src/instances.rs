//! Size-banded instances. Hardness swings by orders of magnitude across
//! generator seeds (knapsack n=50 gives 501,201, 673 and 65,436 sequential
//! expansions at seeds 1, 2 and 3), so a workload does not name its
//! instances: it names a band of sequential expansion counts and a
//! generator seed to scan upward from, and keeps the first instances whose
//! count lands in the band. The scan runs in every run and its choices
//! are recorded with the results.
//!
//! The scan's start is fixed per workload rather than taken from the
//! workload seed: within one band, per-expansion cost, work inflation and
//! the weight of fixed costs still differ by 10–40% between instances, far
//! more than the run-to-run noise the benchmark must resolve. The workload
//! seed drives the nodes' protocol randomness instead.

use ftbb_bnb::{solve, AnyInstance, Correlation, SolveConfig};
use ftbb_wire::config::{KnapsackSpec, MaxSatSpec, ProblemSpec};

/// Most generator seeds a scan probes before it gives up.
pub const MAX_PROBES: u64 = 10_000;

/// A generated problem family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Family {
    /// Strongly correlated 0/1 knapsack.
    Knapsack {
        /// Items.
        n: usize,
        /// Weight range.
        range: u64,
        /// Capacity as a fraction of total weight.
        frac: f64,
    },
    /// Weighted MAX-SAT.
    MaxSat {
        /// Variables.
        vars: u16,
        /// Clauses.
        clauses: usize,
    },
}

impl Family {
    /// The problem spec of generator seed `seed`.
    pub fn spec(&self, seed: u64) -> ProblemSpec {
        match *self {
            Family::Knapsack { n, range, frac } => ProblemSpec::Knapsack(KnapsackSpec {
                n,
                range,
                correlation: Correlation::Strong,
                frac,
                seed,
            }),
            Family::MaxSat { vars, clauses } => ProblemSpec::MaxSat(MaxSatSpec {
                vars,
                clauses,
                seed,
            }),
        }
    }

    /// A tiny member of the family: the set-up probe's instance, solved
    /// in well under a millisecond.
    pub fn trivial(&self) -> Family {
        match *self {
            Family::Knapsack { .. } => Family::Knapsack {
                n: 8,
                range: 100,
                frac: 0.5,
            },
            Family::MaxSat { .. } => Family::MaxSat {
                vars: 6,
                clauses: 12,
            },
        }
    }
}

/// An inclusive band of sequential expansion counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Band {
    /// Fewest sequential expansions accepted.
    pub lo: u64,
    /// Most sequential expansions accepted.
    pub hi: u64,
}

/// An instance the scan accepted.
#[derive(Debug, Clone)]
pub struct Chosen {
    /// Its generator seed.
    pub seed: u64,
    /// Its spec, as handed to the launcher.
    pub spec: ProblemSpec,
    /// The materialised instance.
    pub instance: AnyInstance,
    /// Sequential expansions to the proven optimum.
    pub seq_expansions: u64,
    /// The sequential optimum every distributed run must match bit for bit.
    pub optimum: f64,
}

/// Sequential expansions of one candidate, capped just past the band: the
/// count, or `None` when the solve hit the cap or is infeasible.
fn probe(family: Family, band: Band, seed: u64) -> Result<Option<Chosen>, String> {
    let spec = family.spec(seed);
    let instance = spec.instance().map_err(|e| e.to_string())?;
    let config = SolveConfig {
        max_expanded: Some(band.hi + 1),
        ..SolveConfig::default()
    };
    let r = solve(&instance, &config);
    let n = r.stats.expanded;
    Ok(match r.best {
        Some(optimum) if (band.lo..=band.hi).contains(&n) => Some(Chosen {
            seed,
            spec,
            instance,
            seq_expansions: n,
            optimum,
        }),
        _ => None,
    })
}

/// Scan generator seeds upward from `first` until `count` instances land
/// in `band`. Candidates are probed on all cores
/// in windows, but accepted strictly in seed order, so the result depends
/// only on the arguments. Returns the chosen instances and how many
/// candidates were probed.
pub fn scan(
    family: Family,
    band: Band,
    count: usize,
    first: u64,
) -> Result<(Vec<Chosen>, u64), String> {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get()) as u64;
    let mut chosen = Vec::with_capacity(count);
    let mut probed = 0u64;
    while chosen.len() < count {
        if probed >= MAX_PROBES || first.checked_add(probed + threads).is_none() {
            return Err(format!(
                "no {count} instances in band {}..={} among generator seeds {first}..{}",
                band.lo,
                band.hi,
                first + probed
            ));
        }
        let window: Vec<Result<Option<Chosen>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|k| {
                    let seed = first + probed + k;
                    s.spawn(move || probe(family, band, seed))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("probe thread panicked"))
                .collect()
        });
        probed += threads;
        for hit in window {
            if let Some(c) = hit? {
                if chosen.len() < count {
                    chosen.push(c);
                }
            }
        }
    }
    Ok((chosen, probed))
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: Family = Family::Knapsack {
        n: 16,
        range: 100,
        frac: 0.5,
    };

    #[test]
    fn scan_is_deterministic_and_in_band() {
        let band = Band { lo: 20, hi: 400 };
        let (a, probed) = scan(TINY, band, 3, 700).unwrap();
        let (b, _) = scan(TINY, band, 3, 700).unwrap();
        assert_eq!(a.len(), 3);
        assert!(probed >= 3);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.seed, y.seed);
            assert!(x.seed >= 700);
            assert!((band.lo..=band.hi).contains(&x.seq_expansions));
            assert_eq!(x.optimum.to_bits(), y.optimum.to_bits());
        }
        assert!(a.windows(2).all(|w| w[0].seed < w[1].seed));
    }

    #[test]
    fn impossible_band_is_an_error() {
        let band = Band {
            lo: u64::MAX - 1,
            hi: u64::MAX - 1,
        };
        let family = Family::MaxSat {
            vars: 3,
            clauses: 4,
        };
        assert!(scan(family, band, 1, 1).is_err());
    }
}
