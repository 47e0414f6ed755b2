//! The four workloads and the inputs each one generates from the seed.
//!
//! Every workload is a closed loop driven from one process with at
//! most two client threads or connections (the size of the 2-CPU
//! machines the committed numbers come from). The program only ever
//! receives the generated `CampaignSpec`s and `JobWire`s.

use nestsim_cluster::JobWire;
use nestsim_core::campaign::CampaignSpec;
use nestsim_hlsim::workload::{by_name, BenchProfile};
use nestsim_models::ComponentKind;
use nestsim_stats::stop::StopPolicy;
use nestsim_stats::SeedSeq;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fixed-sample grid over all four components on short benchmarks:
    /// the per-injection co-simulation path does most of the work.
    CosimGrid,
    /// Few samples per cell on long benchmarks: golden pass, ladder
    /// capture and rung clones do most of the work.
    LadderLong,
    /// Two closed-loop tenants of the campaign service whose job
    /// streams half overlap (store or in-flight dedup hits) and half
    /// execute.
    SvcTwoTenants,
    /// Adaptive campaigns run through the cluster coordinator with two
    /// thread workers over loopback.
    AdaptiveCluster,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CosimGrid,
        Workload::LadderLong,
        Workload::SvcTwoTenants,
        Workload::AdaptiveCluster,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CosimGrid => "cosim_grid",
            Workload::LadderLong => "ladder_long",
            Workload::SvcTwoTenants => "svc_two_tenants",
            Workload::AdaptiveCluster => "adaptive_cluster",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One campaign cell as the program receives it.
#[derive(Debug, Clone, Copy)]
pub struct Cell {
    pub profile: &'static BenchProfile,
    pub spec: CampaignSpec,
}

impl Cell {
    fn new(comp: ComponentKind, bench: &str, f: impl FnOnce(CampaignSpec) -> CampaignSpec) -> Cell {
        Cell {
            profile: by_name(bench).expect("workload names a registered benchmark"),
            spec: f(CampaignSpec::new(comp, 0)),
        }
    }

    /// Stable identifier: the digest files are keyed by it.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/n{}/x{}/s{:016x}",
            self.spec.component.name(),
            self.profile.name,
            self.spec.samples,
            self.spec.length_scale,
            self.spec.seed
        )
    }

    pub fn job(&self) -> JobWire {
        JobWire::from_spec(self.profile, &self.spec, None)
    }

    /// The same cell with intermediate ladder rungs disabled: every
    /// injection replays from cycle 0. Results must not change.
    pub fn no_ladder(&self) -> Cell {
        Cell {
            spec: CampaignSpec {
                snapshot_interval: u64::MAX,
                ..self.spec
            },
            ..*self
        }
    }

    pub fn with_samples(&self, samples: u64) -> Cell {
        Cell {
            spec: CampaignSpec {
                samples,
                ..self.spec
            },
            ..*self
        }
    }
}

/// `repro`'s default benchmark length divisor.
const GRID_SCALE: u64 = 20;

/// (component, benchmark, samples): at least 200 injections per
/// component, so that its p90 injection time is reportable, except on
/// the crossbar, whose injections cost ~10x the others'; its 32
/// injections still give a p50. How long a crossbar injection runs
/// varies most from sample to sample, and each cell waits for the
/// slower of its two workers, so a crossbar-heavy grid's wall time
/// would depend on the seed more than on the program: the cheaper
/// components carry most of the injections instead.
const GRID: [(ComponentKind, &str, u64); 7] = [
    (ComponentKind::Ccx, "radi", 16),
    (ComponentKind::Ccx, "blsc", 16),
    (ComponentKind::L2c, "radi", 120),
    (ComponentKind::L2c, "lu-c", 120),
    (ComponentKind::Mcu, "radi", 200),
    (ComponentKind::Pcie, "blsc", 120),
    (ComponentKind::Pcie, "p-lr", 120),
];

/// Long benchmarks at the same divisor, few samples each: every
/// laddered golden pass takes several times longer than on the grid's
/// benchmarks, so set-up and rung clones dominate.
const LONG: [(ComponentKind, &str, u64); 6] = [
    (ComponentKind::L2c, "vips", 10),
    (ComponentKind::L2c, "fft", 10),
    (ComponentKind::L2c, "x264", 10),
    (ComponentKind::L2c, "flui", 10),
    (ComponentKind::Mcu, "x264", 10),
    (ComponentKind::Mcu, "flui", 10),
];

/// Co-simulation cap of the grid cells, lowered from the default
/// 100 000 cycles: one injection that runs to the default cap costs
/// more than a long cell's whole set-up (MCU on x264) or ten ordinary
/// crossbar injections, and whether the seed draws one would decide
/// the workload's wall time.
const COSIM_CAP: u64 = 20_000;

/// Campaigns per `LONG` row, each under its own seed derived from the
/// run's seed. Ten samples per cell are few, and which entry points a
/// seed draws moved single cells by up to 1.8x (MCU on x264: 0.15 s
/// on one seed, 0.27 s on another); a second seed per row averages
/// that out.
const LONG_SEEDS_PER_ROW: u64 = 2;

/// `count` campaign seeds derived from the run's seed for one workload.
fn derived_seeds(seed: u64, label: &str, count: u64) -> Vec<u64> {
    let root = SeedSeq::new(seed).derive(label);
    (0..count).map(|k| root.derive_index(k).seed()).collect()
}

/// In-process cells of the grid workloads: every table row under each
/// of the workload's campaign seeds.
pub fn grid_cells(w: Workload, seed: u64) -> Vec<Cell> {
    let (table, seeds): (&[(ComponentKind, &str, u64)], Vec<u64>) = match w {
        Workload::CosimGrid => (&GRID, vec![seed]),
        Workload::LadderLong => (
            &LONG,
            derived_seeds(seed, "e2ebench-ladder", LONG_SEEDS_PER_ROW),
        ),
        _ => (&[], Vec::new()),
    };
    seeds
        .into_iter()
        .flat_map(|seed| {
            table.iter().map(move |&(comp, bench, samples)| {
                Cell::new(comp, bench, |s| CampaignSpec {
                    samples,
                    seed,
                    length_scale: GRID_SCALE,
                    workers: 2,
                    cosim_cap: COSIM_CAP,
                    ..s
                })
            })
        })
        .collect()
}

/// Jobs per tenant; half of them are also submitted by the other tenant.
pub const SVC_JOBS_PER_TENANT: usize = 60;

/// The (component, benchmark) pairs the service jobs cycle through:
/// short benchmarks, PCIe only on those with an input file.
const SVC_CELLS: [(ComponentKind, &str); 11] = [
    (ComponentKind::L2c, "radi"),
    (ComponentKind::Mcu, "lu-c"),
    (ComponentKind::Pcie, "blsc"),
    (ComponentKind::L2c, "lu-c"),
    (ComponentKind::Mcu, "blsc"),
    (ComponentKind::Pcie, "p-lr"),
    (ComponentKind::L2c, "blsc"),
    (ComponentKind::Mcu, "p-lr"),
    (ComponentKind::Pcie, "chol"),
    (ComponentKind::L2c, "p-lr"),
    (ComponentKind::Mcu, "radi"),
];

/// The two tenants' job streams, in submission order. Every stream
/// cycles through [`SVC_CELLS`] from its own offset, so the mix of
/// cells is the same under every seed and only the campaign seeds
/// differ. Shared job `k` sits at position `2k` in tenant A's stream
/// and `2k + 1` in tenant B's, so some duplicates arrive while the
/// first copy is in flight and some after it is stored.
pub fn svc_streams(seed: u64) -> [Vec<Cell>; 2] {
    let root = SeedSeq::new(seed).derive("e2ebench-svc");
    let job = |label: &str, offset: usize, k: u64| -> Cell {
        let (comp, bench) = SVC_CELLS[(offset + k as usize) % SVC_CELLS.len()];
        let seed = root.derive(label).derive_index(k).seed();
        Cell::new(comp, bench, |s| CampaignSpec {
            samples: 8,
            seed,
            length_scale: 100,
            cosim_cap: 20_000,
            workers: 1,
            ..s
        })
    };
    let half = (SVC_JOBS_PER_TENANT / 2) as u64;
    let mut a = Vec::with_capacity(SVC_JOBS_PER_TENANT);
    let mut b = Vec::with_capacity(SVC_JOBS_PER_TENANT);
    for k in 0..half {
        a.push(job("shared", 0, k));
        a.push(job("tenant-a", 4, k));
        b.push(job("tenant-b", 8, k));
        b.push(job("shared", 0, k));
    }
    [a, b]
}

/// Distinct cells of a job list, in first-submission order.
pub fn distinct(cells: impl IntoIterator<Item = Cell>) -> Vec<Cell> {
    let mut seen = std::collections::BTreeSet::new();
    cells.into_iter().filter(|c| seen.insert(c.id())).collect()
}

/// The (component, benchmark) pairs of the adaptive workload: L2C and
/// MCU on two short benchmarks at the quick divisor.
const ADAPTIVE_PAIRS: [(ComponentKind, &str); 4] = [
    (ComponentKind::L2c, "radi"),
    (ComponentKind::Mcu, "lu-c"),
    (ComponentKind::L2c, "lu-c"),
    (ComponentKind::Mcu, "radi"),
];

/// Campaigns per pair, each under its own seed derived from the run's
/// seed. How many samples a cell runs before it stops depends on its
/// seed: at a ±5-point target and one seed per pair, the workload ran
/// 640–860 samples across ten seeds. Two seeds per pair at the tighter
/// target of [`adaptive_policy`] ran 2830–3060 across six.
const ADAPTIVE_SEEDS_PER_PAIR: u64 = 2;

/// The adaptive cells: every pair under each derived seed.
pub fn adaptive_cells(seed: u64) -> Vec<Cell> {
    derived_seeds(seed, "e2ebench-adaptive", ADAPTIVE_SEEDS_PER_PAIR)
        .into_iter()
        .flat_map(|seed| {
            ADAPTIVE_PAIRS.map(|(comp, bench)| {
                Cell::new(comp, bench, |s| CampaignSpec {
                    seed,
                    length_scale: 100,
                    cosim_cap: 20_000,
                    workers: 2,
                    ..s
                })
            })
        })
        .collect()
}

/// Stop rule of the adaptive cells: a ±3.5-point target, reached in
/// 4–7 rounds.
pub fn adaptive_policy() -> StopPolicy {
    StopPolicy {
        min_samples: 32,
        initial_round: 32,
        max_round: 128,
        max_samples: 1024,
        ..StopPolicy::new(0.035, 0.95)
    }
}

/// Every distinct cell a workload runs, for reference digests and the
/// in-process probes.
pub fn workload_cells(w: Workload, seed: u64) -> Vec<Cell> {
    match w {
        Workload::CosimGrid | Workload::LadderLong => grid_cells(w, seed),
        Workload::SvcTwoTenants => {
            let [a, b] = svc_streams(seed);
            distinct(a.into_iter().chain(b))
        }
        Workload::AdaptiveCluster => adaptive_cells(seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        for w in Workload::ALL {
            let ids =
                |seed| -> Vec<String> { workload_cells(w, seed).iter().map(Cell::id).collect() };
            assert_eq!(ids(5), ids(5), "{}", w.name());
            assert_ne!(ids(5), ids(6), "{}", w.name());
            for c in workload_cells(w, 5) {
                c.spec.validate().expect("generated specs are valid");
            }
        }
    }

    #[test]
    fn svc_streams_share_half_their_jobs() {
        let [a, b] = svc_streams(2015);
        assert_eq!(a.len(), SVC_JOBS_PER_TENANT);
        assert_eq!(b.len(), SVC_JOBS_PER_TENANT);
        let all = distinct(a.iter().chain(b.iter()).copied());
        assert_eq!(all.len(), SVC_JOBS_PER_TENANT * 3 / 2);
        assert_eq!(a[0].id(), b[1].id());
    }
}
