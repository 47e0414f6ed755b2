//! Campaign-engine benchmark: the snapshot-ladder engine against the
//! same engine without intermediate rungs (`snapshot_interval =
//! u64::MAX`, every injection replays from cycle 0), at 4 workers, over
//! a small multi-cell (component × benchmark) grid — the shape `repro`'s
//! figure pipelines actually run.
//!
//! Both produce byte-identical campaigns (locked by the end-to-end
//! equivalence tests); this bench measures what that costs. It also
//! prints the deterministic forward-sim cycle counts from the engine
//! telemetry, which is where the ladder's win comes from.
//!
//! The `snapshot` group times the ladder's own cost on the same cells:
//! a plain golden run, the laddered golden run that captures the rungs,
//! and a restore (clone) of every rung. The binary asserts the laddered
//! pass stays within 1.5× the plain one, the bound copy-on-write DRAM
//! pages made reachable.
//!
//! Writes `BENCH_campaign_grid.json` via the in-repo harness runner.

use std::hint::black_box;

use nestsim_core::campaign::{
    golden_reference, laddered_golden_reference, run_campaign_with, CampaignSpec,
};
use nestsim_harness::bench::Suite;
use nestsim_hlsim::workload::by_name;
use nestsim_models::ComponentKind;
use nestsim_telemetry::{names, TelemetryConfig};

const WORKERS: usize = 4;

/// Upper bound on laddered ÷ plain golden-pass time.
const MAX_LADDER_TAX: f64 = 1.5;

const CELLS: [(ComponentKind, &str); 3] = [
    (ComponentKind::L2c, "radi"),
    (ComponentKind::L2c, "lu-c"),
    (ComponentKind::Mcu, "flui"),
];

fn spec(component: ComponentKind) -> CampaignSpec {
    CampaignSpec {
        seed: 99,
        length_scale: 100,
        cosim_cap: 20_000,
        workers: WORKERS,
        ..CampaignSpec::new(component, 6)
    }
}

/// The same cell without intermediate ladder rungs.
fn no_ladder(component: ComponentKind) -> CampaignSpec {
    CampaignSpec {
        snapshot_interval: u64::MAX,
        ..spec(component)
    }
}

fn main() {
    let mut suite = Suite::new("campaign_grid");
    suite.bench("campaign_grid/workers4", "ladder_engine", || {
        for (kind, bench) in CELLS {
            black_box(run_campaign_with(
                by_name(bench).unwrap(),
                &spec(kind),
                None,
            ));
        }
    });
    suite.bench("campaign_grid/workers4", "no_ladder_engine", || {
        for (kind, bench) in CELLS {
            black_box(run_campaign_with(
                by_name(bench).unwrap(),
                &no_ladder(kind),
                None,
            ));
        }
    });

    suite.bench("campaign_grid/snapshot", "golden_plain", || {
        for (kind, bench) in CELLS {
            black_box(golden_reference(by_name(bench).unwrap(), &spec(kind)));
        }
    });
    suite.bench("campaign_grid/snapshot", "golden_laddered", || {
        for (kind, bench) in CELLS {
            black_box(laddered_golden_reference(
                by_name(bench).unwrap(),
                &spec(kind),
            ));
        }
    });
    let ladders: Vec<_> = CELLS
        .iter()
        .map(|&(kind, bench)| laddered_golden_reference(by_name(bench).unwrap(), &spec(kind)).0)
        .collect();
    suite.bench("campaign_grid/snapshot", "rung_restore", || {
        for ladder in &ladders {
            for k in 0..ladder.len() as u64 {
                black_box(ladder.rung_below(k * ladder.interval()).clone());
            }
        }
    });
    let fastest = |name: &str| {
        suite
            .records()
            .iter()
            .find(|r| r.name == name)
            .map(|r| r.min_ns)
            .expect("bench row exists")
    };
    // Fastest samples, not medians: background load only ever slows a
    // sample down, so best-of-samples is the stable ratio.
    let (plain, laddered) = (fastest("golden_plain"), fastest("golden_laddered"));
    let tax = laddered / plain.max(1.0);
    eprintln!(
        "campaign_grid: ladder tax {tax:.2} (laddered {:.1} ms / plain {:.1} ms)",
        laddered / 1e6,
        plain / 1e6
    );
    assert!(
        tax <= MAX_LADDER_TAX,
        "laddered golden pass costs {tax:.2}x the plain one (bound {MAX_LADDER_TAX}x)"
    );

    // The deterministic half of the story: total forward-sim cycles per
    // engine, summed over the grid, straight from the engine telemetry.
    let cfg = TelemetryConfig::default();
    let (mut ladder_fwd, mut no_ladder_fwd) = (0u64, 0u64);
    for (kind, bench) in CELLS {
        let profile = by_name(bench).unwrap();
        ladder_fwd += run_campaign_with(profile, &spec(kind), Some(&cfg))
            .telemetry
            .engine
            .counter(names::FORWARD_CYCLES);
        no_ladder_fwd += run_campaign_with(profile, &no_ladder(kind), Some(&cfg))
            .telemetry
            .engine
            .counter(names::FORWARD_CYCLES);
    }
    eprintln!(
        "campaign_grid: forward-sim cycles — ladder {ladder_fwd}, no ladder {no_ladder_fwd} ({:.1}x)",
        no_ladder_fwd as f64 / ladder_fwd.max(1) as f64
    );
    assert!(
        no_ladder_fwd >= 2 * ladder_fwd,
        "ladder engine must forward-simulate >= 2x fewer cycles at {WORKERS} workers"
    );

    suite.finish();
}
