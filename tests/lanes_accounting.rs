//! Lane scalar-fallback accounting.
//!
//! `lanes.scalar_fallbacks` counts injections that ran the scalar
//! path *despite* being clustered (drawn as part of a same-trajectory
//! group): whole groups on components with no lane engine (anything
//! but L2C), and individual lanes that left an L2C batch for the
//! scalar oracle. The contract locked here: the counter equals
//! **exactly** the number of injections that took the scalar path
//! while belonging to a multi-sample group, and every fallback stays
//! byte-identical to the replay oracle: the scalar engine with no
//! intermediate ladder rungs.

use nestsim::core::campaign::{run_campaign_with, CampaignResult, CampaignSpec};
use nestsim::hlsim::workload::by_name;
use nestsim::models::ComponentKind;
use nestsim::telemetry::{names, TelemetryConfig};

fn spec(component: ComponentKind, samples: u64, lane_cluster: u64) -> CampaignSpec {
    CampaignSpec {
        seed: 7,
        // One worker keeps every cluster group whole: shard boundaries
        // would split groups and change what "took the scalar path".
        workers: 1,
        lane_cluster,
        ..CampaignSpec::quick(component, samples)
    }
}

fn assert_matches_replay(ctx: &str, spec: &CampaignSpec, got: &CampaignResult) {
    let profile = by_name("flui").unwrap();
    let oracle = CampaignSpec {
        snapshot_interval: u64::MAX,
        lane_width: 1,
        ..*spec
    };
    let reference = run_campaign_with(profile, &oracle, None);
    assert_eq!(got.records, reference.records, "{ctx}: records diverged");
    assert_eq!(got.counts, reference.counts, "{ctx}: counts diverged");
    assert_eq!(got.golden, reference.golden, "{ctx}: golden diverged");
}

/// An MCU campaign has no lane engine: with `lane_cluster = 4`, every
/// one of the 12 samples sits in a 4-sample same-trajectory group, so
/// every single injection is a scalar fallback — no more, no less.
#[test]
fn mcu_clustered_injections_are_all_scalar_fallbacks() {
    let profile = by_name("flui").unwrap();
    let spec = spec(ComponentKind::Mcu, 12, 4);
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(profile, &spec, Some(&telemetry));

    let engine = &got.telemetry.engine;
    assert_eq!(
        engine.counter(names::LANES_SCALAR_FALLBACKS),
        12,
        "every clustered MCU injection takes the scalar path"
    );
    assert_eq!(
        engine.counter(names::LANES_BATCHES),
        0,
        "non-L2C components must never lane-batch"
    );
    assert_matches_replay("mcu cluster=4", &spec, &got);
}

/// The same clustering on L2C batches instead. There, the fallback
/// counter means "lanes that *left* a batch for the scalar oracle"
/// (divergence, ArchMappable exit, abort, trapped warm-up), so the
/// exact-accounting contract is a partition: every clustered injection
/// either retires inside its batch or falls back — never both, never
/// neither.
#[test]
fn l2c_clustered_injections_partition_into_retired_and_fallbacks() {
    let profile = by_name("flui").unwrap();
    let spec = spec(ComponentKind::L2c, 12, 4);
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(profile, &spec, Some(&telemetry));

    let engine = &got.telemetry.engine;
    assert!(
        engine.counter(names::LANES_BATCHES) >= 1,
        "clustered L2C samples must actually use the lane engine"
    );
    assert_eq!(
        engine.counter(names::LANES_RETIRED_EARLY) + engine.counter(names::LANES_SCALAR_FALLBACKS),
        12,
        "every clustered L2C injection retires in-batch or falls back, exactly once"
    );
    assert_matches_replay("l2c cluster=4", &spec, &got);
}

/// Unclustered sampling (`lane_cluster = 1`) is the classic engine:
/// singletons are not "fallbacks" from anything, so the counter must
/// stay zero even though every injection runs scalar.
#[test]
fn unclustered_singletons_are_not_counted_as_fallbacks() {
    let profile = by_name("flui").unwrap();
    let spec = spec(ComponentKind::Mcu, 8, 1);
    let telemetry = TelemetryConfig::default();
    let got = run_campaign_with(profile, &spec, Some(&telemetry));

    assert_eq!(
        got.telemetry.engine.counter(names::LANES_SCALAR_FALLBACKS),
        0,
        "singleton groups are the classic engine, not a fallback"
    );
    assert_matches_replay("mcu cluster=1", &spec, &got);
}
