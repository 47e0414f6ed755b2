//! Output pinning: a digest of each cell's simulated results, and the
//! committed digest files that hold them.
//!
//! The digest covers every record, the outcome counts and the golden
//! reference, field by field, so it changes exactly when a simulated
//! statistic changes and never with host timing, worker count, engine
//! or transport.

use std::collections::BTreeMap;
use std::path::PathBuf;

use nestsim_core::{CampaignResult, Outcome};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn opt(&mut self, v: Option<u64>) {
        match v {
            None => self.u64(0),
            Some(x) => {
                self.u64(1);
                self.u64(x);
            }
        }
    }
}

pub fn digest(r: &CampaignResult) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.u64(r.golden.digest);
    h.u64(r.golden.cycles);
    for o in Outcome::ALL {
        h.u64(r.counts.count(o));
    }
    h.u64(r.records.len() as u64);
    for rec in &r.records {
        let outcome = Outcome::ALL
            .iter()
            .position(|&o| o == rec.outcome)
            .expect("every outcome is listed in Outcome::ALL");
        h.u64(outcome as u64);
        h.u64(rec.bit as u64);
        h.u64(rec.inject_cycle);
        h.u64(rec.cosim_cycles);
        h.opt(rec.erroneous_output_cycle);
        h.opt(rec.propagation_latency);
        h.u64(rec.corrupted_line_count as u64);
        h.opt(rec.rollback_distance);
    }
    h.0
}

/// Seed whose digests are committed.
pub const DEFAULT_SEED: u64 = 2015;

fn digest_file(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("digests")
        .join(format!("{workload}.txt"))
}

/// Lines `seed cell-id digest` of one workload's digest file.
fn read_lines(workload: &str) -> Vec<(u64, String, u64)> {
    let Ok(text) = std::fs::read_to_string(digest_file(workload)) else {
        return Vec::new();
    };
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            assert_eq!(f.len(), 3, "malformed digest line {l:?}");
            let seed = f[0].parse().expect("digest line seed");
            let d = u64::from_str_radix(f[2], 16).expect("digest line hex digest");
            (seed, f[1].to_string(), d)
        })
        .collect()
}

/// The pinned digests of `workload` under `seed`, if that seed is pinned.
pub fn pinned(workload: &str, seed: u64) -> Option<BTreeMap<String, u64>> {
    let map: BTreeMap<String, u64> = read_lines(workload)
        .into_iter()
        .filter(|(s, _, _)| *s == seed)
        .map(|(_, id, d)| (id, d))
        .collect();
    (!map.is_empty()).then_some(map)
}

/// Replaces the pinned digests of `seed` with `digests`, keeping the
/// lines of other seeds.
pub fn bless(workload: &str, seed: u64, digests: &BTreeMap<String, u64>) -> std::io::Result<()> {
    let mut lines: Vec<(u64, String, u64)> = read_lines(workload)
        .into_iter()
        .filter(|(s, _, _)| *s != seed)
        .collect();
    lines.extend(digests.iter().map(|(id, d)| (seed, id.clone(), *d)));
    lines.sort();
    let mut text = format!(
        "# {workload}: seed cell-id digest. Regenerate with `--bless` (see e2ebench/README.md).\n"
    );
    for (s, id, d) in lines {
        text.push_str(&format!("{s} {id} {d:016x}\n"));
    }
    let path = digest_file(workload);
    std::fs::create_dir_all(path.parent().expect("digest file has a directory"))?;
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nestsim_core::campaign::{run_campaign_with, CampaignSpec};
    use nestsim_hlsim::workload::by_name;
    use nestsim_models::ComponentKind;

    #[test]
    fn digest_is_stable_across_worker_counts_and_engines() {
        let profile = by_name("radi").unwrap();
        let base = CampaignSpec {
            length_scale: 100,
            cosim_cap: 20_000,
            seed: 11,
            ..CampaignSpec::new(ComponentKind::Mcu, 12)
        };
        let d = |workers, snapshot_interval| {
            let spec = CampaignSpec {
                workers,
                snapshot_interval,
                ..base
            };
            digest(&run_campaign_with(profile, &spec, None))
        };
        let one = d(1, base.snapshot_interval);
        assert_eq!(one, d(2, base.snapshot_interval));
        assert_eq!(one, d(3, base.snapshot_interval));
        assert_eq!(one, d(2, u64::MAX));
        let other_seed = CampaignSpec { seed: 12, ..base };
        assert_ne!(one, digest(&run_campaign_with(profile, &other_seed, None)));
    }

    #[test]
    fn digest_sees_every_record_field() {
        let profile = by_name("radi").unwrap();
        let spec = CampaignSpec {
            length_scale: 100,
            cosim_cap: 20_000,
            ..CampaignSpec::new(ComponentKind::L2c, 4)
        };
        let r = run_campaign_with(profile, &spec, None);
        let d = digest(&r);
        let mut changed = r.clone();
        changed.records[3].cosim_cycles += 1;
        assert_ne!(d, digest(&changed));
        let mut changed = r.clone();
        changed.records[0].rollback_distance = match r.records[0].rollback_distance {
            Some(_) => None,
            None => Some(0),
        };
        assert_ne!(d, digest(&changed));
        let mut changed = r;
        changed.golden.cycles += 1;
        assert_ne!(d, digest(&changed));
    }

    #[test]
    fn every_workload_pins_the_default_seed() {
        for w in crate::cells::Workload::ALL {
            let pins = pinned(w.name(), DEFAULT_SEED).expect("default seed is pinned");
            let cells = crate::cells::workload_cells(w, DEFAULT_SEED);
            assert_eq!(pins.len(), cells.len(), "{}", w.name());
            for c in cells {
                assert!(pins.contains_key(&c.id()), "{} lacks {}", w.name(), c.id());
            }
        }
    }
}
