//! Property-based tests over the core data structures and the
//! architectural invariants the mixed-mode platform relies on.
//!
//! Run on the in-repo `nestsim-harness` property runner: every case is
//! derived deterministically from a fixed root seed, and a failure
//! message carries a `NESTSIM_PROP_SEED=<seed>` replay handle.

use nestsim_harness::{check_with, properties, Config, Source};

use nestsim::arch::paged::PAGE_SLOTS;
use nestsim::arch::{DramContents, L2BankArch, L2Geometry};
use nestsim::proto::addr::LineAddr;
use nestsim::proto::addr::{l2_bank_of, PAddr};
use nestsim::rtl::{BitBuf, FlopClass, FlopSpaceBuilder};
use nestsim::stats::{Cdf, Proportion, SeedSeq};

// ── BitBuf ─────────────────────────────────────────────────────────

properties! {
    fn bitbuf_field_roundtrip(src) {
        let offset = src.range_usize(0, 190);
        let width = src.range_usize_inclusive(1, 64);
        let value = src.u64();
        let mut b = BitBuf::zeroed(256);
        b.write_bits(offset, width, value);
        let mask = if width == 64 { u64::MAX } else { (1 << width) - 1 };
        assert_eq!(b.read_bits(offset, width), value & mask);
    }

    fn bitbuf_write_does_not_disturb_neighbours(src) {
        let offset = src.range_usize(8, 180);
        let width = src.range_usize_inclusive(1, 64);
        let value = src.u64();
        let mut b = BitBuf::zeroed(256);
        // Sentinels around the written range.
        b.set(offset - 1, true);
        if offset + width < 255 {
            b.set(offset + width, true);
        }
        b.write_bits(offset, width, value);
        assert!(b.get(offset - 1));
        if offset + width < 255 {
            assert!(b.get(offset + width));
        }
    }

    fn bitbuf_double_flip_is_identity(src) {
        let bits = src.vec(0, 20, |s| s.below(128) as usize);
        let mut b = BitBuf::zeroed(128);
        let orig = b.clone();
        for &i in &bits {
            b.flip(i);
        }
        for &i in bits.iter().rev() {
            b.flip(i);
        }
        assert_eq!(b, orig);
    }

    fn bitbuf_diff_count_equals_flip_set(src) {
        let bits = src.distinct_vec(0, 30, |s| s.below(512) as usize);
        let a = BitBuf::zeroed(512);
        let mut b = a.clone();
        for &i in &bits {
            b.flip(i);
        }
        assert_eq!(a.diff_count(&b), bits.len());
        let mut found: Vec<usize> = a.diff_bits(&b).collect();
        found.sort_unstable();
        let mut expect = bits;
        expect.sort_unstable();
        assert_eq!(found, expect);
    }
}

// ── FlopSpace ──────────────────────────────────────────────────────

properties! {
    fn flopspace_fields_are_independent(src) {
        let vals = src.vec(8, 9, |s| s.u64());
        let widths = src.vec(8, 9, |s| s.range_usize_inclusive(1, 64));
        let mut builder = FlopSpaceBuilder::new("prop");
        let handles: Vec<_> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| builder.field(format!("f{i}"), w, FlopClass::Target))
            .collect();
        let mut space = builder.build();
        for (h, v) in handles.iter().zip(&vals) {
            space.write(*h, *v);
        }
        for ((h, v), w) in handles.iter().zip(&vals).zip(&widths) {
            let mask = if *w == 64 { u64::MAX } else { (1u64 << w) - 1 };
            assert_eq!(space.read(*h), v & mask);
        }
    }

    fn reset_except_config_preserves_exactly_config(src) {
        let target_v = src.u64();
        let config_v = src.range_u64(1, u64::MAX);
        let mut b = FlopSpaceBuilder::new("prop");
        let t = b.field("t", 64, FlopClass::Target);
        let c = b.field("c", 64, FlopClass::Config);
        let mut s = b.build();
        s.write(t, target_v);
        s.write(c, config_v);
        s.reset_except_config();
        assert_eq!(s.read(t), 0);
        assert_eq!(s.read(c), config_v);
    }
}

// ── Architectural cache transparency ───────────────────────────────

/// The invariant the whole mixed-mode state transfer rests on: a cache
/// in front of memory is value-transparent. Any interleaving of loads
/// and stores through `L2BankArch` must read exactly what a flat memory
/// model would.
#[derive(Debug, Clone)]
enum MemOp {
    Load(u8),
    Store(u8, u64),
    Flush,
}

fn mem_op(src: &mut Source) -> MemOp {
    match src.below(3) {
        0 => MemOp::Load(src.u8()),
        1 => MemOp::Store(src.u8(), src.u64()),
        _ => MemOp::Flush,
    }
}

#[test]
fn cache_is_value_transparent() {
    check_with(
        Config::with_cases(64),
        "cache_is_value_transparent",
        |src| {
            use std::collections::HashMap;
            let ops = src.vec(1, 120, mem_op);
            // A tiny 2-set × 2-way cache maximises evictions.
            let mut cache = L2BankArch::new(L2Geometry { sets: 2, ways: 2 });
            let mut dram = DramContents::new();
            let mut flat: HashMap<u64, u64> = HashMap::new();
            for op in &ops {
                match op {
                    MemOp::Load(slot) => {
                        // Addresses in bank 0, spread over sets and tags.
                        let addr = PAddr::new(0x1000_0000 + *slot as u64 * 8 * 64);
                        assert_eq!(l2_bank_of(addr).index(), 0);
                        let got = cache.load(addr, &mut dram).value;
                        let want = flat.get(&addr.raw()).copied().unwrap_or(0);
                        assert_eq!(got, want, "load {:#x}", addr.raw());
                    }
                    MemOp::Store(slot, v) => {
                        let addr = PAddr::new(0x1000_0000 + *slot as u64 * 8 * 64);
                        cache.store(addr, *v, &mut dram);
                        flat.insert(addr.raw(), *v);
                    }
                    MemOp::Flush => {
                        cache.flush_all(&mut dram);
                    }
                }
            }
            // After a final flush, DRAM alone holds every stored value.
            cache.flush_all(&mut dram);
            for (addr, v) in &flat {
                assert_eq!(dram.read_word(PAddr::new(*addr)), *v);
            }
        },
    );
}

// ── Copy-on-write DRAM snapshots ───────────────────────────────────

/// A line in a small window of three pages (so neighbours share a page
/// and writes straddle page boundaries), or occasionally a far line in
/// a page of its own.
fn cow_line(src: &mut Source) -> u64 {
    let page = PAGE_SLOTS as u64;
    match src.below(8) {
        0 => (1 << 30) + src.below(page),
        1 => page - 1 + src.below(2), // the last/first line of two pages
        _ => src.below(3 * page),
    }
}

/// A line's contents: all-zero a quarter of the time, so writes also
/// unback lines.
fn cow_data(src: &mut Source) -> [u64; 8] {
    if src.below(4) == 0 {
        [0; 8]
    } else {
        let mut d = [0; 8];
        d[src.index(8)] = src.u64() | 1;
        d
    }
}

type LineModel = std::collections::BTreeMap<u64, [u64; 8]>;

/// Asserts `dram` holds exactly `model`: every probed line reads back
/// its model value (zero when absent), the backed-line count matches,
/// and `==` agrees with a map rebuilt from the model alone.
fn assert_matches_model(dram: &DramContents, model: &LineModel, ctx: &str) {
    let page = PAGE_SLOTS as u64;
    for line in (0..3 * page).chain((1 << 30)..(1 << 30) + page) {
        let want = model.get(&line).copied().unwrap_or([0; 8]);
        assert_eq!(
            dram.read_line(LineAddr::new(line)),
            want,
            "{ctx}: line {line}"
        );
    }
    assert_eq!(dram.backed_lines(), model.len(), "{ctx}: backed lines");
    let mut rebuilt = DramContents::new();
    for (&line, &data) in model {
        rebuilt.write_line(LineAddr::new(line), data);
    }
    assert!(*dram == rebuilt, "{ctx}: == disagrees with the model");
}

/// Snapshot isolation of the copy-on-write DRAM pages: a clone reads
/// exactly the state at its clone point however its parent and its own
/// children are written afterwards, and `backed_lines()` and `==` agree
/// with a plain `BTreeMap` model throughout.
#[test]
fn cow_dram_clones_are_isolated() {
    check_with(
        Config::with_cases(128),
        "cow_dram_clones_are_isolated",
        |src| {
            // Live maps, each written after it is cloned, beside frozen
            // clones that nothing writes again.
            let mut live: Vec<(DramContents, LineModel)> =
                vec![(DramContents::new(), LineModel::new())];
            let mut frozen: Vec<(DramContents, LineModel)> = Vec::new();
            let steps = src.range_usize(1, 80);
            for _ in 0..steps {
                let k = src.index(live.len());
                match src.below(6) {
                    0 => {
                        let copy = live[k].clone();
                        frozen.push(live[k].clone());
                        live.push(copy);
                    }
                    1 => {
                        let line = cow_line(src);
                        let word = src.index(8);
                        let value = if src.bool() { 0 } else { src.u64() };
                        let (dram, model) = &mut live[k];
                        dram.write_word(PAddr::new(line * 64 + word as u64 * 8), value);
                        let mut data = model.get(&line).copied().unwrap_or([0; 8]);
                        data[word] = value;
                        if data == [0; 8] {
                            model.remove(&line);
                        } else {
                            model.insert(line, data);
                        }
                    }
                    _ => {
                        let line = cow_line(src);
                        let data = cow_data(src);
                        let (dram, model) = &mut live[k];
                        dram.write_line(LineAddr::new(line), data);
                        if data == [0; 8] {
                            model.remove(&line);
                        } else {
                            model.insert(line, data);
                        }
                    }
                }
            }
            for (i, (dram, model)) in live.iter().enumerate() {
                assert_matches_model(dram, model, &format!("live {i}"));
            }
            for (i, (dram, model)) in frozen.iter().enumerate() {
                assert_matches_model(dram, model, &format!("clone {i}"));
            }
            // `==` between maps agrees with `==` between their models.
            let all: Vec<_> = live.iter().chain(&frozen).collect();
            for a in &all {
                for b in &all {
                    assert_eq!(a.0 == b.0, a.1 == b.1, "pairwise ==");
                }
            }
        },
    );
}

// ── Replay idempotence (Sec. 6.3 property 1) ───────────────────────

/// QRR's correctness argument: "executing requests multiple times in
/// the same order does not change the outcome" for memory operations
/// over preserved arrays. We verify it end-to-end on the shared
/// architectural cache: re-executing any contiguous suffix of a
/// load/store sequence leaves the flushed memory image unchanged.
///
/// The paper's own footnote 14 concedes rare corner cases; ours is
/// read-modify-write atomics, whose double-execution double-applies
/// the addend — which is why the workloads never fold atomic results
/// into outputs (see `LoadUse::Discard`).
#[derive(Debug, Clone, Copy)]
enum ReplayOp {
    Load(u8),
    Store(u8, u64),
}

fn replay_op(src: &mut Source) -> ReplayOp {
    if src.bool() {
        ReplayOp::Load(src.u8())
    } else {
        ReplayOp::Store(src.u8(), src.u64())
    }
}

#[test]
fn replaying_a_suffix_is_idempotent() {
    check_with(
        Config::with_cases(48),
        "replaying_a_suffix_is_idempotent",
        |src| {
            let ops = src.vec(1, 80, replay_op);
            let from = src.index(ops.len());
            let run = |replay_from: Option<usize>| {
                let mut cache = L2BankArch::new(L2Geometry { sets: 2, ways: 2 });
                let mut dram = DramContents::new();
                let apply = |cache: &mut L2BankArch, dram: &mut DramContents, op: &ReplayOp| {
                    let addr = |slot: u8| PAddr::new(0x1000_0000 + slot as u64 * 8 * 64);
                    match op {
                        ReplayOp::Load(s) => {
                            cache.load(addr(*s), dram);
                        }
                        ReplayOp::Store(s, v) => {
                            cache.store(addr(*s), *v, dram);
                        }
                    }
                };
                for op in &ops {
                    apply(&mut cache, &mut dram, op);
                }
                if let Some(from) = replay_from {
                    // Re-execute the suffix in the original order — what
                    // the QRR record table does after a reset.
                    for op in &ops[from..] {
                        apply(&mut cache, &mut dram, op);
                    }
                }
                cache.flush_all(&mut dram);
                dram
            };
            assert_eq!(run(None), run(Some(from)));
        },
    );
}

// ── Statistics ─────────────────────────────────────────────────────

properties! {
    fn cdf_fraction_is_monotone(src) {
        let samples = src.vec(1, 200, |s| s.below(1_000_000));
        let mut cdf: Cdf = samples.into_iter().collect();
        let mut prev = 0.0;
        for d in 0..=6u32 {
            let f = cdf.fraction_at_most(10u64.pow(d));
            assert!(f >= prev);
            prev = f;
        }
        assert!((0.0..=1.0).contains(&prev));
    }

    fn rng_below_always_in_bounds(src) {
        let seed = src.u64();
        let bound = src.range_u64(1, 1_000_000);
        let mut rng = SeedSeq::new(seed).rng();
        for _ in 0..64 {
            assert!(rng.below(bound) < bound);
        }
    }

    fn derived_seeds_differ_from_parent(src) {
        let seed = src.u64();
        let label = src.lowercase_string(1, 12);
        let root = SeedSeq::new(seed);
        let child = root.derive(&label);
        assert_eq!(child.seed(), root.derive(&label).seed());
    }
}

// ── Proportion merging ─────────────────────────────────────────────

properties! {
    fn proportion_merge_is_commutative(src) {
        let mk = |s: &mut Source| {
            let trials = s.below(1_000_000);
            Proportion::new(s.below(trials + 1), trials)
        };
        let (a, b) = (mk(src), mk(src));
        let mut ab = a;
        ab.merge(b);
        let mut ba = b;
        ba.merge(a);
        assert_eq!(ab, ba);
    }

    fn proportion_merge_is_associative(src) {
        let mk = |s: &mut Source| {
            let trials = s.below(1_000_000);
            Proportion::new(s.below(trials + 1), trials)
        };
        let (a, b, c) = (mk(src), mk(src), mk(src));
        // (a ⊕ b) ⊕ c
        let mut left = a;
        left.merge(b);
        left.merge(c);
        // a ⊕ (b ⊕ c)
        let mut bc = b;
        bc.merge(c);
        let mut right = a;
        right.merge(bc);
        assert_eq!(left, right);
        // The merge is the tally concatenation: counts are exact sums.
        assert_eq!(left.successes, a.successes + b.successes + c.successes);
        assert_eq!(left.trials, a.trials + b.trials + c.trials);
    }
}
