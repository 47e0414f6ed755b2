//! Page-granular, copy-on-write sparse maps: snapshots that cost what
//! changed.
//!
//! The accelerated-mode simulator snapshots the whole system at every
//! ladder rung and every injection restore (Fig. 2 step 1). The two
//! large line-keyed maps it carries — DRAM contents and the last-store
//! cycles of the rollback analysis — change in a few hundred lines
//! between rungs out of tens of thousands. [`PagedMap`] groups
//! consecutive keys into fixed-size pages held behind [`Arc`], so a
//! clone copies one pointer per page and a write copies only the page it
//! touches (`Arc::make_mut`), and only while that page is still shared
//! with a snapshot.
//!
//! Pages are `Arc` rather than `Rc` because ladder rungs are shared
//! across campaign worker threads: every worker restores its cursor
//! from the same rungs.

use std::sync::Arc;

/// Keys per page. Measured on the snapshot-ladder workloads (see
/// DESIGN.md, "Copy-on-write snapshot pages"): smaller pages make every
/// clone copy more page pointers, larger ones make the first write after
/// a snapshot copy more bytes.
pub const PAGE_SLOTS: usize = 16;

// The presence mask is one `u64`.
const _: () = assert!(PAGE_SLOTS <= 64);

// nestlint: allow(no-nondeterminism) -- audited: pages are accessed
// point-wise by page index; the only iteration is the equality check,
// a conjunction over pages that hash order cannot change.
type PageTable<V> = std::collections::HashMap<u64, Arc<Page<V>>, PageHash>;

type PageHash = std::hash::BuildHasherDefault<PageHasher>;

/// Multiplicative hash of a page index. Page indices come from the
/// simulated program's own addresses, not from untrusted input, so
/// SipHash's flooding resistance buys nothing; the cheaper hash speeds
/// every DRAM access of the accelerated mode. It is also unseeded, so
/// table layout is the same in every process.
#[derive(Default)]
struct PageHasher(u64);

impl std::hash::Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0.rotate_left(5) ^ v).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
    fn finish(&self) -> u64 {
        self.0
    }
}

/// One page: `PAGE_SLOTS` values and a presence mask. Absent slots hold
/// `V::default()`, so the derived equality compares contents.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Page<V> {
    present: u64,
    slots: [V; PAGE_SLOTS],
}

/// A sparse `u64 → V` map stored in copy-on-write pages of
/// [`PAGE_SLOTS`] consecutive keys.
///
/// Cloning copies page pointers; the first write to a shared page copies
/// that page. Empty pages are dropped, and a running count keeps
/// [`len`](Self::len) O(1).
#[derive(Debug, Clone)]
pub struct PagedMap<V> {
    pages: PageTable<V>,
    len: usize,
}

impl<V> Default for PagedMap<V> {
    fn default() -> Self {
        PagedMap {
            pages: PageTable::default(),
            len: 0,
        }
    }
}

fn split(key: u64) -> (u64, usize) {
    (key / PAGE_SLOTS as u64, (key % PAGE_SLOTS as u64) as usize)
}

impl<V: Copy + Default> PagedMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        PagedMap::default()
    }

    /// The value at `key`, if present.
    pub fn get(&self, key: u64) -> Option<V> {
        let (page, slot) = split(key);
        let p = self.pages.get(&page)?;
        (p.present & (1 << slot) != 0).then(|| p.slots[slot])
    }

    /// Sets `key` to `value`, copying its page first if a snapshot
    /// still shares it.
    pub fn insert(&mut self, key: u64, value: V) {
        let (page, slot) = split(key);
        let p = Arc::make_mut(self.pages.entry(page).or_insert_with(|| {
            Arc::new(Page {
                present: 0,
                slots: [V::default(); PAGE_SLOTS],
            })
        }));
        if p.present & (1 << slot) == 0 {
            p.present |= 1 << slot;
            self.len += 1;
        }
        p.slots[slot] = value;
    }

    /// Removes `key`. A page left empty is dropped; an absent key
    /// copies nothing.
    pub fn remove(&mut self, key: u64) {
        let (page, slot) = split(key);
        let Some(shared) = self.pages.get_mut(&page) else {
            return;
        };
        if shared.present & (1 << slot) == 0 {
            return;
        }
        self.len -= 1;
        if shared.present == 1 << slot {
            self.pages.remove(&page);
            return;
        }
        let p = Arc::make_mut(shared);
        p.present &= !(1 << slot);
        p.slots[slot] = V::default();
    }

    /// Number of present keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no key is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl<V: PartialEq> PartialEq for PagedMap<V> {
    /// Content equality. Pages still shared between the two maps compare
    /// by pointer.
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.pages.len() == other.pages.len()
            // nestlint: allow(determinism-taint) -- a conjunction over pages; iteration order cannot change it
            && self.pages.iter().all(|(k, p)| {
                other
                    .pages
                    .get(k)
                    .is_some_and(|q| Arc::ptr_eq(p, q) || p == q)
            })
    }
}

impl<V: Eq> Eq for PagedMap<V> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_shares_pages_until_written() {
        let mut a = PagedMap::new();
        for k in 0..64 {
            a.insert(k, k + 1);
        }
        let snap = a.clone();
        a.insert(3, 99);
        assert_eq!(snap.get(3), Some(4));
        assert_eq!(a.get(3), Some(99));
        let (p0, p1) = (&a.pages[&0], &snap.pages[&0]);
        assert!(!Arc::ptr_eq(p0, p1), "written page was copied");
        assert!(
            Arc::ptr_eq(&a.pages[&1], &snap.pages[&1]),
            "others stay shared"
        );
    }

    #[test]
    fn remove_keeps_count_and_drops_empty_pages() {
        let mut m = PagedMap::new();
        m.insert(5, 1u64);
        m.insert(6, 2);
        m.remove(5);
        m.remove(5);
        m.remove(1_000);
        assert_eq!(m.len(), 1);
        m.remove(6);
        assert!(m.is_empty());
        assert!(m.pages.is_empty());
    }

    #[test]
    fn equality_ignores_history() {
        let mut a = PagedMap::new();
        a.insert(1, 7u64);
        a.insert(2, 8);
        a.remove(2);
        let mut b = PagedMap::new();
        b.insert(1, 7);
        assert_eq!(a, b);
        b.insert(PAGE_SLOTS as u64 + 1, 0);
        assert_ne!(a, b, "a present default value differs from absent");
    }
}
